"""The table of identities that `verify` checks: its rows pinned map by
map, and the price of a whole report, taken before its first row."""

import hashlib
import inspect
import json
import re
from itertools import islice

import surfgraph as sg
import surfgraph.identities as identities
from surfgraph import CorpusSpec, cli, enumeration, generate, guards, reciprocity
from mapzoo import KITE, TRIANGLE, TWO_COMPONENTS, fresh

KINDS = ("tension", "flow", "local-tension", "balanced-flow")

# Every row of a report, in order; the integral row runs on maps with at
# most four edges.
ROWS = [
    "tension of map equals balanced-flow of dual",
    "flow of map equals local-tension of dual",
    "local-tension of map equals flow of dual",
    "balanced-flow of map equals tension of dual",
    "|tension polynomial at -1| counts ao orientations",
    "|flow polynomial at -1| counts tco orientations",
    "|local-tension polynomial at -1| counts bao orientations",
    "|balanced-flow polynomial at -1| counts tbo orientations",
    "signed tension polynomial at -k counts reciprocity pairs",
    "signed flow polynomial at -k counts reciprocity pairs",
    "signed local-tension polynomial at -k counts reciprocity pairs",
    "signed balanced-flow polynomial at -k counts reciprocity pairs",
    "|integral local-tension quasipolynomial at -k| counts compatible pairs",
    "|dual tension polynomial at -1| counts totally bi-walkable orientations",
    "every face is the unique cw face of |dual tension constant term| orientations",
    "cw-face histogram matches the subset-sum formula",
    "dual orientations of bao maps are exactly the tco maps of the dual",
    "dual orientations of ao maps are exactly the tbo maps of the dual",
]
INTEGRAL = ROWS[12]

# sha256 (first 16 hex digits) of each map's rows from cli._verify_graph(g,
# 3) - name, k_range, lhs, rhs, pass - and of its `reciprocity` outputs for
# each kind at k = 1..3, by canonical code for the census maps.
PINS = {
    "7c31": "5d74a7334e2be21b",
    "302c312c312c307c30": "0091a584f9444ba3",
    "312c312c302c307c30": "5c11751adf5dff90",
    "302c312c322c302c312c332c332c327c30": "d700c6896e7d6882",
    "302c312c322c302c332c332c312c327c30": "b37ca1eee46bf3eb",
    "312c312c322c302c332c332c302c327c30": "914ca91ab2cf9fbb",
    "312c322c302c332c332c302c322c317c30": "37606bd1f84e105b",
    "312c322c322c332c332c302c302c317c30": "4d4ac75e2a0b6bcd",
    "302c312c322c302c312c332c342c322c332c352c352c347c30": "4f7d4e70f00286b0",
    "302c312c322c302c312c332c342c322c352c352c332c347c30": "b37ca1eee46bf3eb",
    "302c312c322c302c332c332c342c322c312c352c352c347c30": "b37ca1eee46bf3eb",
    "302c312c322c302c332c332c342c322c352c352c312c347c30": "67edc5ae49beb106",
    "302c312c322c302c332c342c312c352c342c322c352c337c30": "4f7d4e70f00286b0",
    "302c312c322c302c332c342c312c352c352c322c342c337c30": "eee9b96f2b031edc",
    "302c312c322c302c332c342c342c352c312c322c352c337c30": "b37ca1eee46bf3eb",
    "302c312c322c302c332c342c342c352c352c322c312c337c30": "bf1b405fcdecd8d4",
    "302c312c322c302c332c342c352c352c312c322c342c337c30": "67edc5ae49beb106",
    "312c312c322c302c302c332c342c322c352c352c332c347c30": "67edc5ae49beb106",
    "312c312c322c302c332c332c342c322c352c352c302c347c30": "c1b70b0140006463",
    "312c312c322c302c332c342c302c352c352c322c342c337c30": "914ca91ab2cf9fbb",
    "312c312c322c302c332c342c342c352c352c322c302c337c30": "57d1c34008578075",
    "312c312c322c302c332c342c352c352c302c322c342c337c30": "3c14e18f4ddc386f",
    "312c322c302c332c342c302c352c312c322c352c332c347c30": "c60cbb54a285b338",
    "312c322c302c332c342c302c352c312c332c352c322c347c30": "16768d123e04f660",
    "312c322c322c332c342c302c352c312c332c352c302c347c30": "7582a278123eac03",
    "312c322c332c342c342c302c302c352c352c312c322c337c30": "e43ddebc96547545",
    "312c322c332c342c342c302c322c352c352c312c302c337c30": "1ced135cdf110e68",
    "312c322c332c342c352c302c302c352c322c312c342c337c30": "8d588c6917ff30c3",
    "KITE": "7e5e366acdca56cc",
    "TRIANGLE": "c60cbb54a285b338",
    "TWO_COMPONENTS": "baafca467339e707",
}


def _pinned_maps():
    maps = [(sg.canonical_code(g).hex(), g) for m in range(4) for g in generate(CorpusSpec(edges=m))]
    return maps + [("KITE", KITE), ("TRIANGLE", TRIANGLE), ("TWO_COMPONENTS", TWO_COMPONENTS)]


def _reciprocity(capsys, path, kind, k):
    code = cli.main(["reciprocity", str(path), "--kind", kind, "--k", str(k)])
    out, err = capsys.readouterr()
    return [code, out, err]


def test_the_rows_of_every_small_map_are_pinned(capsys, tmp_path):
    digests = {}
    for label, g in _pinned_maps():
        rows = [
            [r["identity"], r["k_range"], r["lhs"], r["rhs"], r["pass"]]
            for r in cli._verify_graph(g, 3)["identities"]
        ]
        names = [name for name, *_ in rows]
        assert names == [n for n in ROWS if n != INTEGRAL or g.num_edges <= 4], label
        path = tmp_path / "map.json"
        path.write_text(sg.dumps(g))
        pairs = [_reciprocity(capsys, path, kind, k) for kind in KINDS for k in (1, 2, 3)]
        text = json.dumps([rows, pairs])
        digests[label] = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digests == PINS


def test_the_integral_row_runs_on_maps_with_at_most_four_edges(corpus):
    maps = [*corpus, *islice(generate(CorpusSpec(edges=5)), 20), KITE, TWO_COMPONENTS]
    for g in maps:
        names = [r["identity"] for r in cli._verify_graph(g, 1)["identities"]]
        assert (INTEGRAL in names) == (g.num_edges <= 4), g.num_edges
    assert {g.num_edges for g in maps} == {0, 1, 2, 3, 4, 5, 6}


def _dp(*args, **kw) -> tuple:
    """A check_dp or _dp_price call's DP: its arguments other than spent."""
    bound = inspect.signature(guards.check_dp).bind(*args, **kw)
    bound.apply_defaults()
    bound.arguments.pop("spent")
    return tuple(bound.arguments.values())


def test_a_report_prices_every_dp_its_rows_run(corpus, monkeypatch):
    # The rows price each DP again before every lookup, so on any table the
    # DPs they price are the DPs they may run.
    ran, priced = set(), set()

    def spy(log, real):
        return lambda *args, **kw: log.add(_dp(*args, **kw)) or real(*args, **kw)

    for module in (enumeration, reciprocity):
        monkeypatch.setattr(module, "check_dp", spy(ran, guards.check_dp))
    monkeypatch.setattr(identities, "_dp_price", spy(priced, guards._dp_price))
    for g in [fresh(h) for h in (*corpus, KITE, TWO_COMPONENTS)]:
        ran.clear()
        priced.clear()
        cli._verify_graph(g, 3)
        assert ran <= priced
        # beyond them only the box DPs of the periods past the fitted one
        assert all(boxes > 1 for *_, boxes, _ in priced - ran)


# The E = 6 map of the seed-1 `frontier` benchmark ladder, and a seed-1
# ladder map with E = 14 and genus 1 (perfbench/maps.py, salt "ladder").
FRONTIER_6 = {
    "sigma": [[7, 2, 9], [0, 11, 5], [8, 1, 6], [3, 4, 10]],
    "edges": [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11]],
}
LADDER_14 = {
    "sigma": [[4, 3, 1], [6, 25, 20], [7, 9, 11, 16, 27, 0, 14], [15, 2, 22], [19, 24, 26, 5, 23],
              [8, 13, 10], [18, 17, 12, 21]],
    "edges": [[2 * e, 2 * e + 1] for e in range(14)],
}


def test_a_report_too_large_in_all_is_refused_before_any_dp(capsys, tmp_path, monkeypatch):
    # Each DP alone is under the guard: summed over both sides of every row
    # and every k, they are not.  The refusal names the number of DPs and
    # their total, the sum of the prices of every row's DPs: at kmax 29 the
    # E = 6 map's report prices about 1.07e8 steps (kmax 28: 8.7e7), and
    # the E = 14 map's at kmax 10 about 1.38e8.
    dps, prices = [], []
    for module in (enumeration, reciprocity):
        real = module._frontier
        monkeypatch.setattr(module, "_frontier", lambda *a, real=real, **kw: dps.append(a) or real(*a, **kw))
    real_price = guards._dp_price
    monkeypatch.setattr(identities, "_dp_price", lambda *dp: prices.append(real_price(*dp)) or prices[-1])
    path = tmp_path / "map.json"
    for doc, kmax, count, total in (
        (FRONTIER_6, 100, 808, "1.70e+11"),
        (FRONTIER_6, 29, 240, "1.07e+08"),
        (LADDER_14, 10, 88, "1.38e+08"),
    ):
        prices.clear()
        path.write_text(json.dumps(doc))
        code = cli.main(["verify", str(path), "--kmax", str(kmax)])
        out, err = capsys.readouterr()
        assert code == 3 and out == "" and dps == [], (kmax, err)
        named = re.fullmatch(
            rf"guard: the identities at kmax {kmax}, (\d+) frontier DPs priced before the first runs, "
            r"about (\d+) steps in all, exceeds the 100000000 guard; set SURFGRAPH_GUARD_OVERRIDE=1 to force\n",
            err,
        )
        assert named, err
        n, steps = map(int, named.groups())
        assert (n, steps) == (len(prices), sum(prices)) and n == count, kmax
        assert f"{steps:.2e}" == total, (kmax, steps)
    # the same spy sees an admitted report run its DPs
    path.write_text(json.dumps(FRONTIER_6))
    assert cli.main(["verify", str(path), "--kmax", "3"]) == 0 and dps
