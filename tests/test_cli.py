"""Command-line interface: outputs, exit codes, determinism."""

import argparse
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import surfgraph as sg
from surfgraph import OrientationClass, build, cli, count_class, dual, ribbonmap
from mapzoo import (
    BRIDGE,
    ISOLATED,
    KITE,
    LOOP,
    TORUS,
    TRIANGLE,
    TWO_COMPONENTS,
    disjoint_union,
)


def run(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejections exit directly
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, g in {
        "torus": TORUS,
        "triangle": TRIANGLE,
        "bridge": BRIDGE,
        "loop": LOOP,
        "kite": KITE,
    }.items():
        p = tmp_path / f"{name}.json"
        p.write_text(sg.dumps(g))
        paths[name] = str(p)
    return paths


def test_info(capsys, files, monkeypatch):
    code, out, err = run(capsys, ["info", files["torus"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == 1 and doc["faces"] == 1 and doc["genus"] == 1
    assert doc["single_face_edges"] == [0, 1] and doc["bridges"] == []
    assert "V=1" in err
    for argv in (["info", "-"], ["info"]):  # the map from stdin
        monkeypatch.setattr(sys, "stdin", io.StringIO(sg.dumps(TORUS)))
        assert run(capsys, argv)[:2] == (0, out)


def test_dual_to_file(capsys, files, tmp_path):
    out_path = tmp_path / "dual.json"
    code, out, _ = run(capsys, ["dual", files["triangle"], "--out", str(out_path)])
    assert code == 0 and out == ""
    assert sg.loads(out_path.read_text()) == dual(TRIANGLE)


def test_count(capsys, files):
    for cls, expect in (("ao", 0), ("tco", 4), ("bao", 4), ("tbo", 0)):
        code, out, _ = run(capsys, ["count", "--class", cls, files["torus"]])
        assert code == 0
        assert json.loads(out) == {"class": cls, "count": expect}


def test_poly(capsys, files):
    code, out, _ = run(capsys, ["poly", "--kind", "tension", files["triangle"]])
    assert code == 0
    assert json.loads(out)["coefficients"] == [2, -3, 1]


def test_integral(capsys, files):
    code, out, _ = run(
        capsys, ["integral", "--kind", "local-tension", "--k", "3", files["torus"]]
    )
    assert code == 0
    assert json.loads(out)["count"] == 16
    for name, g in (("torus", TORUS), ("triangle", TRIANGLE), ("kite", KITE)):
        code, out, _ = run(capsys, ["integral", "--kind", "flow", "--k", "2", files[name]])
        assert code == 0 and json.loads(out)["count"] == sg.count_integral_flows(g, 2)


def test_integral_guard_admits_what_the_join_reads(capsys, tmp_path):
    # 7 loops at k = 8: 15^7 > 10^8 vectors in the box, but the join reads
    # 14^3 + 14^4 half-rows; each loop bounds a face alone
    path = tmp_path / "bouquet.json"
    path.write_text(sg.dumps(build(14, [tuple(range(14))], [(2 * i, 2 * i + 1) for i in range(7)])))
    code, out, _ = run(capsys, ["integral", "--kind", "local-tension", "--k", "8", str(path)])
    assert code == 0 and json.loads(out)["count"] == 0


def test_integral_rejects_other_kinds(capsys, files):
    code, _, err = run(
        capsys, ["integral", "--kind", "balanced-flow", "--k", "2", files["torus"]]
    )
    assert code == 2


def test_reciprocity(capsys, files):
    code, out, _ = run(
        capsys, ["reciprocity", "--kind", "tension", "--k", "2", files["bridge"]]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pair_count"] == 3 and doc["match"] is True


def test_reciprocity_past_the_assignment_guard(capsys, files):
    # 50^6 assignments on the kite pass 10^8, but the pairs are read off one
    # polynomial per kind, with no scan at k = 50
    for kind in ("tension", "flow", "local-tension", "balanced-flow"):
        code, out, _ = run(
            capsys, ["reciprocity", "--kind", kind, "--k", "50", files["kite"]]
        )
        assert code == 0, kind
        assert json.loads(out)["match"] is True, kind


def test_witness(capsys, files):
    code, out, _ = run(capsys, ["witness", files["triangle"], "++-"])
    assert code == 0
    vec = json.loads(out)["vector"]
    assert len(vec) == 3 and all(v.lstrip("-").isdigit() for v in vec)


def test_witness_rejects_non_bao(capsys, files):
    code, _, err = run(capsys, ["witness", files["loop"], "+"])
    assert code == 2
    assert "boundary" in err


def test_witness_takes_every_orientation(capsys, tmp_path, monkeypatch):
    # A two-edge star: every orientation is boundary acyclic, and its
    # witness vector is its sign vector.
    doc = json.dumps({"sigma": [[0, 2], [1], [3]], "edges": [[0, 1], [2, 3]]})
    path, target = tmp_path / "star.json", tmp_path / "out.json"
    path.write_text(doc)
    reads = []

    class Stdin(io.StringIO):
        def read(self, *args):
            reads.append(args)
            return super().read(*args)

    monkeypatch.setattr(sys, "stdin", Stdin(""))
    for words, vector in (
        (["-+"], ["-1", "1"]),
        (["--"], ["-1", "-1"]),
        (["--", "--"], ["-1", "-1"]),
        (["--", "-+"], ["-1", "1"]),
        (["\u2212\u2212"], ["-1", "-1"]),
        (["+\u2212"], ["1", "-1"]),
    ):
        code, out, _ = run(capsys, ["witness", str(path), *words])
        assert code == 0 and json.loads(out)["vector"] == vector, words
    # --out before and after the orientation is an option, not signs
    for argv in (
        ["--out", str(target), str(path), "--"],
        [str(path), "--out", str(target), "--"],
        [str(path), "--", "--out", str(target)],
        [str(path), "--", "--", "--out", str(target)],
    ):
        target.unlink(missing_ok=True)
        code, out, _ = run(capsys, ["witness", *argv])
        assert code == 0 and out == "", argv
        assert json.loads(target.read_text())["vector"] == ["-1", "-1"], argv
    # no path after --out, or another word past the orientation: refused
    for argv in (
        [str(path), "-+", "--out"],
        [str(path), "-+", "x"],
        [str(path), "-+", "--ou", "x"],
        [str(path), "-+", f"--out={target}"],
    ):
        code, out, err = run(capsys, ["witness", *argv])
        assert code == 2 and out == "" and err.startswith("error:"), argv
    # a map path given: stdin is never read; with "-" or none, it is
    assert reads == []
    for argv in (["-", "--"], ["--", "--"]):
        monkeypatch.setattr(sys, "stdin", Stdin(doc))
        code, out, _ = run(capsys, ["witness", *argv])
        assert code == 0 and json.loads(out)["vector"] == ["-1", "-1"], argv
    assert len(reads) == 2


def test_cw_hist(capsys, files):
    code, out, _ = run(capsys, ["cw-hist", files["kite"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["histogram"] == {"1": 24} and doc["match"] is True


def test_cw_hist_formula_is_priced_as_a_subset_polynomial(capsys, tmp_path, monkeypatch):
    # The closed formula walks the subset census of g*, as the balanced-flow
    # polynomial does: the planar 17-loop bouquet (3^17 > 10^8 steps) is
    # refused before the walk starts, the 16-loop one is not
    walks = []
    real = ribbonmap._census_walk
    monkeypatch.setattr(ribbonmap, "_census_walk", lambda h: walks.append(h.num_edges) or real(h))
    path = tmp_path / "bouquet.json"
    for m in (17, 16):
        path.write_text(sg.dumps(build(2 * m, [tuple(range(2 * m))], [(2 * i, 2 * i + 1) for i in range(m)])))
        code, out, err = run(capsys, ["cw-hist", str(path)])
        if m == 17:
            assert code == 3 and out == "" and walks == []
            assert err.startswith("guard: subset-sum polynomial of 2^17 subsets"), err
        else:
            assert code == 0 and json.loads(out)["match"] is True and walks == [16]


def test_verify(capsys, files):
    code, out, _ = run(capsys, ["verify", files["torus"], "--kmax", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert len(doc["identities"]) == 18


def test_verify_passes_on_disconnected_maps(capsys, tmp_path):
    # No map with two or more components has an orientation with exactly
    # one cw face: each component of the dual has a sink of its own.
    for g in (ISOLATED, TWO_COMPONENTS, disjoint_union(TRIANGLE, TRIANGLE)):
        report = cli._verify_graph(g, 3)
        assert report["all_pass"], [row for row in report["identities"] if not row["pass"]]
    path = tmp_path / "isolated.json"
    path.write_text(sg.dumps(ISOLATED))
    code, out, _ = run(capsys, ["verify", str(path), "--kmax", "2"])
    assert code == 0 and json.loads(out)["all_pass"]


_BIJECTIONS = {
    "dual orientations of bao maps are exactly the tco maps of the dual": ("bao", "tco"),
    "dual orientations of ao maps are exactly the tbo maps of the dual": ("ao", "tbo"),
}


def test_class_bijection_rows_print_each_class_size(corpus):
    for g in [*(h for h in corpus if h.num_edges <= 3), KITE, TORUS, ISOLATED, TWO_COMPONENTS]:
        rows = [r for r in cli._verify_graph(g, 2)["identities"] if r["identity"] in _BIJECTIONS]
        assert [r["identity"] for r in rows] == list(_BIJECTIONS)
        for r in rows:
            cls, dual_cls = map(OrientationClass, _BIJECTIONS[r["identity"]])
            assert type(r["lhs"]) is int and r["lhs"] == count_class(g, cls)
            assert type(r["rhs"]) is int and r["rhs"] == count_class(dual(g), dual_cls)
            assert r["pass"]


def test_class_bijection_row_fails_on_unequal_masks(capsys, files, monkeypatch):
    # The row compares the masks, not their sizes: swap one orientation of
    # TCO(g*) for another, and that row alone fails, with equal sizes.
    from surfgraph import orientations

    real = orientations._class_mask
    triangle_dual = dual(TRIANGLE)

    def mask(h, cls):
        m = real(h, cls)
        if cls is OrientationClass.TCO and h == triangle_dual:
            return m ^ (m & -m) ^ (~m & (m + 1))  # lowest member out, lowest non-member in
        return m

    monkeypatch.setattr(orientations, "_class_mask", mask)
    code, out, err = run(capsys, ["verify", files["triangle"], "--kmax", "2"])
    assert code == 4
    failed = [r for r in json.loads(out)["identities"] if not r["pass"]]
    assert [r["identity"] for r in failed] == list(_BIJECTIONS)[:1]
    assert failed[0]["lhs"] == failed[0]["rhs"] == count_class(triangle_dual, OrientationClass.TCO)
    assert "FAIL dual orientations of bao maps" in err


def test_verify_is_deterministic(capsys, files):
    _, out1, _ = run(capsys, ["verify", files["triangle"], "--kmax", "2"])
    _, out2, _ = run(capsys, ["verify", files["triangle"], "--kmax", "2"])
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_s"), d2.pop("elapsed_s")
    assert d1 == d2


def test_batch(capsys):
    code, out, _ = run(capsys, ["batch", "--edges", "1", "--kmax", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["graphs"] == 2 and doc["all_pass"] is True


def test_batch_refuses_an_empty_corpus(capsys):
    # no summary, so no vacuous all_pass
    for argv, what in (
        (["--edges", "2", "--genus", "5"], "2 edges passes the filters genus=5, planar=None"),
        (["--edges", "3", "--planar", "--genus", "1", "--jobs", "2"], "genus=1, planar=True"),
    ):
        code, out, err = run(capsys, ["batch", *argv])
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and what in errors[0]
    code, out, _ = run(capsys, ["batch", "--edges", "0"])
    assert code == 0 and json.loads(out)["graphs"] == 1


def test_batch_worker_count_does_not_change_output(capsys):
    _, out1, _ = run(capsys, ["batch", "--edges", "2", "--kmax", "2", "--jobs", "1"])
    _, out2, _ = run(capsys, ["batch", "--edges", "2", "--kmax", "2", "--jobs", "2"])
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_s"), d2.pop("elapsed_s")
    assert d1 == d2


def test_batch_starts_no_more_workers_than_maps_or_cpus(capsys, monkeypatch):
    import concurrent.futures

    started = []

    class Pool:  # a pool in this process that records its worker count
        map = staticmethod(map)

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    outs = set()
    # --edges 1 has 2 maps, --edges 2 has 5
    for edges, jobs, cpus, workers in (
        ("1", "5000", 64, [2]),
        ("2", "5000", 3, [3]),
        ("2", "5000", None, []),
        ("2", "2", 1, []),
        ("2", "1", 64, []),
        ("2", "4", 64, [4]),
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        started.clear()
        code, out, _ = run(capsys, ["batch", "--edges", edges, "--kmax", "2", "--jobs", jobs])
        assert code == 0 and started == workers, (edges, jobs, cpus)
        doc = json.loads(out)
        doc.pop("elapsed_s")
        outs.add(json.dumps(doc))
    assert len(outs) == 2


def test_batch_over_labelled_maps_matches_verify_on_each(capsys, tmp_path):
    # Without dedupe two maps can share a canonical code, so the summary
    # also rests on the failures' stable sort by code.
    for m in (1, 2):
        summaries = []
        for jobs in ("1", "2"):
            argv = ["batch", "--no-dedupe", "--edges", str(m), "--kmax", "2", "--jobs", jobs]
            code, out, _ = run(capsys, argv)
            assert code == 0
            summaries.append(json.loads(out))
            summaries[-1].pop("elapsed_s")
        assert summaries[0] == summaries[1]
        _, out, _ = run(capsys, ["generate", "--no-dedupe", "--edges", str(m)])
        reports = []
        for i, line in enumerate(out.splitlines()):
            path = tmp_path / f"m{m}-{i}.json"
            path.write_text(line)
            code, report, _ = run(capsys, ["verify", "--kmax", "2", str(path)])
            assert code == 0
            reports.append(json.loads(report))
        if m == 2:
            assert len({r["graph"] for r in reports}) < len(reports)
        reports.sort(key=lambda r: r["graph"])
        assert summaries[0] == {
            "edges": m,
            "kmax": 2,
            "graphs": len(reports),
            "identities_checked": sum(len(r["identities"]) for r in reports),
            "failures": [
                {"graph": r["graph"], "identity": i["identity"], "lhs": i["lhs"], "rhs": i["rhs"]}
                for r in reports
                for i in r["identities"]
                if not i["pass"]
            ],
            "all_pass": all(r["all_pass"] for r in reports),
        }


def test_batch_keeps_no_finished_report(capsys, monkeypatch):
    # Each report is folded into the summary and dropped before the next
    # map is verified, so a batch does not grow with its census.
    class Report(dict):
        pass

    made, alive = [], []

    def verify(g, kmax):
        alive.append(sum(ref() is not None for ref in made))
        row = {"identity": "x", "k_range": None, "lhs": 1, "rhs": 1, "pass": True}
        report = Report(graph=cli._code_hex(g), identities=[row], all_pass=True, elapsed_s=0.0)
        made.append(weakref.ref(report))
        return report

    monkeypatch.setattr(cli, "_verify_graph", verify)
    code, out, _ = run(capsys, ["batch", "--edges", "3", "--jobs", "1"])
    assert code == 0 and json.loads(out)["identities_checked"] == 20
    assert alive == [0] * 20


def test_batch_failures_are_stably_sorted_by_graph(capsys, monkeypatch):
    # Labelled maps share codes: failures sort by code, ties in corpus order.
    codes = []

    def verify(g, kmax):
        codes.append(cli._code_hex(g))
        rows = [
            {"identity": f"row {j}", "k_range": None, "lhs": len(codes), "rhs": j, "pass": False}
            for j in (0, 1)
        ]
        return {"graph": codes[-1], "identities": rows, "all_pass": False, "elapsed_s": 0.0}

    monkeypatch.setattr(cli, "_verify_graph", verify)
    code, out, err = run(capsys, ["batch", "--no-dedupe", "--edges", "2", "--jobs", "1"])
    assert code == 4 and f"{2 * len(codes)} failures" in err
    assert len(set(codes)) < len(codes) and codes != sorted(codes)
    in_order = [
        {"graph": c, "identity": f"row {j}", "lhs": n, "rhs": j}
        for n, c in enumerate(codes, 1)
        for j in (0, 1)
    ]
    assert json.loads(out)["failures"] == sorted(in_order, key=lambda f: f["graph"])


def test_generate_ndjson(capsys, tmp_path):
    code, out, err = run(capsys, ["generate", "--edges", "2"])
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 5
    assert all(sg.from_json_dict(json.loads(line)) for line in lines)
    assert "5 maps" in err
    path = tmp_path / "maps.ndjson"
    code, out_file, _ = run(capsys, ["generate", "--edges", "2", "--out", str(path)])
    assert code == 0 and out_file == "" and path.read_text() == out


def test_parse_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(capsys, ["info", str(bad)])[0] == 2
    assert run(capsys, ["info", str(tmp_path / "missing.json")])[0] == 2
    assert run(capsys, ["witness", str(tmp_path / "missing.json"), "+"])[0] == 2


def test_guards_exit_3(capsys, tmp_path):
    big = build(44, [tuple(range(44))], [(2 * i, 2 * i + 1) for i in range(22)])
    p = tmp_path / "big.json"
    p.write_text(sg.dumps(big))
    assert run(capsys, ["count", "--class", "ao", str(p)])[0] == 3
    assert run(capsys, ["batch", "--edges", "7"])[0] == 3


def test_kmax_below_one_exits_2(capsys, files):
    for kmax in ("0", "-2", "x"):
        code, _, err = run(capsys, ["verify", files["torus"], "--kmax", kmax])
        assert code == 2 and "--kmax" in err
        code, _, err = run(capsys, ["batch", "--edges", "1", "--kmax", kmax])
        assert code == 2 and "--kmax" in err


def test_batch_jobs_below_one_exits_2(capsys):
    code, out, err = run(capsys, ["batch", "--edges", "1", "--jobs", "0"])
    assert code == 2 and out == ""
    assert "--jobs" in err


def test_non_integer_darts_exit_2(capsys, tmp_path):
    for doc in (
        {"sigma": [[False, 2, True, 3]], "edges": [[False, True], [2, 3]]},
        {"sigma": [[0, 2, 1, 3]], "edges": [["0", 1.0], [2, 3]]},
    ):
        p = tmp_path / "map.json"
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["info", str(p)])
        assert code == 2 and out == "" and err.startswith("error:")


def test_cross_check_failure_exits_4(capsys, files, monkeypatch):
    from surfgraph import orientations

    real = orientations._strongly_connected
    monkeypatch.setattr(
        orientations,
        "_strongly_connected",
        lambda h: orientations._full(h.num_edges) ^ real(h),
    )
    code, out, err = run(capsys, ["count", "--class", "tco", files["torus"]])
    assert code == 4 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def _loaded_by_cli_import(module: str, *calls: list[str]) -> str:
    """Whether module is loaded after importing the CLI and running calls,
    each an argument list that must exit 0, in one fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, surfgraph.cli\n"
    code += "".join(f"assert surfgraph.cli.main({argv!r}) == 0\n" for argv in calls)
    done = subprocess.run(
        [sys.executable, "-c", code + f"print({module!r} in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    return done.stdout.strip() or done.stderr


def test_package_import_leaves_numpy_unloaded():
    # numpy serves only the tests' oracles
    assert _loaded_by_cli_import("numpy") == "False"


def test_cli_import_leaves_process_pool_unloaded():
    # Only batch with more than one job starts a pool.
    assert _loaded_by_cli_import("concurrent.futures.process") == "False"


def test_poly_past_four_edges_leaves_numpy_unloaded(tmp_path):
    # The k = 2, 3 checks of every polynomial are DP counts, on small maps
    # as on large ones: no size loads numpy.
    calls = []
    for name, g in (("kite", KITE), ("two", TWO_COMPONENTS), ("triangle", TRIANGLE)):
        path = tmp_path / f"{name}.json"
        path.write_text(sg.dumps(g))
        kinds = sg.enumeration.KINDS
        calls.append([["poly", str(path), "--kind", kind, "--out", os.devnull] for kind in kinds])
    assert [KITE.num_edges, TWO_COMPONENTS.num_edges] == [6, 5]
    assert _loaded_by_cli_import("numpy", *calls[0], *calls[1]) == "False"
    assert _loaded_by_cli_import("numpy", *calls[2]) == "False"


def test_class_counts_and_cw_hist_leave_numpy_unloaded(tmp_path):
    # Class masks are bits of one int; verify's counts are frontier DPs.
    calls = []
    for name, g in (("triangle", TRIANGLE), ("kite", KITE), ("two", TWO_COMPONENTS)):
        path = tmp_path / f"{name}.json"
        path.write_text(sg.dumps(g))
        for cls in sg.OrientationClass:
            calls.append(["count", "--class", cls.value, str(path), "--out", os.devnull])
        calls.append(["cw-hist", str(path), "--out", os.devnull])
    assert _loaded_by_cli_import("numpy", *calls) == "False"
    verify = ["verify", str(tmp_path / "triangle.json"), "--kmax", "2", "--out", os.devnull]
    assert _loaded_by_cli_import("numpy", verify) == "False"


def test_class_counts_and_cw_hist_load_only_what_they_run(tmp_path):
    counts, hists = [], []
    for name, g in (("triangle", TRIANGLE), ("kite", KITE), ("two", TWO_COMPONENTS)):
        path = tmp_path / f"{name}.json"
        path.write_text(sg.dumps(g))
        for cls in ("ao", "tco", "bao", "tbo"):
            counts.append(["count", "--class", cls, str(path), "--out", os.devnull])
        hists.append(["cw-hist", str(path), "--out", os.devnull])
    # dataclasses would pull in inspect; the records are plain classes
    for module in ("surfgraph.enumeration", "surfgraph.generator", "dataclasses"):
        assert _loaded_by_cli_import(module, *counts, *hists) == "False", module
    # only cw-hist's generating polynomial needs the coefficient helpers
    for module in ("surfgraph.polynomials", "fractions"):
        assert _loaded_by_cli_import(module, *counts) == "False", module


def test_cw_hist_and_poly_leave_fractions_unloaded(tmp_path):
    # The integer coefficient helpers and the subset sums build no Fraction
    path = tmp_path / "kite.json"
    path.write_text(sg.dumps(KITE))
    hist = ["cw-hist", str(path), "--out", os.devnull]
    polys = [["poly", str(path), "--kind", kind, "--out", os.devnull] for kind in sg.enumeration.KINDS]
    assert KITE.num_edges == 6
    for module in ("fractions", "decimal"):
        assert _loaded_by_cli_import(module, hist) == "False", module
        assert _loaded_by_cli_import(module, *polys) == "False", module
    # verify loads it only for the quasipolynomial fit, on maps with E <= 4
    verify = ["verify", str(path), "--kmax", "1", "--out", os.devnull]
    assert _loaded_by_cli_import("fractions", verify) == "False"
    tri = tmp_path / "triangle.json"
    tri.write_text(sg.dumps(TRIANGLE))
    verify = ["verify", str(tri), "--kmax", "1", "--out", os.devnull]
    assert _loaded_by_cli_import("fractions", verify) == "True"


def test_every_command_runs_without_numpy(tmp_path):
    # A fresh interpreter where importing numpy fails runs every subcommand
    kite, tri = tmp_path / "kite.json", tmp_path / "triangle.json"
    kite.write_text(sg.dumps(KITE))
    tri.write_text(sg.dumps(TRIANGLE))
    bao = sg.enumerate_class(TRIANGLE, sg.OrientationClass.BAO)[0]
    quiet = ["--out", os.devnull]
    calls = [["info", str(kite)], ["dual", str(kite)], ["cw-hist", str(kite)]]
    calls += [["count", "--class", cls, str(kite)] for cls in ("ao", "tco", "bao", "tbo")]
    calls += [["poly", str(tri), "--kind", kind] for kind in sg.enumeration.KINDS]
    calls += [["integral", str(kite), "--kind", kind, "--k", "3"] for kind in ("local-tension", "flow")]
    calls += [["reciprocity", str(kite), "--kind", kind, "--k", "2"] for kind in sg.enumeration.KINDS]
    calls += [
        ["witness", str(tri), sg.orientation_to_string(bao)],
        ["verify", str(tri)],
        ["verify", str(kite), "--kmax", "2"],
        ["generate", "--edges", "3"],
        ["batch", "--edges", "3"],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys\nsys.modules['numpy'] = None\nimport surfgraph.cli\n"
    code += "".join(f"assert surfgraph.cli.main({argv + quiet!r}) == 0, {argv!r}\n" for argv in calls)
    code += "print(sys.modules['numpy'])"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0 and done.stdout.strip() == "None", done.stderr[-2000:]


def test_poly_leaves_the_generator_unloaded(tmp_path):
    path = tmp_path / "kite.json"
    path.write_text(sg.dumps(KITE))
    kinds = sg.enumeration.KINDS
    calls = [["poly", str(path), "--kind", kind, "--out", os.devnull] for kind in kinds]
    for module in ("surfgraph.generator", "dataclasses"):
        assert _loaded_by_cli_import(module, *calls) == "False", module


def test_counting_commands_load_no_reciprocity_code(tmp_path):
    # poly is a subset sum checked by DP counts: no orientation class, pair
    # count or canonical code; a class count or histogram runs no assignment count
    polys, counts = [], []
    for name, g in (("kite", KITE), ("two", TWO_COMPONENTS)):
        path = tmp_path / f"{name}.json"
        path.write_text(sg.dumps(g))
        quiet = ["--out", os.devnull]
        polys += [["poly", str(path), "--kind", kind, *quiet] for kind in sg.enumeration.KINDS]
        counts += [["count", "--class", cls, str(path), *quiet] for cls in ("ao", "tco", "bao", "tbo")]
        counts.append(["cw-hist", str(path), *quiet])
    assert [KITE.num_edges, TWO_COMPONENTS.num_edges] == [6, 5]
    for module in ("surfgraph.orientations", "surfgraph.reciprocity", "surfgraph.generator"):
        assert _loaded_by_cli_import(module, *polys) == "False", module
    for module in ("surfgraph.reciprocity", "surfgraph.enumeration"):
        assert _loaded_by_cli_import(module, *counts) == "False", module
    # the same probe sees verify load the reciprocity side
    verify = ["verify", str(tmp_path / "kite.json"), "--kmax", "1", "--out", os.devnull]
    assert _loaded_by_cli_import("surfgraph.reciprocity", verify) == "True"


def test_package_import_loads_no_submodule():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, surfgraph\nprint([m for m in sys.modules if m.startswith('surfgraph.')])"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert done.stdout.strip() == "[]", done.stderr


PUBLIC_API = [
    "BadModulus", "BadPairing", "Cocycle", "CorpusSpec", "Cycle", "DuplicateEdge",
    "EulerData", "GraphMismatch", "InvalidCycle", "NoFit", "NonIntegerCoefficients",
    "NonPermutation", "NotBoundaryAcyclic", "OddDartCount", "Orientation",
    "OrientationClass", "QuasiPolynomial", "RibbonGraph", "SurfGraphError", "TooLarge",
    "UnknownEdge", "UnknownFace", "abstract_contract", "all_orientations",
    "bao_witness_vector", "boundary", "build", "canonical_code", "check_cycle",
    "cocycles", "contract", "corpus_stats", "count_balanced_flows", "count_class",
    "count_flows", "count_integral_flows", "count_integral_local_tensions",
    "count_local_tensions", "count_nz_balanced_flows", "count_nz_flows",
    "count_nz_local_tensions", "count_nz_tensions", "count_tensions", "cw_faces",
    "cycles", "delete", "double_slash", "dual", "dual_orientation", "dumps",
    "enumerate_class", "enumeration", "errors", "euler_data", "face_matrix",
    "fit_quasipolynomial", "from_json_dict", "fundamental_cycles", "generate",
    "generator", "guards", "integral_local_tension_reciprocity_pairs", "interpolate",
    "is_acyclic", "is_boundary_acyclic", "is_separating", "is_totally_biwalkable",
    "is_totally_cyclic", "loads", "orientation_from_string", "orientation_to_string",
    "orientations", "poly_balanced_flow", "poly_eval", "poly_flow", "poly_local_tension",
    "poly_tension", "polynomials", "quasi_integral_flows", "quasi_integral_local_tensions",
    "reciprocity", "reciprocity_pairs_balanced_flow", "reciprocity_pairs_flow",
    "reciprocity_pairs_local_tension", "reciprocity_pairs_tension", "ribbonmap",
    "signed_boundary", "tbo_generating_poly_formula", "tbo_generating_polynomial",
    "tbo_histogram", "to_json_dict",
]

MODULES = [
    "enumeration", "errors", "generator", "guards", "orientations", "polynomials", "reciprocity", "ribbonmap",
]


def test_public_api_is_pinned():
    assert sg.__all__ == PUBLIC_API
    star: dict = {}
    exec("from surfgraph import *", star)
    listed = dir(sg)
    for name in PUBLIC_API:
        value = getattr(sg, name)
        assert star[name] is value, name
        assert name in listed, name
        if name in MODULES:
            assert value is sys.modules[f"surfgraph.{name}"]
    assert sg.enumeration.count_class is sg.orientations.count_class is sg.count_class
    with pytest.raises(AttributeError, match="no_such_name"):
        sg.no_such_name


def test_every_export_is_served_from_the_module_that_defines_it():
    for key, names in sg._EXPORTS.items():
        module = getattr(sg, key)
        for name in names:
            value = getattr(sg, name)
            assert value.__module__ == f"surfgraph.{key}", name
            scope: dict = {}
            exec(f"from surfgraph.{key} import {name}", scope)
            assert scope[name] is value is getattr(module, name), name


def _choices(command: str, dest: str) -> list:
    top = cli._build_parser()
    (commands,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    (action,) = [a for a in commands.choices[command]._actions if a.dest == dest]
    return list(action.choices)


def test_parser_choices_match_the_library_tables():
    kinds = list(sg.enumeration.KINDS)
    assert _choices("poly", "kind") == _choices("reciprocity", "kind") == kinds
    assert _choices("count", "cls") == [c.value for c in sg.OrientationClass]
