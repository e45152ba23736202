"""Command-line front end.

Machine-readable JSON goes to stdout, a human summary to stderr.  Exit
codes: 0 success, 2 parse or validation failure, 3 enumeration guard
exceeded (lift with SURFGRAPH_GUARD_OVERRIDE=1), 4 a verified identity
failed in `verify` or `batch`, or an internal cross-check between two
routes to the same quantity disagreed (one `error:` line on stderr).

This module keeps argument parsing, I/O and thin command bodies; the
identities of `verify`, `batch` and `reciprocity` are the table in
`identities`.  Every call pays interpreter start-up and imports against
a few milliseconds of work, so this module imports only `ribbonmap` and
`errors` at the top, and each command imports the modules it runs (the
README lists them).  The parser imports none: its `--kind` and `--class`
choices are literals, pinned by the tests to the library's tables.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time

from . import ribbonmap
from .errors import SurfGraphError, TooLarge


def _load_graph(path: str | None) -> ribbonmap.RibbonGraph:
    if path is None or path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return ribbonmap.from_json_dict(json.loads(text))


def _emit(obj, out: str | None = None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


# -- simple commands ----------------------------------------------------------


def cmd_info(args) -> int:
    from .generator import canonical_code

    g = _load_graph(args.map)
    d = g.euler
    info = {
        "vertices": d.v_count,
        "edges": d.e_count,
        "faces": d.f_count,
        "components": d.c,
        "genus": d.g,
        "isolated_vertices": g.isolated,
        "bridges": [e for e in range(g.num_edges) if g.is_bridge(e)],
        "single_face_edges": [
            e for e in range(g.num_edges) if g.is_coloop_edge(e)
        ],
        "canonical_code": canonical_code(g).hex(),
    }
    _emit(info, args.out)
    _say(
        f"V={d.v_count} E={d.e_count} F={d.f_count} "
        f"c={d.c} genus={d.g}"
    )
    return 0


def cmd_dual(args) -> int:
    g = _load_graph(args.map)
    _emit(ribbonmap.to_json_dict(ribbonmap.dual(g)), args.out)
    _say("dual written" + (f" to {args.out}" if args.out else ""))
    return 0


def cmd_count(args) -> int:
    from . import orientations

    g = _load_graph(args.map)
    cls = orientations.OrientationClass(args.cls)
    n = orientations.count_class(g, cls)
    _emit({"class": cls.value, "count": n}, args.out)
    _say(f"{cls.value}: {n}")
    return 0


def cmd_poly(args) -> int:
    from . import enumeration as en

    g = _load_graph(args.map)
    coeffs = en.POLY[args.kind](g)
    _emit({"kind": args.kind, "coefficients": coeffs}, args.out)
    _say(f"{args.kind} polynomial, ascending coefficients: {coeffs}")
    return 0


def cmd_integral(args) -> int:
    from . import reciprocity as rc

    g = _load_graph(args.map)
    if args.kind == "local-tension":
        n = rc.count_integral_local_tensions(g, args.k)
    else:  # the parser admits local-tension and flow only
        n = rc.count_integral_flows(g, args.k)
    _emit({"kind": args.kind, "k": args.k, "count": n}, args.out)
    _say(f"integral {args.kind} count at k={args.k}: {n}")
    return 0


def cmd_reciprocity(args) -> int:
    from .identities import SIGNED_PAIRS, Context

    g = _load_graph(args.map)
    row, c, ks = SIGNED_PAIRS[args.kind], Context(g), [args.k]
    (pairs,), (signed,) = row.rhs(c, ks), row.lhs(c, ks)
    verdict = signed == pairs
    _emit(
        {
            "kind": args.kind,
            "k": args.k,
            "pair_count": pairs,
            "signed_polynomial_value": signed,
            "match": verdict,
        },
        args.out,
    )
    _say(f"{args.kind} k={args.k}: pairs={pairs} signed poly={signed} "
         + ("MATCH" if verdict else "MISMATCH"))
    return 0 if verdict else 4


def cmd_witness(args) -> int:
    from . import orientations
    from . import reciprocity as rc

    # [MAP] [--] ORIENTATION, kept whole by the parser, with --out PATH
    # possibly among them; a "--" before the orientation is a separator.
    words, out = list(args.words), args.out
    if "--out" in words[:-1]:
        out = words.pop(words.index("--out") + 1)
        words.remove("--out")
    if len(words) > 1 and words[-2] == "--":
        del words[-2]
    if len(words) not in (1, 2):
        raise SurfGraphError(f"witness takes [MAP] ORIENTATION, got {words}")
    g = _load_graph(words[0] if len(words) == 2 else None)
    o = orientations.orientation_from_string(g, words[-1])
    vec = rc.bao_witness_vector(g, o)
    _emit({"vector": [str(x) for x in vec]}, out)
    _say(f"witness vector: {[str(x) for x in vec]}")
    return 0


def cmd_cw_hist(args) -> int:
    from . import orientations

    g = _load_graph(args.map)
    hist = orientations.tbo_histogram(g)
    formula = orientations.tbo_generating_poly_formula(g)
    ok = hist == {j: n for j, n in enumerate(formula) if n}
    _emit(
        {
            "histogram": {str(j): n for j, n in sorted(hist.items())},
            "formula_coefficients": formula,
            "match": ok,
        },
        args.out,
    )
    _say(f"cw-face histogram {dict(sorted(hist.items()))} vs formula {formula}: "
         + ("MATCH" if ok else "MISMATCH"))
    return 0 if ok else 4


def _corpus(args) -> list[ribbonmap.RibbonGraph]:
    """The generated maps; their count and generation time go to stderr."""
    from . import generator

    spec = generator.CorpusSpec(
        edges=args.edges,
        genus=args.genus,
        planar=args.planar,
        dedupe=not args.no_dedupe,
    )
    t0 = time.perf_counter()
    maps = list(generator.generate(spec))
    _say(f"generated {len(maps)} maps with {args.edges} edges in "
         f"{time.perf_counter() - t0:.3f}s")
    return maps


def cmd_generate(args) -> int:
    from . import generator

    maps = _corpus(args)
    lines = [json.dumps(ribbonmap.to_json_dict(g)) for g in maps]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    else:
        for line in lines:
            print(line)
    stats = generator.corpus_stats(maps)
    for key, n in stats.items():
        _say(f"  (V,E,F,c,g)={key}: {n}")
    return 0


# -- verification -------------------------------------------------------------


def _verify_graph(g: ribbonmap.RibbonGraph, kmax: int) -> dict:
    """Check every identity on one graph; report both sides of each."""
    from . import identities

    return identities.report(g, kmax)


def cmd_verify(args) -> int:
    from . import identities

    g = _load_graph(args.map)
    report = _verify_graph(g, args.kmax)
    _emit(report, args.out)
    _say(identities.summary(report))
    return 0 if report["all_pass"] else 4


def cmd_batch(args) -> int:
    maps = _corpus(args)
    if not maps:  # a summary of no maps would pass vacuously
        raise SurfGraphError(
            f"no map with {args.edges} edges passes the filters genus={args.genus}, "
            f"planar={args.planar}; nothing to verify"
        )
    # Popped in order, so each map and all it cached die once verified.
    maps.reverse()
    drained = (maps.pop() for _ in range(len(maps)))
    verify = functools.partial(_verify_graph, kmax=args.kmax)
    pool, run = contextlib.nullcontext(), map
    # A forked pool starts all its workers at once: no more than maps or CPUs.
    workers = min(args.jobs, len(maps), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: the pool pulls in multiprocessing, which no other
        # command needs.  It pickles the maps themselves.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        run = pool.map
    summary = {"edges": args.edges, "kmax": args.kmax, "graphs": 0, "identities_checked": 0}
    failures, elapsed = [], 0.0
    before = dict(ribbonmap._TRAFFIC)
    with pool:
        # Each report is folded in and dropped before the next map is verified.
        for r in run(verify, drained):
            summary["graphs"] += 1
            summary["identities_checked"] += len(r["identities"])
            elapsed += r["elapsed_s"]
            failures += (
                {"graph": r["graph"], "identity": i["identity"], "lhs": i["lhs"], "rhs": i["rhs"]}
                for i in r["identities"]
                if not i["pass"]
            )
            del r
    failures.sort(key=lambda f: f["graph"])  # stable: ties keep the corpus order
    summary.update(failures=failures, all_pass=not failures, elapsed_s=round(elapsed, 4))
    _emit(summary, args.out)
    _say(f"{summary['graphs']} graphs, {summary['identities_checked']} identities, "
         f"{len(failures)} failures")
    if workers == 1:  # verified here, so the tables' traffic is this batch's
        n = {key: ribbonmap._TRAFFIC[key] - before[key] for key in before}
        _say(f"graph tables: {n['graphs']} labelled graphs, {n['classes']} classes, "
             f"{n['hits']} invariant hits, {n['misses']} misses")
    return 0 if not failures else 4


# -- argument parsing ---------------------------------------------------------

# enumeration.KINDS and the OrientationClass values, spelled out so that
# building the parser imports neither module.
_KINDS = ("tension", "flow", "local-tension", "balanced-flow")
_CLASSES = ("ao", "tco", "bao", "tbo")


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="surfgraph",
        description="Orientation classes and counting polynomials of maps on surfaces.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--out", metavar="PATH", help="write JSON here instead of stdout")
        return p

    def add_map(p):
        p.add_argument("map", nargs="?", help="map JSON file ('-' or omitted: stdin)")

    def add_corpus(p):
        p.add_argument("--edges", type=int, required=True)
        p.add_argument("--genus", type=int, default=None)
        surface = p.add_mutually_exclusive_group()
        surface.add_argument("--planar", dest="planar", action="store_const",
                             const=True, default=None)
        surface.add_argument("--nonplanar", dest="planar", action="store_const",
                             const=False)
        p.add_argument("--no-dedupe", action="store_true")

    p = add("info", cmd_info, help="Euler data, bridges, single-face edges")
    add_map(p)

    p = add("dual", cmd_dual, help="write the dual map")
    add_map(p)

    p = add("count", cmd_count, help="count an orientation class")
    add_map(p)
    p.add_argument("--class", dest="cls", required=True, choices=_CLASSES)

    p = add("poly", cmd_poly, help="recover a counting polynomial")
    add_map(p)
    p.add_argument("--kind", required=True, choices=_KINDS)

    p = add("integral", cmd_integral, help="count bounded integer assignments")
    add_map(p)
    p.add_argument("--kind", required=True, choices=("local-tension", "flow"))
    p.add_argument("--k", type=int, required=True)

    p = add("reciprocity", cmd_reciprocity, help="pair count vs signed polynomial")
    add_map(p)
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("--k", type=int, required=True)

    p = add("verify", cmd_verify, help="check every identity on one map")
    add_map(p)
    p.add_argument("--kmax", type=_positive_int, default=3)

    p = add("batch", cmd_batch, help="verify a whole generated corpus")
    add_corpus(p)
    p.add_argument("--kmax", type=_positive_int, default=3)
    p.add_argument("--jobs", type=_positive_int, default=1)

    p = add("witness", cmd_witness, help="kernel witness vector of a boundary acyclic orientation")
    # Whole words: an orientation may begin with "-" or be "--" itself.
    p.add_argument("words", nargs=argparse.REMAINDER, metavar="[MAP] ORIENTATION",
                   help="map JSON file ('-' or omitted: stdin), then one +/- per edge, e.g. '++-+'")

    p = add("cw-hist", cmd_cw_hist, help="cw-face histogram vs closed formula")
    add_map(p)

    p = add("generate", cmd_generate, help="enumerate maps with m edges (NDJSON)")
    add_corpus(p)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TooLarge as exc:
        _say(f"guard: {exc}")
        return 3
    except (SurfGraphError, json.JSONDecodeError, OSError, ValueError) as exc:
        _say(f"error: {exc}")
        return 2
    except AssertionError as exc:
        _say(f"error: internal cross-check failed: {exc}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
