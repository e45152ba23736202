"""Command-line front end.

Machine-readable JSON goes to stdout, a human summary to stderr.  Exit
codes: 0 success, 2 parse or validation failure, 3 enumeration guard
exceeded (lift with SURFGRAPH_GUARD_OVERRIDE=1), 4 a verified identity
failed in `verify` or `batch`, or an internal cross-check between two
routes to the same quantity disagreed (one `error:` line on stderr).

A call pays interpreter start-up and imports on every run, against a
few milliseconds of work for most commands.  So this module imports
only `ribbonmap` and `errors` at the top, and each command imports the
modules it runs: `count` loads `orientations` alone, `cw-hist` adds
`polynomials`, the assignment commands `enumeration`, and the corpus
commands `generator`.  The parser is built on every call and imports
none of them; its `--kind` and `--class` choices are literals, which
the tests pin to `enumeration.KINDS` and `OrientationClass`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from . import ribbonmap
from .errors import SurfGraphError, TooLarge

if TYPE_CHECKING:
    from fractions import Fraction


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


def _code_hex(g: ribbonmap.RibbonGraph) -> str:
    return ribbonmap.canonical_code(g).hex()


def _json_num(x: Fraction) -> int | str:
    return int(x) if x.denominator == 1 else str(x)


# -- simple commands ----------------------------------------------------------


def cmd_info(args) -> int:
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
        "canonical_code": _code_hex(g),
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
    from . import enumeration as en

    g = _load_graph(args.map)
    if args.kind == "local-tension":
        n = en.count_integral_local_tensions(g, args.k)
    elif args.kind == "flow":
        n = en.count_integral_flows(g, args.k)
    else:
        raise SurfGraphError(
            f"integral counts exist for local-tension and flow, not {args.kind}"
        )
    _emit({"kind": args.kind, "k": args.k, "count": n}, args.out)
    _say(f"integral {args.kind} count at k={args.k}: {n}")
    return 0


def cmd_reciprocity(args) -> int:
    from . import enumeration as en
    from .polynomials import poly_eval

    g = _load_graph(args.map)
    pairs = en.PAIRS[args.kind](g, args.k)
    coeffs = en.POLY[args.kind](g)
    signed = (-1) ** en.SIGN_EXP[args.kind](g.euler) * poly_eval(coeffs, -args.k)
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
    from . import enumeration as en
    from . import orientations

    g = _load_graph(args.map)
    o = orientations.orientation_from_string(g, args.orientation)
    vec = en.bao_witness_vector(g, o)
    _emit({"vector": [str(x) for x in vec]}, args.out)
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
    from . import enumeration as en
    from . import orientations
    from .polynomials import poly_eval

    t0 = time.perf_counter()
    gd = ribbonmap.dual(g)
    d = g.euler
    identities: list[dict] = []

    def check(name, lhs, rhs, k_range=None):
        identities.append(
            {
                "identity": name,
                "k_range": k_range,
                "lhs": lhs,
                "rhs": rhs,
                "pass": lhs == rhs,
            }
        )

    ks = list(range(1, kmax + 1))
    for kind in en.KINDS:
        dual_kind = en.DUAL_KIND[kind]
        check(
            f"{kind} of map equals {dual_kind} of dual",
            [en.COUNT_NZ[kind](g, k) for k in ks],
            [en.COUNT_NZ[dual_kind](gd, k) for k in ks],
            [1, kmax],
        )

    polys = {kind: en.POLY[kind](g) for kind in en.KINDS}
    for kind in en.KINDS:
        cls = en.CLASS_OF[kind]
        check(
            f"|{kind} polynomial at -1| counts {cls.value} orientations",
            abs(poly_eval(polys[kind], -1)),
            orientations.count_class(g, cls),
        )

    for kind in en.KINDS:
        sign = (-1) ** en.SIGN_EXP[kind](d)
        check(
            f"signed {kind} polynomial at -k counts reciprocity pairs",
            [sign * poly_eval(polys[kind], -k) for k in ks],
            [en.PAIRS[kind](g, k) for k in ks],
            [1, kmax],
        )

    if g.num_edges <= 4:
        quasi = en.quasi_integral_local_tensions(g)
        check(
            "|integral local-tension quasipolynomial at -k| counts compatible pairs",
            [_json_num(abs(quasi.evaluate(-k))) for k in range(0, kmax + 1)],
            [
                en.integral_local_tension_reciprocity_pairs(g, k)
                for k in range(0, kmax + 1)
            ],
            [0, kmax],
        )

    dual_tension = polys["balanced-flow"]  # the tension polynomial of gd
    check(
        "|dual tension polynomial at -1| counts totally bi-walkable orientations",
        abs(poly_eval(dual_tension, -1)),
        orientations.count_class(g, orientations.OrientationClass.TBO),
    )

    # The dual of a TBO is acyclic, so each component of g* has a sink, a
    # cw face: with c >= 2 components no orientation has exactly one.
    const = abs(dual_tension[0]) if dual_tension else 0
    check(
        "every face is the unique cw face of |dual tension constant term| orientations",
        orientations.unique_cw_counts(g),
        [const if d.c == 1 else 0] * g.num_faces,
    )

    check(
        "cw-face histogram matches the subset-sum formula",
        orientations.tbo_generating_polynomial(g),
        orientations.tbo_generating_poly_formula(g),
    )

    # DUAL_KIND pairs the kinds two by two, so two of its entries give
    # both class bijections: BAO -> TCO and AO -> TBO.  dual_orientation
    # keeps the sign vector, so the image of a class is its own signs.
    for kind in ("local-tension", "tension"):
        cls, dual_cls = en.CLASS_OF[kind], en.CLASS_OF[en.DUAL_KIND[kind]]
        check(
            f"dual orientations of {cls.value} maps are exactly the {dual_cls.value}"
            " maps of the dual",
            sorted(orientations.class_signs(g, cls)),
            sorted(orientations.class_signs(gd, dual_cls)),
        )

    return {
        "graph": _code_hex(g),
        "euler": {
            "vertices": d.v_count,
            "edges": d.e_count,
            "faces": d.f_count,
            "components": d.c,
            "genus": d.g,
        },
        "kmax": kmax,
        "identities": identities,
        "all_pass": all(i["pass"] for i in identities),
        "elapsed_s": round(time.perf_counter() - t0, 4),
    }


def _print_report(report: dict) -> None:
    for i in report["identities"]:
        if i["pass"]:
            _say(f"  PASS {i['identity']}")
        else:
            _say(f"  FAIL {i['identity']}: lhs={i['lhs']} rhs={i['rhs']}")
    _say(
        f"graph {report['graph'][:16]}…: "
        f"{sum(i['pass'] for i in report['identities'])}/"
        f"{len(report['identities'])} identities pass "
        f"({report['elapsed_s']}s)"
    )


def cmd_verify(args) -> int:
    g = _load_graph(args.map)
    report = _verify_graph(g, args.kmax)
    _emit(report, args.out)
    _print_report(report)
    return 0 if report["all_pass"] else 4


def _batch_worker(payload: tuple[dict, int]) -> dict:
    map_dict, kmax = payload
    return _verify_graph(ribbonmap.from_json_dict(map_dict), kmax)


def cmd_batch(args) -> int:
    payloads = [(ribbonmap.to_json_dict(g), args.kmax) for g in _corpus(args)]
    if args.jobs > 1:
        # Imported here: the pool pulls in multiprocessing, which no other
        # command needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(_batch_worker, payloads))
    else:
        reports = [_batch_worker(p) for p in payloads]
    reports.sort(key=lambda r: r["graph"])
    failures = [
        {"graph": r["graph"], "identity": i["identity"], "lhs": i["lhs"], "rhs": i["rhs"]}
        for r in reports
        for i in r["identities"]
        if not i["pass"]
    ]
    summary = {
        "edges": args.edges,
        "kmax": args.kmax,
        "graphs": len(reports),
        "identities_checked": sum(len(r["identities"]) for r in reports),
        "failures": failures,
        "all_pass": not failures,
        "elapsed_s": round(sum(r["elapsed_s"] for r in reports), 4),
    }
    _emit(summary, args.out)
    _say(
        f"{summary['graphs']} graphs, {summary['identities_checked']} identities, "
        f"{len(failures)} failures"
    )
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
    add_map(p)
    p.add_argument("orientation", help="one +/- per edge, e.g. '++-+'")

    p = add("cw-hist", cmd_cw_hist, help="cw-face histogram vs closed formula")
    add_map(p)

    p = add("generate", cmd_generate, help="enumerate maps with m edges (NDJSON)")
    add_corpus(p)

    return top


def main(argv: list[str] | None = None) -> int:
    # numpy serves here only as integer and boolean arrays, never as BLAS.
    # Loaded with its default pool, OpenBLAS starts a worker per CPU that
    # spins for about 0.1 s and competes with the main thread; a setting
    # made by the caller is kept.  The package imports numpy lazily, so
    # this runs before it is loaded.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
