"""Repeatable mutation checks: textual mutants of the library, each with
the tests that must kill it.

A mutant is (name, file under src/surfgraph, old text, new text, tests).
For each mutant the runner checks that the old text occurs exactly once
in its file, copies src/ to a temporary directory, replaces the text
there, runs the named tests against the copy with pytest, and reports
which of them failed.  A mutant is killed when every named test fails;
a named test that passes is a survivor, and a survivor is a finding:
add the test that kills it.

Stdlib only (pytest runs in a child process); not collected by pytest
and not part of the tier-1 suite, since each mutant costs a pytest run.

    python tests/mutants.py                 # every mutant
    python tests/mutants.py lanes forms     # the mutants with these names

Exit status: 0 when every mutant is killed, 1 when a named test
survives, 2 when an entry is stale (its old text does not occur exactly
once, or a named test does not run).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900  # per pytest run; a run past it counts as killed


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # Memo keys: a value of the faces read on g instead of g*, or filed
    # under g's graph, is shared by maps whose faces differ.
    Mutant(
        "local-tensions-on-g",
        "enumeration.py",
        '    return _count(g.dual, k, True, "flow")\n',
        '    return _count(g, k, True, "flow")\n',
        (
            "tests/test_acceptance.py::test_criterion_2_corpus_dualities",
            "tests/test_enumeration.py::test_row_counts_equal_the_kernel_scans",
            "tests/test_memo.py::test_the_graph_table_changes_no_report",
        ),
    ),
    Mutant(
        "cw-masks-on-g",
        "orientations.py",
        '    return h._graph_memoised(("cw",),',
        '    return g._graph_memoised(("cw",),',
        (
            "tests/test_acceptance.py::test_criterion_9_cw_face_counts",
            "tests/test_orientations.py::test_engine_matches_the_predicates",
            "tests/test_memo.py::test_verify_builds_the_cw_face_masks_once",
        ),
    ),
    Mutant(
        "balanced-flows-on-g",
        "enumeration.py",
        '    return _count(g.dual, k, True, "tension")\n',
        '    return _count(g, k, True, "tension")\n',
        (
            "tests/test_acceptance.py::test_criterion_2_corpus_dualities",
            "tests/test_enumeration.py::test_row_counts_equal_the_kernel_scans",
            "tests/test_memo.py::test_the_graph_table_changes_no_report",
        ),
    ),
    # The class table: a form that drops parallel edges or edge reversal,
    # or a labelled value filed by class, shares values between graphs
    # that differ.
    Mutant(
        "form-edge-set",
        "ribbonmap.py",
        "        return sorted((min(at[t], at[w]), max(at[t], at[w])) for t, w in ends)\n",
        "        return sorted({(min(at[t], at[w]), max(at[t], at[w])) for t, w in ends})\n",
        (
            "tests/test_memo.py::test_the_form_keeps_loops_parallel_edges_and_isolated_vertices",
            "tests/test_memo.py::test_the_census_graphs_fall_into_30_and_95_classes",
            "tests/test_memo.py::test_the_graph_table_changes_no_report",
        ),
    ),
    Mutant(
        "form-keeps-direction",
        "ribbonmap.py",
        "        return sorted((min(at[t], at[w]), max(at[t], at[w])) for t, w in ends)\n",
        "        return sorted((at[t], at[w]) for t, w in ends)\n",
        (
            "tests/test_memo.py::test_the_form_keeps_loops_parallel_edges_and_isolated_vertices",
            "tests/test_memo.py::test_the_census_graphs_fall_into_30_and_95_classes",
        ),
    ),
    Mutant(
        "class-mask-filed-as-invariant",
        "orientations.py",
        '    return h._graph_memoised(("class", _SIDE[cycles]),',
        '    return h._invariant_memoised(("class", _SIDE[cycles]),',
        (
            "tests/test_memo.py::test_maps_share_what_reads_only_their_graph",
            "tests/test_memo.py::test_the_graph_table_changes_no_report",
            "tests/test_memo.py::test_verify_scans_each_primitive_once",
        ),
    ),
    # The mask engine.
    Mutant(
        "both-ways-forward-only",
        "orientations.py",
        "        yield x, p\n        yield x, x ^ p\n",
        "        yield x, p\n",
        (
            "tests/test_orientations.py::test_engine_matches_the_predicates",
            "tests/test_acceptance.py::test_criterion_3_minus_one_identities",
            "tests/test_cli.py::test_class_bijection_rows_print_each_class_size",
        ),
    ),
    Mutant(
        "lanes",
        "orientations.py",
        "        half = 1 << (num_edges - 1 - e)\n",
        "        half = 1 << e\n",
        (
            "tests/test_orientations.py::test_engine_matches_the_predicates",
            "tests/test_orientations.py::test_predicates_match_the_cycle_definition",
            "tests/test_orientations.py::test_random_maps_match_the_cycle_definition",
        ),
    ),
    Mutant(
        "bao-searched-on-g",
        "orientations.py",
        "    b = _components_strongly_connected(g.dual, o.signs)\n",
        "    b = _components_strongly_connected(g, o.signs)\n",
        ("tests/test_orientations.py::test_engine_matches_the_predicates",),
    ),
    # The frontier DP's forms.
    Mutant(
        "forms",
        "enumeration.py",
        "(forest[e], d) for e, d in zip(c.edges[1:], c.directions[1:])",
        "(forest[e], d) for e, d in zip(c.edges[2:], c.directions[2:])",
        (
            "tests/test_enumeration.py::test_dp_counts_equal_the_kernel_scans",
            "tests/test_enumeration.py::test_row_counts_equal_the_kernel_scans",
            "tests/test_acceptance.py::test_criterion_7_oracle_agreement",
        ),
    ),
    # The identities table: a row's gate, a side read on the wrong map, a
    # lost sign, and a report price that leaves out one route of each
    # duality row: the fundamental coordinates, the right-hand side of the
    # local-tension and balanced-flow rows, or the condition rows.
    Mutant(
        "integral-gate-at-three",
        "identities.py",
        "runs=lambda g: g.num_edges <= 4",
        "runs=lambda g: g.num_edges <= 3",
        ("tests/test_identities.py::test_the_integral_row_runs_on_maps_with_at_most_four_edges",),
    ),
    Mutant(
        "duality-rhs-on-g",
        "identities.py",
        "lambda c, ks: [en.COUNT_NZ[dual](c.gd, k) for k in ks]",
        "lambda c, ks: [en.COUNT_NZ[dual](c.g, k) for k in ks]",
        (
            "tests/test_identities.py::test_the_rows_of_every_small_map_are_pinned",
            "tests/test_memo.py::test_a_second_verify_on_the_same_map_gives_the_same_report",
        ),
    ),
    Mutant(
        "signed-pairs-unsigned",
        "identities.py",
        "return [sign * poly_eval(c.poly(kind), -k) for k in ks]",
        "return [poly_eval(c.poly(kind), -k) for k in ks]",
        (
            "tests/test_identities.py::test_the_rows_of_every_small_map_are_pinned",
            "tests/test_memo.py::test_a_second_verify_on_the_same_map_gives_the_same_report",
            "tests/test_cli.py::test_reciprocity_past_the_assignment_guard",
        ),
    ),
    Mutant(
        "price-without-rhs",
        "identities.py",
        "for guide in _routes(c.g, kind) for k in ks]",
        "for guide in _routes(c.g, kind)[1:] for k in ks]",
        (
            "tests/test_identities.py::test_a_report_prices_every_dp_its_rows_run",
            "tests/test_identities.py::test_a_report_too_large_in_all_is_refused_before_any_dp",
        ),
    ),
    Mutant(
        "duality-priced-on-fundamental-route-only",
        "identities.py",
        "for guide in _routes(c.g, kind) for k in ks]",
        "for guide in _routes(c.g, kind)[:1] for k in ks]",
        (
            "tests/test_identities.py::test_a_report_prices_every_dp_its_rows_run",
            "tests/test_identities.py::test_a_report_too_large_in_all_is_refused_before_any_dp",
        ),
    ),
    # The pair counters: the pairs of the dual kinds are read on g*.
    Mutant(
        "local-tension-pairs-on-g",
        "reciprocity.py",
        "    return reciprocity_pairs_flow(g.dual, k)\n",
        "    return reciprocity_pairs_flow(g, k)\n",
        (
            "tests/test_enumeration.py::test_signed_reciprocity_on_zoo",
            "tests/test_enumeration.py::test_pair_counts_equal_the_surgery_route",
            "tests/test_identities.py::test_the_rows_of_every_small_map_are_pinned",
        ),
    ),
    # The fundamental cycles: the path down the rooted forest to u runs
    # each edge against its direction climbing up.
    Mutant(
        "forest-descent-unsigned",
        "ribbonmap.py",
        "descent.append((f, -d, above))",
        "descent.append((f, d, above))",
        (
            "tests/test_ribbonmap.py::test_fundamental_cycles_are_pinned_on_the_census",
            "tests/test_ribbonmap.py::test_every_enumerated_cycle_validates",
            "tests/test_enumeration.py::test_dp_counts_equal_the_kernel_scans",
        ),
    ),
)


def _mutated_source(m: Mutant, root: Path) -> Path:
    """A copy of src/ under root with the mutant applied."""
    path = REPO / "src" / "surfgraph" / m.file
    text = path.read_text()
    if text.count(m.old) != 1:
        raise LookupError(f"{m.name}: old text occurs {text.count(m.old)} times in {m.file}")
    src = root / "src"
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    (src / "surfgraph" / m.file).write_text(text.replace(m.old, m.new))
    return src


def _outcomes(report: Path) -> dict[str, bool]:
    """Per test node id in a junit report, whether it failed; a module
    that failed to collect is reported under its path."""
    out: dict[str, bool] = {}
    for case in ET.parse(report).iter("testcase"):
        cls, name = case.get("classname", ""), case.get("name", "")
        node = f"{cls.replace('.', '/')}.py::{name}" if cls else name.replace(".", "/") + ".py"
        failed = any(case.find(tag) is not None for tag in ("failure", "error"))
        out[node] = out.get(node, False) or failed
    return out


def _run(src: Path, tests: list[str], report: Path) -> dict[str, bool] | None:
    """Run tests against src; their outcomes, or None on a timeout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("SURFGRAPH_GUARD_OVERRIDE", None)
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "-o", f"pythonpath={src}", f"--junitxml={report}", *tests,
    ]
    try:
        subprocess.run(cmd, cwd=REPO, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return _outcomes(report) if report.exists() else {}


def _failed(outcomes: dict[str, bool], test: str) -> bool | None:
    """Whether a named test failed: any of its parametrized cases, or its
    module's collection; None if neither ran."""
    cases = [f for node, f in outcomes.items() if node == test or node.startswith(test + "[")]
    return any(cases) if cases else outcomes.get(test.split("::")[0])


def check(m: Mutant) -> tuple[str, list[str]]:
    """('killed' | 'survived' | 'stale', the named tests that passed or
    did not run)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        try:
            src = _mutated_source(m, Path(tmp))
        except LookupError as err:
            return "stale", [str(err)]
        outcomes = _run(src, list(m.tests), Path(tmp) / "report.xml")
    if outcomes is None:
        return "killed", [f"timed out after {TIMEOUT_S} s"]
    verdicts = {t: _failed(outcomes, t) for t in m.tests}
    missing = [t for t, v in verdicts.items() if v is None]
    if missing:
        return "stale", [f"not run: {t}" for t in missing]
    survivors = [t for t, v in verdicts.items() if not v]
    return ("survived" if survivors else "killed"), survivors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] or list(MUTANTS)
    status = 0
    for m in chosen:
        verdict, notes = check(m)
        print(f"{verdict:8}  {m.name}")
        for note in notes:
            print(f"          {note}")
        if verdict == "stale":
            status = 2
        elif verdict == "survived" and status == 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
