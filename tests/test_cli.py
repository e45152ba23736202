"""Command-line interface: outputs, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import surfgraph as sg
from surfgraph import build, cli, dual
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


def test_info(capsys, files):
    code, out, err = run(capsys, ["info", files["torus"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == 1 and doc["faces"] == 1 and doc["genus"] == 1
    assert doc["single_face_edges"] == [0, 1] and doc["bridges"] == []
    assert "V=1" in err


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


def test_cw_hist(capsys, files):
    code, out, _ = run(capsys, ["cw-hist", files["kite"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["histogram"] == {"1": 24} and doc["match"] is True


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


def test_batch_worker_count_does_not_change_output(capsys):
    _, out1, _ = run(capsys, ["batch", "--edges", "2", "--kmax", "2", "--jobs", "1"])
    _, out2, _ = run(capsys, ["batch", "--edges", "2", "--kmax", "2", "--jobs", "2"])
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_s"), d2.pop("elapsed_s")
    assert d1 == d2


def test_generate_ndjson(capsys):
    code, out, err = run(capsys, ["generate", "--edges", "2"])
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 5
    assert all(sg.from_json_dict(json.loads(line)) for line in lines)
    assert "5 maps" in err


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
    for kmax in ("0", "-2"):
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


def test_blas_pool_defaults_to_one_thread(capsys, files, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert run(capsys, ["info", files["torus"]])[0] == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert run(capsys, ["info", files["torus"]])[0] == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


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
    # The BLAS setting above only takes effect if numpy loads after main starts.
    assert _loaded_by_cli_import("numpy") == "False"


def test_cli_import_leaves_process_pool_unloaded():
    # Only batch with more than one job starts a pool.
    assert _loaded_by_cli_import("concurrent.futures.process") == "False"


def test_poly_past_four_edges_leaves_numpy_unloaded(tmp_path):
    # Past 4 edges the k = 2, 3 checks of every polynomial are DP counts;
    # only the all-cycles cross-check of tensions on E <= 4 scans in numpy.
    calls = []
    for name, g in (("kite", KITE), ("two", TWO_COMPONENTS), ("triangle", TRIANGLE)):
        path = tmp_path / f"{name}.json"
        path.write_text(sg.dumps(g))
        kinds = sg.enumeration.KINDS
        calls.append([["poly", str(path), "--kind", kind, "--out", os.devnull] for kind in kinds])
    assert [KITE.num_edges, TWO_COMPONENTS.num_edges] == [6, 5]
    assert _loaded_by_cli_import("numpy", *calls[0], *calls[1]) == "False"
    assert _loaded_by_cli_import("numpy", *calls[2]) == "True"


def test_class_counts_and_cw_hist_leave_numpy_unloaded(tmp_path):
    # Class masks are bits of one int; only verify's kernel scans load numpy.
    calls = []
    for name, g in (("triangle", TRIANGLE), ("kite", KITE), ("two", TWO_COMPONENTS)):
        path = tmp_path / f"{name}.json"
        path.write_text(sg.dumps(g))
        for cls in sg.OrientationClass:
            calls.append(["count", "--class", cls.value, str(path), "--out", os.devnull])
        calls.append(["cw-hist", str(path), "--out", os.devnull])
    assert _loaded_by_cli_import("numpy", *calls) == "False"
    verify = ["verify", str(tmp_path / "triangle.json"), "--kmax", "2", "--out", os.devnull]
    assert _loaded_by_cli_import("numpy", verify) == "True"


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


def test_poly_leaves_the_generator_unloaded(tmp_path):
    path = tmp_path / "kite.json"
    path.write_text(sg.dumps(KITE))
    kinds = sg.enumeration.KINDS
    calls = [["poly", str(path), "--kind", kind, "--out", os.devnull] for kind in kinds]
    for module in ("surfgraph.generator", "dataclasses"):
        assert _loaded_by_cli_import(module, *calls) == "False", module


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
    "reciprocity_pairs_balanced_flow", "reciprocity_pairs_flow",
    "reciprocity_pairs_local_tension", "reciprocity_pairs_tension", "ribbonmap",
    "signed_boundary", "tbo_generating_poly_formula", "tbo_generating_polynomial",
    "tbo_histogram", "to_json_dict",
]

MODULES = ["enumeration", "errors", "generator", "guards", "orientations", "polynomials", "ribbonmap"]


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


def _choices(command: str, dest: str) -> list:
    top = cli._build_parser()
    (commands,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    (action,) = [a for a in commands.choices[command]._actions if a.dest == dest]
    return list(action.choices)


def test_parser_choices_match_the_library_tables():
    kinds = list(sg.enumeration.KINDS)
    assert _choices("poly", "kind") == _choices("reciprocity", "kind") == kinds
    assert _choices("count", "cls") == [c.value for c in sg.OrientationClass]
