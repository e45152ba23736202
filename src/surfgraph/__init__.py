"""Orientation classes and counting polynomials of graphs on surfaces.

A ribbon graph is a graph with a cyclic order of edge ends around each
vertex, equivalently a cellular embedding in an orientable surface.
This package enumerates its acyclic, totally cyclic, boundary acyclic,
and totally bi-walkable orientations, counts its tensions and flows
(cyclic-group, face-local, balanced, and bounded-integer), recovers the
four counting polynomials exactly, and verifies the duality and
reciprocity identities that tie all of these together across the map
and its dual.

Importing the package loads none of its modules.  Each name below is
resolved on first use from the module that defines it (PEP 562), so a
caller, the command line included, loads only the modules it reads.
"""

import sys

# The public names, by the module that defines them.  The modules
# themselves are public names too.
_EXPORTS = {
    "enumeration": (
        "bao_witness_vector",
        "count_balanced_flows",
        "count_flows",
        "count_integral_flows",
        "count_integral_local_tensions",
        "count_local_tensions",
        "count_nz_balanced_flows",
        "count_nz_flows",
        "count_nz_local_tensions",
        "count_nz_tensions",
        "count_tensions",
        "integral_local_tension_reciprocity_pairs",
        "interpolate",
        "poly_balanced_flow",
        "poly_flow",
        "poly_local_tension",
        "poly_tension",
        "quasi_integral_flows",
        "quasi_integral_local_tensions",
        "reciprocity_pairs_balanced_flow",
        "reciprocity_pairs_flow",
        "reciprocity_pairs_local_tension",
        "reciprocity_pairs_tension",
    ),
    "errors": (
        "BadModulus",
        "BadPairing",
        "DuplicateEdge",
        "GraphMismatch",
        "InvalidCycle",
        "NoFit",
        "NonIntegerCoefficients",
        "NonPermutation",
        "NotBoundaryAcyclic",
        "OddDartCount",
        "SurfGraphError",
        "TooLarge",
        "UnknownEdge",
        "UnknownFace",
    ),
    "generator": ("CorpusSpec", "corpus_stats", "generate"),
    "guards": (),
    "orientations": (
        "Orientation",
        "OrientationClass",
        "all_orientations",
        "count_class",
        "cw_faces",
        "dual_orientation",
        "enumerate_class",
        "is_acyclic",
        "is_boundary_acyclic",
        "is_totally_biwalkable",
        "is_totally_cyclic",
        "orientation_from_string",
        "orientation_to_string",
        "tbo_generating_poly_formula",
        "tbo_generating_polynomial",
        "tbo_histogram",
    ),
    "polynomials": ("QuasiPolynomial", "fit_quasipolynomial", "poly_eval"),
    "ribbonmap": (
        "Cocycle",
        "Cycle",
        "EulerData",
        "RibbonGraph",
        "abstract_contract",
        "boundary",
        "build",
        "canonical_code",
        "check_cycle",
        "contract",
        "cocycles",
        "cycles",
        "delete",
        "double_slash",
        "dual",
        "dumps",
        "euler_data",
        "face_matrix",
        "from_json_dict",
        "fundamental_cycles",
        "is_separating",
        "loads",
        "signed_boundary",
        "to_json_dict",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def _load(module: str):
    # __import__, not importlib.import_module: `python -X importtime`
    # reports only the imports that pass through it.
    __import__(f"{__name__}.{module}")
    return sys.modules[f"{__name__}.{module}"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _load(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_load(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*__all__, *(name for name in globals() if name.startswith("__"))})
