"""The package's records: value equality and hash over their fields,
immutability, a repr naming the fields, and validation on construction."""

from fractions import Fraction

import pytest

from surfgraph import (
    Cocycle,
    CorpusSpec,
    Cycle,
    EulerData,
    GraphMismatch,
    Orientation,
    QuasiPolynomial,
    RibbonGraph,
    SurfGraphError,
)
from mapzoo import TRIANGLE, fresh

# Per record: its fields, two field tuples for equal instances built apart,
# and a third that differs in one field.
RECORDS = [
    (EulerData, ("v_count", "e_count", "f_count", "c", "g"), (3, 3, 2, 1, 0), (3, 3, 2, 1, 1)),
    (Cycle, ("edges", "directions", "vertices"), ((0, 1), (1, -1), (0, 1)), ((0, 1), (1, 1), (0, 1))),
    (Cocycle, ("faces", "edges", "directions"), ((0, 1), (0, 2), (1, 1)), ((0, 1), (0, 2), (1, -1))),
    (RibbonGraph, ("sigma", "edge_pairs", "isolated"), ((1, 0), ((0, 1),), 0), ((1, 0), ((0, 1),), 2)),
    (Orientation, ("graph", "signs"), (TRIANGLE, (1, -1, 1)), (TRIANGLE, (1, 1, 1))),
    (QuasiPolynomial, ("period", "constituents"), (1, ((Fraction(1, 2), Fraction(3)),)), (1, ((Fraction(1),),))),
    (CorpusSpec, ("edges", "genus", "planar", "connected", "dedupe"), (3, 1, None, True, False), (3, 1, None, True, True)),
]


@pytest.mark.parametrize("cls, fields, values, other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_values(cls, fields, values, other):
    a, b, c = cls(*values), cls(**dict(zip(fields, values))), cls(*other)
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != c and c != a
    assert a != values and (a == values) is False
    assert len({a, b, c}) == 2
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{name}={getattr(a, name)!r}" for name in fields
    ) + ")"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(c, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_ribbon_graph_labels_stay_out_of_equality_hash_and_repr():
    plain = RibbonGraph((1, 2, 0, 3), ((0, 2), (1, 3)))
    labelled = RibbonGraph((1, 2, 0, 3), ((0, 2), (1, 3)), labels={"name": "x"})
    assert plain == labelled and hash(plain) == hash(labelled)
    assert labelled.labels == {"name": "x"} and "labels" not in repr(labelled)
    with pytest.raises(AttributeError):
        labelled.labels = None


def test_ribbon_graph_caches_and_memo_survive_immutability():
    g = fresh(TRIANGLE)
    assert g.dual.dual is g and g.faces is g.faces
    assert g._memoised(("key",), lambda: 7) == 7
    assert g._memoised(("key",), lambda: 8) == 7
    # the fields normalize on construction, before equality reads them
    assert RibbonGraph([1, 0], [[0, 1]]) == RibbonGraph((1, 0), ((0, 1),))


def test_records_validate_their_input():
    with pytest.raises(GraphMismatch, match="2 signs for 3 edges"):
        Orientation(TRIANGLE, (1, 1))
    with pytest.raises(GraphMismatch, match=r"signs must be \+1 or -1"):
        Orientation(TRIANGLE, (1, 0, 1))
    assert Orientation(TRIANGLE, [1, -1, 1]).signs == (1, -1, 1)
    for period, constituents in ((0, ()), (2, ((Fraction(1),),))):
        with pytest.raises(ValueError, match="need exactly `period` constituents"):
            QuasiPolynomial(period, constituents)
    with pytest.raises(SurfGraphError, match="edge count must be a nonnegative integer, got -1"):
        CorpusSpec(edges=-1)
    with pytest.raises(SurfGraphError, match="edge count must be a nonnegative integer, got 2.0"):
        CorpusSpec(edges=2.0)
    with pytest.raises(SurfGraphError, match="genus must be a nonnegative integer or None, got -3"):
        CorpusSpec(edges=2, genus=-3)
    assert CorpusSpec(2) == CorpusSpec(edges=2, genus=None, planar=None, connected=True, dedupe=True)
