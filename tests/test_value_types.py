"""Value types: immutable, and equal and hashed by value (a graph by identity)."""

import pytest

from unitgraph import Cyclotomic, Matrix, build_graph, field, matrix_from_index
from unitgraph.fields import FieldContext

F2 = field(2)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: Matrix.zero(F2, 2), "n"),
        (lambda: F2.one(), "index"),
        (lambda: Cyclotomic.root(3, 1), "coeffs"),
        (lambda: build_graph(F2, 2), "rows"),
        (lambda: field(2, 2), "q"),
    ],
    ids=["Matrix", "FieldElement", "Cyclotomic", "CayleyGraph", "FieldContext"],
)
def test_attributes_cannot_be_assigned(make, name):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    # a slotted frozen dataclass raises TypeError here under Python 3.11
    with pytest.raises(AttributeError):
        value.undeclared = None


def test_field_context_assignments_raise_attribute_error():
    ctx = field(2, 2)
    for name in ("q", "modulus", "undeclared"):
        with pytest.raises(AttributeError):
            setattr(ctx, name, None)
    assert FieldContext(2, 2, [3, 5, 1]).modulus == (1, 1, 1)


def test_values_over_equal_fields_compare_and_hash_equal():
    built, cached = FieldContext(2, 2, (1, 1, 1)), field(2, 2)
    assert built is not cached
    a, b = built.element(3), cached.element(3)
    assert a == b and hash(a) == hash(b)
    assert a != cached.element(2)
    m = Matrix.from_rows(built, [[0, 1], [2, 3]])
    w = Matrix.from_rows(cached, [[0, 1], [2, 3]])
    assert m == w and hash(m) == hash(w)
    assert m != Matrix.from_rows(cached, [[0, 1], [3, 2]])


def test_cyclotomic_equality_and_hash_use_the_canonical_form():
    a, b = Cyclotomic(3, [5, 5, 5]), Cyclotomic(3, (0, 0, 0))
    assert a == b == 0
    assert hash(a) == hash(b)


def test_graphs_compare_by_identity_and_number_their_vertices():
    g, h = build_graph(F2, 2), build_graph(F2, 2)
    assert g.rows == h.rows
    assert g != h and g == g
    assert all(g.vertex(i) == matrix_from_index(F2, 2, i) for i in range(g.order))
