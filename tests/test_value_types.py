"""Value types: immutable, and equal and hashed by value (a graph by identity)."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from unitgraph import (
    Cyclotomic,
    GapReport,
    GapThreshold,
    Matrix,
    Spectrum,
    SpectrumLine,
    build_graph,
    field,
    matrix_from_index,
    spectral_threshold,
    spectrum_closed_form,
)
from unitgraph.fields import FieldContext, FieldElement
from unitgraph.graph import CayleyGraph

F2 = field(2)


def _report(**changes):
    fields = dict(q=2, n_star_num=512, n_star_den=7, integer_bound=74, size_x=1, size_y=2)
    return GapReport(**{**fields, "guaranteed": False, "witness": None, **changes})


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: Matrix.zero(F2, 2), "n"),
        (lambda: F2.one(), "index"),
        (lambda: Cyclotomic.root(3, 1), "coeffs"),
        (lambda: build_graph(F2, 2), "rows"),
        (lambda: field(2, 2), "q"),
        (lambda: SpectrumLine(1, -2, 9), "rank"),
        (lambda: spectrum_closed_form(2, 2), "lines"),
        (lambda: spectral_threshold(2), "n_star"),
        (lambda: _report(), "seed"),
    ],
    ids=[
        "Matrix", "FieldElement", "Cyclotomic", "CayleyGraph", "FieldContext",
        "SpectrumLine", "Spectrum", "GapThreshold", "GapReport",
    ],
)
def test_attributes_cannot_be_assigned(make, name):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    # a slotted frozen dataclass raises TypeError here under Python 3.11
    with pytest.raises(AttributeError):
        value.undeclared = None
    with pytest.raises(AttributeError):
        delattr(value, name)


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


@pytest.mark.parametrize(
    "make",
    [
        lambda: SpectrumLine(1, -2, 9),
        lambda: spectrum_closed_form(2, 2),
        lambda: spectral_threshold(3),
        lambda: _report(witness=(matrix_from_index(F2, 3, 0), matrix_from_index(F2, 3, 5))),
    ],
    ids=["SpectrumLine", "Spectrum", "GapThreshold", "GapReport"],
)
def test_equal_fields_compare_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    values = tuple(getattr(a, name) for name in inspect.signature(type(a)).parameters)
    assert hash(a) == hash(values) and a != values


def test_reprs_list_the_fields():
    lines = spectrum_closed_form(2, 2).lines
    assert repr(lines[1]) == "SpectrumLine(rank=1, eigenvalue=-2, multiplicity=9)"
    assert repr(spectrum_closed_form(2, 2)) == (
        "Spectrum(q=2, n=2, lines=(SpectrumLine(rank=0, eigenvalue=6, multiplicity=1), "
        "SpectrumLine(rank=1, eigenvalue=-2, multiplicity=9), "
        "SpectrumLine(rank=2, eigenvalue=2, multiplicity=6)))"
    )
    assert repr(spectral_threshold(2)) == (
        "GapThreshold(q=2, n_star=Fraction(512, 7), integer_bound=74)"
    )
    witness = (matrix_from_index(F2, 3, 0), matrix_from_index(F2, 3, 5))
    assert repr(_report(witness=witness)) == (
        "GapReport(q=2, n_star_num=512, n_star_den=7, integer_bound=74, size_x=1, size_y=2, "
        "guaranteed=False, witness=(Matrix(GF(2), [0 0 0]; [0 0 0]; [0 0 0]), "
        "Matrix(GF(2), [1 0 1]; [0 0 0]; [0 0 0])), seed=None)"
    )
    assert repr(build_graph(F2, 1)) == "CayleyGraph(ctx=GF(2), n=1, rows=(2, 1))"


def test_gap_report_takes_keywords_and_defaults_its_seed_to_none():
    report = _report()
    assert report.seed is None
    assert report == GapReport(2, 512, 7, 74, 1, 2, False, None)
    assert report.to_json_dict()["set_sizes"] == [1, 2]
    assert _report(seed=4).seed == 4 and _report(seed=4) != report
    with pytest.raises(TypeError):
        GapReport(2, 512, 7, 74, 1, 2, False)
    assert GapThreshold(q=2, n_star=Fraction(512, 7), integer_bound=74) == spectral_threshold(2)


@pytest.mark.parametrize(
    "cls, parameters",
    [
        (Cyclotomic, "p coeffs"),
        (FieldContext, "p k modulus"),
        (FieldElement, "ctx index"),
        (Matrix, "ctx n flat"),
        (SpectrumLine, "rank eigenvalue multiplicity"),
        (Spectrum, "q n lines"),
        (GapThreshold, "q n_star integer_bound"),
        (GapReport, "q n_star_num n_star_den integer_bound size_x size_y guaranteed witness seed"),
        (CayleyGraph, "ctx n rows"),
    ],
)
def test_constructors_take_the_fields_in_order(cls, parameters):
    signature = inspect.signature(cls)
    assert list(signature.parameters) == parameters.split()
    defaults = {k: p.default for k, p in signature.parameters.items() if p.default is not p.empty}
    assert defaults == ({"seed": None} if cls is GapReport else {})
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in signature.parameters.values())


def test_values_survive_pickle_and_copy():
    F4 = field(2, 2)
    values = [
        F4, F4.element(3), matrix_from_index(F4, 2, 7), Cyclotomic(3, [1, 2, 0]),
        spectrum_closed_form(2, 2), spectral_threshold(3), _report(seed=2),
    ]
    for value in values:
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
    assert pickle.loads(pickle.dumps(build_graph(F2, 2))).rows == build_graph(F2, 2).rows
