"""Canonical forms and ring arithmetic in Z[zeta_p]."""

import itertools

import pytest

from unitgraph import Cyclotomic, NotRationalError
from unitgraph.errors import ContextMismatchError, NonPrimeError


def test_canonical_form_pins_last_coordinate():
    assert Cyclotomic.root(2, 0).coeffs == (1, 0)
    # zeta_2 = -1: subtracting the all-ones relation gives (-1, 0)
    assert Cyclotomic.root(2, 1).coeffs == (-1, 0)
    assert Cyclotomic(3, [5, 5, 5]).coeffs == (0, 0, 0)


def test_roots_of_unity_sum_to_zero():
    for p in (2, 3, 5):
        total = Cyclotomic.zero(p)
        for j in range(p):
            total = total + Cyclotomic.root(p, j)
        assert total.is_zero()


def test_root_exponent_reduction_and_products():
    for p in (2, 3, 5):
        for i in range(-p, 2 * p):
            assert Cyclotomic.root(p, i) == Cyclotomic.root(p, i % p)
        for i, j in itertools.product(range(p), repeat=2):
            assert Cyclotomic.root(p, i) * Cyclotomic.root(p, j) == Cyclotomic.root(p, i + j)


def test_small_identities():
    z3 = Cyclotomic.root(3, 1)
    assert z3 * Cyclotomic.root(3, 2) == Cyclotomic.integer(3, 1)
    z2 = Cyclotomic.root(2, 1)
    assert z2 + z2 == Cyclotomic.integer(2, -2)
    a = Cyclotomic(3, [4, -1, 2])
    assert a + Cyclotomic.zero(3) == a
    assert a - a == Cyclotomic.zero(3)
    assert -a + a == Cyclotomic.zero(3)


def test_to_int():
    assert Cyclotomic.integer(5, 1).to_int() == 1
    # sum of the nontrivial cube roots is -1
    assert (Cyclotomic.root(3, 1) + Cyclotomic.root(3, 2)).to_int() == -1
    with pytest.raises(NotRationalError):
        Cyclotomic.root(3, 1).to_int()
    assert Cyclotomic.root(2, 1).to_int() == -1  # p = 2 is always rational


def test_integer_scaling():
    a = Cyclotomic.root(3, 1)
    assert 3 * a == a + a + a
    assert a * 0 == Cyclotomic.zero(3)


def test_ring_axioms_exhaustive_small_grid():
    vals = [-1, 0, 1]
    grid = [Cyclotomic(3, [a, b, c]) for a, b, c in itertools.product(vals, repeat=3)]
    for a, b in itertools.product(grid, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    one = Cyclotomic.integer(3, 1)
    for a in grid:
        assert a * one == a
    for a, b, c in itertools.product(grid[:9], repeat=3):
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_conjugation():
    for p in (2, 3, 5):
        for j in range(p):
            assert Cyclotomic.root(p, j).conjugate() == Cyclotomic.root(p, -j)
    a = Cyclotomic(5, [3, -2, 0, 7, 0])
    assert a.conjugate().conjugate() == a
    # |zeta^j|^2 = 1
    for j in range(5):
        z = Cyclotomic.root(5, j)
        assert (z * z.conjugate()).to_int() == 1


def test_from_exponent_counts():
    # 2*zeta^0 + 3*zeta^1 with p=2 collapses to 2 - 3
    assert Cyclotomic.from_exponent_counts(2, [2, 3]).to_int() == -1
    with pytest.raises(ValueError):
        Cyclotomic.from_exponent_counts(3, [1, 2])


def test_equality_against_plain_ints():
    assert Cyclotomic.integer(3, 7) == 7
    assert Cyclotomic.root(3, 1) != 1


def test_errors():
    with pytest.raises(NonPrimeError):
        Cyclotomic.root(4, 1)
    with pytest.raises(ContextMismatchError):
        Cyclotomic.root(2, 1) + Cyclotomic.root(3, 1)
    with pytest.raises(ValueError):
        Cyclotomic(3, [1, 2])


def test_non_prime_order_is_rejected_on_every_construction():
    # primality is cached per order; the cache must not let a later call pass
    for _ in range(3):
        with pytest.raises(NonPrimeError):
            Cyclotomic(6, [0] * 6)
    assert Cyclotomic(7, [0] * 7).is_zero()


def test_json_shape():
    d = Cyclotomic.root(3, 2).to_json_dict()
    assert d == {"p": 3, "coeffs": [-1, -1, 0]}
