"""Field arithmetic: axioms, trace properties, construction errors."""

import itertools
import random
import re
import time

import pytest

from unitgraph import (
    CheckFailedError,
    ContextMismatchError,
    NonPrimeError,
    ReducibleModulusError,
    SizeTooLargeError,
    field,
    field_of_order,
    prime_power,
)
from unitgraph import fields
from unitgraph.fields import (
    FieldContext,
    _check_irreducible,
    _all_digits,
    _checked_modulus,
    _digits,
    _number,
    _poly_divmod,
    field_modulus,
    is_prime,
    poly_str,
)

EXHAUSTIVE_ORDERS = [2, 3, 4, 5, 7, 8, 9]
SAMPLED_ORDERS = [16, 25, 27]


def test_construction_basics():
    f2 = field(2)
    assert (f2.p, f2.k, f2.q) == (2, 1, 2)
    f4 = field(2, 2, [1, 1, 1])
    assert f4.q == 4
    # same structural identity whether the modulus came from the table
    assert f4 == field(2, 2)
    assert hash(f4) == hash(field(2, 2))


def test_construction_errors():
    with pytest.raises(NonPrimeError):
        field(6)
    with pytest.raises(ReducibleModulusError):
        field(2, 2, [0, 0, 1])  # x^2 = x * x
    with pytest.raises(ReducibleModulusError):
        field(3, 2, [2, 0, 1])  # x^2 - 1 = (x-1)(x+1)
    assert field(7, 2).modulus == (1, 0, 1)  # the default: x^2 + 1, no root mod 7
    assert field(2, 5, (1, 0, 1, 0, 0, 1)).q == 32  # x^5 + x^2 + 1
    with pytest.raises(ReducibleModulusError, match=re.escape("divisible by [1, 1, 1] over F_2")):
        field(2, 5, (1, 1, 0, 0, 0, 1))  # (x^2 + x + 1)(x^3 + x^2 + 1), no root
    with pytest.raises(ValueError):
        field(2, 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_accepted_moduli_match_gauss_counts(p):
    # monic irreducibles of degree k over F_p: (1/k) sum_{d | k} mu(d) p^(k/d)
    counts = [(2, (p**2 - p) // 2), (3, (p**3 - p) // 3), (4, (p**4 - p**2) // 4)]
    counts += [(5, (p**5 - p) // 5)] if p**5 <= 4096 else []
    if p == 2:
        counts += [(6, (2**6 - 2**3 - 2**2 + 2) // 6), (7, (2**7 - 2) // 7)]
    for k, expected in counts:
        accepted = 0
        for low in itertools.product(range(p), repeat=k):
            try:
                field_modulus(p, k, [*low, 1])
            except ReducibleModulusError:
                continue
            accepted += 1
        assert accepted == expected


@pytest.mark.parametrize(
    "p, modulus, factor",
    [
        (3, [2, 1, 0, 1, 1], [1, 0, 1]),  # (x^2 + 1)(x^2 + x + 2), no root in F_3
        # (x^2 + 3)(x^2 + x + 1): quadratics are tried by x coefficient, then constant
        (5, [3, 3, 4, 1, 1], [3, 0, 1]),
    ],
)
def test_rootless_reducible_quartic_names_its_quadratic_factor(p, modulus, factor):
    with pytest.raises(ReducibleModulusError, match=re.escape(f"divisible by {factor} over F_{p}")):
        field(p, 4, modulus)


def test_field_axioms_exhaustive():
    for q in EXHAUSTIVE_ORDERS:
        ctx = field_of_order(q)
        elems = list(ctx.elements())
        for a, b, c in itertools.product(elems, repeat=3):
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


def test_field_axioms_sampled():
    rng = random.Random(20240809)
    for q in SAMPLED_ORDERS:
        ctx = field_of_order(q)
        elems = list(ctx.elements())
        for _ in range(300):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


def test_inverses():
    for q in EXHAUSTIVE_ORDERS + SAMPLED_ORDERS:
        ctx = field_of_order(q)
        one = ctx.one()
        for a in ctx.elements():
            if a.is_zero():
                with pytest.raises(ZeroDivisionError):
                    a.inverse()
            else:
                assert a * a.inverse() == one
    assert field(3).element(2).inverse().index == 2  # 2*2 = 4 = 1 mod 3


def test_extension_multiplication_example():
    f4 = field(2, 2)
    x = f4.element([0, 1])
    assert (x * x).coeffs == (1, 1)  # x^2 reduces to x + 1


def test_trace_examples():
    assert field(2).element(1).trace() == 1  # k = 1: trace is the identity
    f4 = field(2, 2)
    assert f4.element([0, 1]).trace() == 1  # x + x^2 = x + (x+1) = 1
    assert f4.zero().trace() == 0


def test_trace_additive_exhaustive():
    for q in EXHAUSTIVE_ORDERS:
        ctx = field_of_order(q)
        for a, b in itertools.product(ctx.elements(), repeat=2):
            assert (a + b).trace() == (a.trace() + b.trace()) % ctx.p


def test_trace_prime_subfield_linearity():
    # multipliers from the prime subfield scale the trace mod p; the
    # pull-out is only valid for such multipliers, so that is all we claim
    for q in EXHAUSTIVE_ORDERS + SAMPLED_ORDERS:
        ctx = field_of_order(q)
        for c in range(ctx.p):
            ce = ctx.element([c] + [0] * (ctx.k - 1))
            for a in ctx.elements():
                assert (ce * a).trace() == (c * a.trace()) % ctx.p


def test_trace_fibers_balanced():
    # surjectivity with fibers of size exactly q/p
    for q in EXHAUSTIVE_ORDERS + SAMPLED_ORDERS:
        ctx = field_of_order(q)
        fibers = [0] * ctx.p
        for a in ctx.elements():
            fibers[a.trace()] += 1
        assert fibers == [ctx.q // ctx.p] * ctx.p


def test_enumeration_order():
    assert [e.index for e in field(2).elements()] == [0, 1]
    assert [e.index for e in field(3).elements()] == [0, 1, 2]
    # constant term varies fastest: 0, 1, x, x+1
    assert [e.coeffs for e in field(2, 2).elements()] == [(0, 0), (1, 0), (0, 1), (1, 1)]


@pytest.mark.parametrize("q", [4, 9])
def test_division_is_multiplication_by_the_inverse(q):
    ctx = field_of_order(q)
    for a in ctx.elements():
        for b in itertools.islice(ctx.elements(), 1, None):
            assert a / b == a * b.inverse()
        with pytest.raises(ZeroDivisionError):
            a / ctx.zero()


@pytest.mark.parametrize("base", range(2, 10))
def test_digit_codec_round_trips(base):
    for count in range(5):
        digits = [_digits(t, base, count) for t in range(base**count)]
        assert [_number(d, base) for d in digits] == list(range(base**count))
        assert list(_all_digits(base, count)) == digits


def test_context_mismatch():
    a = field(2).one()
    b = field(3).one()
    with pytest.raises(ContextMismatchError):
        a + b
    with pytest.raises(ContextMismatchError):
        a * b


def test_element_constructors_and_repr():
    f9 = field(3, 2)
    e = f9.element([2, 1])
    assert f9.element(e.index) == e
    with pytest.raises(ValueError):
        f9.element([1])  # wrong coefficient count
    with pytest.raises(ValueError):
        f9.element(9)  # index out of range
    assert f9.element(e) is e
    assert f9.element([5, 4]) == e  # coefficients are reduced mod p
    with pytest.raises(ContextMismatchError, match=r"^element of GF\(2\) is not in GF\(3\^2\)$"):
        f9.element(field(2).one())
    assert poly_str((2, 1)) == "x+2"
    assert poly_str((0, 0)) == "0"
    assert "GF(3^2)" in repr(e)


def test_packaged_modulus_table():
    # element indices depend on the modulus, so the defaults of these orders
    # are pinned: stored subsets and reports over them must not renumber
    pinned = {
        (2, 2): (1, 1, 1),
        (2, 3): (1, 1, 0, 1),
        (2, 4): (1, 1, 0, 0, 1),
        (3, 2): (1, 0, 1),
        (3, 3): (1, 2, 0, 1),
        (5, 2): (1, 1, 1),
    }
    for (p, k), modulus in pinned.items():
        assert field_modulus(p, k) == modulus
        assert field(p, k).modulus == modulus


# every extension order p^k <= 4096 with k >= 2
EXTENSION_ORDERS = [
    (p, k) for p in range(2, 65) if is_prime(p) for k in range(2, 13) if p**k <= 4096
]


def test_default_modulus_is_the_first_irreducible_with_constant_term_one():
    assert len(EXTENSION_ORDERS) == 40
    for p, k in EXTENSION_ORDERS:
        default = field_modulus(p, k)
        assert default[0] == 1 and _checked_modulus(p, k, default) == default
        index = sum(c * p**i for i, c in enumerate(default[:k]))
        for low in range(1, index, p):  # every lower index with c0 = 1
            candidate = [low // p**i % p for i in range(k)] + [1]
            with pytest.raises(ReducibleModulusError):
                _check_irreducible(candidate, p)
        if p**k <= 256:
            assert field(p, k).modulus == default
    # the moduli these orders were first built with through --modulus
    assert field_modulus(2, 5) == (1, 0, 1, 0, 0, 1)
    assert field_modulus(2, 6) == (1, 1, 0, 0, 0, 0, 1)
    assert field_modulus(3, 5) == (1, 2, 0, 0, 0, 1)


def test_default_modulus_past_the_table_limit_is_refused_without_a_search():
    start = time.perf_counter()
    for p, k in [(2, 13), (2, 40), (4099, 2)]:
        with pytest.raises(SizeTooLargeError, match="exceeds the table limit 4096"):
            field(p, k)
    with pytest.raises(SizeTooLargeError, match=r"^field order 2\^100000000 exceeds"):
        field(2, 10**8)  # past Python's digit limit, the order is written p^k
    assert time.perf_counter() - start < 1


def test_custom_modulus_table_roundtrip():
    # any valid modulus works; 9 = 3^2 with x^2 + x + 2, no roots mod 3
    ctx = field(3, 2, modulus=(2, 1, 1))
    assert ctx.modulus == (2, 1, 1)
    # trace is basis independent: fibers still balanced
    fibers = [0] * 3
    for a in ctx.elements():
        fibers[a.trace()] += 1
    assert fibers == [3, 3, 3]


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(27) == (3, 3)
    assert prime_power(97) == (97, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n) and prime_power(n) is None
    start = time.perf_counter()
    assert prime_power(10**18 + 3) == (10**18 + 3, 1)
    assert prime_power((10**12 + 39) ** 2) == (10**12 + 39, 2)
    assert prime_power((10**12 + 39) ** 3) == (10**12 + 39, 3)
    assert prime_power(3**4000) == (3, 4000)
    assert time.perf_counter() - start < 1
    # past the exact bound: a factor up to 41 still decides, nothing else does
    past = 3317044064679887385961981
    assert not is_prime(past + 1) and prime_power(past + 1) is None
    with pytest.raises(SizeTooLargeError, match="not decided exactly"):
        is_prime(past + 6)


def test_is_prime_and_prime_power_match_a_sieve():
    limit = 5000
    composite = bytearray(limit)
    powers = {}  # every prime power below the limit
    for p in range(2, limit):
        if not composite[p]:
            composite[p * p :: p] = b"\1" * len(range(p * p, limit, p))
            q, k = p, 1
            while q < limit:
                powers[q] = (p, k)
                q, k = q * p, k + 1
    assert len(powers) == 669 + 42  # 669 primes, 42 higher powers
    for n in range(-3, limit):
        assert is_prime(n) == (n >= 2 and not composite[n]), n
        assert prime_power(n) == powers.get(n), n


def _prime_power_every_k(q):
    """Reference: the exact integer k-th root of q for every k, largest first."""
    for k in range(q.bit_length(), 0, -1):
        lo, hi = 1, 1 << q.bit_length() // k + 1  # largest r with r^k <= q, by bisection
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if mid**k <= q else (lo, mid)
        if lo**k == q:
            return (lo, k) if is_prime(lo) else None
    return None


def test_prime_power_matches_roots_at_every_exponent():
    composite_powers = [
        3**40, 6**12, 2**60, 7**21, 10**30, 2**210, 12**35, 5**77, (10**6 + 3) ** 6,
        (2**31 - 1) ** 15, 30**30 + 1, 2**64 - 1,
    ]
    for q in itertools.chain(range(-2, 20000), composite_powers):
        assert prime_power(q) == _prime_power_every_k(q), q


def test_field_of_order():
    assert field_of_order(9).q == 9
    with pytest.raises(ValueError):
        field_of_order(6)


def polynomial_tables(ctx):
    """Reference build: one polynomial product per table entry, inverses by
    a row scan and each Frobenius step as p-fold multiplication."""
    p, k, q = ctx.p, ctx.k, ctx.q
    decode = [_digits(i, p, k) for i in range(q)]
    add = tuple(
        tuple(_number([(x + y) % p for x, y in zip(a, b)], p) for b in decode) for a in decode
    )
    neg = tuple(_number([-x % p for x in a], p) for a in decode)

    def mul_poly(a, b):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        _, rem = _poly_divmod(prod, ctx.modulus, p)
        return _number(rem + [0] * (k - len(rem)), p)

    mul = tuple(tuple(mul_poly(a, b) for b in decode) for a in decode)
    inv = (None,) + tuple(row.index(1) for row in mul[1:])
    trace = []
    for i in range(q):
        t = acc = i
        for _ in range(k - 1):
            tp = 1
            for _ in range(p):
                tp = mul[tp][t]
            t = tp
            acc = add[acc][t]
        trace.append(acc)
    return add, mul, neg, inv, tuple(trace)


def tables(ctx):
    return ctx._add, ctx._mul, ctx._neg, ctx._inv, ctx._trace


@pytest.mark.parametrize(
    "p, k", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)]
)
def test_tables_match_polynomial_products(p, k):
    # every monic irreducible modulus, primitive or not (x^2 + 1 over F_3)
    moduli = []
    for low in itertools.product(range(p), repeat=k):
        try:
            _check_irreducible(low + (1,), p)
        except ReducibleModulusError:
            continue
        moduli.append(low + (1,))
        ctx = FieldContext(p, k, moduli[-1])
        assert tables(ctx) == polynomial_tables(ctx), moduli[-1]
    assert moduli


@pytest.mark.parametrize("p", [p for p in range(256) if is_prime(p)] + [257, 509, 1021])
def test_prime_field_tables_are_modular_arithmetic(p):
    ctx = FieldContext(p, 1, (0, 1))
    assert tables(ctx) == (
        tuple(tuple((a + b) % p for b in range(p)) for a in range(p)),
        tuple(tuple(a * b % p for b in range(p)) for a in range(p)),
        tuple(-a % p for a in range(p)),
        (None, *(pow(a, -1, p) for a in range(1, p))),
        tuple(range(p)),
    )


def test_no_generator_is_a_check_failure(monkeypatch):
    # only a reducible modulus lacks one, so let two past the check
    monkeypatch.setattr(fields, "_check_irreducible", lambda modulus, p: None)
    for modulus in [(0, 0, 1), (0, 1, 1), (1, 0, 1)]:
        with pytest.raises(CheckFailedError, match="no generator"):
            FieldContext(2, 2, modulus)
