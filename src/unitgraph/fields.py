"""Exact arithmetic in prime fields F_p and extension fields F_{p^k}.

Elements of F_{p^k} are residue polynomials modulo a monic irreducible
polynomial of degree k over F_p, stored as coefficient vectors with the
constant term first.  Every element is identified with an integer index

    index = c0 + c1*p + ... + c_{k-1}*p^(k-1),

so enumeration by increasing index is exactly lexicographic coefficient
order with the constant term varying fastest.  ``_digits``, ``_number``
and ``_all_digits`` are the one codec between indices and digit tuples,
for elements here and for matrix indices in ``matrices``.  A
``FieldContext`` holds full addition/multiplication/inverse/trace
lookup tables, which keeps all arithmetic exact and O(1).  The tables
come from index arithmetic: the addition rows are built one base-p digit
at a time, each digit a cyclic rotation of blocks of the rows built so
far, and multiplication, inverses and the Frobenius steps of the trace
are lookups in the power and log tables of one generator of the
multiplicative group.  The tables are dense q x q, so the order is
limited to 4096 (about 2 s to build); enumeration work stays at q <= 27.

The absolute trace maps a in F_{p^k} to a + a^p + ... + a^(p^(k-1)),
which always lands in the prime subfield and is returned as a plain
integer in [0, p).

Every order under the table limit has a default modulus, the first
irreducible x^k + ... + c1*x + 1 in element index order; any other monic
irreducible modulus may be passed explicitly, since traces and
everything built on them are independent of the basis choice.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
from collections.abc import Iterator, Sequence

from .errors import (
    CheckFailedError,
    ContextMismatchError,
    NonPrimeError,
    ReducibleModulusError,
    SizeTooLargeError,
)

# Tables are dense q x q; anything bigger than this is outside the design
# scale of the package (exhaustive enumeration work tops out at q = 27).
_MAX_TABLE_ORDER = 4096
# how the hot value types store a field (see ``Frozen``): one global load each
_setattr = object.__setattr__


def _over_cap(q: int, e: int, cap: int) -> bool:
    """q^e > cap, with no q^e built when its bit length alone decides."""
    return e * (q.bit_length() - 1) > cap.bit_length() or q**e > cap


def _power(q: int, e: int) -> str:
    """q^e in decimal where Python prints it, else written q^e."""
    if e * (q.bit_length() - 1) <= 1 << 20:  # q^e has at least this many bits
        with contextlib.suppress(ValueError):  # over Python's int-to-str digit limit
            return str(q**e)
    return f"{q}^{e}"


def _require_table_order(p: int, k: int) -> None:
    if _over_cap(p, k, _MAX_TABLE_ORDER):
        raise SizeTooLargeError(
            f"field order {_power(p, k)} exceeds the table limit {_MAX_TABLE_ORDER}"
        )


# Miller-Rabin with the first 13 primes as bases is exact below the bound
# (Sorenson and Webster, 2015)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_EXACT_PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Trial division by the small primes, then Miller-Rabin with them as
    bases; past the bound, no factor up to 41 raises ``SizeTooLargeError``."""
    if n < 2 or any(n % a == 0 for a in _SMALL_PRIMES):
        return n in _SMALL_PRIMES
    if n >= _EXACT_PRIME_BOUND:
        raise SizeTooLargeError(f"primality past {_EXACT_PRIME_BOUND} is not decided exactly")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for a in _SMALL_PRIMES:  # a^d is 1, or it or one of its s - 1 squares is -1
        x = pow(a, (n - 1) >> s, n)
        squares = itertools.accumulate(range(s - 1), lambda y, _: y * y % n, initial=x)
        if x != 1 and n - 1 not in squares:
            return False
    return True


def prime_power(q: int) -> tuple[int, int] | None:
    """Decompose q as p^k with p prime, or return None.

    Write q = m^k with m no perfect power; q is a prime power exactly when
    m is prime.  A perfect j-th power is a perfect power at every prime
    factor of j, so roots are taken only at prime exponents, in increasing
    order: an exact root replaces q and multiplies k, and the same exponent
    is tried again on it (a root of q that is an i-th power makes q an i-th
    power, so a smaller prime i need not be).  Each root is found by Newton
    steps, which descend to floor(q^(1/j)) from a start above it.
    """
    if q < 2:
        return None
    k, j = 1, 2
    while j <= q.bit_length():
        e = math.log2(q) / j  # its float error is far below the start's margin
        r = int(2**e * 1.000001) + 1 if e < 1000 else 1 << math.ceil(e) + 1
        while (s := ((j - 1) * r + q // r ** (j - 1)) // j) < r:
            r = s
        if r**j == q:
            q, k = r, k * j
        else:
            j = next(i for i in itertools.count(j + 1) if is_prime(i))
    return (q, k) if is_prime(q) else None


# ---------------------------------------------------------------------------
# the digit codec: an element index is its coefficients as base-p digits, a
# matrix index its entries as base-q digits, the least significant first


def _digits(index: int, base: int, count: int) -> tuple[int, ...]:
    """The ``count`` lowest base-``base`` digits of index, least significant first."""
    digits = []
    for _ in range(count):
        index, digit = divmod(index, base)
        digits.append(digit)
    return tuple(digits)


def _number(digits: Sequence[int], base: int) -> int:
    """Inverse of ``_digits``: the number with these digits."""
    index = 0
    for digit in reversed(digits):
        index = index * base + digit
    return index


def _all_digits(base: int, count: int) -> Iterator[tuple[int, ...]]:
    """``_digits(t, base, count)`` for every t < base**count, in order of t
    (itertools.product varies its last place fastest, so each is reversed)."""
    return (rev[::-1] for rev in itertools.product(range(base), repeat=count))


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, constant term first)


def _poly_divmod(num: Sequence[int], den: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Division with remainder; den must be monic."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - dd - 1, -1, -1):
        c = num[i + dd] % p
        if c:
            quot[i] = c
            for j, d in enumerate(den):
                num[i + j] = (num[i + j] - c * d) % p
    rem = [c % p for c in num[:dd]]
    return quot, rem


def _check_irreducible(modulus: Sequence[int], p: int) -> None:
    """Trial division by every monic polynomial of degree 1 to k // 2.

    A reducible modulus of degree k has a monic factor of degree at most
    k // 2.  Linear factors x - r are tried by ascending root r; higher
    degrees by their coefficients from the top down, so quadratics by x
    coefficient, then constant.  Under the table limit that is at most
    126 divisions (degree 12 over F_2).
    """
    for d in range(1, (len(modulus) - 1) // 2 + 1):
        for low in _all_digits(p, d):
            factor = [-low[0] % p, 1] if d == 1 else [*low, 1]
            if not any(_poly_divmod(modulus, factor, p)[1]):
                found = f"has root {low[0]}" if d == 1 else f"is divisible by {factor}"
                raise ReducibleModulusError(f"modulus {list(modulus)} {found} over F_{p}")


# ---------------------------------------------------------------------------
# the value types: their base, the field context and its elements


class Frozen:
    """Base of the immutable value types: the fields are the parameters of
    ``__init__``, which stores them once (hot types use ``_setattr``, which
    keeps CPython's inline attribute values).  Then read-only; equal, hashed
    and shown by the fields."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        cls._values = operator.attrgetter(*cls._fields)  # a tuple: every type has two or more

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))


def _checked_modulus(p: int, k: int, modulus: Sequence[int]) -> tuple[int, ...]:
    """The modulus reduced mod p, once F_{p^k} passes every check a
    ``FieldContext`` makes before it builds its tables."""
    if not is_prime(p):
        raise NonPrimeError(f"{p} is not prime")
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    modulus = tuple(c % p for c in modulus)
    if len(modulus) != k + 1 or modulus[-1] != 1:
        raise ValueError(f"modulus must be monic of degree {k}, got {list(modulus)}")
    _require_table_order(p, k)
    _check_irreducible(modulus, p)
    return modulus


class FieldContext(Frozen):
    """A finite field F_{p^k} with dense arithmetic tables.

    Identity is structural: two contexts with the same (p, k, modulus)
    compare and hash equal, so serialized data round-trips across
    independently built contexts.  Instances are immutable.
    """

    def __init__(self, p: int, k: int, modulus: Sequence[int]):  # kept reduced mod p
        _setattr(self, "p", p)
        _setattr(self, "k", k)
        _setattr(self, "modulus", _checked_modulus(p, k, modulus))
        _setattr(self, "q", p**k)
        self._build_tables()

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    # -- table construction -------------------------------------------------

    def _build_tables(self) -> None:
        """Every table by index arithmetic, with no product per entry.

        Addition adds base-p digits mod p, so row i + s*b (i < b, b a power
        of p) is row i with the p blocks of b entries in every run of p*b
        rotated by s: the rows are built one digit at a time.  The nonzero
        elements are the powers of one generator g, so with its power and
        log tables a product adds logs mod q-1, an inverse negates a log
        and the Frobenius a -> a^p multiplies it by p.
        """
        p, k, q = self.p, self.k, self.q
        add = [tuple(range(q))]
        b = 1
        while b < q:
            run = p * b
            add += [
                tuple(
                    itertools.chain.from_iterable(
                        row[r + s * b : r + run] + row[r : r + s * b] for r in range(0, q, run)
                    )
                )
                for s in range(1, p)
                for row in add
            ]
            b = run
        object.__setattr__(self, "_add", tuple(add))
        object.__setattr__(self, "_neg", tuple(row.index(0) for row in add))

        def mul_poly(a: int, b: int) -> int:
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(_digits(a, p, k)):
                for j, y in enumerate(_digits(b, p, k)):
                    prod[i + j] += x * y
            return _number(_poly_divmod(prod, self.modulus, p)[1], p)

        order = q - 1
        for g in range(1, q):  # log[g^e] = e until a power repeats
            log = {1: 0}
            x = g
            while x not in log:
                log[x] = len(log)
                x = mul_poly(x, g)
            if x == 1 and len(log) == order:
                break
        else:
            raise CheckFailedError(f"no generator of the multiplicative group of {self!r}")
        powers = list(log)
        logs = [log[i] for i in range(1, q)]
        twice = powers * 2
        object.__setattr__(
            self,
            "_mul",
            ((0,) * q,) + tuple((0, *map(twice[e : e + order].__getitem__, logs)) for e in logs),
        )
        object.__setattr__(self, "_inv", (None, *(powers[-e] for e in logs)))

        # absolute trace: a + a^p + ... + a^(p^(k-1)), always in F_p
        frobenius = [p**j % order for j in range(1, k)]
        trace = [0]
        for i, e in enumerate(logs, 1):
            acc = i
            for f in frobenius:
                acc = add[acc][powers[e * f % order]]
            if acc >= p:
                raise CheckFailedError(
                    f"trace of element {i} in {self!r} fell outside the prime subfield"
                )
            trace.append(acc)
        object.__setattr__(self, "_trace", tuple(trace))

    # -- element construction ------------------------------------------------

    def element(self, value: int | Sequence[int] | FieldElement) -> FieldElement:
        """Build an element from an index, a coefficient list, or itself."""
        if isinstance(value, FieldElement):
            if value.ctx != self:
                raise ContextMismatchError(f"element of {value.ctx!r} is not in {self!r}")
            return value
        if isinstance(value, int):
            if not 0 <= value < self.q:
                raise ValueError(f"element index {value} out of range for {self!r}")
            return FieldElement(self, value)
        coeffs = list(value)
        if len(coeffs) != self.k:
            raise ValueError(f"expected {self.k} coefficients, got {len(coeffs)}")
        return FieldElement(self, _number([c % self.p for c in coeffs], self.p))

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self) -> Iterator["FieldElement"]:
        """All q elements, in index order (starts at 0)."""
        for i in range(self.q):
            yield FieldElement(self, i)


class FieldElement(Frozen):
    """An element of a ``FieldContext``, immutable and hashable.

    Supports +, -, *, unary -, ``inverse()`` and division; mixing elements
    from different contexts raises ``ContextMismatchError``.
    """

    def __init__(self, ctx: FieldContext, index: int):
        _setattr(self, "ctx", ctx)
        _setattr(self, "index", index)

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Residue polynomial coefficients, constant term first."""
        return _digits(self.index, self.ctx.p, self.ctx.k)

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatchError(
                f"cannot combine elements of {self.ctx!r} and {other.ctx!r}"
            )

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.ctx, self.ctx._add[self.index][other.index])

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.ctx, self.ctx._add[self.index][self.ctx._neg[other.index]])

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.ctx, self.ctx._mul[self.index][other.index])

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx._neg[self.index])

    def inverse(self) -> "FieldElement":
        inv = self.ctx._inv[self.index]
        if inv is None:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return FieldElement(self.ctx, inv)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return self * other.inverse()

    def trace(self) -> int:
        """Absolute trace into the prime subfield, as an int in [0, p)."""
        return self.ctx._trace[self.index]

    def is_zero(self) -> bool:
        return self.index == 0

    def __repr__(self):
        return f"{self.ctx!r}[{poly_str(self.coeffs)}]"


def poly_str(coeffs: Sequence[int]) -> str:
    """Human-readable form of a coefficient list, e.g. ``x^2+x+1``."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            var = "x" if i == 1 else f"x^{i}"
            terms.append(var if c == 1 else f"{c}{var}")
    return "+".join(terms) if terms else "0"


@functools.cache
def _cached_context(p: int, k: int, modulus: tuple[int, ...]) -> FieldContext:
    return FieldContext(p, k, modulus)


def field_modulus(p: int, k: int = 1, modulus: Sequence[int] | None = None) -> tuple[int, ...]:
    """The modulus ``field`` would build F_{p^k} with, after every check
    it makes, without building any table.

    For k = 1 the modulus is the placeholder ``x`` and need not be given.
    For k >= 2 an explicit modulus wins; otherwise, under the table
    limit, the default is the first irreducible x^k + ... + c1*x + 1 by
    index c0 + c1*p + ..., as for elements.  The constant term is fixed
    at 1 because element indices, and so every stored subset and report,
    depend on the modulus: the least index alone would move GF(25) from
    x^2 + x + 1 to x^2 + 2.
    """
    if not is_prime(p):
        raise NonPrimeError(f"{p} is not prime")
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    if k == 1:
        if modulus is not None and tuple(c % p for c in modulus) != (0, 1):
            raise ValueError("prime fields use the fixed placeholder modulus x")
        modulus = (0, 1)
    elif modulus is None:
        _require_table_order(p, k)  # before a candidate of k + 1 coefficients is built
        for low in _all_digits(p, k - 1):  # c1 .. c_{k-1}, c1 fastest
            with contextlib.suppress(ReducibleModulusError):
                return _checked_modulus(p, k, (1, *low, 1))
    return _checked_modulus(p, k, modulus)


def field(p: int, k: int = 1, modulus: Sequence[int] | None = None) -> FieldContext:
    """Build (or fetch from cache) the field F_{p^k} (see ``field_modulus``)."""
    return _cached_context(p, k, field_modulus(p, k, modulus))


def field_of_order(q: int, modulus: Sequence[int] | None = None) -> FieldContext:
    """Build the field of order q, factoring q = p^k automatically."""
    pk = prime_power(q)
    if pk is None:
        raise ValueError(f"{q} is not a prime power")
    p, k = pk
    return field(p, k, modulus=modulus)
