"""Exact arithmetic in Z[zeta_p], the integers extended by a p-th root of unity.

A value is stored as integer coefficients of 1, zeta, ..., zeta^(p-1).
That spanning set is one element too large (the ring has rank p-1 over Z,
because 1 + zeta + ... + zeta^(p-1) = 0), so every value is kept in a
canonical form with the last coefficient pinned to zero: subtract
coeffs[p-1] from every coordinate.  Canonical forms are unique, which
makes equality a coordinate-wise comparison.

This is the value domain for all character arithmetic in the package:
character values are exact roots of unity rather than floats, so the
spectral identities downstream check with ``==`` instead of tolerances.
A sum that ought to be a plain integer but is not collapses loudly via
``NotRationalError`` instead of drifting.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from .errors import ContextMismatchError, NonPrimeError, NotRationalError
from .fields import Frozen, _setattr, is_prime


# the primality of a root order is checked once per p, not once per value
_is_prime_order = functools.lru_cache(maxsize=64)(is_prime)


class Cyclotomic(Frozen):
    """An element of Z[zeta_p] in canonical form (last coefficient zero)."""

    def __init__(self, p: int, coeffs: Sequence[int]):  # p ints, kept as the canonical tuple
        if not _is_prime_order(p):
            raise NonPrimeError(f"root order {p} is not prime")
        if len(coeffs) != p:
            raise ValueError(f"expected {p} coefficients, got {len(coeffs)}")
        last = coeffs[-1]
        _setattr(self, "p", p)
        _setattr(self, "coeffs", tuple(c - last for c in coeffs))

    # -- constructors --------------------------------------------------------

    @classmethod
    def root(cls, p: int, exponent: int) -> "Cyclotomic":
        """zeta_p^exponent (exponent reduced mod p)."""
        coeffs = [0] * p
        coeffs[exponent % p] = 1
        return cls(p, coeffs)

    @classmethod
    def integer(cls, p: int, value: int) -> "Cyclotomic":
        coeffs = [0] * p
        coeffs[0] = value
        return cls(p, coeffs)

    @classmethod
    def zero(cls, p: int) -> "Cyclotomic":
        return cls.integer(p, 0)

    @classmethod
    def from_exponent_counts(cls, p: int, counts: Sequence[int]) -> "Cyclotomic":
        """Contract a histogram over exponents: sum counts[e] * zeta^e.

        This is how enumeration loops hand their tallies over: they count
        occurrences of each trace exponent as plain integers and convert
        to a cyclotomic value exactly once.
        """
        if len(counts) != p:
            raise ValueError(f"expected {p} counts, got {len(counts)}")
        return cls(p, counts)

    # -- ring operations ------------------------------------------------------

    def _check(self, other: "Cyclotomic") -> None:
        if self.p != other.p:
            raise ContextMismatchError(
                f"cannot combine roots of order {self.p} and {other.p}"
            )

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.p, [-a for a in self.coeffs])

    def __mul__(self, other: Cyclotomic | int) -> Cyclotomic:
        if isinstance(other, int):
            return Cyclotomic(self.p, [a * other for a in self.coeffs])
        self._check(other)
        p = self.p
        prod = [0] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[(i + j) % p] += a * b
        return Cyclotomic(p, prod)

    def __rmul__(self, other: int) -> "Cyclotomic":
        return self.__mul__(other)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation: zeta^j -> zeta^(-j)."""
        p = self.p
        coeffs = [0] * p
        for j, c in enumerate(self.coeffs):
            coeffs[(-j) % p] += c
        return Cyclotomic(p, coeffs)

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_integer(self) -> bool:
        return not any(self.coeffs[1:])

    def to_int(self) -> int:
        """Collapse to a plain integer, or raise ``NotRationalError``.

        Raising is deliberate: the quantities this library sums are
        Galois-stable and must land in Z, so failure here flags a bug in
        the caller rather than a legitimate irrational value.
        """
        if not self.is_integer():
            raise NotRationalError(
                f"cyclotomic value {self.coeffs} (order {self.p}) is not an integer"
            )
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_integer() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        if self.is_integer():
            return f"Cyc{self.p}({self.coeffs[0]})"
        terms = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                z = "z" if j == 1 else f"z^{j}"
                terms.append(z if c == 1 else f"{c}*{z}")
        return f"Cyc{self.p}({'+'.join(terms)})"

    def to_json_dict(self) -> dict:
        return {"p": self.p, "coeffs": list(self.coeffs)}
