"""Additive characters of F_q and of the matrix group (Mat_n(F_q), +).

The canonical character sends a field element to zeta_p raised to its
absolute trace.  Scaling the argument by a fixed element b (resp. a fixed
matrix A, under the matrix trace of A*B) yields the full character family;
the scaling value acts as the character's label, and labels are plain
data (field elements / matrices), so they serialize into reports.

Character values are exact ``Cyclotomic`` numbers.  For bulk work the
functions below also expose the underlying exponent (an integer in
[0, p)), which is what the enumeration loops histogram over; over all
matrices at once they are one ``bytes`` object (up to p = 256), built
digit by digit.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence

from .cyclotomic import Cyclotomic
from .errors import ContextMismatchError
from .fields import FieldContext, FieldElement, _all_digits
from .matrices import DEFAULT_ENUM_CAP, Matrix, _require_under_cap


def field_char(label: FieldElement, c: FieldElement) -> Cyclotomic:
    """Character of F_q with the given label: zeta_p^Tr(label * c)."""
    if label.ctx != c.ctx:
        raise ContextMismatchError("label and argument built over different fields")
    ctx = label.ctx
    return Cyclotomic.root(ctx.p, ctx._trace[ctx._mul[label.index][c.index]])


def matrix_trace_exponent(label: Matrix, b: Matrix) -> int:
    """Tr(tr(label @ b)) as an integer exponent in [0, p)."""
    if label.ctx != b.ctx or label.n != b.n:
        raise ContextMismatchError("label and argument have mismatched context or size")
    return _exponent_of(label.ctx, _label_terms(label.ctx, label.n, label.flat), b.flat)


def matrix_char(label: Matrix, b: Matrix) -> Cyclotomic:
    """Character of (Mat_n(F_q), +) with a matrix label: zeta_p^Tr(tr(A B))."""
    return Cyclotomic.root(label.ctx.p, matrix_trace_exponent(label, b))


def char_vector(label: Matrix, cap: int = DEFAULT_ENUM_CAP) -> list[Cyclotomic]:
    """The character evaluated at every matrix, in enumeration order."""
    p = label.ctx.p
    return [Cyclotomic.root(p, e) for e in char_exponents(label, cap=cap)]


def char_exponents(label: Matrix, cap: int = DEFAULT_ENUM_CAP) -> list[int]:
    """The character's trace exponent at every matrix, in order (``_exponents``)."""
    ctx, n = label.ctx, label.n
    _require_under_cap(ctx, n, cap)
    return list(_exponents(ctx, n, label.flat, n * n))


# ---------------------------------------------------------------------------
# internals shared with the spectra/graph enumeration loops


def _label_terms(ctx: FieldContext, n: int, label_flat: Sequence[int]) -> list[tuple[int, int]]:
    """Nonzero contributions to tr(A B) = sum_{i,j} a[i,j] * b[j,i].

    Returns (flat position of b[j,i], index of a[i,j]) pairs so the inner
    loop touches only the label's support; rank-r diagonal labels cost r
    additions per matrix.
    """
    terms = []
    for i in range(n):
        for j in range(n):
            a = label_flat[i * n + j]
            if a:
                terms.append((j * n + i, a))
    return terms


def _exponent_of(ctx: FieldContext, terms: Sequence[tuple[int, int]], flat: Sequence[int]) -> int:
    add, mul = ctx._add, ctx._mul
    acc = 0
    for pos, a in terms:
        acc = add[acc][mul[a][flat[pos]]]
    return ctx._trace[acc]


# exponents lie in [0, p), so they fit one byte each up to this p; only
# prime fields of order 257..4093 are past it
_BYTE_MAX_P = 256


@functools.lru_cache(maxsize=8)
def _shift_tables(p: int) -> list[bytes]:
    """``bytes.translate`` tables adding s mod p to every exponent byte."""
    return [bytes((e + s) % p for e in range(256)) for s in range(p)]


def _exponents(ctx: FieldContext, n: int, label_flat: Sequence[int], digits: int) -> Sequence[int]:
    """Entry t is the label's trace exponent at matrix t, for t < q^digits.

    ``digits`` low digit positions are covered (n^2 for every matrix).
    Up to p = ``_BYTE_MAX_P`` the result is one ``bytes`` object, built
    digit by digit: position pos of a matrix index is the entry b[j,i]
    that meets the label entry a[i,j] in tr(A B), so appending position
    pos maps the exponents e of the lower positions to e + Tr(a[i,j] * d)
    for each digit d: one translated copy per d, or q plain copies when
    a[i,j] = 0.  A larger p gets a list, one matrix at a time.
    """
    if ctx.p > _BYTE_MAX_P:
        terms = _label_terms(ctx, n, label_flat)
        flats = itertools.islice(_all_digits(ctx.q, n * n), ctx.q**digits)
        return [_exponent_of(ctx, terms, flat) for flat in flats]
    shift = _shift_tables(ctx.p)
    mul, trace = ctx._mul, ctx._trace
    exps = b"\0"
    for pos in range(digits):
        j, i = divmod(pos, n)
        a = label_flat[i * n + j]
        if a:
            exps = b"".join(exps.translate(shift[trace[mul[a][d]]]) for d in range(ctx.q))
        else:
            exps *= ctx.q
    return exps
