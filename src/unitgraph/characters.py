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
digit by digit.  Over a set of matrices, every label's character sum at
once is one transform of the set's indicator (``_character_sums``).
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence

from .cyclotomic import Cyclotomic
from .errors import ContextMismatchError, NotRationalError
from .fields import FieldContext, FieldElement, _all_digits, _digits, _number
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


# ---------------------------------------------------------------------------
# every label's character sum over a set, by one transform of its indicator


@functools.lru_cache(maxsize=8)
def _trace_duals(ctx: FieldContext) -> tuple[int, ...]:
    """Entry a is the element whose base-p digit t is Tr(a x^t): the
    coefficients of b, dotted with it, give Tr(a b).  The identity at k = 1."""
    p, mul, trace = ctx.p, ctx._mul, ctx._trace
    return tuple(_number([trace[mul[a][p**t]] for t in range(ctx.k)], p) for a in range(ctx.q))


def _dual_index(ctx: FieldContext, n: int, label_flat: Sequence[int]) -> int:
    """The index u whose digit products <u, t> (base-p digits of u and t,
    multiplied place by place and summed mod p) are the label's trace
    exponents at every matrix t.  Entry b[j,i] of a matrix meets the label's
    a[i,j] in tr(A B), so u is the label transposed, each entry read as its
    trace dual (``_trace_duals``)."""
    duals = _trace_duals(ctx)
    return _number([duals[label_flat[j * n + i]] for i in range(n) for j in range(n)], ctx.q)


def _index_character(u: int, p: int, digits: int) -> bytes:
    """Entry t is <u, t> for every t < p^digits, built one digit of t at a
    time: the exponents ``_exponents`` gives a label with dual index u."""
    shift, exps = _shift_tables(p), b"\0"
    for d in _digits(u, p, digits):
        exps = b"".join(exps.translate(shift[d * x % p]) for x in range(p))
    return exps


def _character_sums(indicator: bytes, p: int) -> list[int]:
    """Entry u is sum_(t in S) zeta_p^<u, t> (``_dual_index``) for the set S
    whose 0/1 indicator over the p^D indices is given: the character sum
    over S of every label at once, the label with dual index u at entry u.

    ``_transform`` counts the exponents of each entry.  The sum is an
    integer exactly when the counts of the exponents 1..p-1 agree, and it
    is then count 0 minus count 1; otherwise ``NotRationalError``.
    """
    width = (indicator.count(1).bit_length() + 7) // 8 or 1  # no count exceeds |S|
    records, size = _transform(indicator, p, width), p * width

    def counts(e: int) -> bytearray:  # count e of every entry, in order
        out = bytearray(len(indicator) * width)
        for j in range(width):
            out[j::width] = records[e * width + j :: size]
        return out

    zero, one = counts(0), counts(1)
    if any(counts(e) != one for e in range(2, p)):
        for u in range(len(indicator)):
            entry = records[u * size : (u + 1) * size]
            found = [int.from_bytes(entry[i : i + width], "little") for i in range(0, size, width)]
            if found[1:] != found[1:2] * (p - 1):
                raise NotRationalError(
                    f"character sum {u} did not collapse to an integer: exponent counts {found}"
                )
    return [
        int.from_bytes(zero[i : i + width], "little") - int.from_bytes(one[i : i + width], "little")
        for i in range(0, len(zero), width)
    ]


def _transform(indicator: bytes, p: int, width: int) -> bytes:
    """Entry u counts, for each exponent e, the members t of the set with
    <u, t> = e: p fields of ``width`` bytes (least significant first) at
    bytes [u p width, (u + 1) p width).

    One stage per base-p digit.  A stage splits the entries into X_a, those
    whose top digit is a, and writes sum_a zeta^(a c) X_a to the entries
    whose bottom digit is c, the other digits moved up one place; after the
    last stage every digit is back in its place, as u's.  Multiplying by
    zeta^s rotates an entry's fields by s.  An entry's fields add up to the
    members it has met, so none passes the set's size, which ``width``
    holds, and none carries into the next.  The first stage needs no
    rotation: its entries hold exponent 0 alone, so bit a of X_a goes to
    field a c.  With one digit (n = 1 over a prime field) that stage is
    all.
    """
    order, size = len(indicator), p * width
    m = order // p  # entries per value of the top digit
    parts = [indicator[a * m : (a + 1) * m] for a in range(p)]
    out = bytearray(order * size)
    out[:: p * size] = sum(int.from_bytes(x, "little") for x in parts).to_bytes(m, "little")
    for c in range(1, p):
        for a, x in enumerate(parts):
            out[c * size + a * c % p * width :: p * size] = x

    bits, block = 8 * width, m * size
    low = [  # the fields below f of every entry in a block
        int.from_bytes((b"\xff" * (f * width) + bytes((p - f) * width)) * m, "little")
        for f in range(p)
    ]

    def times_root(x: int, s: int) -> int:  # field e to field e + s mod p
        if not s:
            return x
        return ((x & low[p - s]) << bits * s) | ((x >> bits * (p - s)) & low[s])

    stride = p
    while stride < order:
        xs = [int.from_bytes(out[a * block : (a + 1) * block], "little") for a in range(p)]
        for c in range(p):
            new = sum(times_root(x, a * c % p) for a, x in enumerate(xs)).to_bytes(block, "little")
            for j in range(size):
                out[c * size + j :: p * size] = new[j::size]
        stride *= p
    return bytes(out)
