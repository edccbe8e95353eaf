"""Exact n x n matrix algebra over a finite field.

Matrices are immutable; entries are stored internally as a flat row-major
tuple of element indices into the field's tables, which keeps the
exhaustive-enumeration paths (hundreds of thousands of matrices) cheap
while the public surface still deals in ``FieldElement`` values.

Enumeration order is contractual: the matrix at enumeration index ``t``
has entry ``digit_pos(t)`` at row-major position ``pos = i*n + j``, where
``digit_pos`` is the base-q digit with position 0 least significant.  In
other words the (0,0) entry varies fastest, mirroring the field's own
constant-term-fastest element order.  The index <-> matrix maps are
exposed and invertible, so stored vertex/subset indices are reproducible
bit-for-bit across runs; they and the enumeration use the digit codec of
``fields``.

Exhaustive work reads cached rank blocks, shared between equal row spans,
a rank byte per enumeration index: the rank census is their histogram and
GL_n(F_q) is the stream of matrices whose byte is n.  ``Matrix.rank`` and
determinants for n > 3 share one elimination routine; the unrolled n <= 3
determinant is kept apart, so the graph built from it checks the blocks.
"""

from __future__ import annotations

import collections
import functools
import itertools
from collections.abc import Iterable, Iterator, Sequence

from .errors import ContextMismatchError, SizeTooLargeError
from .fields import FieldContext, FieldElement, Frozen
from .fields import _all_digits, _digits, _number, _over_cap, _power, _setattr

# Streams larger than this refuse to start rather than run for hours;
# override per call where the caller knows better.  2^24 covers 5^9 =
# 1953125 (the census of the benchmark) and exactly reaches GF(64) at
# n = 2, 64^4 = 2^24.
DEFAULT_ENUM_CAP = 2**24

# ``graph``'s order cap, here so the CLI reads it without loading ``graph``: 4096 vertices
# cover every verified configuration; more are opt-in (the simplicity scan holds N^2 bytes).
DEFAULT_MAX_ORDER = 4096

EntryLike = FieldElement | int


class Matrix(Frozen):
    """An immutable n x n matrix over a ``FieldContext``."""

    def __init__(self, ctx: FieldContext, n: int, flat: tuple[int, ...]):
        if n < 1:
            raise ValueError(f"matrix dimension must be >= 1, got {n}")
        if len(flat) != n * n:
            raise ValueError(f"expected {n * n} entries, got {len(flat)}")
        _setattr(self, "ctx", ctx)
        _setattr(self, "n", n)
        _setattr(self, "flat", flat)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_rows(cls, ctx: FieldContext, rows: Sequence[Sequence[EntryLike]]) -> "Matrix":
        """Build from nested sequences of field elements or element indices."""
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix rows must all have length n")
        return cls(ctx, n, tuple(ctx.element(e).index for row in rows for e in row))

    @classmethod
    def zero(cls, ctx: FieldContext, n: int) -> "Matrix":
        return cls(ctx, n, (0,) * (n * n))

    @classmethod
    def identity(cls, ctx: FieldContext, n: int) -> "Matrix":
        return rank_representative(ctx, n, n)

    # -- views -------------------------------------------------------------------

    def entry(self, i: int, j: int) -> FieldElement:
        return FieldElement(self.ctx, self.flat[i * self.n + j])

    @property
    def rows(self) -> tuple[tuple[FieldElement, ...], ...]:
        return tuple(tuple(self.entry(i, j) for j in range(self.n)) for i in range(self.n))

    def to_json_dict(self) -> dict:
        """Each entry as its coefficient list, constant term first."""
        n, p, k = self.n, self.ctx.p, self.ctx.k
        coeffs = [list(_digits(x, p, k)) for x in self.flat]
        return {"q": self.ctx.q, "n": n, "entries": [coeffs[i : i + n] for i in range(0, n * n, n)]}

    # -- ring operations -----------------------------------------------------------

    def _check(self, other: "Matrix") -> None:
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other).__name__}")
        if self.ctx != other.ctx:
            raise ContextMismatchError("matrices built over different fields")
        if self.n != other.n:
            raise ContextMismatchError(
                f"dimension mismatch: {self.n} vs {other.n}"
            )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        add = self.ctx._add
        return Matrix(
            self.ctx, self.n, tuple(add[a][b] for a, b in zip(self.flat, other.flat))
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        add, neg = self.ctx._add, self.ctx._neg
        return Matrix(
            self.ctx, self.n, tuple(add[a][neg[b]] for a, b in zip(self.flat, other.flat))
        )

    def __neg__(self) -> "Matrix":
        neg = self.ctx._neg
        return Matrix(self.ctx, self.n, tuple(neg[a] for a in self.flat))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        n = self.n
        add, mul = self.ctx._add, self.ctx._mul
        a, b = self.flat, other.flat
        out = []
        for i in range(n):
            for j in range(n):
                acc = 0
                for t in range(n):
                    acc = add[acc][mul[a[i * n + t]][b[t * n + j]]]
                out.append(acc)
        return Matrix(self.ctx, n, tuple(out))

    def trace(self) -> FieldElement:
        add = self.ctx._add
        acc = 0
        for i in range(self.n):
            acc = add[acc][self.flat[i * self.n + i]]
        return FieldElement(self.ctx, acc)

    def det(self) -> FieldElement:
        return FieldElement(self.ctx, _det_flat(self.ctx, self.n, self.flat))

    def rank(self) -> int:
        return _eliminate(self.ctx, self.n, self.flat)[0]

    def is_invertible(self) -> bool:
        return _det_flat(self.ctx, self.n, self.flat) != 0

    def __repr__(self):
        n = self.n
        rows = [
            "[" + " ".join(str(self.flat[i * n + j]) for j in range(n)) + "]"
            for i in range(n)
        ]
        return f"Matrix({self.ctx!r}, {'; '.join(rows)})"


def rank_representative(ctx: FieldContext, n: int, r: int) -> Matrix:
    """The diagonal 0/1 matrix with r leading ones (so of rank exactly r)."""
    if not 0 <= r <= n:
        raise ValueError(f"rank must be in [0, {n}], got {r}")
    flat = [0] * (n * n)
    for i in range(r):
        flat[i * n + i] = 1
    return Matrix(ctx, n, tuple(flat))


# ---------------------------------------------------------------------------
# determinant / rank on flat index tuples (the hot path)


def _det_flat(ctx: FieldContext, n: int, flat: Sequence[int]) -> int:
    add, mul, neg = ctx._add, ctx._mul, ctx._neg
    if n == 1:
        return flat[0]
    if n == 2:
        a, b, c, d = flat
        return add[mul[a][d]][neg[mul[b][c]]]
    if n == 3:
        a, b, c, d, e, f, g, h, i = flat
        m1 = mul[a][add[mul[e][i]][neg[mul[f][h]]]]
        m2 = mul[b][add[mul[d][i]][neg[mul[f][g]]]]
        m3 = mul[c][add[mul[d][h]][neg[mul[e][g]]]]
        return add[add[m1][neg[m2]]][m3]
    return _eliminate(ctx, n, flat)[1]


def _eliminate(ctx: FieldContext, n: int, flat: Sequence[int]) -> tuple[int, int]:
    """(rank, det) by row echelon form, first-nonzero pivot in column order."""
    add, mul, neg, inv = ctx._add, ctx._mul, ctx._neg, ctx._inv
    rows = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
    rank, det = 0, 1
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            det = 0
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = neg[det]
        pv = rows[rank][col]
        det = mul[det][pv]
        pv_inv = inv[pv]
        for r in range(rank + 1, n):
            factor = rows[r][col]
            if factor:
                scale = mul[factor][pv_inv]
                rows[r] = [
                    add[x][neg[mul[scale][y]]] for x, y in zip(rows[r], rows[rank])
                ]
        rank += 1
    return rank, det


# ---------------------------------------------------------------------------
# enumeration


def matrix_count(ctx: FieldContext, n: int) -> int:
    return ctx.q ** (n * n)


def _require_under_cap(ctx: FieldContext, n: int, cap: int) -> None:
    if _over_cap(ctx.q, n * n, cap):
        raise SizeTooLargeError(
            f"enumerating {_power(ctx.q, n * n)} matrices over {ctx!r} exceeds the cap {cap}"
        )


def matrix_from_index(ctx: FieldContext, n: int, index: int) -> Matrix:
    """Inverse of ``matrix_to_index`` (see module docstring for the order)."""
    total = matrix_count(ctx, n)
    if not 0 <= index < total:
        raise ValueError(f"matrix index {index} out of range [0, {total})")
    return Matrix(ctx, n, _digits(index, ctx.q, n * n))


def matrix_to_index(m: Matrix) -> int:
    return _number(m.flat, m.ctx.q)


def enumerate_matrices(
    ctx: FieldContext, n: int, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[Matrix]:
    """All q^(n^2) matrices, exactly once, in enumeration-index order."""
    _require_under_cap(ctx, n, cap)
    for flat in _all_digits(ctx.q, n * n):
        yield Matrix(ctx, n, flat)


def enumerate_invertible(
    ctx: FieldContext, n: int, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[Matrix]:
    """The subsequence of ``enumerate_matrices`` with nonzero determinant."""
    _require_under_cap(ctx, n, cap)
    is_gl = bytes(r == n for r in range(256))
    mask = itertools.chain.from_iterable(block.translate(is_gl) for block in _rank_blocks(ctx, n))
    for flat in itertools.compress(_all_digits(ctx.q, n * n), mask):
        yield Matrix(ctx, n, flat)


@functools.lru_cache(maxsize=2)
def _rank_blocks(ctx: FieldContext, n: int) -> list[bytes]:
    """Byte u of block i is the rank of matrix i q^n + u, whose row 0 is u.

    Rows 1..n-1 are the base-q^n digits of i, and their span is carried as a
    frozenset of row indices (a row's index is its own n digits of the matrix
    index).  The spans are built level by level, row n-1 (the slowest) first, so
    level k lists the span of rows n-k..n-1 for each of their choices in index
    order.  Extending a span by a row u outside it builds the new subspace once
    and records it for every other row it adds, so each subspace is built once
    per subspace one dimension below it.  A block reads rank(span) inside the
    span and one more outside, so equal spans share one ``bytes`` object:
    sum_{d<n} [n, d]_q distinct blocks in all.

    Callers check their own enumeration cap first; the blocks are uncapped.
    """
    q, size = ctx.q, ctx.q**n
    add, mul = ctx._add, ctx._mul
    vectors = list(_all_digits(q, n))
    spans: dict[frozenset, frozenset] = {}  # one object per distinct subspace
    grown: dict[tuple[frozenset, int], frozenset] = {}  # (span, u) -> span + <u>

    def extend(span: frozenset, u: int) -> frozenset:
        if u in span:
            return span
        new = grown.get((span, u))
        if new is None:
            new = frozenset(
                _number([add[a][mul[c][b]] for a, b in zip(vectors[s], vectors[u])], q)
                for s in span
                for c in range(q)
            )
            new = spans.setdefault(new, new)
            for w in new - span:
                grown[span, w] = new
        return new

    @functools.cache
    def complete(span: frozenset) -> bytes:
        rank = next(r for r in range(n) if q**r == len(span))
        return bytes(rank + (u not in span) for u in range(size))

    level = [frozenset([0])]
    for _ in range(n - 1):
        level = [extend(span, u) for span in level for u in range(size)]
    return list(map(complete, level))


def _rank_bytes(ctx: FieldContext, n: int) -> bytes:
    """Byte t is the rank of matrix t: the rank blocks joined."""
    return b"".join(_rank_blocks(ctx, n))


def gl_order(q: int, n: int) -> int:
    """|GL_n(F_q)| = prod_{k=0}^{n-1} (q^n - q^k), as an exact integer (1 at n = 0)."""
    if q < 2 or n < 0:
        raise ValueError(f"need q >= 2 and n >= 0, got q={q}, n={n}")
    qn = q**n
    order = 1
    for k in range(n):
        order *= qn - q**k
    return order


def rank_census(ctx: FieldContext, n: int, cap: int = DEFAULT_ENUM_CAP) -> list[int]:
    """Exhaustive count of matrices by rank: counts[r] for r = 0..n, each
    distinct block's histogram times its copies."""
    _require_under_cap(ctx, n, cap)
    blocks = collections.Counter(_rank_blocks(ctx, n))
    return [sum(k * block.count(r) for block, k in blocks.items()) for r in range(n + 1)]


def indices_from_index_file(ctx: FieldContext, n: int, lines: Iterable[str]) -> list[int]:
    """Parse newline-separated enumeration indices, each checked to be in
    range; blank lines and ``#`` comments are skipped."""
    total = matrix_count(ctx, n)
    out = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            idx = int(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: not an integer index: {raw!r}") from exc
        if not 0 <= idx < total:
            raise ValueError(f"line {lineno}: matrix index {idx} out of range [0, {total})")
        out.append(idx)
    return out
