"""Spectral gap consequences for vertex subsets of Mat_3(F_q).

The graph is regular with one dominant eigenvalue, so two subsets whose
geometric mean size clears a threshold must span at least one edge, i.e.
must contain matrices whose difference is invertible.  The exact
threshold is the rational

    n_* = q^9 / (q^3 - 1),

and the integer bound actually used for the subset test is q^6 + q^3 + 2,
which strictly exceeds n_* for every q >= 2 (checked here by integer
cross-multiplication, never by floating point).

``check_spectral_gap`` combines the threshold, the size test, and an
exhaustive witness scan.  If the size test fires and the scan finds no
witness, the theorem (or more likely this implementation) is broken, and
a ``TheoremViolationError`` tripwire goes off.  The bound is about sets,
so a subset that lists one matrix twice is rejected with a ``ValueError``.

The scan visits the pairs (a, b) in input order and takes one of two
routes, chosen from q^(n^2) alone.  Up to ``DEFAULT_ENUM_CAP`` matrices it
reads invertibility from the cached rank table: a matrix index is a
base-q number whose digits are the entries, so index(b - a) is a sum of
one looked-up term per block of digits (per row, at n = 3).  Above the
cap (n = 3 and q >= 7) it computes the unrolled determinant of every
b - a.  Both routes return the same pair.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import CheckFailedError, ContextMismatchError, SizeTooLargeError, TheoremViolationError
from .fields import FieldContext
from .matrices import DEFAULT_ENUM_CAP, Matrix, _det_flat, _rank_table, matrix_count
from .spectra import eigenvalue_closed_form


@dataclass(frozen=True)
class GapThreshold:
    q: int
    n_star: Fraction
    integer_bound: int


def spectral_threshold(q: int) -> GapThreshold:
    """The exact rational threshold and its integer bound, with the strict
    inequality n_* < bound re-proved in integers for this q."""
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    n_star = Fraction(q**9, q**3 - 1)
    bound = q**6 + q**3 + 2
    # n_star < bound  <=>  q^9 < (q^3 - 1) * bound, all in exact integers
    if not q**9 < (q**3 - 1) * bound:
        raise CheckFailedError(
            f"threshold inequality failed at q={q}: {n_star} >= {bound}"
        )
    return GapThreshold(q, n_star, bound)


def max_nontrivial_eigenvalue(q: int) -> int:
    """Largest eigenvalue magnitude over nonzero labels (ranks 1..3).

    The rank-1 magnitude dominates for every q >= 2; the max is computed
    rather than assumed, and the dominance itself is covered by tests.
    """
    return max(abs(eigenvalue_closed_form(q, r)) for r in (1, 2, 3))


@dataclass(frozen=True)
class GapReport:
    """Outcome of one subset-pair query, JSON-serializable in full."""

    q: int
    n_star_num: int
    n_star_den: int
    integer_bound: int
    size_x: int
    size_y: int
    guaranteed: bool
    witness: Optional[tuple[Matrix, Matrix]]
    seed: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "n_star_num": self.n_star_num,
            "n_star_den": self.n_star_den,
            "integer_bound": self.integer_bound,
            "set_sizes": [self.size_x, self.size_y],
            "guaranteed": self.guaranteed,
            "witness": (
                None
                if self.witness is None
                else {
                    "a": self.witness[0].to_json_dict(),
                    "b": self.witness[1].to_json_dict(),
                }
            ),
            "seed": self.seed,
        }


def _shared_context(xs: Sequence[Matrix], ys: Sequence[Matrix]) -> tuple[FieldContext, int]:
    if not xs or not ys:
        raise ValueError("subsets must be nonempty")
    ctx, n = xs[0].ctx, xs[0].n
    for m in itertools.chain(xs, ys):
        if (m.ctx is not ctx and m.ctx != ctx) or m.n != n:
            raise ContextMismatchError("subset matrices built over different contexts")
    return ctx, n


def find_invertible_difference(
    xs: Sequence[Matrix], ys: Sequence[Matrix]
) -> Optional[tuple[Matrix, Matrix]]:
    """First (a, b) in input order (a over xs outer, b over ys inner) with
    b - a invertible, or None.  Note b - a invertible forces b != a, so a
    single-set query never returns a degenerate pair."""
    ctx, n = _shared_context(xs, ys)
    if matrix_count(ctx, n) <= DEFAULT_ENUM_CAP:
        return _table_scan(ctx, n, xs, ys)
    return _pairwise_scan(ctx, n, xs, ys)


def _pairwise_scan(
    ctx: FieldContext, n: int, xs: Sequence[Matrix], ys: Sequence[Matrix]
) -> Optional[tuple[Matrix, Matrix]]:
    """The scan by one unrolled determinant per pair."""
    add, neg = ctx._add, ctx._neg
    for a in xs:
        fa = a.flat
        for b in ys:
            diff = tuple(add[x][neg[y]] for x, y in zip(b.flat, fa))
            if _det_flat(ctx, n, diff):
                return (a, b)
    return None


def _table_scan(
    ctx: FieldContext, n: int, xs: Sequence[Matrix], ys: Sequence[Matrix]
) -> Optional[tuple[Matrix, Matrix]]:
    """The scan by one rank-table byte per pair.

    The n^2 digits of a matrix index are cut into three blocks of
    consecutive digits (the rows at n = 3; a block may be empty).  The
    blocks of ys are numbered once per call.  For each distinct block v of
    an a, one list holds the place-weighted index of u - v for every
    numbered block u, so index(b - a) is three list lookups and two adds.
    The lists hold one integer per pair of distinct blocks: at n = 3
    (q <= 5 under the cap) at most 125^2 a block.
    """
    q, table = ctx.q, _rank_table(ctx, n)
    add, neg = ctx._add, ctx._neg
    width = -(-n * n // 3)
    blocks = [slice(start, start + width) for start in range(0, 3 * width, width)]
    weights = [q**d for d in range(3 * width)]
    flats = [b.flat for b in ys]
    columns, numbers = [], []
    for block in blocks:
        parts = list(map(operator.itemgetter(block), flats))
        number = {u: k for k, u in enumerate(dict.fromkeys(parts))}
        columns.append(list(map(number.__getitem__, parts)))
        numbers.append(number)

    @functools.cache
    def differences(k: int, v: tuple[int, ...]) -> list[int]:
        w, minus_v = weights[blocks[k]], [neg[x] for x in v]
        return [sum(c * add[x][y] for c, x, y in zip(w, u, minus_v)) for u in numbers[k]]

    numbered_ys = list(zip(ys, *columns))
    for a in xs:
        fa = a.flat
        d0, d1, d2 = (differences(k, fa[block]) for k, block in enumerate(blocks))
        for b, u0, u1, u2 in numbered_ys:
            if table[d0[u0] + d1[u1] + d2[u2]] == n:
                return (a, b)
    return None


def check_spectral_gap(
    xs: Sequence[Matrix], ys: Sequence[Matrix], seed: Optional[int] = None
) -> GapReport:
    """Run the subset test and the exhaustive witness scan for n = 3.

    ``guaranteed`` is the exact integer test |X||Y| > bound^2 (equivalent
    to sqrt(|X||Y|) > bound, with no square root taken).  A guaranteed
    query with no witness raises ``TheoremViolationError``; a subset that
    repeats a matrix raises ``ValueError``, since the sizes count sets.
    """
    ctx, n = _shared_context(xs, ys)
    if n != 3:
        raise ValueError(f"the subset bound is specific to 3x3 matrices, got n={n}")
    for name, subset in (("X", xs), ("Y", ys)):
        if len(set(map(operator.attrgetter("flat"), subset))) < len(subset):
            raise ValueError(f"subset {name} lists a matrix twice; the bound is about sets")
    thr = spectral_threshold(ctx.q)
    guaranteed = len(xs) * len(ys) > thr.integer_bound**2
    witness = find_invertible_difference(xs, ys)
    if guaranteed and witness is None:
        raise TheoremViolationError(
            f"sizes ({len(xs)}, {len(ys)}) clear the bound {thr.integer_bound} "
            "but no invertible difference exists"
        )
    return GapReport(
        q=ctx.q,
        n_star_num=thr.n_star.numerator,
        n_star_den=thr.n_star.denominator,
        integer_bound=thr.integer_bound,
        size_x=len(xs),
        size_y=len(ys),
        guaranteed=guaranteed,
        witness=witness,
        seed=seed,
    )


def random_subset(ctx: FieldContext, n: int, size: int, rng: random.Random) -> list[Matrix]:
    """Uniform sample of distinct matrices, reproducible from the caller's
    seeded ``random.Random`` (indices drawn with ``rng.sample``) and decoded
    one digit position at a time."""
    if n < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {n}")
    total, q = matrix_count(ctx, n), ctx.q
    if size > total:
        raise ValueError(f"cannot sample {size} distinct matrices from {total}")
    if total > sys.maxsize:  # rng.sample needs len(range(total))
        raise SizeTooLargeError(f"cannot sample from {total} matrices; the limit is {sys.maxsize}")
    indices = rng.sample(range(total), size)
    digits = []
    for _ in range(n * n):
        digits.append([t % q for t in indices])
        indices = [t // q for t in indices]
    return [Matrix(ctx, n, flat) for flat in zip(*digits)]
