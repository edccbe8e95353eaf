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
so a subset that lists one matrix twice is rejected with a ``ValueError``;
a drawn subset is one sample, distinct by construction, and only subsets
from outside (views built by ``IndexSubset``, matrix sequences) go
through that check.

Every check runs on matrix enumeration indices, held by an ``IndexSubset``
(what ``random_subset`` draws and the CLI reads).  A drawn subset's indices
equal ``rng.sample(range(q^(n^2)), size)`` and leave ``rng`` where
``rng.sample`` leaves it; ``_LazySample`` reads the 32-bit words of a
plain ``random.Random`` in bulk to get them, only as far as they are
read.  ``random_subset`` reads its draw in full.  A random CLI query draws
X that way and Y lazily from the words after X's, so the scan draws of Y
only what it reads: 8 matrices when the witness lies in Y's head block.
A plain sequence of matrices is numbered once, on entry, into a view that
keeps its objects; from a drawn or read view a ``Matrix`` is built only
for the two matrices of a witness.

The scan returns the first pair (a, b) in input order and takes one of two
routes, chosen by whether a row of F_q^n fits a byte (q^n <= 256, so
q <= 5 at n = 3).  Where it fits, the scan tests each a against a whole
block of Y at once: b - a is singular exactly when its n rows lie in one
hyperplane of F_q^n, and the hyperplanes come from their normal vectors,
8 to a byte.  Y is cut into two blocks, its first 8 matrices and the
rest, each encoded once when first reached.  For one a, a block costs n
masks per group of 8 planes and a few whole-integer ANDs and ORs.  The
masks are memoised per (block, row, value) for the scan: at most
n * q^n * ceil(H / 8) masks of |Y| bytes for H hyperplanes, and the memo
is emptied when it passes 64 MiB.  Past a byte (n = 3 and q >= 7) the
scan computes the unrolled determinant of every b - a, decoding each y
when the first a reaches it.  Both routes return the same pair.
"""

from __future__ import annotations

import array
import functools
import math
import operator
import random
import sys
from collections.abc import Callable, Sequence
from fractions import Fraction

from .errors import CheckFailedError, ContextMismatchError, SizeTooLargeError, TheoremViolationError
from .fields import FieldContext, Frozen, _all_digits, _digits, _over_cap, _power
from .matrices import Matrix, _det_flat
from .matrices import matrix_count, matrix_from_index, matrix_to_index
from .spectra import eigenvalue_closed_form


class GapThreshold(Frozen):
    def __init__(self, q: int, n_star: Fraction, integer_bound: int):
        self.__dict__.update(q=q, n_star=n_star, integer_bound=integer_bound)


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


class GapReport(Frozen):
    """Outcome of one subset-pair query, JSON-serializable in full."""

    def __init__(self, q: int, n_star_num: int, n_star_den: int, integer_bound: int, size_x: int,
                 size_y: int, guaranteed: bool, witness: tuple[Matrix, Matrix] | None,
                 seed: int | None = None):
        self.__dict__.update(
            q=q, n_star_num=n_star_num, n_star_den=n_star_den, integer_bound=integer_bound,
            size_x=size_x, size_y=size_y, guaranteed=guaranteed, witness=witness, seed=seed,
        )

    def to_json_dict(self) -> dict:
        witness = self.witness and dict(zip("ab", map(Matrix.to_json_dict, self.witness)))
        return {
            "q": self.q, "n_star_num": self.n_star_num, "n_star_den": self.n_star_den,
            "integer_bound": self.integer_bound, "set_sizes": [self.size_x, self.size_y],
            "guaranteed": self.guaranteed, "witness": witness, "seed": self.seed,
        }


class IndexSubset(Sequence[Matrix]):
    """Read-only matrices of Mat_n(F_q), held as enumeration indices.

    The checks and scans read ``indices`` and build no ``Matrix``.  Item
    ``i`` is built from its index on first access and kept, so a position
    always returns the same object; a slice is the list of its items.
    """

    _distinct = False  # True for the views ``_drawn_view`` builds

    def __init__(self, ctx: FieldContext, n: int, indices: list[int]):
        total = matrix_count(ctx, n)
        if indices and not (0 <= min(indices) and max(indices) < total):
            raise ValueError(f"matrix indices out of range [0, {total})")
        self.ctx, self.n, self.indices = ctx, n, indices
        self._built: dict[int, Matrix] = {}

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i: int | slice) -> Matrix | list[Matrix]:
        if isinstance(i, slice):
            return [self[k] for k in range(len(self.indices))[i]]
        k = range(len(self.indices))[i]  # IndexError past either end
        m = self._built.get(k)
        if m is None:
            m = self._built[k] = matrix_from_index(self.ctx, self.n, self.indices[k])
        return m


def _as_view(subset: Sequence[Matrix]) -> IndexSubset:
    """A view as it is; a sequence of matrices over one field and n, numbered
    once, into a view that keeps the caller's objects at their positions."""
    if isinstance(subset, IndexSubset):
        return subset
    ctx, n = subset[0].ctx, subset[0].n
    if any((m.ctx, m.n) != (ctx, n) for m in subset):
        raise ContextMismatchError("subset matrices built over different contexts")
    view = IndexSubset(ctx, n, list(map(matrix_to_index, subset)))
    view._built = dict(enumerate(subset))
    return view


def _views(xs: Sequence[Matrix], ys: Sequence[Matrix]) -> tuple[IndexSubset, IndexSubset]:
    if not xs or not ys:
        raise ValueError("subsets must be nonempty")
    vx, vy = _as_view(xs), _as_view(ys)
    if (vx.ctx, vx.n) != (vy.ctx, vy.n):
        raise ContextMismatchError("subset matrices built over different contexts")
    return vx, vy


def find_invertible_difference(
    xs: Sequence[Matrix], ys: Sequence[Matrix]
) -> tuple[Matrix, Matrix] | None:
    """First (a, b) in input order (a over xs outer, b over ys inner) with
    b - a invertible, or None.  Note b - a invertible forces b != a, so a
    single-set query never returns a degenerate pair.  The pair is the
    objects ``xs[i]`` and ``ys[j]`` themselves.  Hyperplane masks find it
    where a row of F_q^n fits a byte (q^n <= 256), one determinant per
    pair past that."""
    xs, ys = _views(xs, ys)
    scan = _table_scan if xs.ctx.q**xs.n <= 256 else _pairwise_scan
    hit = scan(xs.ctx, xs.n, xs.indices, ys.indices)
    return None if hit is None else (xs[hit[0]], ys[hit[1]])


def _pairwise_scan(
    ctx: FieldContext, n: int, xs: Sequence[int], ys: Sequence[int]
) -> tuple[int, int] | None:
    """The scan by one unrolled determinant per pair; the positions (i, j)
    of the first hit.  Each y is decoded when the first a reaches it, and
    later a's read the decoded list."""
    q, add, neg = ctx.q, ctx._add, ctx._neg
    flats: list[tuple[int, ...]] = []

    def first_pass():
        for b in ys:
            flats.append(_digits(b, q, n * n))
            yield flats[-1]

    for i, a in enumerate(xs):
        minus_a = [neg[x] for x in _digits(a, q, n * n)]
        for j, fb in enumerate(flats if i else first_pass()):
            if _det_flat(ctx, n, tuple(add[x][y] for x, y in zip(fb, minus_a))):
                return i, j
    return None


@functools.lru_cache(maxsize=2)
def _plane_masks(ctx: FieldContext, n: int) -> Callable[[bytes, int], list[int]]:
    """The hyperplanes of F_q^n for q^n <= 256, 8 to a byte.

    Each normal vector w whose last nonzero coordinate is 1 gives one of
    the (q^n - 1) / (q - 1) planes, the rows u with w . u = 0.  Byte u of
    w's dot string is w . u, built one coordinate of u at a time with
    ``bytes.translate``.  The returned function takes a column of row
    values as bytes and a row value v, and gives one integer per group of
    8 planes whose byte j has bit k set when plane k of the group contains
    rows[j] - v.
    """
    q, add, mul = ctx.q, ctx._add, ctx._mul
    plus = [bytes(row).ljust(256, b"\0") for row in add]  # e -> e + c, for bytes.translate
    planes = []  # byte u of plane w is w . u
    for w in _all_digits(q, n):
        if next(filter(None, reversed(w)), 0) == 1:
            dots = b"\0"
            for c in w:  # the next coordinate x of u adds c * x
                dots = b"".join(dots.translate(plus[mul[c][x]]) for x in range(q))
            planes.append(dots)

    @functools.cache  # at most 256 row values
    def tables(v: int) -> list[bytes]:
        """Per group of 8 planes, byte u flags the planes w with w . u = w . v,
        those that contain u - v; 256 bytes each, for bytes.translate."""
        groups = []
        for g in range(0, len(planes), 8):
            packed = 0
            for k, dots in enumerate(planes[g : g + 8]):
                flag = bytearray(256)
                flag[dots[v]] = 1 << k
                packed |= int.from_bytes(dots.translate(flag), "little")
            groups.append(packed.to_bytes(256, "little"))
        return groups

    return lambda rows, v: [int.from_bytes(rows.translate(t), "little") for t in tables(v)]


_HEAD = 8  # Y is scanned as ys[:_HEAD] and the rest: an early hit encodes 8 matrices
_MEMO_BYTES = 1 << 26  # a scan drops its memoised masks when they pass 64 MiB


def _table_scan(
    ctx: FieldContext, n: int, xs: Sequence[int], ys: Sequence[int]
) -> tuple[int, int] | None:
    """The scan by hyperplane masks; the positions (i, j) of the first hit.

    For q^n <= 256, where a row value fits a byte.  Each block of Y is
    encoded once, one bytes column per row position.  Row r of an a, of
    value v, gives per group of 8 planes one integer whose byte j flags
    the planes that contain row r of y_j - a (``_plane_masks``), memoised
    per (block, r, v).  ANDing the rows within each group and ORing the
    groups flags every singular y of the block, and the first zero byte
    is the hit.
    """
    size, plane_masks = ctx.q**n, _plane_masks(ctx, n)
    places = [size**r for r in range(n)]
    blocks, columns = [(0, _HEAD), (_HEAD, len(ys))], []
    memo: dict[tuple[int, int, int], list[int]] = {}
    held = 0  # bytes of the masks in memo
    for i, a in enumerate(xs):
        rows = _digits(a, size, n)
        for k, (start, stop) in enumerate(blocks):
            if start >= len(ys):
                break
            if k == len(columns):  # row r of every y: digit r in base q^n
                columns.append([bytes(y // p % size for y in ys[start:stop]) for p in places])
            planes = None
            for r, v in enumerate(rows):
                masks = memo.get((k, r, v))
                if masks is None:
                    if held > _MEMO_BYTES:
                        memo.clear()
                        held = 0
                    masks = memo[k, r, v] = plane_masks(columns[k][r], v)
                    held += len(masks) * len(columns[k][r])
                planes = masks if planes is None else map(operator.and_, planes, masks)
            singular = functools.reduce(operator.or_, planes)
            j = singular.to_bytes(len(columns[k][0]), "little").find(0)
            if j >= 0:
                return i, start + j
    return None


def check_spectral_gap(
    xs: Sequence[Matrix], ys: Sequence[Matrix], seed: int | None = None
) -> GapReport:
    """Run the subset test and the exhaustive witness scan for n = 3.

    ``guaranteed`` is the exact integer test |X||Y| > bound^2 (equivalent
    to sqrt(|X||Y|) > bound, with no square root taken).  A guaranteed
    query with no witness raises ``TheoremViolationError``; a subset that
    repeats a matrix raises ``ValueError``, since the sizes count sets.
    """
    xs, ys = _views(xs, ys)
    if xs.n != 3:
        raise ValueError(f"the subset bound is specific to 3x3 matrices, got n={xs.n}")
    for name, subset in (("X", xs), ("Y", ys)):
        if not subset._distinct and len(set(subset.indices)) < len(subset):
            raise ValueError(f"subset {name} lists a matrix twice; the bound is about sets")
    thr = spectral_threshold(xs.ctx.q)
    guaranteed = len(xs) * len(ys) > thr.integer_bound**2
    witness = find_invertible_difference(xs, ys)
    if guaranteed and witness is None:
        raise TheoremViolationError(
            f"sizes ({len(xs)}, {len(ys)}) clear the bound {thr.integer_bound} "
            "but no invertible difference exists"
        )
    return GapReport(
        q=xs.ctx.q,
        n_star_num=thr.n_star.numerator,
        n_star_den=thr.n_star.denominator,
        integer_bound=thr.integer_bound,
        size_x=len(xs),
        size_y=len(ys),
        guaranteed=guaranteed,
        witness=witness,
        seed=seed,
    )


def random_subset(ctx: FieldContext, n: int, size: int, rng: random.Random) -> IndexSubset:
    """Uniform sample of ``size`` distinct matrices, reproducible from the
    caller's seeded ``random.Random``: the indices equal
    ``rng.sample(range(q^(n^2)), size)``, and ``rng`` is left where
    ``rng.sample`` leaves it."""
    if n < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {n}")
    _require_sample(size, ctx.p, ctx.k, n)
    return _drawn_view(ctx, n, _sample(rng, matrix_count(ctx, n), size))


def _random_pair(
    ctx: FieldContext, n: int, size: int, rng: random.Random
) -> tuple[IndexSubset, IndexSubset]:
    """X = ``random_subset(ctx, n, size, rng)`` and Y the next ``size``
    draws of ``rng.sample``, as ``random_subset`` would draw them, but
    drawn only as far as Y is read.  ``rng`` is then left part-way through
    Y, so it must not be used again."""
    xs = random_subset(ctx, n, size, rng)
    return xs, _drawn_view(ctx, n, _lazy_sample(rng, matrix_count(ctx, n), size))


def _drawn_view(ctx: FieldContext, n: int, indices: Sequence[int]) -> IndexSubset:
    """An ``IndexSubset`` of the indices of one sample in [0, q^(n^2)),
    built without ``__init__``'s range check; they are distinct, so
    ``check_spectral_gap`` builds no duplicate set for it."""
    view = IndexSubset.__new__(IndexSubset)
    view.ctx, view.n, view.indices, view._built, view._distinct = ctx, n, indices, {}, True
    return view


def _sample(rng: random.Random, total: int, k: int) -> list[int]:
    """``rng.sample(range(total), k)``, with ``rng`` left in the same state."""
    return _lazy_sample(rng, total, k)[:]


def _lazy_sample(rng: random.Random, total: int, k: int) -> Sequence[int]:
    """``rng.sample(range(total), k)``, drawn as far as it is read where
    ``_LazySample`` can draw it; any other generator, ``sample``'s pool
    branch (total up to its ``setsize``) or a total past 32 bits goes to
    ``rng.sample`` itself."""
    setsize = 21  # copied from random.Random.sample
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if type(rng) is not random.Random or total <= setsize or total.bit_length() > 32:
        return rng.sample(range(total), k)
    return _LazySample(rng, total, k)


class _LazySample(Sequence[int]):
    """``rng.sample(range(total), k)`` for a plain ``random.Random`` and
    a total in ``sample``'s set branch, drawn as far as it is read.

    That branch reads one word per draw and takes ``word >> (32 - bits)``
    unless that is >= total or already picked, where bits =
    total.bit_length() <= 32.  The generator gives the same words, lowest
    first, from one ``getrandbits(32 * m)``.  Reading position j runs
    rounds of m = j + 1 - (picks held) words and keeps the accepted new
    values in order.  A word adds at most one pick, so no round passes
    the word where ``sample`` takes pick j: every prefix read equals that
    prefix of ``sample``'s list, and a read to the end leaves ``rng``
    where ``sample`` leaves it.  Iterating reads ahead in doubling blocks.
    """

    def __init__(self, rng: random.Random, total: int, k: int):
        self._rng, self._k = rng, k
        self._shift = 32 - total.bit_length()
        self._limit = total << self._shift  # word < limit  <=>  word >> shift < total
        self._picks: list[int] = []
        self._seen: set[int] = set()

    def __len__(self) -> int:
        return self._k

    def _draw(self, stop: int) -> None:
        """Run rounds until ``stop`` <= k picks are held."""
        picks, seen = self._picks, self._seen
        while len(picks) < stop:
            m = stop - len(picks)
            words = array.array("I", self._rng.getrandbits(32 * m).to_bytes(4 * m, "little"))
            if sys.byteorder == "big":
                words.byteswap()
            new = dict.fromkeys([w >> self._shift for w in words if w < self._limit])
            for v in new.keys() & seen:
                del new[v]
            seen.update(new)
            picks += new

    def __getitem__(self, i: int | slice) -> int | list[int]:
        if isinstance(i, slice):
            r = range(self._k)[i]
            if not r:
                return []
            self._draw(max(r[0], r[-1]) + 1)  # through the slice's highest position
            # a descending range that reaches position 0 stops at -1
            return self._picks[r.start : r.stop if r.stop >= 0 else None : r.step]
        j = range(self._k)[i]  # IndexError past either end
        if j >= len(self._picks):
            self._draw(j + 1)
        return self._picks[j]

    def __iter__(self):
        stop = 0
        while stop < self._k:
            start, stop = stop, min(self._k, 2 * stop + _HEAD)
            yield from self[start:stop]


def _require_sample(size: int, p: int, k: int, n: int) -> None:
    """The checks of drawing ``size`` distinct n x n matrices over F_{p^k},
    decided from bit lengths first, so they need no field and no large q^(n^2)."""
    e = k * n * n  # the matrices number p^e
    if size < 0 or not _over_cap(p, e, size - 1):
        raise ValueError(f"cannot sample {size} distinct matrices from {p**e}")
    if _over_cap(p, e, sys.maxsize):  # rng.sample needs len(range(p^e))
        raise SizeTooLargeError(
            f"cannot sample from {_power(p, e)} matrices; the limit is {sys.maxsize}"
        )
