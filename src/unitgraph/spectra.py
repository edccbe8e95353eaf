"""Adjacency spectrum of the invertibility graph on Mat_n(F_q).

Two independent routes to the same numbers live here and are kept
deliberately separate so they can cross-check each other:

* closed forms -- for every n, each eigenvalue is a product formula in
  q, indexed by the rank of the character label, and each multiplicity
  is the count of rank-r matrices given by Landsberg's formula;
* brute force -- for any n small enough to enumerate, the eigenvalue of a
  label is the exact character sum over all invertible matrices, computed
  by histogramming trace exponents and contracting against roots of unity
  once.  The histogram, and the pinned-entry counts below, read each
  distinct cached rank block of ``matrices`` once, weighted by its copies;
  the closed forms never touch the blocks.

The closed form for label rank r (Kiani and Mollahajiaghaei, "On the
unitary Cayley graphs of matrix algebras"):

    lambda_r = (-1)^r q^(r(r-1)/2 + r(n-r)) |GL_(n-r)(F_q)|

At n = 3 this is (q^3-1)(q^3-q)(q^3-q^2), -q^6 + q^5 + q^4 - q^3,
q^4 - q^3 and -q^3 for r = 0..3.

All arithmetic is exact; a cyclotomic sum that fails to collapse to an
integer raises rather than rounding.
"""

from __future__ import annotations

import collections
import itertools

from .characters import _exponents
from .cyclotomic import Cyclotomic
from .errors import CheckFailedError, InexactDivisionError
from .fields import FieldContext, Frozen
from .matrices import DEFAULT_ENUM_CAP, Matrix, _rank_blocks
from .matrices import _require_under_cap, gl_order, rank_representative


class SpectrumLine(Frozen):
    def __init__(self, rank: int, eigenvalue: int, multiplicity: int):
        self.__dict__.update(rank=rank, eigenvalue=eigenvalue, multiplicity=multiplicity)


class Spectrum(Frozen):
    """Eigenvalues with multiplicities, one line per label rank 0..n."""

    def __init__(self, q: int, n: int, lines: tuple[SpectrumLine, ...]):
        self.__dict__.update(q=q, n=n, lines=lines)

    def validate(self) -> "Spectrum":
        """Check the structural identities; raises CheckFailedError on failure.

        Violations here mean an implementation bug, not bad user input:
        multiplicities must partition all q^(n^2) labels, the weighted
        eigenvalue sum must vanish because the graph has no loops, the
        weighted sum of squares must be trace(A^2) = q^(n^2) |GL_n(F_q)|
        (vertices times degree), and the n + 1 eigenvalues must be
        pairwise distinct.
        """
        if len(self.lines) != self.n + 1:
            raise CheckFailedError(f"expected {self.n + 1} spectrum lines, got {len(self.lines)}")
        for r, line in enumerate(self.lines):
            if line.rank != r:
                raise CheckFailedError(f"line {r} carries rank {line.rank}")
            if line.multiplicity < 1:
                raise CheckFailedError(f"rank {r} has multiplicity {line.multiplicity} < 1")
        vertices = self.q ** (self.n * self.n)
        total = sum(line.multiplicity for line in self.lines)
        if total != vertices:
            raise CheckFailedError(f"multiplicities sum to {total}, expected {vertices}")
        if not trace_identity_holds(self):
            raise CheckFailedError("weighted eigenvalue sum is nonzero")
        squares = sum(line.multiplicity * line.eigenvalue**2 for line in self.lines)
        if squares != vertices * gl_order(self.q, self.n):
            raise CheckFailedError("weighted sum of squared eigenvalues is not q^(n^2) |GL_n|")
        # lambda_r = -(q^(n-r) - 1) lambda_(r+1): signs alternate, same-sign magnitudes differ
        values = [line.eigenvalue for line in self.lines]
        if len(set(values)) != self.n + 1:
            raise CheckFailedError(f"eigenvalues not pairwise distinct: {values}")
        return self

    def to_json_dict(self) -> dict:  # a line's instance dict holds its three fields
        return {"q": self.q, "n": self.n, "lines": [dict(vars(line)) for line in self.lines]}

    def to_csv(self) -> str:
        rows = ["rank,eigenvalue,multiplicity"]
        rows += [
            f"{line.rank},{line.eigenvalue},{line.multiplicity}" for line in self.lines
        ]
        return "\n".join(rows) + "\n"


def trace_identity_holds(spectrum: Spectrum) -> bool:
    """True iff sum_r multiplicity_r * eigenvalue_r == 0 exactly.

    The adjacency matrix has a zero diagonal, so its trace -- the weighted
    eigenvalue sum -- must vanish.
    """
    return sum(line.multiplicity * line.eigenvalue for line in spectrum.lines) == 0


# ---------------------------------------------------------------------------
# closed forms


def eigenvalue_closed_form(q: int, rank: int, n: int = 3) -> int:
    """The eigenvalue for labels of the given rank in Mat_n(F_q):
    (-1)^r q^(r(r-1)/2 + r(n-r)) |GL_(n-r)(F_q)|."""
    if not 0 <= rank <= n:
        raise ValueError(f"rank must be in [0, {n}], got {rank}")
    power = rank * (rank - 1) // 2 + rank * (n - rank)
    return (-1) ** rank * q**power * gl_order(q, n - rank)


def _krawtchouk(q: int, n: int, k: int, x: int) -> int:
    """Delsarte's generalised Krawtchouk polynomial P_k(x) of the bilinear
    forms scheme on Mat_n(F_q): the eigenvalue, on labels of rank x, of the
    graph joining matrices whose difference has rank k.

        P_k(x) = sum_j (-1)^(k-j) q^(jn + (k-j)(k-j-1)/2) [n-j, n-k]_q [n-x, j]_q

    with Gaussian binomials [a, b]_q (Delsarte, "Bilinear forms over a
    finite field, with applications to coding theory", 1978).  Kept
    separate from the product form on purpose: tests assert that P_n(x)
    equals ``eigenvalue_closed_form(q, x, n)``, guarding against a typo in
    either transcription.
    """

    def binomial(a: int, b: int) -> int:  # [a, b]_q, 0 outside 0 <= b <= a
        if not 0 <= b <= a:
            return 0
        num = den = 1
        for i in range(b):
            num *= q ** (a - i) - 1
            den *= q ** (i + 1) - 1
        return num // den

    return sum(
        (-1) ** (k - j) * q ** (j * n + (k - j) * (k - j - 1) // 2)
        * binomial(n - j, n - k) * binomial(n - x, j)
        for j in range(k + 1)
    )


def rank_count(q: int, n: int, r: int) -> int:
    """Number of rank-r matrices in Mat_n(F_q) (Landsberg's formula).

    m_r = q^(r(r-1)/2) * prod_{k=0}^{r-1} (q^(n-k)-1)^2 / (q^(k+1)-1),
    evaluated in exact integer arithmetic; every intermediate division is
    checked to be exact.
    """
    if q < 2 or n < 1:
        raise ValueError(f"need q >= 2 and n >= 1, got q={q}, n={n}")
    if not 0 <= r <= n:
        raise ValueError(f"rank must be in [0, {n}], got {r}")
    acc = q ** (r * (r - 1) // 2)
    for k in range(r):
        acc *= (q ** (n - k) - 1) ** 2
        acc, rem = divmod(acc, q ** (k + 1) - 1)
        if rem:
            raise InexactDivisionError(
                f"rank count division left remainder {rem} at step {k} (q={q}, n={n}, r={r})"
            )
    return acc


def spectrum_closed_form(q: int, n: int = 3) -> Spectrum:
    """The full spectrum from the closed forms, validated."""
    lines = tuple(
        SpectrumLine(r, eigenvalue_closed_form(q, r, n), rank_count(q, n, r))
        for r in range(n + 1)
    )
    return Spectrum(q, n, lines).validate()


# ---------------------------------------------------------------------------
# brute-force character sums over the invertible matrices


def eigenvalue_charsum(label: Matrix, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Exact character sum of the label over all invertible matrices.

    Histogram the trace exponent over GL_n(F_q), contract the histogram
    against powers of zeta_p once, and collapse to an integer.  Matrix
    i q^n + u has row 0 u and rows 1..n-1 the digits of i, and the trace
    is additive, so its exponent is ``row0[u] + rest[i]`` mod p and its
    rank is byte u of rank block i.  Each distinct (block, rest[i]) pair
    is counted once: the block's invertible row-0 exponents are
    histogrammed once per distinct block, shifted by rest[i] and weighted
    by the pair's copies.  The exponents are bytes up to p = 256 and lists
    past it; the pass is the same.  A ``NotRationalError`` escaping from
    the collapse indicates a bug, not a property of the input: these sums
    are Galois-stable.
    """
    ctx, n, p = label.ctx, label.n, label.ctx.p
    _require_under_cap(ctx, n, cap)
    row0 = _exponents(ctx, n, label.flat, n)  # row 0 of B meets column 0 of the label
    # entry (i, j) becomes a[i, j + 1]; the last column lies past the n^2 - n digits read
    rest = _exponents(ctx, n, label.flat[1:] + (0,), n * n - n)
    is_gl = bytes(r == n for r in range(256))
    blocks = _rank_blocks(ctx, n)
    copies = collections.Counter(zip(blocks, rest))
    hists = {
        block: collections.Counter(itertools.compress(row0, block.translate(is_gl)))
        for block in set(blocks)
    }
    counts = [0] * p
    for (block, s), k in copies.items():
        for e, c in hists[block].items():
            counts[(e + s) % p] += k * c
    return Cyclotomic.from_exponent_counts(p, counts).to_int()


def eigenvalue_charsum_rank(ctx: FieldContext, n: int, r: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Character sum for the canonical rank-r diagonal label."""
    return eigenvalue_charsum(rank_representative(ctx, n, r), cap=cap)


def spectrum_brute_force(ctx: FieldContext, n: int, cap: int = DEFAULT_ENUM_CAP) -> Spectrum:
    """Spectrum for any enumerable n: char-sum eigenvalues, formula counts."""
    lines = tuple(
        SpectrumLine(r, eigenvalue_charsum_rank(ctx, n, r, cap=cap), rank_count(ctx.q, n, r))
        for r in range(n + 1)
    )
    return Spectrum(ctx.q, n, lines).validate()


# ---------------------------------------------------------------------------
# proof-internal counts: invertible matrices with pinned diagonal entries


def count_invertible_pinned(
    ctx: FieldContext, n: int = 3, cap: int = DEFAULT_ENUM_CAP
) -> list[list[int]]:
    """N[a][b] = |{B in GL_n(F_q) : B[0,0] = a, B[1,1] = b}|, by element index.

    Read off the rank blocks: B[0,0] is digit 0 within a block, so
    ``block[a::q]`` pins it to a, and B[1,1] is digit 1 of the block index.
    Each distinct block's pinned counts are taken once and weighted by its
    copies at each B[1,1].  The corner count for a is ``sum(N[a])``.
    """
    if n < 2:
        raise ValueError(f"pinning B[1,1] needs n >= 2, got {n}")
    _require_under_cap(ctx, n, cap)
    q = ctx.q
    blocks = _rank_blocks(ctx, n)
    copies = collections.Counter((block, i // q % q) for i, block in enumerate(blocks))
    pinned = {block: [block[a::q].count(n) for a in range(q)] for block in set(blocks)}
    grid = [[0] * q for _ in range(q)]
    for (block, b), k in copies.items():
        for a, count in enumerate(pinned[block]):
            grid[a][b] += k * count
    return grid


def corner_count_closed_form(q: int, alpha_is_zero: bool) -> int:
    """Closed form for the corner-pinned count over GL_3: the first column
    loses the zero vector when its top entry is pinned to 0, and loses
    nothing otherwise."""
    tail = (q**3 - q) * (q**3 - q**2)
    return (q**2 - 1) * tail if alpha_is_zero else q**2 * tail


def diag_pair_count_closed_form(q: int, alpha_is_zero: bool, beta_is_zero: bool) -> int:
    """Closed form for the doubly pinned count over GL_3.

    The count depends only on which of the two pinned diagonal entries are
    zero (diagonal scaling by units moves any nonzero value to any other).
    The four cases come from splitting on whether the (1,0) entry below
    the pinned corner vanishes.
    """
    last = q**3 - q**2
    if alpha_is_zero and beta_is_zero:
        return (q - 1) * q * (q - 1) * last + (q**2 - 1) * q * (q - 1) * last
    if alpha_is_zero != beta_is_zero:
        return (q - 1) * q**2 * last + q * (q - 1) * (q**2 - 1) * last
    return q**3 * last + q * (q - 1) * (q**2 - 1) * last
