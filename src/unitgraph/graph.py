"""Ground-truth adjacency structure at enumerable scale.

This module is the independent oracle for everything the closed forms
claim: it builds the actual graph on Mat_n(F_q) -- vertices are matrices,
an edge joins two matrices whose difference is invertible -- by running a
determinant on every vertex pair, then checks the character vectors
against that adjacency matrix coordinate by coordinate.

Adjacency is stored as one packed bit row per vertex (a Python int), so
the 512-vertex graph costs ~32 KiB and a row/eigenvector product reduces
to p popcounts: bucket the vertices by character exponent once per label,
then count neighbors per bucket with bitwise AND.  All products and
comparisons stay in exact integer / cyclotomic arithmetic.
"""

from __future__ import annotations

from typing import IO, Iterator

from .cyclotomic import Cyclotomic
from .errors import EigenvectorMismatchError, SizeTooLargeError
from .fields import FieldContext
from .matrices import Matrix, _det_flat, _eliminate, _iter_flats, gl_order, matrix_count
from .characters import _exponent_of, _label_terms
from .spectra import Spectrum, SpectrumLine, eigenvalue_charsum

# 4096 vertices covers every configuration the verified paths need; the
# 65536-vertex build is possible via the override but costs hours of
# pairwise determinants, so it stays opt-in.
DEFAULT_MAX_ORDER = 4096


class CayleyGraph:
    """The invertibility graph, materialized as packed adjacency bit rows."""

    __slots__ = ("ctx", "n", "order", "rows", "degree", "_flats")

    def __init__(self, ctx: FieldContext, n: int, rows: tuple[int, ...], flats: tuple):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "order", len(rows))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "degree", rows[0].bit_count() if rows else 0)
        object.__setattr__(self, "_flats", flats)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CayleyGraph is immutable")

    def vertex(self, i: int) -> Matrix:
        return Matrix(self.ctx, self.n, self._flats[i])

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once, as (i, j) with i < j."""
        for i, row in enumerate(self.rows):
            rest = (row >> (i + 1)) << (i + 1)  # drop neighbors j <= i
            while rest:
                j = (rest & -rest).bit_length() - 1
                yield (i, j)
                rest &= rest - 1


def build_graph(ctx: FieldContext, n: int, max_order: int = DEFAULT_MAX_ORDER) -> CayleyGraph:
    """Build the graph by pairwise determinants and validate its invariants.

    Construction is deliberately naive -- det(B_j - B_i) for every pair,
    nothing shared with the group-theoretic shortcuts -- because this
    object serves as the ground truth the shortcuts are checked against.
    """
    order = matrix_count(ctx, n)
    if order > max_order:
        raise SizeTooLargeError(
            f"graph on {order} vertices exceeds the cap {max_order}"
        )
    flats = tuple(_iter_flats(ctx, n))
    add, neg = ctx._add, ctx._neg
    rows = [0] * order
    for i in range(order):
        fi = flats[i]
        for j in range(i + 1, order):
            fj = flats[j]
            diff = tuple(add[a][neg[b]] for a, b in zip(fj, fi))
            if _det_flat(ctx, n, diff):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    graph = CayleyGraph(ctx, n, tuple(rows), flats)

    if not is_simple(graph):
        raise AssertionError("freshly built graph failed the simplicity scan")
    deg = gl_order(ctx.q, n)
    for i, row in enumerate(graph.rows):
        if row.bit_count() != deg:
            raise AssertionError(
                f"vertex {i} has degree {row.bit_count()}, expected {deg}"
            )
    return graph


def is_simple(graph: CayleyGraph) -> bool:
    """Bit-exact scan for a zero diagonal and symmetry."""
    for i, row in enumerate(graph.rows):
        if row >> i & 1:
            return False
    for i in range(graph.order):
        for j in range(i + 1, graph.order):
            if graph.rows[i] >> j & 1 != graph.rows[j] >> i & 1:
                return False
    return True


def verify_eigenvector(graph: CayleyGraph, label: Matrix) -> int:
    """Check A v = lambda v exactly for the label's character vector.

    v has the character value at every vertex; lambda is the independent
    character sum over the invertible matrices.  Each coordinate of A v is
    assembled from the adjacency bit row (p popcounts) and compared in
    canonical cyclotomic form.  Returns lambda on success.
    """
    ctx, n = graph.ctx, graph.n
    if label.ctx != ctx or label.n != n:
        raise ValueError("label does not match the graph's field or size")
    p = ctx.p
    terms = _label_terms(ctx, n, label.flat)
    exponents = [_exponent_of(ctx, terms, flat) for flat in graph._flats]
    buckets = [0] * p
    for v, e in enumerate(exponents):
        buckets[e] |= 1 << v

    lam = eigenvalue_charsum(label)
    for v in range(graph.order):
        row = graph.rows[v]
        counts = [(row & buckets[e]).bit_count() for e in range(p)]
        lhs = Cyclotomic.from_exponent_counts(p, counts)
        rhs = Cyclotomic.root(p, exponents[v]) * lam
        if lhs != rhs:
            raise EigenvectorMismatchError(
                f"A v != lambda v at vertex {v} for label index "
                f"{label.flat}: {lhs!r} vs {rhs!r}",
                coordinate=v,
            )
    return lam


def spectrum_from_graph(graph: CayleyGraph) -> Spectrum:
    """Verify every label's eigenvector and bucket eigenvalues by rank.

    The character vectors are pairwise orthogonal and nonzero, so once
    every label passes, the bucketed eigenvalues with their class sizes
    are the complete spectrum (the multiplicity sum is re-checked by
    ``Spectrum.validate``).  Also asserts the eigenvalue is constant on
    each rank class rather than assuming it.
    """
    ctx, n = graph.ctx, graph.n
    by_rank: dict[int, int] = {}
    counts: dict[int, int] = {}
    for flat in _iter_flats(ctx, n):
        label = Matrix(ctx, n, flat)
        lam = verify_eigenvector(graph, label)
        r = _eliminate(ctx, n, flat)[0]
        if r in by_rank:
            if by_rank[r] != lam:
                raise AssertionError(
                    f"rank {r} labels produced two eigenvalues: {by_rank[r]} and {lam}"
                )
        else:
            by_rank[r] = lam
        counts[r] = counts.get(r, 0) + 1
    lines = tuple(SpectrumLine(r, by_rank[r], counts[r]) for r in range(n + 1))
    return Spectrum(ctx.q, n, lines).validate()


def export_edges(graph: CayleyGraph, fh: IO[str]) -> int:
    """Write the sparse edge list (``i j`` per line, i < j); returns count."""
    count = 0
    for i, j in graph.edges():
        fh.write(f"{i} {j}\n")
        count += 1
    return count
