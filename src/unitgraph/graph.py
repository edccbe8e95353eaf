"""Ground-truth adjacency structure at enumerable scale.

This module is the independent oracle for everything the closed forms
claim: it builds the actual graph on Mat_n(F_q) -- vertices are matrices,
an edge joins two matrices whose difference is invertible -- and checks
the character vectors against that adjacency matrix coordinate by
coordinate.

Adjacency is stored as one packed bit row per vertex (a Python int), so
the 512-vertex graph costs ~32 KiB.  The rows come from a determinant
bitmap, bit t set iff the unrolled determinant of matrix t is nonzero:
row i is that bitmap translated by matrix i, a digit-wise permutation of
its bits, so bit j of row i is det(B_j - B_i) != 0 without a determinant
per pair.  The bitmap does not read the rank table, so the graph checks
it independently.

A row/eigenvector product reduces to p popcounts: bucket the vertices by
character exponent once per label, then count neighbors per bucket with
bitwise AND.  The counts are compared with the eigenvalue as integers,
which is exact: sum_e counts[e] zeta_p^e determines counts up to adding a
constant to every entry.  On a regular graph that makes every bucket but
the last one column comparison over all vertices, and labels whose
buckets and eigenvalue match an earlier passed check (the F_p-multiples
of a label) reuse it.

At p = 2 a vertex index is an F_2-vector, matrix addition is XOR and
every character is a Walsh function (-1)^(u . v), so coordinate v of
A chi_u = mu_u chi_u, for every u at once, is the Walsh-Hadamard
transform of row v.  One packed transform per row checks all N
eigen-equations, and a label whose eigenvalue equals its checked mu_u
passes without popcounts; any other label, and every label of a graph
with a row that misses, takes the popcount route above.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Sequence
from io import TextIOBase

from .cyclotomic import Cyclotomic
from .errors import CheckFailedError, EigenvectorMismatchError, SizeTooLargeError
from .fields import FieldContext, Frozen, _all_digits, _over_cap, _power
from .matrices import DEFAULT_MAX_ORDER, Matrix, _det_flat, _eliminate, gl_order, matrix_count
from .matrices import matrix_from_index, matrix_to_index
from .characters import _BYTE_MAX_P, _exponents
from .spectra import Spectrum, SpectrumLine, _charsum

class CayleyGraph(Frozen):
    """The invertibility graph, materialized as packed adjacency bit rows;
    vertex i is the matrix with enumeration index i."""

    __eq__, __hash__ = object.__eq__, object.__hash__  # graphs compare by identity

    def __init__(self, ctx: FieldContext, n: int, rows: tuple[int, ...]):
        self.__dict__.update(ctx=ctx, n=n, rows=rows)

    @property
    def order(self) -> int:
        return len(self.rows)

    @property
    def degree(self) -> int:
        return self.rows[0].bit_count() if self.rows else 0

    @functools.cached_property
    def _regular(self) -> bool:
        """Every row has ``degree`` bits."""
        return all(row.bit_count() == self.degree for row in self.rows)

    @functools.cached_property
    def _passed(self) -> set[tuple[frozenset[int], int]]:
        """(partition into exponent buckets, lambda) pairs that passed
        ``verify_eigenvector`` on this graph at odd p."""
        return set()

    @functools.cached_property
    def _walsh(self) -> tuple[int, ...] | None:
        """At p = 2, entry u is mu_u with A chi_u = mu_u chi_u for the Walsh
        function chi_u(v) = (-1)^(u . v), checked at every coordinate, or
        None if some row misses.

        Coordinate v of A chi_u, for every u at once, is the transform of
        row v, so row v must transform to row 0's transform (the mu_u)
        with the signs flipped where u . v is odd.  Rows are visited in
        Gray-code order, so the sign mask changes by one XOR per row.
        """
        order, width = self.order, _walsh_width(self.order)
        first = _walsh_hadamard(self.rows[0], order)
        ones = int.from_bytes((bytes(width - 1) + b"\1") * order, "big")
        flip = first ^ (2 * order * ones - first)  # fields N + mu_u xor N - mu_u
        bit_set = [  # all bytes of the fields u with bit h set
            _low_fields(order, width, h) * (256**width - 1) << (8 * width << h)
            for h in range(order.bit_length() - 1)
        ]
        signs = 0  # the fields u with u . v odd
        for g in range(1, order):
            signs ^= bit_set[(g & -g).bit_length() - 1]  # bit h of v flips
            if _walsh_hadamard(self.rows[g ^ (g >> 1)], order) != first ^ (flip & signs):
                return None
        return tuple(_walsh_values(first, order))

    def vertex(self, i: int) -> Matrix:
        return matrix_from_index(self.ctx, self.n, i)

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
    """Build the graph from a determinant bitmap and validate its invariants.

    Bit t of the bitmap is det(B_t) != 0 by the unrolled determinant,
    nothing shared with the rank table or the group-theoretic shortcuts,
    because this object is the ground truth they are checked against.
    Row i is the bitmap translated by B_i: bit j is det(B_j - B_i) != 0.
    """
    if _over_cap(ctx.q, n * n, max_order):
        raise SizeTooLargeError(
            f"graph on {_power(ctx.q, n * n)} vertices exceeds the cap {max_order}"
        )
    order = matrix_count(ctx, n)
    dets = bytes(_det_flat(ctx, n, flat) != 0 for flat in _all_digits(ctx.q, n * n))
    graph = CayleyGraph(ctx, n, _translated_rows(ctx.p, order, _bitset(dets)))

    if not is_simple(graph):
        raise CheckFailedError("freshly built graph failed the simplicity scan")
    deg = gl_order(ctx.q, n)
    for i, row in enumerate(graph.rows):
        if row.bit_count() != deg:
            raise CheckFailedError(
                f"vertex {i} has degree {row.bit_count()}, expected {deg}"
            )
    return graph


def _bitset(indicator: bytes) -> int:
    """The int whose bit t is set iff byte t of a string of 0/1 bytes is 1."""
    return int(indicator[::-1].translate(_ASCII_DIGITS), 2)


_ASCII_DIGITS = b"01".ljust(256, b"?")  # bytes 0 and 1 to "0" and "1"


def _translated_rows(p: int, order: int, bitmap: int) -> tuple[int, ...]:
    """Row i is ``bitmap`` with bit j moved to j + i, digit-wise mod p.

    Vertex indices are base-p numbers and matrix addition adds their
    digits mod p.  Adding s to the digit of block size b cycles the p
    blocks of every run of p*b bits: the blocks below the wrap shift up by
    s*b, the rest down by (p-s)*b.  Each row is one such step from a row
    of a lower digit.
    """
    rows, b = [bitmap], 1
    while b < order:
        runs = order // (p * b)
        lows = [int(("0" * (s * b) + "1" * ((p - s) * b)) * runs, 2) for s in range(1, p)]
        rows += [
            ((r & low) << s * b) | ((r & ~low) >> (p - s) * b)
            for s, low in enumerate(lows, 1)
            for r in rows
        ]
        b *= p
    return tuple(rows)


def is_simple(graph: CayleyGraph) -> bool:
    """Bit-exact scan for a zero diagonal and symmetry (bits past the order
    are ignored).  Rows N-1 down to 0, as N binary digits each, spell the
    adjacency matrix with both indices reversed (about N^2 bytes at peak):
    row i must equal column i and the diagonal hold no 1."""
    n, full = graph.order, (1 << graph.order) - 1
    m = bytearray(n * n)
    for i, row in enumerate(reversed(graph.rows)):
        m[i * n:(i + 1) * n] = f"{row & full:0{n}b}".encode()
    return b"1" not in m[:: n + 1] and all(m[i * n:(i + 1) * n] == m[i::n] for i in range(n))


def _walsh_hadamard(bits: int, order: int) -> int:
    """Walsh-Hadamard transform of bits 0..order-1 of ``bits`` (order = 2^m),
    packed: field u, ``_walsh_width(order)`` bytes wide, holds
    order + sum_v bit_v (-1)^(u . v).

    The bits are spread into one-byte fields biased to be positive, 1 for
    a 0 bit and 2 for a 1 bit (bias B = 1).  Stage h pairs the fields u
    and u + 2^h, which hold a + B and b + B, and writes a + b + 2B and
    a - b + 2B: the bias doubles and no field goes below 0.  After stage
    h a field is at most 2^(h+2), so a field gets one byte more before
    the stages h = 6, 14, 22, ... that could pass its width; the last
    width is ``_walsh_width``.
    """
    digits = f"{bits & ((1 << order) - 1):0{order}b}".encode()  # bit order-1 first
    packed, width = int.from_bytes(digits.translate(_BIASED), "big"), 1
    for wide, shift, mask, bias in _walsh_stages(order):
        if wide > width:  # every field gets a high zero byte
            data, spread = packed.to_bytes(order * width, "big"), bytearray(order * wide)
            for k in range(width):
                spread[k + 1::wide] = data[k::width]
            packed, width = int.from_bytes(spread, "big"), wide
        lo, hi = packed & mask, (packed >> shift) & mask
        packed = (lo + hi) | ((lo + bias - hi) << shift)
    return packed


_BIASED = bytes.maketrans(b"01", b"\1\2")


def _walsh_width(order: int) -> int:
    """Bytes per field of a transform: its fields stay below 2^(m+2)."""
    return (order.bit_length() + 8) // 8  # (m + 9) // 8 with order = 2^m


@functools.lru_cache(maxsize=None)
def _walsh_stages(order: int) -> tuple[tuple[int, int, int, int], ...]:
    """Per stage h: the field width in bytes, the shift to field u + 2^h,
    the mask of the fields u with bit h clear, and 2^(h+1) in each of
    those fields (twice the stage's bias)."""
    stages = []
    for h in range(order.bit_length() - 1):
        width = (h + 10) // 8  # fields stay at most 2^(h+2)
        ones = _low_fields(order, width, h)
        stages.append((width, 8 * width << h, ones * (256**width - 1), ones << (h + 1)))
    return tuple(stages)


def _low_fields(order: int, width: int, h: int) -> int:
    """1 in every ``width``-byte field u with bit h of u clear."""
    one = bytes(width - 1) + b"\1"
    return int.from_bytes((bytes(width << h) + one * (1 << h)) * (order >> (h + 1)), "big")


def _walsh_values(packed: int, order: int) -> list[int]:
    """The transform values of a packed ``_walsh_hadamard`` result."""
    width = _walsh_width(order)
    data = packed.to_bytes(order * width, "little")
    return [int.from_bytes(data[i:i + width], "little") - order for i in range(0, len(data), width)]


def verify_eigenvector(graph: CayleyGraph, label: Matrix) -> int:
    """Check A v = lambda v exactly for the label's character vector.

    v has the character value zeta_p^e_v at every vertex v; lambda is the
    independent character sum over the invertible matrices.  The vertices
    are bucketed by exponent into p bit sets, and coordinate v of A v is
    sum_e counts[e] zeta_p^e, where counts[e] is the popcount of row v
    against bucket e.  On a regular graph of degree d that equals
    lambda zeta_p^e_v exactly when every count is c = (d - lambda) / p but
    counts[e_v] = c + lambda, so the check is p - 1 whole columns, each
    compared with its expected column by one list ``==`` (the last column
    is d minus the others).  Otherwise the coordinate loop decides, and
    names the first failing vertex.  A passed check depends only on lambda
    and the partition into buckets, which the F_p-multiples of a label
    share, so the graph keeps the passed pairs: a label that computes its
    own partition and lambda equal to one skips the popcounts (at odd p
    only: at p = 2 no other label shares a partition).  At p = 2 a label
    whose exponents are the Walsh function of u and whose lambda equals
    the graph's transform-checked mu_u passes without popcounts; a graph
    with a row that misses, or a lambda that differs, takes the columns
    and the coordinate loop.  Returns lambda on success.

    Raises ``SizeTooLargeError`` past p = 256, where the exponents do not
    fit a byte.
    """
    ctx, n = graph.ctx, graph.n
    if label.ctx != ctx or label.n != n:
        raise ValueError("label does not match the graph's field or size")
    p = ctx.p
    if p > _BYTE_MAX_P:
        raise SizeTooLargeError(
            f"eigenvector checks at p = {p} are past the byte-exponent limit p <= {_BYTE_MAX_P}"
        )
    exps = _exponents(ctx, n, label.flat, n * n)
    lam = _charsum(label, exps[: len(exps) // ctx.q])  # the charsum's low-digit exponents
    if p == 2 and _walsh_holds(graph, exps, lam):
        return lam
    digits = bytes(range(p))
    marks = [bytes.maketrans(digits, bytes(e) + b"\1" + bytes(p - 1 - e)) for e in range(p)]
    buckets = [_bitset(exps.translate(mark)) for mark in marks]
    key = (frozenset(buckets), lam)
    if key in graph._passed:
        return lam

    c, r = divmod(graph.degree - lam, p)
    columns_hold = r == 0 and graph._regular and all(
        list(map(int.bit_count, map(bucket.__and__, graph.rows)))
        == list(map((c, c + lam).__getitem__, exps.translate(mark)))
        for bucket, mark in zip(buckets[:-1], marks)
    )
    if not columns_hold:  # decide coordinate by coordinate, and name the first failure
        columns = [list(map(int.bit_count, map(bucket.__and__, graph.rows))) for bucket in buckets]
        for v, (counts, e) in enumerate(zip(zip(*columns), exps)):
            if not _coordinate_holds(counts, lam, e):
                lhs = Cyclotomic.from_exponent_counts(p, counts)
                rhs = Cyclotomic.root(p, e) * lam
                raise EigenvectorMismatchError(
                    f"A v != lambda v at vertex {v} for label index "
                    f"{matrix_to_index(label)}: {lhs!r} vs {rhs!r}",
                    coordinate=v,
                )
    if p > 2:  # at p = 2 no other label has this partition
        graph._passed.add(key)
    return lam


def _walsh_holds(graph: CayleyGraph, exps: bytes, lam: int) -> bool:
    """At p = 2: the exponents are the Walsh function of some u, bit b of u
    being the exponent at vertex 2^b, and the graph's checked mu_u is lam."""
    u, walsh = 0, b"\0"
    for b in range(graph.order.bit_length() - 1):
        u |= exps[1 << b] << b
        walsh += walsh.translate(_FLIP) if exps[1 << b] else walsh
    return walsh == exps and graph._walsh is not None and graph._walsh[u] == lam


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _coordinate_holds(counts: Sequence[int], lam: int, e: int) -> bool:
    """sum_k counts[k] zeta_p^k == lam zeta_p^e, decided on the integers.

    The kernel of Z^p -> Z[zeta_p] is Z (1, ..., 1), so the two sides are
    equal exactly when counts minus lam at e is constant: every count
    equals counts[e] - lam, except counts[e] itself when lam != 0.
    """
    return counts.count(counts[e] - lam) == len(counts) - (lam != 0)


def spectrum_from_graph(graph: CayleyGraph) -> Spectrum:
    """Verify every label's eigenvector and bucket eigenvalues by rank.

    The character vectors are pairwise orthogonal and nonzero, so once
    every label passes, the bucketed eigenvalues with their class sizes
    are the complete spectrum (the multiplicity sum is re-checked by
    ``Spectrum.validate``).  Also checks that the eigenvalue is constant on
    each rank class rather than assuming it.
    """
    ctx, n = graph.ctx, graph.n
    by_rank: dict[int, int] = {}
    counts: dict[int, int] = {}
    for flat in _all_digits(ctx.q, n * n):
        label = Matrix(ctx, n, flat)
        lam = verify_eigenvector(graph, label)
        r = _eliminate(ctx, n, flat)[0]
        if by_rank.setdefault(r, lam) != lam:
            raise CheckFailedError(
                f"rank {r} labels produced two eigenvalues: {by_rank[r]} and {lam}"
            )
        counts[r] = counts.get(r, 0) + 1
    lines = tuple(SpectrumLine(r, by_rank[r], counts[r]) for r in range(n + 1))
    return Spectrum(ctx.q, n, lines).validate()


def export_edges(graph: CayleyGraph, fh: TextIOBase) -> int:
    """Write the sparse edge list (``i j`` per line, i < j); returns count."""
    count = 0
    for i, j in graph.edges():
        fh.write(f"{i} {j}\n")
        count += 1
    return count
