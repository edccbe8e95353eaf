"""Ground-truth graph: structure invariants, eigenvector verification."""

import io
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unitgraph import (
    CheckFailedError,
    Cyclotomic,
    EigenvectorMismatchError,
    Matrix,
    SizeTooLargeError,
    build_graph,
    char_exponents,
    eigenvalue_charsum,
    enumerate_matrices,
    field,
    field_of_order,
    gl_order,
    is_simple,
    matrix_to_index,
    rank_representative,
    spectrum_brute_force,
    spectrum_closed_form,
    spectrum_from_graph,
    verify_eigenvector,
)
from unitgraph.characters import _dual_index, _exponents
from unitgraph.graph import (
    CayleyGraph, _coordinate_holds, _walsh_hadamard, _walsh_values, export_edges,
)
from unitgraph.matrices import _det_flat

F2 = field(2)
F3 = field(3)


def brute_rank1_charsum_2x2_mod3():
    """48-term independent oracle: sum of chi(b00) over invertible 2x2 mod 3."""
    counts = [0, 0, 0]
    for a, b, c, d in itertools.product(range(3), repeat=4):
        if (a * d - b * c) % 3:
            counts[a] += 1
    assert counts[1] == counts[2]
    return counts[0] - counts[1]


def test_build_graph_2x2_mod2():
    g = build_graph(F2, 2)
    assert g.order == 16
    assert g.degree == 6  # |GL_2(F_2)| = (4-1)(4-2)
    assert all(row.bit_count() == 6 for row in g.rows)
    assert is_simple(g)


def test_build_graph_3x3_mod2():
    g = build_graph(F2, 3)
    assert g.order == 512
    assert g.degree == gl_order(2, 3)
    assert is_simple(g)
    assert not g.has_edge(0, 0)
    # vertex 0 is the zero matrix: neighbors are exactly the invertibles
    assert g.rows[0].bit_count() == 168


def test_simplicity_detects_loops_and_asymmetry():
    g = build_graph(F2, 2)
    looped = CayleyGraph(F2, 2, (g.rows[0] | 1,) + g.rows[1:])
    assert not is_simple(looped)
    j = (g.rows[0] & -g.rows[0]).bit_length() - 1  # drop one direction of an edge
    asym = CayleyGraph(F2, 2, (g.rows[0] ^ (1 << j),) + g.rows[1:])
    assert not is_simple(asym)


def pairwise_is_simple(graph):
    """Reference scan: one bit test per diagonal entry and per vertex pair."""
    for i, row in enumerate(graph.rows):
        if row >> i & 1:
            return False
    for i in range(graph.order):
        for j in range(i + 1, graph.order):
            if graph.rows[i] >> j & 1 != graph.rows[j] >> i & 1:
                return False
    return True


@pytest.mark.parametrize("order", [2, 3, 8, 31, 64])
def test_simplicity_scan_matches_pairwise_reference(order):
    rng = random.Random(order)
    rows = [0] * order
    for i, j in itertools.combinations(range(order), 2):
        if rng.random() < 0.5:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    last, d = order - 1, rng.randrange(order)
    j, k = rng.randrange(1, order), rng.randrange(last)
    flips = [
        (None, True),
        ((d, d), False),  # a loop
        ((0, j), False), ((j, 0), False),  # one direction of a pair, first row or column
        ((last, k), False), ((k, last), False),  # and in the last
        ((d, order), True), ((d, order + 5), True),  # bits past the order are not edges
    ]
    for flip, expected in flips:
        flipped = list(rows)
        if flip:
            flipped[flip[0]] ^= 1 << flip[1]
        g = CayleyGraph(F2, 1, tuple(flipped))
        assert is_simple(g) == pairwise_is_simple(g) == expected, flip


def test_verify_eigenvector_trivial_label():
    g = build_graph(F2, 3)
    assert verify_eigenvector(g, Matrix.zero(F2, 3)) == 168


def test_verify_eigenvector_rank1_label():
    g = build_graph(F2, 3)
    assert verify_eigenvector(g, rank_representative(F2, 3, 1)) == -24


def test_verify_eigenvector_2x2_mod3_independent_oracle():
    g = build_graph(F3, 2)
    lam = verify_eigenvector(g, rank_representative(F3, 2, 1))
    assert lam == brute_rank1_charsum_2x2_mod3() == -6


def test_verify_eigenvector_rejects_tampering():
    g = build_graph(F2, 2)
    # remove one edge symmetrically: vectors no longer satisfy A v = lambda v
    j = (g.rows[0] & -g.rows[0]).bit_length() - 1
    rows = list(g.rows)
    rows[0] ^= 1 << j
    rows[j] ^= 1
    tampered = CayleyGraph(F2, 2, tuple(rows))
    with pytest.raises(EigenvectorMismatchError) as err:
        verify_eigenvector(tampered, Matrix.zero(F2, 2))
    assert err.value.coordinate == 0


def test_verify_eigenvector_label_mismatch():
    g = build_graph(F2, 2)
    with pytest.raises(ValueError):
        verify_eigenvector(g, Matrix.zero(F3, 2))


def test_spectrum_from_graph_2x2_mod2():
    # 16-vertex graph: (6, 1), (-2, 9), (2, 6); 6 - 18 + 12 = 0
    s = spectrum_from_graph(build_graph(F2, 2))
    assert [(l.eigenvalue, l.multiplicity) for l in s.lines] == [(6, 1), (-2, 9), (2, 6)]


def test_spectrum_from_graph_matches_closed_form():
    s = spectrum_from_graph(build_graph(F2, 3))
    assert s.lines == spectrum_closed_form(2).lines


def test_spectrum_from_graph_3x3_mod3_skipped_by_cap():
    with pytest.raises(SizeTooLargeError):
        build_graph(F3, 3)  # 19683 vertices, default cap 4096


def test_label_charsums_sum_to_zero():
    # column sums of the character table against the group indicator
    from unitgraph.matrices import enumerate_matrices

    for ctx, n in [(F2, 2), (F3, 2), (F2, 3)]:
        total = sum(eigenvalue_charsum(label) for label in enumerate_matrices(ctx, n))
        assert total == 0


def test_vertex_accessor_matches_enumeration():
    from unitgraph.matrices import matrix_from_index

    g = build_graph(F3, 2)
    for i in (0, 1, 40, 80):
        assert g.vertex(i) == matrix_from_index(F3, 2, i)


def test_edges_and_export():
    g = build_graph(F2, 2)
    edges = list(g.edges())
    assert len(edges) == 16 * 6 // 2
    assert all(i < j for i, j in edges)
    assert all(g.has_edge(i, j) and g.has_edge(j, i) for i, j in edges)
    buf = io.StringIO()
    count = export_edges(g, buf)
    lines = buf.getvalue().splitlines()
    assert count == len(edges) == len(lines)
    assert lines[0] == f"{edges[0][0]} {edges[0][1]}"


def pairwise_rows(ctx, n):
    """Reference build: det(B_j - B_i) for every pair, one pair at a time."""
    flats = [m.flat for m in enumerate_matrices(ctx, n)]
    add, neg = ctx._add, ctx._neg
    rows = [0] * len(flats)
    for i, fi in enumerate(flats):
        for j in range(i + 1, len(flats)):
            diff = tuple(add[a][neg[b]] for a, b in zip(flats[j], fi))
            if _det_flat(ctx, n, diff):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


@pytest.mark.parametrize(
    "q, n", [(2, 2), (2, 3), (3, 2), (4, 2), (5, 2), (9, 1), (25, 1), (27, 1), (257, 1)]
)
def test_translated_rows_match_pairwise_determinants(q, n):
    ctx = field_of_order(q)
    assert build_graph(ctx, n).rows == pairwise_rows(ctx, n)


def test_translated_rows_odd_p_extension_field_n2():
    # GF(9) at n = 2: base-3 digits two per entry, 6561 vertices
    ctx = field_of_order(9)
    g = build_graph(ctx, 2, max_order=9**4)
    for i in random.Random(9).sample(range(g.order), 16):
        b_i = g.vertex(i)
        expected = sum(1 << j for j in range(g.order) if (g.vertex(j) - b_i).det().index)
        assert g.rows[i] == expected, i


@given(
    st.sampled_from([2, 3, 5, 7]).flatmap(
        lambda p: st.tuples(
            st.lists(st.integers(-4, 4), min_size=p, max_size=p),
            st.integers(-4, 4),
            st.integers(0, p - 1),
            st.booleans(),
        )
    )
)
def test_coordinate_predicate_is_cyclotomic_equality(case):
    counts, lam, e, balanced = case
    p = len(counts)
    if balanced:  # the equal case: a constant plus lam at e
        counts = [counts[0]] * p
        counts[e] += lam
    expected = Cyclotomic.from_exponent_counts(p, counts) == Cyclotomic.root(p, e) * lam
    assert _coordinate_holds(counts, lam, e) == expected


def test_verify_eigenvector_rejects_degree_preserving_swap():
    # odd p: swap edges (a, b), (c, d) for (a, d), (c, b); still simple and
    # regular, but no longer translation invariant
    g = build_graph(F3, 2)
    a, c = 0, 1
    b = next(j for j in range(g.order) if g.has_edge(a, j) and not g.has_edge(c, j) and j != c)
    d = next(j for j in range(g.order) if g.has_edge(c, j) and not g.has_edge(a, j) and j != a)
    rows = list(g.rows)
    for x, y in ((a, b), (c, d)):
        rows[x] ^= 1 << y
        rows[y] ^= 1 << x
    for x, y in ((a, d), (c, b)):
        rows[x] |= 1 << y
        rows[y] |= 1 << x
    tampered = CayleyGraph(F3, 2, tuple(rows))
    assert is_simple(tampered)
    assert all(row.bit_count() == g.degree for row in tampered.rows)
    failed_at = []
    for label in enumerate_matrices(F3, 2):
        try:
            verify_eigenvector(tampered, label)
        except EigenvectorMismatchError as exc:
            failed_at.append(exc.coordinate)
            assert f"for label index {matrix_to_index(label)}:" in str(exc)
    # the all-ones vector still passes (the graph is regular); others do not,
    # and only at the four rows that changed
    assert 0 < len(failed_at) < 81
    assert set(failed_at) <= {a, b, c, d}


def test_verify_eigenvector_past_byte_exponents():
    # p = 257: exponents do not fit a byte, and the checks refuse as a size cap
    ctx = field(257)
    g = build_graph(ctx, 1)
    for a in (0, 1, 256):
        with pytest.raises(SizeTooLargeError, match="byte-exponent limit p <= 256"):
            verify_eigenvector(g, Matrix(ctx, 1, (a,)))


def flipped_graph(graph, a, b):
    """A graph over the same rows with the symmetric pair (a, b) flipped:
    simple, but vertices a and b are off the degree by one."""
    rows = list(graph.rows)
    rows[a] ^= 1 << b
    rows[b] ^= 1 << a
    return CayleyGraph(graph.ctx, graph.n, tuple(rows))


def swapped_graph(graph, a, c):
    """Edges (a, b), (c, d) swapped for (a, d), (c, b): simple and regular,
    but no longer translation invariant."""
    order = range(graph.order)
    b = next(j for j in order if graph.has_edge(a, j) and not graph.has_edge(c, j) and j != c)
    d = next(j for j in order if graph.has_edge(c, j) and not graph.has_edge(a, j) and j != a)
    g = flipped_graph(flipped_graph(graph, a, b), c, d)
    return flipped_graph(flipped_graph(g, a, d), c, b)


def coordinate_oracle(graph, label):
    """(lambda, None) if A v = lambda v, else (the failing vertex, its message
    tail), from the p popcount columns checked one coordinate at a time."""
    p = graph.ctx.p
    exps = char_exponents(label)
    lam = eigenvalue_charsum(label)
    buckets = [sum(1 << v for v, x in enumerate(exps) if x == e) for e in range(p)]
    for v, (row, e) in enumerate(zip(graph.rows, exps)):
        counts = [(row & bucket).bit_count() for bucket in buckets]
        if not _coordinate_holds(counts, lam, e):
            lhs, rhs = Cyclotomic.from_exponent_counts(p, counts), Cyclotomic.root(p, e) * lam
            return v, f"for label index {matrix_to_index(label)}: {lhs!r} vs {rhs!r}"
    return lam, None


def verified(graph, label):
    try:
        return verify_eigenvector(graph, label), None
    except EigenvectorMismatchError as exc:
        return exc.coordinate, str(exc).split(f"at vertex {exc.coordinate} ", 1)[1]


@pytest.mark.parametrize("q,n,tamper", [
    (2, 2, None), (3, 2, None), (4, 2, None), (5, 2, None), (2, 3, None),
    # a and c not 0 and 1, so that a check that skipped one more column
    # would pass some labels the oracle fails, at p = 2 and at p = 5
    (4, 2, lambda g: swapped_graph(g, 3, 17)), (5, 2, lambda g: swapped_graph(g, 3, 17)),
    (3, 2, lambda g: flipped_graph(g, 4, 40)),
])
def test_verify_eigenvector_matches_the_coordinate_oracle(q, n, tamper):
    # every label in order on one graph object, so F_p-multiples meet the
    # passed checks of the labels before them
    graph = build_graph(field_of_order(q), n)
    if tamper:
        graph = tamper(graph)
    results = [
        (verified(graph, label), coordinate_oracle(graph, label))
        for label in enumerate_matrices(graph.ctx, n)
    ]
    assert all(got == expected for got, expected in results)
    failures = sum(expected[1] is not None for _, expected in results)
    assert (failures > 0) == (tamper is not None)


def wrong_eigenvalue(monkeypatch, graph, label, delta):
    """The graph's cached eigenvalue of the label (and of every label with
    its dual index) moved by delta until ``monkeypatch.undo()``."""
    values = list(graph._eigenvalues)
    values[_dual_index(graph.ctx, graph.n, label.flat)] += delta
    monkeypatch.setitem(graph.__dict__, "_eigenvalues", values)


def test_reused_check_does_not_hide_a_wrong_eigenvalue(monkeypatch):
    F5 = field(5)
    g = build_graph(F5, 2)
    label = rank_representative(F5, 2, 1)
    double = Matrix(F5, 2, tuple(2 * a % 5 for a in label.flat))
    lam = verify_eigenvector(g, label)
    wrong_eigenvalue(monkeypatch, g, double, 5)
    assert verify_eigenvector(g, label) == lam
    with pytest.raises(EigenvectorMismatchError, match=f"label index {matrix_to_index(double)}:"):
        verify_eigenvector(g, double)
    monkeypatch.undo()
    assert verify_eigenvector(g, double) == lam


@pytest.mark.parametrize("q,n", [(5, 2), (2, 3)])
def test_flipped_edge_fails_after_the_intact_graph_passed(q, n):
    g = build_graph(field_of_order(q), n)
    a, b = 7, g.order - 3
    flipped = flipped_graph(g, a, b)
    for label in (Matrix.zero(g.ctx, n), rank_representative(g.ctx, n, 1)):
        verify_eigenvector(g, label)
        with pytest.raises(EigenvectorMismatchError) as err:
            verify_eigenvector(flipped, label)
        assert err.value.coordinate in (a, b)
    with pytest.raises(EigenvectorMismatchError) as err:
        spectrum_from_graph(flipped)
    assert err.value.coordinate == a


# ---------------------------------------------------------------------------
# p = 2: one packed Walsh-Hadamard transform per row checks every label


def walsh_by_definition(bits, order):
    return [
        sum((-1) ** (u & v).bit_count() for v in range(order) if bits >> v & 1)
        for u in range(order)
    ]


@given(st.integers(0, 8).map(lambda m: 1 << m).flatmap(
    lambda order: st.tuples(st.just(order), st.integers(0, 2**order - 1))
))
def test_walsh_hadamard_matches_the_definition(case):
    order, bits = case
    assert _walsh_values(_walsh_hadamard(bits, order), order) == walsh_by_definition(bits, order)


def test_walsh_hadamard_ignores_bits_past_the_order():
    assert _walsh_hadamard(0b1011 | 1 << 16, 16) == _walsh_hadamard(0b1011, 16)


@pytest.mark.parametrize("bit", [0, 12345, 2**15 - 1])
def test_walsh_hadamard_past_2_14_points(bit):
    # 15 stages: the u = 0 field of the all-ones row reaches 2^16, one past
    # 16-bit fields, so the width has to grow with the order
    order = 2**15
    values = _walsh_values(_walsh_hadamard((1 << order) - 1, order), order)
    assert values[0] == order and not any(values[1:])
    values = _walsh_values(_walsh_hadamard(1 << bit, order), order)
    assert values == [(-1) ** (u & bit).bit_count() for u in range(order)]


def test_spectrum_from_graph_p2_matches_brute_force():
    ctx = field_of_order(8)
    graph = build_graph(ctx, 2)
    assert spectrum_from_graph(graph) == spectrum_brute_force(ctx, 2)
    assert graph._walsh is not None and graph._passed == dict(enumerate(graph._walsh))


def sample_labels(ctx, n, count):
    """Zero, the rank representatives and ``count`` seeded random labels."""
    rng = random.Random(7)
    labels = [Matrix.zero(ctx, n)] + [rank_representative(ctx, n, r) for r in range(1, n + 1)]
    return labels + [
        Matrix(ctx, n, tuple(rng.randrange(ctx.q) for _ in range(n * n))) for _ in range(count)
    ]


@pytest.mark.parametrize("q,n", [(8, 2), (2, 3)])
def test_flipped_pair_misses_the_transform_at_exactly_its_rows(q, n):
    graph = build_graph(field_of_order(q), n)
    tampered = flipped_graph(graph, 3, 17)
    misses = [
        v for v, (row, intact) in enumerate(zip(tampered.rows, graph.rows))
        if _walsh_hadamard(row, graph.order) != _walsh_hadamard(intact, graph.order)
    ]
    assert misses == [3, 17]
    assert graph._walsh is not None and tampered._walsh is None
    labels = enumerate_matrices(graph.ctx, n) if q == 2 else sample_labels(graph.ctx, n, 4)
    results = [(verified(tampered, label), coordinate_oracle(tampered, label)) for label in labels]
    assert all(got == expected for got, expected in results)
    assert all(expected[1] is not None for _, expected in results)  # rows 3, 17 are off degree
    assert not tampered._passed


def test_walsh_mu_does_not_hide_a_wrong_eigenvalue(monkeypatch):
    F4 = field_of_order(4)
    g = build_graph(F4, 2)
    label = rank_representative(F4, 2, 1)
    lam = verify_eigenvector(g, label)
    assert g._walsh is not None
    charsum = eigenvalue_charsum
    off = lambda m: charsum(m) + 2 * (m.flat == label.flat)  # keeps d - lambda even
    wrong_eigenvalue(monkeypatch, g, label, 2)
    monkeypatch.setitem(globals(), "eigenvalue_charsum", off)  # the oracle's lambda too
    expected = coordinate_oracle(g, label)
    assert expected[1] is not None
    assert verified(g, label) == expected
    monkeypatch.undo()
    assert verify_eigenvector(g, label) == lam
    assert g._passed == dict(enumerate(g._walsh))  # no label passed through the columns


def test_p2_graphs_keep_no_passed_partitions():
    g = build_graph(field_of_order(4), 2)
    spectrum_from_graph(g)
    assert g._passed == dict(enumerate(g._walsh))  # no label passed through the columns
    assert g._duals_hold and all(  # every label was passed by the transform, not by the columns
        g._walsh[_dual_index(g.ctx, 2, label.flat)] == eigenvalue_charsum(label)
        for label in enumerate_matrices(g.ctx, 2)
    )
    tampered = swapped_graph(g, 3, 17)
    with pytest.raises(EigenvectorMismatchError):
        spectrum_from_graph(tampered)
    # the transform passed nothing; only the zero label, which every regular
    # graph passes, went through the columns before the first miss
    assert tampered._walsh is None and tampered._passed == {0: g.degree}


@pytest.mark.parametrize("q, n", [(2, 3), (4, 2), (5, 2)])
def test_one_wrong_cached_eigenvalue_fails_the_spectrum(q, n, monkeypatch):
    graph = build_graph(field_of_order(q), n)
    wrong_eigenvalue(monkeypatch, graph, rank_representative(graph.ctx, n, 1), 1)
    with pytest.raises(CheckFailedError):
        spectrum_from_graph(graph)


def test_basis_check_refuses_a_map_without_the_trace_dual(monkeypatch):
    # a p = 2 label passes without its exponents only once the map holds on
    # the basis labels; the transposed label alone fails that check at q = 8
    # and at q = 4 too, where every eigenvalue it reads is right
    from unitgraph import graph as graph_mod

    def transposed_index(ctx, n, flat):
        entries = tuple(flat[j * n + i] for i in range(n) for j in range(n))
        return matrix_to_index(Matrix(ctx, n, entries))

    g4, g8 = graphs = [build_graph(field_of_order(q), 2) for q in (4, 8)]
    assert all(g._duals_hold for g in graphs)
    monkeypatch.setattr(graph_mod, "_dual_index", transposed_index)
    for g in graphs:
        del g.__dict__["_duals_hold"]
    assert not any(g._duals_hold for g in graphs)
    assert spectrum_from_graph(g4).lines == spectrum_closed_form(4, 2).lines
    misread = next(
        m for m in enumerate_matrices(g8.ctx, 2)
        if g8._eigenvalues[transposed_index(g8.ctx, 2, m.flat)] != eigenvalue_charsum(m)
    )
    with pytest.raises(EigenvectorMismatchError):
        verify_eigenvector(g8, misread)


def test_odd_p_reuse_needs_the_basis_check(monkeypatch):
    # at q = 25 (k = 2) the plain element index reads every eigenvalue right
    # but is not the trace dual: no passed lambda may then cover another label
    from unitgraph import graph as graph_mod

    labels = spied_exponents(monkeypatch)
    plain_index = lambda ctx, n, flat: matrix_to_index(Matrix(ctx, n, tuple(flat)))
    monkeypatch.setattr(graph_mod, "_dual_index", plain_index)
    g = build_graph(field_of_order(25), 1)
    assert spectrum_from_graph(g).lines == spectrum_closed_form(25, 1).lines
    assert not g._duals_hold and not g._passed
    assert len(labels) == 25 + 1  # every label, and the one basis label that fails


def spied_exponents(monkeypatch):
    """The labels whose exponents get built from here on, in order."""
    from unitgraph import characters as characters_mod
    from unitgraph import graph as graph_mod

    labels = []

    def spy(ctx, n, label_flat, digits):
        labels.append(tuple(label_flat))
        return _exponents(ctx, n, label_flat, digits)

    monkeypatch.setattr(graph_mod, "_exponents", spy)
    monkeypatch.setattr(characters_mod, "_exponents", spy)
    return labels


@pytest.mark.parametrize("q, n", [(2, 3), (4, 2), (5, 2)])
def test_each_label_computes_its_exponents_once(q, n, monkeypatch):
    # the k n^2 basis labels of ``_duals_hold`` build theirs; then at p = 2
    # every label passes on the transform, and at odd p one label per
    # F_p-line of dual indices builds its exponents and passes the line
    labels = spied_exponents(monkeypatch)
    graph = build_graph(field_of_order(q), n)
    s = spectrum_from_graph(graph)
    assert s.lines == spectrum_closed_form(q, n).lines
    k, p = graph.ctx.k, graph.ctx.p
    lines = 0 if p == 2 else 1 + (graph.order - 1) // (p - 1)
    assert len(labels) == k * n * n + lines  # 161 at (5, 2)
    basis = Counter(
        tuple(p**t * (i == pos) for i in range(n * n)) for pos in range(n * n) for t in range(k)
    )
    built = Counter(labels) - basis  # the builds of verify_eigenvector
    assert sum(built.values()) == len(built) == lines  # no label twice


# ---------------------------------------------------------------------------
# odd p: byte-packed column sums wherever a bucket fits a byte (N / p < 256)


def moved_graph(graph, a, b, b2):
    """Row a with its edge to b moved to b2, one way only: every row keeps
    its degree, but columns b and b2 and the symmetry do not."""
    rows = list(graph.rows)
    rows[a] ^= 1 << b | 1 << b2
    return CayleyGraph(graph.ctx, graph.n, tuple(rows))


def transposed(graph):
    rows = [0] * graph.order
    for v, row in enumerate(graph.rows):
        for u in range(graph.order):
            rows[u] |= (row >> u & 1) << v
    return CayleyGraph(graph.ctx, graph.n, tuple(rows))


def test_packed_columns_are_the_adjacency_columns():
    g = build_graph(F3, 2)
    moved = moved_graph(g, 4, next(j for j in range(81) if g.has_edge(4, j)), 4)
    for graph in (g, moved):
        assert len(graph._columns) == graph.order
        assert all(
            graph._columns[u] >> 8 * v & 255 == graph.rows[v] >> u & 1
            for u in range(graph.order) for v in range(graph.order)
        )
        assert graph._columns[0] >> 8 * graph.order == 0


def test_packed_sums_check_rows_not_columns_at_every_label():
    # regular but not symmetric: a sum of rows (A^T 1_B) in place of the sum
    # of columns (A 1_B), the same check run on the transpose, would pass
    # some label the coordinate oracle fails
    from unitgraph.graph import _columns_hold

    g = build_graph(field(5), 2)
    a = 7
    b = next(j for j in range(g.order) if g.has_edge(a, j))
    b2 = next(j for j in range(g.order) if not g.has_edge(a, j) and j not in (a, b) and j > 300)
    moved = moved_graph(g, a, b, b2)
    assert moved._regular and not is_simple(moved) and moved._columns is not None
    back = transposed(moved)
    fooled = 0
    for label in enumerate_matrices(g.ctx, 2):
        expected = coordinate_oracle(moved, label)
        assert verified(moved, label) == expected
        lam = eigenvalue_charsum(label)
        exps = _exponents(g.ctx, 2, label.flat, 4)
        fooled += expected[1] is not None and _columns_hold(back, exps, (g.degree - lam) // 5, lam)
    assert fooled > 0


def test_out_of_byte_eigenvalue_is_refused_by_the_guard(monkeypatch):
    # lambda + 256 p keeps d - lambda divisible by p, and every expected digit
    # is then out of byte range: the label must fail where the oracle fails
    F5 = field(5)
    g = build_graph(F5, 2)
    charsum = eigenvalue_charsum
    shifted = lambda m: charsum(m) + 256 * 5
    monkeypatch.setitem(g.__dict__, "_eigenvalues", [lam + 256 * 5 for lam in g._eigenvalues])
    monkeypatch.setitem(globals(), "eigenvalue_charsum", shifted)  # the oracle's lambda too
    for label in sample_labels(F5, 2, 6):
        expected = coordinate_oracle(g, label)
        assert expected[1] is not None
        assert verified(g, label) == expected
    assert g._columns is not None and not g._passed


def test_guard_refuses_out_of_range_digits_where_the_integers_agree():
    # c = 20, lambda = -40: the expected digits are 20 off B and -20 on B, so
    # the expected integer's bytes are 19-20 and 235-236, all <= |B| = 243.
    # Columns that sum to exactly that integer must still not pass.
    from unitgraph.graph import _columns_hold, _marks

    ctx = field_of_order(729)
    g = build_graph(ctx, 1)
    exps = next(  # vertex 728 in bucket 0, the one skipped, keeps the integers positive
        e for e in (_exponents(ctx, 1, (a,), 1) for a in range(1, 729)) if e[728] == 0
    )
    c, lam, ones = 20, -40, int.from_bytes(b"\1" * 729, "little")
    columns = [0] * 729
    for mark in _marks(3)[1:]:
        flags = exps.translate(mark)
        expected = c * ones + lam * int.from_bytes(flags, "little")
        assert expected > 0 and max(expected.to_bytes(729, "little")) <= 243 == flags.count(1)
        columns[flags.index(1)] = expected
    assert g._columns is not None
    g.__dict__["_columns"] = tuple(columns)
    assert not _columns_hold(g, exps, c, lam)


@pytest.fixture(scope="module")
def graph_q7():
    return build_graph(field(7), 2)


@pytest.mark.parametrize("tamper", [None, lambda g: swapped_graph(g, 3, 17)])
def test_popcount_side_matches_the_coordinate_oracle_at_q7(graph_q7, tamper):
    graph = tamper(graph_q7) if tamper else graph_q7
    results = [
        (verified(graph, label), coordinate_oracle(graph, label))
        for label in sample_labels(graph.ctx, 2, 6)
    ]
    assert all(got == expected for got, expected in results)
    failures = sum(expected[1] is not None for _, expected in results)
    assert (failures > 0) == (tamper is not None)
    assert graph.__dict__["_columns"] is None  # 343 vertices a bucket: no byte columns


@pytest.mark.parametrize("q, n, packed", [(729, 1, True), (5, 2, True), (7, 2, False)])
def test_spectrum_from_graph_with_and_without_packed_columns(q, n, packed, graph_q7):
    graph = graph_q7 if q == 7 else build_graph(field_of_order(q), n)
    assert spectrum_from_graph(graph).lines == spectrum_closed_form(q, n).lines
    assert (graph.__dict__["_columns"] is not None) == packed
    assert graph._passed == dict(enumerate(graph._eigenvalues))  # one int key per label
