"""Matrix algebra over small fields, enumeration order, group order."""

import gc
import itertools
import random
import tracemalloc

import pytest

from unitgraph import (
    ContextMismatchError,
    Matrix,
    SizeTooLargeError,
    build_graph,
    count_invertible_pinned,
    eigenvalue_charsum,
    enumerate_invertible,
    enumerate_matrices,
    field,
    field_of_order,
    gl_order,
    matrix_count,
    matrix_from_index,
    matrix_to_index,
    rank_census,
    rank_count,
    rank_representative,
)
from unitgraph.matrices import _det_flat, _eliminate, _rank_blocks, _rank_bytes
from unitgraph.matrices import indices_from_index_file

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)


def det3_mod_p(entries, p):
    """Independent 3x3 determinant over a prime field, plain ints."""
    (a, b, c), (d, e, f), (g, h, i) = entries
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p


def test_ring_identities():
    ident = Matrix.identity(F3, 3)
    zero = Matrix.zero(F3, 3)
    assert ident - ident == zero
    rng = random.Random(11)
    for _ in range(20):
        m = matrix_from_index(F3, 3, rng.randrange(matrix_count(F3, 3)))
        assert m @ ident == m
        assert ident @ m == m
        assert m + zero == m
        assert m - m == zero
        assert -(-m) == m
    # characteristic 2: I + I = 0
    i2 = Matrix.identity(F2, 3)
    assert i2 + i2 == Matrix.zero(F2, 3)


def test_trace():
    assert Matrix.zero(F2, 3).trace().is_zero()
    assert Matrix.identity(F3, 3).trace().is_zero()  # 3 = 0 mod 3
    # trace of (rank-2 diagonal label times B) picks out b11 + b22
    a2 = rank_representative(F2, 3, 2)
    rng = random.Random(5)
    for _ in range(20):
        b = matrix_from_index(F2, 3, rng.randrange(512))
        assert (a2 @ b).trace() == b.entry(0, 0) + b.entry(1, 1)


def test_rank_examples():
    assert Matrix.zero(F2, 3).rank() == 0
    for r in range(4):
        rep = rank_representative(F2, 3, r)
        assert rep.rank() == r
    ones = Matrix.from_rows(F2, [[1, 1, 1]] * 3)
    assert ones.rank() == 1
    with pytest.raises(ValueError):
        rank_representative(F2, 3, 4)


def test_det_examples():
    assert Matrix.identity(F3, 3).det() == F3.one()
    assert Matrix.zero(F3, 3).det().is_zero()
    d = Matrix.from_rows(F3, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert d.det() == F3.element(2)


def test_det_matches_independent_oracle():
    # exhaustive against a from-scratch cofactor determinant, q = 2
    for m in enumerate_matrices(F2, 3):
        entries = [[m.flat[i * 3 + j] for j in range(3)] for i in range(3)]
        assert m.det().index == det3_mod_p(entries, 2)
    # sampled at q = 3
    rng = random.Random(17)
    for _ in range(500):
        m = matrix_from_index(F3, 3, rng.randrange(matrix_count(F3, 3)))
        entries = [[m.flat[i * 3 + j] for j in range(3)] for i in range(3)]
        assert m.det().index == det3_mod_p(entries, 3)


def test_det_nonzero_iff_full_rank():
    for n in (1, 2, 3):
        for m in enumerate_matrices(F2, n):
            assert (not m.det().is_zero()) == (m.rank() == n)
    rng = random.Random(23)
    for _ in range(400):
        m = matrix_from_index(F3, 3, rng.randrange(matrix_count(F3, 3)))
        assert (not m.det().is_zero()) == (m.rank() == 3)


def test_negation_preserves_rank_and_invertibility():
    for m in enumerate_matrices(F2, 3):
        assert (-m).rank() == m.rank()
    rng = random.Random(29)
    for _ in range(300):
        m = matrix_from_index(F3, 3, rng.randrange(matrix_count(F3, 3)))
        assert (-m).rank() == m.rank()
        assert (-m).det().is_zero() == m.det().is_zero()


def test_elimination_det_agrees_on_larger_sizes():
    # n = 4 exercises the elimination path instead of the cofactor formula
    rng = random.Random(31)
    for _ in range(50):
        flat = tuple(rng.randrange(3) for _ in range(16))
        m = Matrix(F3, 4, flat)
        assert (not m.det().is_zero()) == (m.rank() == 4)


def test_enumeration_counts_and_order():
    assert [m.flat for m in enumerate_matrices(F2, 1)] == [(0,), (1,)]
    assert sum(1 for _ in enumerate_matrices(F2, 3)) == 512
    assert sum(1 for _ in enumerate_matrices(F3, 3)) == 19683
    # the (0,0) entry is the least significant digit
    first = list(itertools.islice(enumerate_matrices(F3, 2), 4))
    assert [m.flat for m in first] == [(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0)]


def test_index_roundtrip():
    for idx, m in enumerate(enumerate_matrices(F2, 3)):
        assert matrix_to_index(m) == idx
        assert matrix_from_index(F2, 3, idx) == m
    rng = random.Random(37)
    for _ in range(100):
        idx = rng.randrange(matrix_count(F3, 3))
        assert matrix_to_index(matrix_from_index(F3, 3, idx)) == idx
    with pytest.raises(ValueError):
        matrix_from_index(F2, 3, 512)


def test_gl_enumeration_matches_order_formula():
    assert [m.flat for m in enumerate_invertible(F2, 1)] == [(1,)]
    for ctx, n in [(F2, 3), (F3, 3), (F4, 3)]:
        assert sum(1 for _ in enumerate_invertible(ctx, n)) == gl_order(ctx.q, n)


def test_gl_order_values():
    # product formula evaluated by hand: 7*6*4, 26*24*18, 63*60*48
    assert gl_order(2, 3) == 168
    assert gl_order(3, 3) == 11232
    assert gl_order(4, 3) == 181440
    assert gl_order(2, 2) == 6
    assert gl_order(3, 2) == 48
    with pytest.raises(ValueError):
        gl_order(1, 3)


def test_enumeration_cap():
    with pytest.raises(SizeTooLargeError):
        list(enumerate_matrices(F2, 3, cap=100))
    with pytest.raises(SizeTooLargeError):
        next(iter(enumerate_matrices(F2, 5)))  # 2^25 over the default cap


def test_cap_checks_past_the_digit_limit_write_the_count_as_a_power():
    # 2^40000 has more digits than Python converts to str; nothing builds it
    for call in (
        lambda: rank_census(F2, 200),
        lambda: list(enumerate_matrices(F2, 200)),
        lambda: build_graph(F2, 200),
        lambda: eigenvalue_charsum(rank_representative(F2, 200, 1)),
    ):
        with pytest.raises(SizeTooLargeError, match=r" 2\^40000 "):
            call()
    # a count Python prints stays in decimal
    with pytest.raises(SizeTooLargeError) as caught:
        rank_census(F2, 5)
    assert str(caught.value) == "enumerating 33554432 matrices over GF(2) exceeds the cap 16777216"
    with pytest.raises(SizeTooLargeError) as caught:
        build_graph(F2, 3, max_order=100)
    assert str(caught.value) == "graph on 512 vertices exceeds the cap 100"


def test_context_and_dimension_mismatch():
    a = Matrix.identity(F2, 3)
    b = Matrix.identity(F3, 3)
    with pytest.raises(ContextMismatchError):
        a + b
    with pytest.raises(ContextMismatchError):
        a @ Matrix.identity(F2, 2)
    with pytest.raises(ContextMismatchError):
        Matrix.from_rows(F2, [[F3.one()]])


def test_rank_census_small():
    assert rank_census(F2, 2) == [1, 9, 6]
    assert rank_census(F3, 2) == [1, 32, 48]
    assert rank_census(F2, 3) == [1, 49, 294, 168]


def test_rank_table_matches_elimination():
    exhaustive = [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (5, 2), (7, 2), (8, 2), (9, 2)]
    for q, n in exhaustive + [(2, 3), (3, 3), (2, 4)]:
        ctx = field_of_order(q)
        table = _rank_bytes(ctx, n)
        assert len(table) == matrix_count(ctx, n)
        assert table == b"".join(_rank_blocks(ctx, n))
        for t, m in enumerate(enumerate_matrices(ctx, n)):
            rank, det = _eliminate(ctx, n, m.flat)
            assert table[t] == rank, (q, n, t)
            if n <= 3:
                assert det == _det_flat(ctx, n, m.flat), (q, n, t)
    for q in (4, 5):
        ctx = field_of_order(q)
        table = _rank_bytes(ctx, 3)
        assert len(table) == matrix_count(ctx, 3)
        rng = random.Random(q)
        for t in rng.sample(range(len(table)), 2000):
            rank = _eliminate(ctx, 3, matrix_from_index(ctx, 3, t).flat)[0]
            assert table[t] == rank, (q, t)
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 5):
            if q ** (n * n) <= 5**9:
                census = rank_census(field_of_order(q), n)
                assert census == [rank_count(q, n, r) for r in range(n + 1)], (q, n)


def test_gl_mask_matches_unrolled_determinant():
    mask = _rank_bytes(F4, 3).translate(bytes(r == 3 for r in range(256)))
    dets = bytes(_det_flat(F4, 3, m.flat) != 0 for m in enumerate_matrices(F4, 3))
    assert mask == dets
    gl = [m.flat for m in enumerate_matrices(F4, 3) if _det_flat(F4, 3, m.flat)]
    assert [m.flat for m in enumerate_invertible(F4, 3)] == gl


def test_rank_table_build_leaves_no_garbage_cycle():
    # the build state must be freed on return, not at the next cyclic GC
    gc.collect()
    gc.disable()
    try:
        _rank_blocks.__wrapped__(F3, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()



def gaussian_binomial(q, n, d):
    """[n, d]_q, the number of d-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize(
    "q, n, distinct", [(2, 3, 15), (3, 3, 27), (4, 3, 43), (5, 3, 63), (64, 2, 66), (2, 4, 66)]
)
def test_equal_row_spans_share_one_block(q, n, distinct):
    # one block object per proper subspace spanned by rows 1..n-1
    assert sum(gaussian_binomial(q, n, d) for d in range(n)) == distinct
    blocks = _rank_blocks(field_of_order(q), n)
    assert len(blocks) == q ** (n * n - n)
    assert all(len(block) == q**n for block in blocks)
    assert len({id(block) for block in blocks}) == len(set(blocks)) == distinct


def traced_block_build(ctx, n):
    """An uncached ``_rank_blocks`` build: (blocks, bytes held after, traced peak)."""
    tracemalloc.start()
    try:
        blocks = _rank_blocks.__wrapped__(ctx, n)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return blocks, held, peak


def test_rank_table_build_peak_stays_near_the_table():
    # a subspace reached along many row orders is built and held once
    ctx = field_of_order(5)
    blocks, held, peak = traced_block_build(ctx, 3)
    assert peak < matrix_count(ctx, 3)
    assert held < matrix_count(ctx, 3) // 4
    assert len(blocks) == 5**6


def test_rank_block_build_peak_stays_below_the_flat_table():
    # no q^(n^2)-byte string is joined; 16 MiB at (64, 2)
    ctx = field_of_order(64)
    blocks, _, peak = traced_block_build(ctx, 2)
    assert peak < matrix_count(ctx, 2) // 8
    assert len(blocks) == 64**2


def test_census_and_pinned_counts_join_no_flat_table():
    ctx = field_of_order(5)
    _rank_blocks(ctx, 3)
    tracemalloc.start()
    try:
        census = rank_census(ctx, 3)
        grid = count_invertible_pinned(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert census == [rank_count(5, 3, r) for r in range(4)]
    assert sum(map(sum, grid)) == gl_order(5, 3)
    assert peak < matrix_count(ctx, 3) // 8

def test_index_file_parsing():
    lines = ["0", "# comment", "", "511"]
    assert indices_from_index_file(F2, 3, lines) == [0, 511]
    with pytest.raises(ValueError, match="line 1: not an integer"):
        indices_from_index_file(F2, 3, ["not-a-number"])
    for bad in ("512", "-1"):
        with pytest.raises(ValueError, match=f"line 2: matrix index {bad} out of range"):
            indices_from_index_file(F2, 3, ["0", bad])


def test_from_rows_rows_and_identity_agree_with_entries_and_ranks():
    for ctx in (F2, F3, F4, field(3, 2)):
        rng = random.Random(ctx.q)
        for n in (1, 2, 3):
            idx = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(n)]
            m = Matrix.from_rows(ctx, idx)
            assert Matrix.from_rows(ctx, [[ctx.element(e) for e in row] for row in idx]) == m
            assert m.rows == tuple(tuple(m.entry(i, j) for j in range(n)) for i in range(n))
            assert [[e.index for e in row] for row in m.rows] == idx
        for n in range(1, 5):
            assert Matrix.identity(ctx, n) == rank_representative(ctx, n, n)
    with pytest.raises(ContextMismatchError, match=r"^element of GF\(3\) is not in GF\(2\)$"):
        Matrix.from_rows(F2, [[F3.one()]])


def test_json_shape():
    m = rank_representative(F4, 2, 1)
    d = m.to_json_dict()
    assert d == {"q": 4, "n": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}


def test_json_entries_are_the_element_coefficients():
    rng = random.Random(4)
    for ctx in (F2, F3, F4, field(2, 3), field(3, 2), field(7)):
        for n in (1, 2, 3):
            for _ in range(5):
                m = Matrix(ctx, n, tuple(rng.randrange(ctx.q) for _ in range(n * n)))
                entries = [[list(e.coeffs) for e in row] for row in m.rows]
                assert m.to_json_dict() == {"q": ctx.q, "n": n, "entries": entries}
