"""Spectral gap thresholds, witness search, soundness, negative control."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitgraph import (
    ContextMismatchError,
    Matrix,
    check_spectral_gap,
    enumerate_matrices,
    field,
    field_of_order,
    find_invertible_difference,
    matrix_from_index,
    matrix_to_index,
    max_nontrivial_eigenvalue,
    random_subset,
    spectral_threshold,
)
from unitgraph import gap as gap_mod
from unitgraph import matrices
from unitgraph.cli import main
from unitgraph.fields import _digits, _number
from unitgraph.gap import IndexSubset

F2 = field(2)
F3 = field(3)


def zero_third_row_subspace():
    """The 64 matrices over F_2 whose third row vanishes; their pairwise
    differences share the zero row and are never invertible."""
    return [m for m in enumerate_matrices(F2, 3) if all(d == 0 for d in m.flat[6:])]


def test_threshold_values():
    t2 = spectral_threshold(2)
    assert t2.n_star == Fraction(512, 7)
    assert t2.integer_bound == 74
    t3 = spectral_threshold(3)
    assert t3.n_star == Fraction(19683, 26)
    assert t3.integer_bound == 758
    with pytest.raises(ValueError):
        spectral_threshold(1)


def test_threshold_denominator_and_inequality_sweep():
    for q in range(2, 98):
        t = spectral_threshold(q)  # re-proves n_* < bound by cross-multiplication
        assert t.n_star.denominator == q**3 - 1
        assert t.n_star.numerator == q**9
        assert t.n_star < t.integer_bound


def test_max_nontrivial_eigenvalue():
    assert max_nontrivial_eigenvalue(2) == 24
    assert max_nontrivial_eigenvalue(3) == 432
    assert max_nontrivial_eigenvalue(4) == 2880
    # the rank-1 magnitude dominates throughout the sweep
    for q in range(2, 98):
        assert max_nontrivial_eigenvalue(q) == q**6 - q**5 - q**4 + q**3


def test_find_invertible_difference_basics():
    everything = list(enumerate_matrices(F2, 3))
    assert find_invertible_difference(everything, everything) is not None
    single = [matrix_from_index(F2, 3, 7)]
    assert find_invertible_difference(single, single) is None
    # deterministic: first pair in input order
    xs = [matrix_from_index(F2, 3, 0)]
    ys = [matrix_from_index(F2, 3, 0), matrix_from_index(F2, 3, 1)]
    pair = find_invertible_difference(xs, ys)
    assert pair is None or pair[0] == xs[0]


def test_find_invertible_difference_symmetric_existence():
    rng = random.Random(101)
    for trial in range(25):
        xs = random_subset(F2, 3, 10, rng)
        ys = random_subset(F2, 3, 10, rng)
        assert (find_invertible_difference(xs, ys) is None) == (
            find_invertible_difference(ys, xs) is None
        )


def test_gap_report_guaranteed_boundary():
    rng = random.Random(5)
    xs74 = random_subset(F2, 3, 74, rng)
    r = check_spectral_gap(xs74, xs74)
    assert not r.guaranteed  # 74 * 74 is not strictly above 74^2
    xs75 = random_subset(F2, 3, 75, rng)
    r = check_spectral_gap(xs75, xs75)
    assert r.guaranteed and r.witness is not None
    # geometric mean: 60 * 95 = 5700 > 74^2 = 5476
    xs = random_subset(F2, 3, 60, rng)
    ys = random_subset(F2, 3, 95, rng)
    r = check_spectral_gap(xs, ys)
    assert r.guaranteed and r.witness is not None


def test_gap_report_below_bound_reports_either_way():
    rng = random.Random(9)
    xs = random_subset(F2, 3, 10, rng)
    ys = random_subset(F2, 3, 10, rng)
    r = check_spectral_gap(xs, ys, seed=9)
    assert not r.guaranteed
    assert r.seed == 9
    assert (r.size_x, r.size_y) == (10, 10)


def test_negative_control_zero_row_subspace():
    sub = zero_third_row_subspace()
    assert len(sub) == 64
    r = check_spectral_gap(sub, sub)
    assert not r.guaranteed  # 64 <= 74, the bound makes no claim
    assert r.witness is None  # and indeed no witness exists


def test_soundness_short_sweep():
    # the full 1000-trial sweep lives in the acceptance suite
    for trial in range(100):
        rng = random.Random(trial)
        xs = random_subset(F2, 3, 75, rng)
        ys = random_subset(F2, 3, 75, rng)
        r = check_spectral_gap(xs, ys, seed=trial)
        assert r.guaranteed and r.witness is not None


def test_witness_difference_is_invertible():
    rng = random.Random(77)
    xs = random_subset(F2, 3, 75, rng)
    r = check_spectral_gap(xs, xs)
    a, b = r.witness
    assert not (b - a).det().is_zero()
    assert a in xs and b in xs


def test_input_validation():
    with pytest.raises(ValueError):
        check_spectral_gap([], [])
    two = [m for m in enumerate_matrices(F2, 2)][:3]
    with pytest.raises(ValueError):
        check_spectral_gap(two, two)  # n = 2 has no 3x3 bound
    mixed = [matrix_from_index(F2, 3, 0), matrix_from_index(F3, 3, 0)]
    with pytest.raises(ContextMismatchError):
        find_invertible_difference(mixed, mixed)
    rng = random.Random(0)
    with pytest.raises(ValueError):
        random_subset(F2, 3, 513, rng)


def test_report_serialization():
    rng = random.Random(3)
    xs = random_subset(F2, 3, 5, rng)
    r = check_spectral_gap(xs, xs, seed=3)
    d = r.to_json_dict()
    assert d["q"] == 2
    assert d["n_star_num"] == 512 and d["n_star_den"] == 7
    assert d["integer_bound"] == 74
    assert d["set_sizes"] == [5, 5]
    assert d["seed"] == 3
    if d["witness"] is not None:
        assert set(d["witness"]) == {"a", "b"}
        assert d["witness"]["a"]["q"] == 2


def test_repeated_matrix_is_rejected():
    zero = matrix_from_index(F2, 3, 0)
    with pytest.raises(ValueError, match="subset X lists a matrix twice"):
        check_spectral_gap([zero] * 75, [zero] * 75)
    distinct = random_subset(F2, 3, 75, random.Random(1))
    with pytest.raises(ValueError, match="subset Y lists a matrix twice"):
        check_spectral_gap(distinct, [*distinct, *[matrix_from_index(F2, 3, 0)] * 2])
    # an equal matrix built separately is still a repeat
    copy = matrix_from_index(F2, 3, matrix_to_index(distinct[3]))
    with pytest.raises(ValueError, match="subset X"):
        check_spectral_gap([*distinct, copy], distinct)


def _kernel_rows(ctx, n, v):
    """Every row r (an entry tuple) with r . v = 0 over ctx."""
    add, mul = ctx._add, ctx._mul
    rows = []
    for r in itertools.product(range(ctx.q), repeat=n):
        acc = 0
        for a, b in zip(r, v):
            acc = add[acc][mul[a][b]]
        if acc == 0:
            rows.append(r)
    return rows


def _same_pair(found, expected):
    if expected is None:
        return found is None
    return found is not None and found[0] is expected[0] and found[1] is expected[1]


def _left_kernel_matrix(ctx, n, w, rows):
    """The matrix B with w B = 0 and ``rows`` as its other rows: row p, for
    the first nonzero w_p, is solved for."""
    add, mul, neg, inv = ctx._add, ctx._mul, ctx._neg, ctx._inv
    p = next(i for i, x in enumerate(w) if x)
    rows = list(rows)
    solved = []
    for col in range(n):
        acc = 0
        for wi, row in zip(w[:p] + w[p + 1 :], rows):
            acc = add[acc][mul[wi][row[col]]]
        solved.append(mul[neg[acc]][inv[w[p]]])
    rows.insert(p, tuple(solved))
    return Matrix(ctx, n, tuple(itertools.chain(*rows)))


# (q, n) of the table route, where a row fits a byte: up to q^n = 64 and at
# q^n = 256; and the pairwise route just past a byte at (17, 2) and (257, 1)
SCAN_CASES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)]
SCAN_CASES += [(16, 2), (4, 4), (17, 2), (257, 1)]


@st.composite
def scan_inputs(draw):
    """Two lists of matrices, drawn at random or from a set where every
    difference is singular: the kernel {B : B v = 0} or the left kernel
    {B : w B = 0} of a nonzero vector.  Y may go on past the singular set
    with random matrices, so a first hit can land anywhere up to about
    position 100, and often just before or at the start of Y's second
    block."""
    q, n = draw(st.sampled_from(SCAN_CASES))
    ctx = field_of_order(q)
    vector = st.tuples(*[st.integers(0, q - 1)] * n).filter(any)
    anything = st.integers(0, q ** (n * n) - 1).map(lambda i: matrix_from_index(ctx, n, i))
    kind = draw(st.sampled_from(["random", "kernel", "left kernel"]))
    if kind == "kernel":
        row = st.sampled_from(_kernel_rows(ctx, n, draw(vector)))
        rows = st.lists(row, min_size=n, max_size=n)
        matrix = rows.map(lambda rows: Matrix(ctx, n, tuple(itertools.chain(*rows))))
    elif kind == "left kernel":
        w, row = draw(vector), st.tuples(*[st.integers(0, q - 1)] * n)
        rows = st.lists(row, min_size=n - 1, max_size=n - 1)
        matrix = rows.map(lambda rows: _left_kernel_matrix(ctx, n, w, rows))
    else:
        matrix = anything
    head = gap_mod._HEAD
    size = draw(st.one_of(st.sampled_from([head - 1, head]), st.integers(1, 100)))
    xs = draw(st.lists(matrix, min_size=1, max_size=12))
    ys = draw(st.lists(matrix, min_size=size, max_size=size))
    extra = draw(st.lists(anything, max_size=3))
    return ctx, n, xs, ys + extra, kind != "random" and not extra


def _indices(ms):
    return [matrix_to_index(m) for m in ms]


@settings(max_examples=200, deadline=None)
@given(scan_inputs())
def test_table_scan_matches_pairwise_scan(case):
    ctx, n, xs, ys, kernel = case
    # the first hit in input order, pair by pair
    hits = ((i, j) for i, a in enumerate(xs) for j, b in enumerate(ys) if (b - a).is_invertible())
    first = next(hits, None)
    if kernel:
        assert first is None
    assert gap_mod._pairwise_scan(ctx, n, _indices(xs), _indices(ys)) == first
    if ctx.q**n <= 256:
        assert gap_mod._table_scan(ctx, n, _indices(xs), _indices(ys)) == first
    # the public scan takes the route of its size and returns the objects
    # at those positions, for lists and for views alike
    assert _same_pair(find_invertible_difference(xs, ys), first and (xs[first[0]], ys[first[1]]))
    vx, vy = IndexSubset(ctx, n, _indices(xs)), IndexSubset(ctx, n, _indices(ys))
    found = find_invertible_difference(vx, vy)
    assert _same_pair(found, first and (vx[first[0]], vy[first[1]]))


@pytest.mark.parametrize(
    "q, n, route",
    [(16, 2, "_table_scan"), (4, 4, "_table_scan"), (2, 8, "_table_scan")]
    + [(17, 2, "_pairwise_scan"), (7, 3, "_pairwise_scan"), (257, 1, "_pairwise_scan")],
)
def test_the_masks_run_exactly_where_a_row_fits_a_byte(q, n, route, monkeypatch):
    # q^n <= 256 takes the hyperplane masks, anything larger the determinants
    called = []

    def spy(name, scan):
        return lambda *args: called.append(name) or scan(*args)

    for name in ("_table_scan", "_pairwise_scan"):
        monkeypatch.setattr(gap_mod, name, spy(name, getattr(gap_mod, name)))
    ctx, rng = field_of_order(q), random.Random(q * n)
    zero, one = Matrix.zero(ctx, n), Matrix.identity(ctx, n)
    anything = [matrix_from_index(ctx, n, rng.randrange(q ** (n * n))) for _ in range(20)]
    ys = [one, *anything, zero]  # ends in one - zero, which is invertible
    first = next(j for j, b in enumerate(ys) if (b - one).is_invertible())
    assert _same_pair(find_invertible_difference([one], ys), (one, ys[first]))
    assert called == [route]


def test_the_scan_builds_no_rank_table(capsys):
    # the hyperplanes come from normal vectors, at q = 4 and in a CLI query at q = 3
    matrices._rank_blocks.cache_clear()
    gap_mod._plane_masks.cache_clear()
    rng = random.Random(28)
    F4 = field_of_order(4)
    report = check_spectral_gap(random_subset(F4, 3, 40, rng), random_subset(F4, 3, 40, rng))
    assert report.witness is not None
    assert main(["gap", "--q", "3", "--random-size", "759"]) == 0
    assert "witness" in capsys.readouterr().out
    assert matrices._rank_blocks.cache_info().misses == 0


@st.composite
def gap_inputs(draw):
    """Two subsets of Mat_3(F_q), q in {2, 3, 4}, as distinct index lists;
    sometimes large enough at q = 2 for the bound to promise a witness."""
    q = draw(st.sampled_from([2, 3, 4]))
    ctx = field_of_order(q)
    subset = st.lists(st.integers(0, q**9 - 1), min_size=1, max_size=90, unique=True)
    return ctx, draw(subset), draw(subset)


@settings(max_examples=60, deadline=None)
@given(gap_inputs())
def test_check_spectral_gap_on_a_view_equals_the_list(case):
    ctx, ix, iy = case
    vx, vy = IndexSubset(ctx, 3, ix), IndexSubset(ctx, 3, iy)
    lx, ly = list(vx), list(vy)
    on_view, on_list = check_spectral_gap(vx, vy, seed=1), check_spectral_gap(lx, ly, seed=1)
    assert on_view == on_list
    for report, xs, ys in ((on_view, vx, vy), (on_list, lx, ly)):
        if report.witness is not None:
            a, b = report.witness
            assert any(a is m for m in xs) and any(b is m for m in ys)


def test_index_subset_is_a_cached_sequence():
    view = IndexSubset(F2, 3, [5, 0, 511])
    assert len(view) == 3
    assert view[0] is view[0] is view[-3]
    assert [matrix_to_index(m) for m in view] == [5, 0, 511]
    assert all(a is b for a, b in zip(view, list(view)))
    with pytest.raises(IndexError):
        view[3]
    # a slice is the list of those matrices, the cached objects themselves
    assert view[1:] == [view[1], view[2]] and view[1:][0] is view[1]
    assert view[::-2] == [view[2], view[0]] and view[7:] == []
    for bad in ([512], [-1]):
        with pytest.raises(ValueError, match="out of range"):
            IndexSubset(F2, 3, bad)
    with pytest.raises(ContextMismatchError):
        find_invertible_difference(view, IndexSubset(F3, 3, [0]))
    with pytest.raises(ContextMismatchError):
        find_invertible_difference(view, [matrix_from_index(F2, 2, 0)])
    with pytest.raises(ValueError, match="subset X lists a matrix twice"):
        check_spectral_gap(IndexSubset(F2, 3, [7, 7]), view)


def test_a_list_is_numbered_once_per_query(monkeypatch):
    numbered = []

    def counting(m):
        numbered.append(m)
        return matrix_to_index(m)

    monkeypatch.setattr(gap_mod, "matrix_to_index", counting)
    rng = random.Random(4)
    xs, ys = list(random_subset(F2, 3, 75, rng)), list(random_subset(F2, 3, 75, rng))
    report = check_spectral_gap(xs, ys)
    assert len(numbered) == 150  # each matrix once: the duplicate check and the scan share it
    a, b = report.witness
    assert any(a is m for m in xs) and any(b is m for m in ys)


@pytest.mark.parametrize("q, n", [(2, 3), (3, 3), (4, 3), (5, 3), (2, 4), (9, 2), (16, 2), (4, 4)])
def test_plane_masks_flag_every_hyperplane(q, n):
    # the normal vectors give each hyperplane of F_q^n once, and the masks
    # of a row value v flag at row u the planes that hold u - v
    ctx = field_of_order(q)
    size = q**n
    masks = gap_mod._plane_masks(ctx, n)
    every = bytes(range(size))

    def flags(v):
        return [mask.to_bytes(size, "little") for mask in masks(every, v)]

    at_zero = flags(0)
    planes = [
        frozenset(u for u in range(size) if group[u] >> bit & 1)
        for group in at_zero
        for bit in range(8)
    ]
    planes = [plane for plane in planes if plane]
    assert len(planes) == len(set(planes)) == (size - 1) // (q - 1)
    add, mul, neg = ctx._add, ctx._mul, ctx._neg
    rows = [_digits(u, q, n) for u in range(size)]
    plus = [[_number([add[x][y] for x, y in zip(a, b)], q) for b in rows] for a in rows]
    times = [[_number([mul[c][x] for x in a], q) for a in rows] for c in range(q)]
    for plane in planes:  # a subspace: closed under scaling and under sums
        assert len(plane) == q ** (n - 1) and 0 in plane
        assert all(times[c][u] in plane for u in plane for c in range(q))
        assert all(plus[u][w] in plane for u in plane for w in plane)
    for v in (1, size - 1, size // 2):
        minus_v = times[neg[1]][v]
        for group, zero in zip(flags(v), at_zero):
            assert all(group[u] == zero[plus[u][minus_v]] for u in range(size))


@pytest.mark.parametrize("q, n", [(3, 3), (16, 2), (4, 4)])
def test_table_scan_without_the_memo_matches_pairwise_scan(q, n, monkeypatch):
    # a memo over its byte budget is emptied before each new mask: the scan
    # then rebuilds every mask and must still return the same pair
    monkeypatch.setattr(gap_mod, "_MEMO_BYTES", 0)
    ctx, rng = field_of_order(q), random.Random(q)

    def left_kernel_matrix():  # w B = 0 for w = (1, ..., 1)
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(n - 1)]
        return _left_kernel_matrix(ctx, n, (1,) * n, rows)

    left = [left_kernel_matrix() for _ in range(60)]
    anything = [matrix_from_index(ctx, n, rng.randrange(q ** (n * n))) for _ in range(3)]
    for xs, ys in ((left, left), (left[:20], left + anything)):
        found = gap_mod._table_scan(ctx, n, _indices(xs), _indices(ys))
        assert found == gap_mod._pairwise_scan(ctx, n, _indices(xs), _indices(ys))
        assert (found is None) == (ys is left)


def test_pairwise_route_above_the_cap(monkeypatch):
    # at q = 7, n = 3 a row has 343 values, past a byte: one determinant per pair
    F7 = field(7)
    monkeypatch.setattr(gap_mod, "_table_scan", None)
    zero, one = Matrix.zero(F7, 3), Matrix.identity(F7, 3)
    singular = Matrix.from_rows(F7, [[1, 2, 3], [4, 5, 6], [0, 0, 0]])
    ys = [zero, singular, one]
    assert gap_mod._pairwise_scan(F7, 3, _indices([zero]), _indices(ys)) == (0, 2)
    assert _same_pair(find_invertible_difference([zero], ys), (zero, one))
    view, first = IndexSubset(F7, 3, _indices(ys)), IndexSubset(F7, 3, _indices([zero]))
    assert _same_pair(find_invertible_difference(first, view), (first[0], view[2]))
    rng = random.Random(3)
    zero_row = [  # last row zero: every difference is singular
        Matrix(F7, 3, tuple(rng.randrange(7) for _ in range(6)) + (0, 0, 0)) for _ in range(12)
    ]
    assert gap_mod._pairwise_scan(F7, 3, _indices(zero_row), _indices(zero_row)) is None
    assert find_invertible_difference(zero_row, zero_row) is None


def test_random_subset_decodes_like_matrix_from_index():
    for q, n, size in ((2, 3, 75), (3, 3, 40), (4, 2, 256), (5, 1, 3), (2, 4, 20), (7, 3, 10)):
        ctx = field_of_order(q)
        for seed in range(5):
            rng, ref = random.Random(seed), random.Random(seed)
            drawn = random_subset(ctx, n, size, rng)
            expected = [matrix_from_index(ctx, n, i) for i in ref.sample(range(q ** (n * n)), size)]
            assert [m.flat for m in drawn] == [m.flat for m in expected]
            assert all(m.ctx is ctx and m.n == n for m in drawn)
            assert rng.random() == ref.random()  # the same draws were consumed


def _same_draw(seed, total, k):
    """_sample and rng.sample on two equal generators: the same list, the same state."""
    rng, ref = random.Random(seed), random.Random(seed)
    assert gap_mod._sample(rng, total, k) == ref.sample(range(total), k), (total, k)
    assert rng.getstate() == ref.getstate(), (total, k)


def test_sample_matches_rng_sample_at_every_width():
    for bits in range(5, 33):
        for total in (2**bits - 1, 2**bits, 2**bits + 1):
            for k in (0, 1, 2, 5, 6, 40, 300):
                if k < total:
                    for seed in range(6):
                        _same_draw(seed, total, k)


def test_sample_matches_rng_sample_at_the_pool_threshold():
    # sample keeps a pool up to 21 + 4^ceil(log_4(3k)) for k > 5, 21 otherwise
    for k, setsize in ((1, 21), (5, 21), (6, 85), (21, 85), (22, 277), (759, 4117)):
        for total in (k, k + 1, setsize - 1, setsize, setsize + 1, setsize + 2):
            for seed in range(20):
                _same_draw(seed, total, k)


def test_sample_defers_to_other_generators_and_wide_totals():
    class Counting(random.Random):
        """Its wide draws are not its 32-bit draws side by side."""

        def getrandbits(self, k):
            self.calls = getattr(self, "calls", 0) + 1
            return self.calls * 2654435761 % (1 << k)

    for total, k in ((19683, 759), (2**20, 6), (1000, 3)):
        rng, ref = Counting(0), Counting(0)
        assert gap_mod._sample(rng, total, k) == ref.sample(range(total), k)
        assert rng.calls == ref.calls
    for total in (2**32, 2**32 + 1, 2**62):
        for seed in range(5):
            _same_draw(seed, total, 5)
    F13 = field(13)
    rng, ref = random.Random(1), random.Random(1)
    drawn = random_subset(F13, 3, 5, rng)
    assert drawn.indices == ref.sample(range(13**9), 5) and rng.getstate() == ref.getstate()


def test_random_subset_rejects_a_negative_size():
    with pytest.raises(ValueError, match="^cannot sample -1 distinct matrices from 512$"):
        random_subset(F2, 3, -1, random.Random(0))


def test_drawn_views_skip_the_range_check_that_built_views_keep(monkeypatch):
    for q in (2, 3, 4):
        ctx = field_of_order(q)
        for bad in ([q**9], [-1], [0, q**9 - 1, q**9]):
            with pytest.raises(ValueError, match="out of range"):
                IndexSubset(ctx, 3, bad)
    drawn = random_subset(F3, 3, 759, random.Random(3))
    built = IndexSubset(F3, 3, list(drawn.indices))
    assert type(drawn) is IndexSubset and len(drawn) == len(built) == 759
    assert [m.flat for m in drawn] == [m.flat for m in built]
    assert drawn[7] is drawn[7] and drawn[2:4] == [drawn[2], drawn[3]]

    def checked(*args):
        raise AssertionError("a drawn view went through the range check")

    monkeypatch.setattr(IndexSubset, "__init__", checked)
    assert random_subset(F3, 3, 759, random.Random(3)).indices == drawn.indices


def _lazy_reads(seed, total, k):
    """A lazy draw read ascending, far index first, by slices or by
    iteration: every read equals rng.sample's list, and a full read
    leaves the generator where rng.sample leaves it."""
    ref = random.Random(seed)
    expected, state = ref.sample(range(total), k), ref.getstate()
    for order in ("ascending", "far index first", "slices", "iteration"):
        rng = random.Random(seed)
        drawn = gap_mod._lazy_sample(rng, total, k)
        if order == "far index first" and k:
            assert drawn[k - 1] == expected[k - 1], (total, k)
        if order == "slices":
            for part in (slice(2, 5), slice(k // 3, k - 1, 2), slice(-4, 1, -1), slice(None, None, -1)):
                assert drawn[part] == expected[part], (total, k, part)
        read = list(drawn) if order == "iteration" else [drawn[j] for j in range(k)]
        assert len(drawn) == k and read == expected, (total, k, order)
        assert rng.getstate() == state, (total, k, order)


def test_lazy_sample_matches_rng_sample_in_any_order_at_every_width():
    for bits in range(5, 33):
        for total in (2**bits - 1, 2**bits, 2**bits + 1):
            for k in (0, 1, 2, 5, 6, 40, 300):
                if k < total:
                    for seed in range(2):
                        _lazy_reads(seed, total, k)


def test_lazy_sample_prefix_reads_draw_no_further_than_rng_sample():
    # a prefix read takes pick j at the same word rng.sample does, so the
    # generator, read on from there, gives rng.sample's remaining picks
    for total, k in ((512, 75), (19683, 759), (2**32 - 1, 300)):
        for seed in range(3):
            expected = random.Random(seed).sample(range(total), k)
            for stop in (1, 8, k // 2):
                rng = random.Random(seed)
                drawn = gap_mod._lazy_sample(rng, total, k)
                assert drawn[:stop] == expected[:stop] and len(drawn._picks) == stop
                assert drawn[stop - 1] == expected[stop - 1] and len(drawn._picks) == stop


def test_a_head_block_witness_leaves_y_mostly_undrawn():
    # the table scan reads Y's first 8 matrices first; a witness there
    # draws those 8, and a drawn view builds no duplicate set
    for seed in range(4):
        rng, ref = random.Random(seed), random.Random(seed)
        xs, ys = gap_mod._random_pair(F3, 3, 759, rng)
        report = check_spectral_gap(xs, ys)
        assert xs.indices == ref.sample(range(3**9), 759)
        assert type(ys.indices) is gap_mod._LazySample and len(ys) == 759
        assert report.witness[1] in ys[:8] and len(ys.indices._picks) == 8
        assert ys.indices[:8] == ref.sample(range(3**9), 759)[:8]


@pytest.mark.parametrize("size", [2, 12, 40])
def test_pairwise_scan_reads_a_lazy_y_like_a_list(size):
    # the first a decodes Y as it reaches each y; later a's read that list
    for seed in range(30):
        ref = random.Random(seed)
        xs, ys = ref.sample(range(512), size), ref.sample(range(512), size)
        rng = random.Random(seed)
        rng.sample(range(512), size)
        lazy = gap_mod._lazy_sample(rng, 512, size)
        found = gap_mod._pairwise_scan(F2, 3, xs, lazy)
        assert found == gap_mod._pairwise_scan(F2, 3, xs, ys) == gap_mod._table_scan(F2, 3, xs, ys)
