"""Closed forms vs brute force, rank counts, proof-internal pinned counts.

The independent oracle here is deliberately primitive: plain integer
arithmetic mod a prime, cofactor determinants, exponent histograms.  It
shares no code with the library's field/matrix machinery.
"""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitgraph import (
    CheckFailedError,
    InexactDivisionError,
    Matrix,
    SizeTooLargeError,
    Spectrum,
    SpectrumLine,
    corner_count_closed_form,
    count_invertible_pinned,
    diag_pair_count_closed_form,
    eigenvalue_charsum,
    eigenvalue_charsum_rank,
    eigenvalue_closed_form,
    enumerate_invertible,
    enumerate_matrices,
    field,
    field_of_order,
    gl_order,
    prime_power,
    rank_census,
    rank_count,
    rank_representative,
    spectrum_brute_force,
    spectrum_closed_form,
    trace_identity_holds,
)
from unitgraph.characters import _exponent_of, _label_terms
from unitgraph.matrices import _rank_bytes, matrix_count, matrix_from_index
from unitgraph.spectra import _krawtchouk

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)


# ---------------------------------------------------------------------------
# independent oracle (prime q only, no library arithmetic)


def _det_mod_p(flat, p, n):
    if n == 2:
        a, b, c, d = flat
        return (a * d - b * c) % p
    a, b, c, d, e, f, g, h, i = flat
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p


def brute_charsum_prime(p, n, r):
    """Sum of the rank-r diagonal character over invertible matrices.

    Histogram the partial diagonal sum mod p over all invertible matrices;
    the histogram contracts to an integer iff all nontrivial exponent
    counts agree, which this asserts.
    """
    counts = [0] * p
    for flat in itertools.product(range(p), repeat=n * n):
        if _det_mod_p(flat, p, n):
            counts[sum(flat[i * n + i] for i in range(r)) % p] += 1
    if r == 0:
        return sum(counts)
    assert all(c == counts[1] for c in counts[2:]), "sum would not be an integer"
    return counts[0] - counts[1]


# GF(4) = F_2[x]/(x^2 + x + 1), an element's index its coefficient bits, constant
# term lowest: addition is XOR, and x * x = x + 1 is 2 * 2 = 3
GF4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


def _det_gf4(flat):
    a, b, c, d, e, f, g, h, i = flat
    m = GF4_MUL
    return m[a][m[e][i] ^ m[f][h]] ^ m[b][m[d][i] ^ m[f][g]] ^ m[c][m[d][h] ^ m[e][g]]


def brute_pinned_count_prime(p, pins):
    """Invertible 3x3 count with diagonal positions pinned: pins maps
    diagonal index -> required value."""
    total = 0
    for flat in itertools.product(range(p), repeat=9):
        if all(flat[i * 3 + i] == v for i, v in pins.items()):
            if _det_mod_p(flat, p, 3):
                total += 1
    return total


# ---------------------------------------------------------------------------
# eigenvalue closed forms


def test_closed_form_frozen_values():
    assert [eigenvalue_closed_form(2, r) for r in range(4)] == [168, -24, 8, -8]
    assert [eigenvalue_closed_form(3, r) for r in range(4)] == [11232, -432, 54, -27]
    with pytest.raises(ValueError):
        eigenvalue_closed_form(2, 4)
    with pytest.raises(ValueError):
        eigenvalue_closed_form(2, 3, n=2)
    with pytest.raises(ValueError):
        eigenvalue_closed_form(1, 0)


def test_closed_form_vs_independent_bruteforce():
    for p in (2, 3):
        for r in range(4):
            assert eigenvalue_closed_form(p, r) == brute_charsum_prime(p, 3, r)


def test_factored_vs_expanded_transcriptions():
    # the product form against Delsarte's P_n(x), the eigenvalue on rank-x labels
    for q in range(2, 200):
        for r in range(4):
            assert eigenvalue_closed_form(q, r, n=3) == _krawtchouk(q, 3, 3, r)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27):
        for n in range(1, 8):
            counts = [rank_count(q, n, x) for x in range(n + 1)]
            for x in range(n + 1):
                assert _krawtchouk(q, n, n, x) == eigenvalue_closed_form(q, x, n), (q, n, x)
            # P_k(0) is the valency m_k, and the P_k are orthogonal with weights m_x
            for k in range(n + 1):
                assert _krawtchouk(q, n, k, 0) == counts[k], (q, n, k)
                for l in range(n + 1):
                    inner = sum(
                        counts[x] * _krawtchouk(q, n, k, x) * _krawtchouk(q, n, l, x)
                        for x in range(n + 1)
                    )
                    assert inner == (q ** (n * n) * counts[k] if k == l else 0), (q, n, k, l)


def test_charsum_equals_closed_form():
    for ctx in (F2, F3, F4):
        for r in range(4):
            assert eigenvalue_charsum_rank(ctx, 3, r) == eigenvalue_closed_form(ctx.q, r)
    # every enumerable (q, n) up to q^(n^2) = 5^9
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 5):
            if q ** (n * n) <= 5**9:
                brute = spectrum_brute_force(field_of_order(q), n)
                closed = [eigenvalue_closed_form(q, r, n) for r in range(n + 1)]
                assert [line.eigenvalue for line in brute.lines] == closed, (q, n)


def test_charsum_depends_only_on_rank_exhaustive():
    # all 512 labels at q = 2: exactly 4 values, constant per rank class,
    # class sizes matching the rank census
    from unitgraph.matrices import enumerate_matrices

    per_rank = {}
    sizes = [0] * 4
    for label in enumerate_matrices(F2, 3):
        lam = eigenvalue_charsum(label)
        r = label.rank()
        sizes[r] += 1
        per_rank.setdefault(r, set()).add(lam)
    assert all(len(v) == 1 for v in per_rank.values())
    assert len({v.pop() for v in per_rank.values()}) == 4
    assert sizes == [1, 49, 294, 168]


def test_charsum_nondiagonal_rank_one_label():
    off = Matrix.from_rows(F2, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert off.rank() == 1
    assert eigenvalue_charsum(off) == -24


def test_charsum_trivial_label_counts_group():
    assert eigenvalue_charsum(Matrix.zero(F2, 3)) == 168
    assert eigenvalue_charsum(Matrix.zero(F4, 3)) == gl_order(4, 3)


def test_charsum_cap():
    with pytest.raises(SizeTooLargeError):
        eigenvalue_charsum(Matrix.zero(F2, 3), cap=100)


# ---------------------------------------------------------------------------
# rank counts (Landsberg)


def test_rank_count_frozen_values():
    assert [rank_count(2, 3, r) for r in range(4)] == [1, 49, 294, 168]
    assert [rank_count(3, 3, r) for r in range(4)] == [1, 338, 8112, 11232]
    assert rank_count(5, 3, 0) == 1
    with pytest.raises(ValueError):
        rank_count(2, 3, 4)


def test_rank_count_vs_census():
    assert rank_census(F2, 2) == [rank_count(2, 2, r) for r in range(3)]
    assert rank_census(F3, 2) == [rank_count(3, 2, r) for r in range(3)]
    assert rank_census(F2, 3) == [rank_count(2, 3, r) for r in range(4)]
    assert rank_census(F3, 3) == [rank_count(3, 3, r) for r in range(4)]


def test_rank_count_expanded_polynomials():
    # expanded transcriptions of the n = 3 counts, swept against the product form
    for q in range(2, 98):
        assert rank_count(q, 3, 1) == q**5 + q**4 + q**3 - q**2 - q - 1
        assert rank_count(q, 3, 2) == q**8 + q**7 - 2 * q**5 - 2 * q**4 + q**2 + q
        assert rank_count(q, 3, 3) == gl_order(q, 3)


def test_rank_count_partitions_the_space():
    for n in (1, 2, 3):
        for q in (2, 3, 4, 5, 7, 9):
            assert sum(rank_count(q, n, r) for r in range(n + 1)) == q ** (n * n)


# ---------------------------------------------------------------------------
# assembled spectra


def test_spectrum_closed_form_frozen():
    s2 = spectrum_closed_form(2)
    assert [(l.eigenvalue, l.multiplicity) for l in s2.lines] == [
        (168, 1),
        (-24, 49),
        (8, 294),
        (-8, 168),
    ]
    s3 = spectrum_closed_form(3)
    assert [(l.eigenvalue, l.multiplicity) for l in s3.lines] == [
        (11232, 1),
        (-432, 338),
        (54, 8112),
        (-27, 11232),
    ]


def test_spectrum_identities_sweep():
    for q in filter(prime_power, range(2, 30)):
        for n in range(1, 7):
            s = spectrum_closed_form(q, n)  # validate() runs inside
            values = [l.eigenvalue for l in s.lines]
            assert s.lines[0].multiplicity == 1
            assert sum(l.multiplicity for l in s.lines) == q ** (n * n)
            assert sum(l.multiplicity * l.eigenvalue for l in s.lines) == 0
            assert sum(l.multiplicity * l.eigenvalue**2 for l in s.lines) == (
                q ** (n * n) * gl_order(q, n)
            )
            assert len(set(values)) == n + 1
            assert all(values[r] == -(q ** (n - r) - 1) * values[r + 1] for r in range(n))


def test_charsum_honours_the_callers_cap(monkeypatch):
    # the GL pass reads the rank blocks, which re-check no cap of their own
    import unitgraph.matrices as matrices

    monkeypatch.setattr(matrices, "DEFAULT_ENUM_CAP", 100)
    assert eigenvalue_charsum(rank_representative(F2, 3, 1), cap=1000) == -24


def test_spectrum_brute_force_n2():
    # q = 3, n = 2: lambda_1 = N(0) - N(1) = 12 - 18 = -6 by column counting;
    # the top line is |GL_2(F_3)| = 48 and the zero-trace identity then
    # forces lambda_2 = 3 since 48 - 6*32 + 48*lambda_2 = 0.
    s = spectrum_brute_force(F3, 2)
    assert [(l.eigenvalue, l.multiplicity) for l in s.lines] == [(48, 1), (-6, 32), (3, 48)]
    s2 = spectrum_brute_force(F2, 2)
    assert [(l.eigenvalue, l.multiplicity) for l in s2.lines] == [(6, 1), (-2, 9), (2, 6)]


def test_trace_identity_flags_tampering():
    s = spectrum_closed_form(2)
    assert trace_identity_holds(s)
    tampered = Spectrum(
        2, 3, s.lines[:3] + (SpectrumLine(3, s.lines[3].eigenvalue, s.lines[3].multiplicity - 1),)
    )
    assert not trace_identity_holds(tampered)


def test_spectrum_validate_errors():
    good = spectrum_closed_form(2)
    with pytest.raises(CheckFailedError):
        Spectrum(2, 3, good.lines[:3]).validate()  # missing a line
    bad_mult = (
        good.lines[:3] + (SpectrumLine(3, good.lines[3].eigenvalue, good.lines[3].multiplicity + 1),)
    )
    with pytest.raises(CheckFailedError):
        Spectrum(2, 3, bad_mult).validate()
    swapped = (good.lines[1], good.lines[0]) + good.lines[2:]
    with pytest.raises(CheckFailedError):
        Spectrum(2, 3, swapped).validate()
    # lambda_1 += m_2, lambda_2 -= m_1 keeps the trace at 0 but breaks the second moment
    m1, m2 = good.lines[1].multiplicity, good.lines[2].multiplicity
    moved = (
        good.lines[0],
        SpectrumLine(1, good.lines[1].eigenvalue + m2, m1),
        SpectrumLine(2, good.lines[2].eigenvalue - m1, m2),
        good.lines[3],
    )
    assert trace_identity_holds(Spectrum(2, 3, moved))
    with pytest.raises(CheckFailedError, match="squared eigenvalues"):
        Spectrum(2, 3, moved).validate()
    # a repeated eigenvalue that keeps the trace and the second moment
    repeated = tuple(SpectrumLine(r, lam, line.multiplicity)
                     for r, (lam, line) in enumerate(zip((-21, -21, 11, -13), good.lines)))
    with pytest.raises(CheckFailedError, match="not pairwise distinct"):
        Spectrum(2, 3, repeated).validate()


# ---------------------------------------------------------------------------
# pinned-entry counts inside the rank-1/rank-2 derivations


def corner(grid, a):
    """|{B in GL_3 : B[0,0] = a}|, the row sum of the pinned grid."""
    return sum(grid[a.index])


def test_corner_counts_q2_frozen():
    grid = count_invertible_pinned(F2)
    assert corner(grid, F2.zero()) == 72
    assert corner(grid, F2.one()) == 96
    assert corner_count_closed_form(2, True) == 72
    assert corner_count_closed_form(2, False) == 96


def test_corner_counts_vs_everything():
    for ctx in (F2, F3):
        q = ctx.q
        grid = count_invertible_pinned(ctx)
        total = 0
        for a in ctx.elements():
            counted = corner(grid, a)
            assert counted == corner_count_closed_form(q, a.is_zero())
            assert counted == brute_pinned_count_prime(q, {0: a.index})
            total += counted
        assert total == gl_order(q, 3)  # the counts partition the group
        n0 = corner(grid, ctx.zero())
        n1 = corner(grid, ctx.one())
        assert n0 - n1 == eigenvalue_closed_form(q, 1)


def test_diag_pair_counts():
    for ctx in (F2, F3):
        q = ctx.q
        grid = count_invertible_pinned(ctx)
        for a in ctx.elements():
            for b in ctx.elements():
                counted = grid[a.index][b.index]
                assert counted == diag_pair_count_closed_form(q, a.is_zero(), b.is_zero())
                assert counted == brute_pinned_count_prime(q, {0: a.index, 1: b.index})


@pytest.mark.parametrize("q", [4, 5])
def test_pinned_grid_matches_the_closed_forms(q):
    # at q = 4 the pinned B[1,1] is an element index of GF(4), not a residue
    ctx = field_of_order(q)
    grid = count_invertible_pinned(ctx)
    for a in ctx.elements():
        assert sum(grid[a.index]) == corner_count_closed_form(q, a.is_zero()), a
        for b in ctx.elements():
            expected = diag_pair_count_closed_form(q, a.is_zero(), b.is_zero())
            assert grid[a.index][b.index] == expected, (a, b)
    if q == 4:  # every cell against the primitive GF(4) determinant
        direct = [[0] * q for _ in range(q)]
        for flat in itertools.product(range(4), repeat=9):
            if _det_gf4(flat):
                direct[flat[0]][flat[4]] += 1
        assert grid == direct


def test_diag_pair_zero_sum_aggregate():
    # sum over alpha + beta = 0 of the pinned counts; 88 at q = 2 and 3780
    # at q = 3, matching q^8 - q^7 - q^6 + 2q^4 - q^3
    for ctx in (F2, F3):
        q = ctx.q
        grid = count_invertible_pinned(ctx)
        agg = 0
        for a in ctx.elements():
            agg += grid[a.index][(-a).index]
        assert agg == q**8 - q**7 - q**6 + 2 * q**4 - q**3
    grid = count_invertible_pinned(F2)
    assert sum(grid[a.index][(-a).index] for a in F2.elements()) == 88


def test_diag_pair_symmetries():
    for ctx in (F2, F3):
        zero, one = ctx.zero(), ctx.one()
        grid = count_invertible_pinned(ctx)
        assert grid[zero.index][one.index] == grid[one.index][zero.index]
    # N(alpha, -alpha) is constant over nonzero alpha
    grid = count_invertible_pinned(F3)
    vals = {grid[a.index][(-a).index] for a in F3.elements() if not a.is_zero()}
    assert len(vals) == 1


def test_rank2_eigenvalue_aggregate_identity():
    # lambda_2 = sum_{a+b=0} N(a,b) - 2 N(0,1) - sum_{a not in {0,1}} N(a, 1-a)
    for ctx in (F2, F3):
        q = ctx.q
        grid = count_invertible_pinned(ctx)
        zero_sum = sum(grid[a.index][(-a).index] for a in ctx.elements())
        n01 = grid[ctx.zero().index][ctx.one().index]
        tail = sum(
            grid[a.index][(ctx.one() - a).index]
            for a in ctx.elements()
            if not a.is_zero() and a != ctx.one()
        )
        assert zero_sum - 2 * n01 - tail == eigenvalue_closed_form(q, 2)


# ---------------------------------------------------------------------------
# serialization


def test_spectrum_serialization():
    s = spectrum_closed_form(2)
    d = s.to_json_dict()
    assert d["q"] == 2 and d["n"] == 3 and type(d["lines"]) is list and len(d["lines"]) == 4
    assert d["lines"][1] == {"rank": 1, "eigenvalue": -24, "multiplicity": 49}
    csv = s.to_csv().splitlines()
    assert csv[0] == "rank,eigenvalue,multiplicity"
    assert csv[2] == "1,-24,49"


def plain_charsum(label, gl_flats):
    """Histogram of the pointwise trace exponent over a list of GL flats."""
    ctx = label.ctx
    terms = _label_terms(ctx, label.n, label.flat)
    counts = [0] * ctx.p
    for flat in gl_flats:
        counts[_exponent_of(ctx, terms, flat)] += 1
    assert len(set(counts[1:])) == 1  # Galois-stable, so the sum is an integer
    return counts[0] - counts[1]


def assert_blocked_charsum_matches_plain_histogram(q, n, sample):
    ctx = field_of_order(q)
    gl = [m.flat for m in enumerate_invertible(ctx, n)]
    if sample is None:
        labels = list(enumerate_matrices(ctx, n))
    else:
        rng = random.Random(q * 10 + n)
        labels = [matrix_from_index(ctx, n, rng.randrange(q ** (n * n))) for _ in range(sample)]
    for label in labels:
        assert eigenvalue_charsum(label) == plain_charsum(label, gl), label.flat


@pytest.mark.parametrize(
    "q, n, sample",
    [
        (2, 2, None), (3, 2, None), (2, 3, None), (4, 2, None), (5, 2, None),
        (131, 1, None), (251, 1, 40), (251, 1, None), (257, 1, None), (3, 3, 40), (4, 3, 40),
        (9, 2, 60), (2, 4, 20),
    ],
)
def test_blocked_charsum_matches_plain_histogram(q, n, sample):
    # 131 and 251: exponents of 128 and more still fit a byte; 257: list
    # exponents; 9: odd p with k = 2; n = 4: three rows past row 0 per block
    assert_blocked_charsum_matches_plain_histogram(q, n, sample)


def test_charsum_transient_memory_stays_below_half_the_table():
    # only the distinct (block, exponent) pairs and one histogram per block are held
    ctx = field_of_order(5)
    label = rank_representative(ctx, 3, 2)
    eigenvalue_charsum(label)  # warm the shift tables too
    tracemalloc.start()
    try:
        eigenvalue_charsum(label)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < matrix_count(ctx, 3) // 2


@pytest.mark.parametrize("q, n", [(5, 3), (64, 2)])
def test_charsum_transient_memory_is_a_few_blocks(q, n):
    # each distinct rank block is read once, so no transient scales with
    # the q^(n^2) matrices: 128 KiB is under 7% of the table at (5, 3)
    ctx = field_of_order(q)
    for label in (rank_representative(ctx, n, 1), matrix_from_index(ctx, n, q ** (n * n) - 2)):
        eigenvalue_charsum(label)  # warm the field tables and rank blocks
        tracemalloc.start()
        try:
            eigenvalue_charsum(label)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024, (q, n, label.flat, peak)


# every (p, k, n) with q <= 16, q^(n^2 - n) <= 2^12 and q^(n^2) <= 2^18: 24 sizes from
# (2, 1, 1) to (13, 1, 2), among them q = 16 at n = 2 and q = 4 at n = 3
DRAWN_SIZES = sorted(
    (*prime_power(q), n)
    for q in range(2, 17)
    for n in range(1, 5)
    if prime_power(q) and q ** (n * n - n) <= 2**12 and q ** (n * n) <= 2**18
)


@st.composite
def drawn_labels(draw):
    """(field, n, t) for a drawn size and a drawn matrix index t."""
    p, k, n = draw(st.sampled_from(DRAWN_SIZES))
    ctx = field(p, k)
    return ctx, n, draw(st.integers(0, matrix_count(ctx, n) - 1))


@settings(max_examples=60, deadline=None)
@given(drawn_labels())
def test_drawn_label_charsum_and_rank_byte_match_its_eliminated_rank(drawn):
    ctx, n, t = drawn
    label = matrix_from_index(ctx, n, t)
    rank = label.rank()  # by elimination: reads no rank block
    assert _rank_bytes(ctx, n)[t] == rank
    assert eigenvalue_charsum(label) == eigenvalue_closed_form(ctx.q, rank, n)
