"""Acceptance suite: the end-to-end guarantees, one test per criterion.

Every check is exact (zero tolerance) -- the library works in integer and
cyclotomic arithmetic, so equality is equality.  Each test prints a
one-line verdict (visible with ``pytest -s`` or in the captured output).

Run with:  pytest tests/test_acceptance.py -v -s
"""

import itertools
import random
import time
from fractions import Fraction

from unitgraph import (
    Cyclotomic,
    Matrix,
    build_graph,
    char_exponents,
    check_spectral_gap,
    count_invertible_pinned,
    eigenvalue_charsum_rank,
    eigenvalue_closed_form,
    enumerate_matrices,
    field,
    field_char,
    field_of_order,
    gl_order,
    is_simple,
    matrix_char,
    matrix_count,
    matrix_to_index,
    prime_power,
    random_subset,
    rank_census,
    rank_count,
    spectral_threshold,
    spectrum_brute_force,
    spectrum_closed_form,
    spectrum_from_graph,
)
from unitgraph import gap as gap_mod
from unitgraph.gap import IndexSubset

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)


def report(number: int, description: str, started: float) -> None:
    print(f"ACCEPTANCE {number} ({description}): PASS [{time.time() - started:.2f}s]")


def test_criterion_1_closed_forms_equal_character_sums():
    started = time.time()
    for ctx in (F2, F3, F4):
        for r in range(4):
            brute = eigenvalue_charsum_rank(ctx, 3, r)
            closed = eigenvalue_closed_form(ctx.q, r)
            assert brute == closed, (ctx.q, r, brute, closed)
    report(1, "closed-form eigenvalues equal exhaustive character sums, q in {2,3,4}", started)


def test_criterion_2_spectrum_identities_sweep():
    started = time.time()
    for q in range(2, 28):
        s = spectrum_closed_form(q)
        assert sum(l.multiplicity for l in s.lines) == q**9
        assert sum(l.multiplicity * l.eigenvalue for l in s.lines) == 0
    report(2, "multiplicity-sum and zero-trace identities, q in 2..27", started)


def test_criterion_3_multiplicities_match_census():
    started = time.time()
    assert rank_census(F2, 3) == [1, 49, 294, 168]
    assert rank_census(F3, 3) == [1, 338, 8112, 11232]
    for ctx, n in [(F2, 3), (F3, 3), (F2, 2), (F3, 2)]:
        census = rank_census(ctx, n)
        assert census == [rank_count(ctx.q, n, r) for r in range(n + 1)]
    report(3, "rank-count formula equals exhaustive censuses, n in {2,3}", started)


def test_criterion_4_ground_truth_graph():
    started = time.time()
    g = build_graph(F2, 3)
    assert g.order == 512
    assert is_simple(g)  # zero diagonal and symmetric, bit-exact
    assert all(row.bit_count() == 168 for row in g.rows)
    # spectrum_from_graph checks A v = lambda v exactly for all 512 labels
    # and buckets by rank
    graph_spectrum = spectrum_from_graph(g)
    assert graph_spectrum.lines == spectrum_closed_form(2).lines
    report(4, "512-vertex graph: structure, all eigenvectors, spectrum line-for-line", started)


def test_criterion_5_pinned_entry_counts():
    started = time.time()
    for ctx in (F2, F3):
        q = ctx.q
        tail = (q**3 - q) * (q**3 - q**2)
        grid = count_invertible_pinned(ctx)
        zero, one = ctx.zero().index, ctx.one().index
        n0 = sum(grid[zero])
        n1 = sum(grid[one])
        assert n0 == (q**2 - 1) * tail
        assert n1 == q**2 * tail
        assert n0 - n1 == eigenvalue_closed_form(q, 1)
        assert grid[zero][one] == grid[one][zero]
        opposite = {grid[a.index][(-a).index] for a in ctx.elements() if not a.is_zero()}
        assert len(opposite) == 1
    report(5, "pinned-entry counts and their symmetries, q in {2,3}", started)


def test_criterion_6_spectral_gap_soundness():
    started = time.time()
    for q in range(2, 98):
        # n_* < q^6 + q^3 + 2 by integer cross-multiplication
        assert q**9 < (q**3 - 1) * (q**6 + q**3 + 2)
    for trial in range(1000):
        rng = random.Random(trial)
        xs = random_subset(F2, 3, 75, rng)
        ys = random_subset(F2, 3, 75, rng)
        rep = check_spectral_gap(xs, ys, seed=trial)  # raises on violation
        assert rep.guaranteed and rep.witness is not None
    for trial in range(10):
        rng = random.Random(10_000 + trial)
        xs = random_subset(F3, 3, 800, rng)
        ys = random_subset(F3, 3, 800, rng)
        rep = check_spectral_gap(xs, ys, seed=10_000 + trial)
        assert rep.guaranteed and rep.witness is not None
    report(6, "threshold inequality q in 2..97; 1000+10 seeded soundness trials", started)


def test_criterion_7_character_theory_suite():
    started = time.time()
    # homomorphism, exhaustive over Mat_2(F_2) and all 16 labels
    mats = list(enumerate_matrices(F2, 2))
    for label in mats:
        vals = {m: matrix_char(label, m) for m in mats}
        for b1, b2 in itertools.product(mats, repeat=2):
            assert vals[b1 + b2] == vals[b1] * vals[b2]
    # full sums and unit sums over the scalar characters
    for q in (2, 3, 4, 5):
        ctx = field_of_order(q)
        for label in ctx.elements():
            full = Cyclotomic.zero(ctx.p)
            units = Cyclotomic.zero(ctx.p)
            for c in ctx.elements():
                v = field_char(label, c)
                full = full + v
                if not c.is_zero():
                    units = units + v
            if label.is_zero():
                assert full.to_int() == q
            else:
                assert full.is_zero()
                assert units.to_int() == -1
    # label injectivity and orthogonality over Mat_2(F_2) and Mat_2(F_3)
    for ctx in (F2, F3):
        total = matrix_count(ctx, 2)
        exps = [char_exponents(label) for label in enumerate_matrices(ctx, 2)]
        assert len({tuple(e) for e in exps}) == total
        for i in range(total):
            for j in range(total):
                counts = [0] * ctx.p
                for ea, eb in zip(exps[i], exps[j]):
                    counts[(ea - eb) % ctx.p] += 1
                ip = Cyclotomic.from_exponent_counts(ctx.p, counts)
                assert ip.to_int() == (total if i == j else 0)
    report(7, "homomorphism, char sums, injectivity, orthogonality", started)


def test_criterion_8_negative_control():
    started = time.time()
    subspace = [m for m in enumerate_matrices(F2, 3) if all(d == 0 for d in m.flat[6:])]
    assert len(subspace) == 64
    rep = check_spectral_gap(subspace, subspace)
    assert rep.guaranteed is False  # 64 <= 74: the bound makes no claim here
    assert rep.witness is None  # and this set really has no witness pair
    report(8, "size-64 zero-row subspace yields no witness", started)


def hoffman_bound(spectrum) -> Fraction:
    """N (-lambda_min) / (k - lambda_min): no independent set is larger."""
    k = next(line.eigenvalue for line in spectrum.lines if line.rank == 0)
    least = min(line.eigenvalue for line in spectrum.lines)
    return Fraction(spectrum.q ** (spectrum.n**2) * -least, k - least)


def kernel_subspace(ctx, v):
    """Every B in Mat_3(F_q) with B v = 0, as enumeration indices."""
    add, mul = ctx._add, ctx._mul
    rows = [
        r for r in itertools.product(range(ctx.q), repeat=3)
        if add[add[mul[r[0]][v[0]]][mul[r[1]][v[1]]]][mul[r[2]][v[2]]] == 0
    ]
    return [
        matrix_to_index(Matrix(ctx, 3, r0 + r1 + r2))
        for r0, r1, r2 in itertools.product(rows, repeat=3)
    ]


def test_criterion_10_independence_number():
    started = time.time()
    prime_powers = [q for q in range(2, 28) if prime_power(q)]
    for q in prime_powers:  # closed forms at n = 3
        assert hoffman_bound(spectrum_closed_form(q)) == q**6
        # the subset bound clears the largest independent set by q^3 + 2
        assert spectral_threshold(q).integer_bound - q**6 == q**3 + 2
    for q in (q for q in prime_powers if q <= 9):  # character sums at n = 2
        assert hoffman_bound(spectrum_brute_force(field_of_order(q), 2)) == q**2
    # the kernel subspaces {B : B v = 0} attain q^6: no difference is invertible
    for ctx, v in ((F2, (1, 0, 1)), (F3, (1, 2, 0))):
        kernel = kernel_subspace(ctx, v)
        assert len(kernel) == len(set(kernel)) == ctx.q**6
        assert gap_mod._table_scan(ctx, 3, kernel, kernel) is None
        assert gap_mod._pairwise_scan(ctx, 3, kernel, kernel) is None
    # at q = 4 the public check scans all 4096^2 pairs and finds no witness
    kernel = IndexSubset(F4, 3, kernel_subspace(F4, (1, 2, 3)))
    assert len(kernel) == len(set(kernel.indices)) == 4**6
    gap = check_spectral_gap(kernel, kernel)
    assert not gap.guaranteed and gap.witness is None
    report(10, "Hoffman bound q^(n(n-1)) at n = 3 (q <= 27) and n = 2 (q <= 9), attained", started)


def test_criterion_9_all_ones_eigenvector_sanity():
    # not a numbered criterion: a cheap standing tripwire that the trivial
    # character is the all-ones eigenvector with eigenvalue |GL|
    g = build_graph(F2, 2)
    from unitgraph import verify_eigenvector

    assert verify_eigenvector(g, Matrix.zero(F2, 2)) == gl_order(2, 2)
