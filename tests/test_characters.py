"""Character family properties: homomorphism, sums, injectivity, orthogonality."""

import itertools

import pytest

from unitgraph import (
    ContextMismatchError,
    Cyclotomic,
    Matrix,
    char_exponents,
    char_vector,
    field,
    field_char,
    field_of_order,
    matrix_char,
    rank_representative,
)
from unitgraph.characters import _exponents, _exponent_of, _label_terms
from unitgraph.matrices import enumerate_matrices, matrix_count

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)

SCALAR_ORDERS = [2, 3, 4, 5]


def inner_product(ctx, exps_a, exps_b):
    """<v_a, v_b> with conjugation, via an exponent-difference histogram."""
    p = ctx.p
    counts = [0] * p
    for ea, eb in zip(exps_a, exps_b):
        counts[(ea - eb) % p] += 1
    return Cyclotomic.from_exponent_counts(p, counts)


def test_field_char_examples():
    for q in SCALAR_ORDERS:
        ctx = field_of_order(q)
        zero = ctx.zero()
        for c in ctx.elements():
            assert field_char(zero, c) == Cyclotomic.integer(ctx.p, 1)
    assert field_char(F3.one(), F3.one()) == Cyclotomic.root(3, 1)
    # Tr(x) = 1 in GF(4), so the canonical character sends x to -1
    assert field_char(F4.one(), F4.element([0, 1])).to_int() == -1


def test_field_char_full_sum_and_units_sum():
    for q in SCALAR_ORDERS:
        ctx = field_of_order(q)
        p = ctx.p
        for label in ctx.elements():
            full = Cyclotomic.zero(p)
            units = Cyclotomic.zero(p)
            for c in ctx.elements():
                v = field_char(label, c)
                full = full + v
                if not c.is_zero():
                    units = units + v
            if label.is_zero():
                assert full.to_int() == q
                assert units.to_int() == q - 1
            else:
                assert full.is_zero()
                assert units.to_int() == -1


def test_scalar_label_injectivity_on_extension_fields():
    # distinct labels give distinct value vectors even when q is not prime
    for q in (4, 8, 9):
        ctx = field_of_order(q)
        vectors = set()
        for label in ctx.elements():
            vec = tuple(field_char(label, c) for c in ctx.elements())
            vectors.add(vec)
        assert len(vectors) == q


def test_matrix_char_examples():
    zero_label = Matrix.zero(F2, 3)
    for b in itertools.islice(enumerate_matrices(F2, 3), 50):
        assert matrix_char(zero_label, b).to_int() == 1
    # rank-1 diagonal label reads off the (0,0) entry
    a1 = rank_representative(F2, 3, 1)
    for b in itertools.islice(enumerate_matrices(F2, 3), 100):
        expected = 1 if b.entry(0, 0).is_zero() else -1
        assert matrix_char(a1, b).to_int() == expected
    ident = Matrix.identity(F2, 3)
    assert matrix_char(ident, ident).to_int() == -1  # tr(I) = 3 = 1 mod 2


def test_matrix_char_homomorphism_exhaustive():
    mats = list(enumerate_matrices(F2, 2))
    for label in mats:
        vals = {m: matrix_char(label, m) for m in mats}
        for b1, b2 in itertools.product(mats, repeat=2):
            assert vals[b1 + b2] == vals[b1] * vals[b2]


def test_char_vector_trivial_and_balance():
    trivial = char_vector(Matrix.zero(F2, 2))
    assert len(trivial) == 16
    assert all(v.to_int() == 1 for v in trivial)
    # nontrivial labels: +-1 entries summing to zero
    for label in enumerate_matrices(F2, 2):
        if label == Matrix.zero(F2, 2):
            continue
        vec = char_vector(label)
        assert all(v.to_int() in (-1, 1) for v in vec)
        assert sum(v.to_int() for v in vec) == 0


def test_label_injectivity_and_orthogonality():
    for ctx in (F2, F3):
        n = 2
        total = matrix_count(ctx, n)
        exps = [char_exponents(label) for label in enumerate_matrices(ctx, n)]
        assert len({tuple(e) for e in exps}) == total  # pairwise distinct
        for i in range(total):
            for j in range(total):
                ip = inner_product(ctx, exps[i], exps[j])
                if i == j:
                    assert ip.to_int() == total
                else:
                    assert ip.is_zero()


def test_rank_class_sums_are_integers():
    # character sums over any union of full rank classes collapse to ints
    for ctx in (F2, F3):
        labels = [rank_representative(ctx, 3, r) for r in range(4)]
        labels.append(Matrix.from_rows(ctx, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
        mats = list(enumerate_matrices(ctx, 3))
        ranks = [m.rank() for m in mats]
        for label in labels:
            exps = char_exponents(label)
            hists = [[0] * ctx.p for _ in range(4)]
            for e, r in zip(exps, ranks):
                hists[r][e] += 1
            for r in range(4):
                Cyclotomic.from_exponent_counts(ctx.p, hists[r]).to_int()  # must not raise


def test_extension_field_class_sums_are_integers():
    # q = 4: the full space and the invertible/singular split
    from unitgraph import eigenvalue_charsum

    labels = [rank_representative(F4, 3, r) for r in range(4)]
    for label in labels:
        exps = char_exponents(label)
        full = [0] * F4.p
        for e in exps:
            full[e] += 1
        total = Cyclotomic.from_exponent_counts(F4.p, full).to_int()
        assert total == (matrix_count(F4, 3) if label.rank() == 0 else 0)
        eigenvalue_charsum(label)  # invertible class; must not raise


def test_mismatch_errors():
    with pytest.raises(ContextMismatchError):
        field_char(F2.one(), F3.one())
    with pytest.raises(ContextMismatchError):
        matrix_char(Matrix.identity(F2, 2), Matrix.identity(F3, 2))
    with pytest.raises(ContextMismatchError):
        matrix_char(Matrix.identity(F2, 2), Matrix.identity(F2, 3))


@pytest.mark.parametrize("q, n", [(2, 2), (3, 2), (2, 3), (4, 2), (257, 1)])
def test_exponents_match_pointwise_exponents(q, n):
    # p = 257 does not fit a byte and takes the per-matrix list route
    ctx = field_of_order(q)
    flats = [m.flat for m in enumerate_matrices(ctx, n)]
    for label in flats:
        terms = _label_terms(ctx, n, label)
        expected = [_exponent_of(ctx, terms, flat) for flat in flats]
        exps = _exponents(ctx, n, label, n * n)
        assert type(exps) is (bytes if q <= 256 else list)
        assert list(exps) == expected, label
