"""Character family properties: homomorphism, sums, injectivity, orthogonality."""

import itertools
import random

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
from unitgraph import eigenvalue_charsum, eigenvalue_closed_form, rank_count
from unitgraph.characters import (
    _character_sums, _dual_index, _exponents, _exponent_of, _index_character, _label_terms,
)
from unitgraph.errors import NotRationalError
from unitgraph.fields import _all_digits, _digits, _number
from unitgraph.matrices import _rank_bytes, enumerate_matrices, matrix_count
from unitgraph.spectra import _krawtchouk

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


# ---------------------------------------------------------------------------
# every label's character sum over a set by one transform of its indicator


def rank_indicator(ctx, n, k):
    """Byte t is 1 iff matrix t has rank k, read off the rank bytes."""
    return _rank_bytes(ctx, n).translate(bytes(r == k for r in range(256)))


def transposed_index(ctx, n, flat):
    """The label transposed, its entries read as they are: the dual index
    without the per-entry trace dual."""
    return _number([flat[j * n + i] for i in range(n) for j in range(n)], ctx.q)


@pytest.mark.parametrize("p, digits", [(2, 4), (3, 3), (5, 2)])
def test_index_character_is_the_digit_product(p, digits):
    for u in range(p**digits):
        ud = _digits(u, p, digits)
        expected = bytes(
            sum(x * y for x, y in zip(ud, _digits(t, p, digits))) % p for t in range(p**digits)
        )
        assert _index_character(u, p, digits) == expected


@pytest.mark.parametrize("q, n, sample", [
    (2, 3, None), (3, 2, None), (4, 2, None), (5, 2, None),
    (9, 1, None), (25, 1, None), (27, 1, None), (251, 1, None), (256, 1, None),
    (7, 2, 40), (8, 2, 40), (9, 2, 40),
])
def test_transform_equals_the_character_sum_of_every_label(q, n, sample):
    ctx = field_of_order(q)
    sums = _character_sums(rank_indicator(ctx, n, n), ctx.p)
    labels = list(enumerate_matrices(ctx, n))
    if sample:
        labels = random.Random(q).sample(labels, sample)
    assert all(sums[_dual_index(ctx, n, m.flat)] == eigenvalue_charsum(m) for m in labels)


@pytest.mark.parametrize("q, n", [
    (2, 3), (3, 3), (2, 2), (3, 2), (4, 2), (5, 2), (7, 2), (8, 2), (9, 2), (2, 4),
])
def test_transform_is_constant_on_rank_classes_and_equals_the_product_form(q, n):
    ctx = field_of_order(q)
    sums = _character_sums(rank_indicator(ctx, n, n), ctx.p)  # raises unless all rational
    values = [set() for _ in range(n + 1)]
    sizes = [0] * (n + 1)
    for flat, r in zip(_all_digits(q, n * n), _rank_bytes(ctx, n)):
        values[r].add(sums[_dual_index(ctx, n, flat)])
        sizes[r] += 1
    assert values == [{eigenvalue_closed_form(q, r, n)} for r in range(n + 1)]
    assert sizes == [rank_count(q, n, r) for r in range(n + 1)]


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (4, 2), (5, 2), (8, 2)])
def test_rank_k_transforms_are_delsartes_eigenmatrix(q, n):
    # the transform of the rank-k indicator is the eigenvalue of every label
    # in the graph joining matrices whose difference has rank k
    ctx = field_of_order(q)
    table = _rank_bytes(ctx, n)
    duals = [_dual_index(ctx, n, flat) for flat in _all_digits(q, n * n)]
    for k in range(n + 1):
        sums = _character_sums(rank_indicator(ctx, n, k), ctx.p)
        column = [_krawtchouk(q, n, k, x) for x in range(n + 1)]
        assert [sums[u] for u in duals] == [column[r] for r in table], k


def test_transform_refuses_unequal_counts(monkeypatch):
    from unitgraph import characters

    transform = characters._transform

    def tampered(indicator, p, width):
        records = bytearray(transform(indicator, p, width))
        records[7 * p * width + width] += 1  # exponent 1 of entry 7
        return bytes(records)

    gl = rank_indicator(F3, 2, 2)
    assert _character_sums(gl, 3)[7] == -6  # exponent counts 12, 18 and 18
    monkeypatch.setattr(characters, "_transform", tampered)
    with pytest.raises(NotRationalError) as err:
        _character_sums(gl, 3)
    assert str(err.value) == (
        "character sum 7 did not collapse to an integer: exponent counts [12, 19, 18]"
    )


@pytest.mark.parametrize("q, sample", [(8, None), (16, 40)])
def test_dual_index_reproduces_the_exponents(q, sample):
    # every label at q = 8 and the k n^2 basis labels with seeded ones at
    # q = 16: the character of the dual index is the label's, byte for byte
    ctx = field_of_order(q)
    labels = [m.flat for m in enumerate_matrices(ctx, 2)]
    if sample:
        basis = [
            tuple(ctx.p**t * (i == pos) for i in range(4)) for pos in range(4) for t in range(ctx.k)
        ]
        labels = basis + random.Random(q).sample(labels, sample)
    for flat in labels:
        u = _dual_index(ctx, 2, flat)
        assert _index_character(u, ctx.p, 4 * ctx.k) == _exponents(ctx, 2, flat, 4), flat


def test_transpose_alone_misreads_labels_at_q8_but_not_at_q4():
    # the trace dual is needed at k > 1: at q = 4 it is multiplication by
    # one element, which keeps every rank, so only q = 8 or 16 can catch it
    misread = {}
    for q in (4, 8):
        ctx = field_of_order(q)
        sums = _character_sums(rank_indicator(ctx, 2, 2), ctx.p)
        closed = [eigenvalue_closed_form(q, r, 2) for r in range(3)]
        misread[q] = sum(
            sums[transposed_index(ctx, 2, flat)] != closed[r]
            for flat, r in zip(_all_digits(q, 4), _rank_bytes(ctx, 2))
        )
    assert misread == {4: 0, 8: 432}
