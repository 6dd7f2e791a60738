import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from axialcheck import algebra, algfile, derive
from axialcheck.algebra import AlgebraMap, adjoint_matrix, generated_subalgebra, multiply, sparse_product
from axialcheck.catalog import instantiate
from axialcheck.derive import is_homomorphism, is_ideal, quotient
from axialcheck.dihedral import axis_orbit, extend_from_generators
from axialcheck.errors import (
    AxialError,
    DataInconsistency,
    DescriptorMismatch,
    DimensionMismatch,
    NotAnIdeal,
)
from axialcheck.fields import FieldDescriptor, parse_scalar
from axialcheck.linalg import EchelonBasis, Matrix, Subspace, Vector
from values import identity_map, identity_matrix, matrix, table_algebra, vector, zero_matrix


def _span_of(alg, label):
    return Subspace.from_vectors(
        alg.field, alg.dim, [alg.basis_vector(alg.label_index(label))]
    )


def _rand_vec(alg, rng):
    return vector(
        alg.field, [alg.field.from_int(rng.randint(-4, 4)) for _ in range(alg.dim)]
    )


def test_idempotent_axes_everywhere():
    for name in ("ThreeEv", "FourEv", "BarFourTwo", "FiveThree", "SixThree", "Seven", "SevenX"):
        alg, dd = instantiate(name)
        a0 = dd.axis(0)
        assert multiply(alg, a0, a0) == a0


def test_opposite_axes_multiply_to_zero_in_six_three():
    alg, dd = instantiate("SixThree")
    assert multiply(alg, dd.axis(0), dd.axis(3)).is_zero()


def test_multiply_bilinear_symmetric(QETA):
    alg, _ = instantiate("FiveThree")
    rng = random.Random(3)
    for _ in range(25):
        x, y, z = (_rand_vec(alg, rng) for _ in range(3))
        assert multiply(alg, x, y) == multiply(alg, y, x)
        assert multiply(alg, x + y, z) == multiply(alg, x, z) + multiply(alg, y, z)
        assert multiply(alg, x, Vector.zero(alg.field, alg.dim)).is_zero()


def test_adjoint_of_central_element_is_scalar():
    alg, _ = instantiate("ThreeEv")
    p1 = alg.basis_vector(alg.label_index("p1"))
    ad = adjoint_matrix(alg, p1)
    scalar = parse_scalar("-eta*(3*eta+1)/4", alg.field)
    expected = identity_matrix(alg.field, alg.dim)
    scaled = matrix(
        alg.field,
        [[scalar * e for e in row] for row in expected.rows],
    )
    assert ad == scaled
    zero_ad = adjoint_matrix(alg, Vector.zero(alg.field, alg.dim))
    assert zero_ad == zero_matrix(alg.field, alg.dim, alg.dim)


def test_generated_subalgebra():
    alg, dd = instantiate("FourEv")
    span = generated_subalgebra(alg, [dd.axis(0), dd.axis(1)])
    assert span.dim == 3
    expected = Subspace.from_vectors(
        alg.field,
        alg.dim,
        [dd.axis(0), dd.axis(1), alg.basis_vector(alg.label_index("p1"))],
    )
    assert span.rows == expected.rows
    alg5, dd5 = instantiate("FiveThree")
    assert generated_subalgebra(alg5, [dd5.axis(0), dd5.axis(1)]).dim == 3
    full = generated_subalgebra(alg5, [alg5.basis_vector(i) for i in range(alg5.dim)])
    assert full.dim == alg5.dim


def test_closure_property_of_generated_subalgebra():
    alg, dd = instantiate("FiveThree")
    span = generated_subalgebra(alg, [dd.axis(0), dd.axis(1)])
    for u in span.basis:
        for v in span.basis:
            assert span.contains(multiply(alg, u, v))
    assert span.contains(dd.axis(0)) and span.contains(dd.axis(1))


def test_is_ideal_exactness():
    alg_sym, _ = instantiate("ThreeEv")
    assert not is_ideal(alg_sym, _span_of(alg_sym, "p1"))
    alg_q, _ = instantiate("ThreeEv", "q", "-1/3")
    assert is_ideal(alg_q, _span_of(alg_q, "p1"))
    seven_q, _ = instantiate("Seven")
    assert not is_ideal(seven_q, _span_of(seven_q, "p1"))
    seven5, _ = instantiate("Seven", "gf:5")
    assert is_ideal(seven5, _span_of(seven5, "p1"))
    assert is_ideal(alg_sym, Subspace.from_vectors(alg_sym.field, alg_sym.dim, []))


def test_quotient():
    alg, _ = instantiate("ThreeEv", "q", "-1/3")
    qalg, proj = quotient(alg, _span_of(alg, "p1"))
    assert qalg.dim == 3 and qalg.labels == ("am1", "a0", "a1")
    rng = random.Random(9)
    for _ in range(20):
        x, y = _rand_vec(alg, rng), _rand_vec(alg, rng)
        assert proj.apply(multiply(alg, x, y)) == multiply(
            qalg, proj.apply(x), proj.apply(y)
        )
    zero_q, zero_proj = quotient(alg, Subspace.from_vectors(alg.field, alg.dim, []))
    assert zero_q.dim == alg.dim and zero_proj == identity_map(alg)
    sym, _ = instantiate("ThreeEv")
    with pytest.raises(NotAnIdeal):
        quotient(sym, _span_of(sym, "p1"))


def test_quotient_refuses_the_whole_algebra():
    alg, dd = instantiate("ThreeEvX")
    whole = Subspace.from_vectors(alg.field, alg.dim, [dd.axis(i) for i in (-1, 0, 1)])
    assert whole.dim == alg.dim and is_ideal(alg, whole)
    with pytest.raises(AxialError, match="the ideal is the whole algebra"):
        quotient(alg, whole)


def test_quotient_of_five_three():
    alg, dd = instantiate("FiveThree", "q", "-1/3")
    sigma = Vector.zero(alg.field, alg.dim)
    for i in range(-2, 3):
        sigma = sigma + dd.axis(i)
    span = Subspace.from_vectors(alg.field, alg.dim, [sigma])
    assert is_ideal(alg, span)
    qalg, _ = quotient(alg, span)
    assert qalg.dim == 4


_BAR_FOUR_TWO_IDEAL = ("p20 + p1 + 2*(a2+a0) + a1 + am1", "p21 + p1 + a2 + a0 + 2*(a1+am1)")


@pytest.mark.parametrize("parent, field, eta, ideal", [
    *((parent, field, eta, (ideal,)) for parent, field, eta, ideal, *_ in derive._QUOTIENT_ROWS),
    ("BarFourTwo", None, None, _BAR_FOUR_TWO_IDEAL),
], ids=[*(row[0] for row in derive._QUOTIENT_ROWS), "BarFourTwo_two_dim"])
def test_quotient_rows_are_built_as_the_loader_builds_them(parent, field, eta, ideal):
    # the quotient's rows read back from its document unchanged, share one
    # map per pair and hold no zero product
    alg, dd = instantiate(parent, field, eta)
    qalg, _ = quotient(alg, derive._span(alg, dd.eta, ideal))
    assert qalg.rows == algfile.loads(derive.dumps(qalg))[0].rows
    for i, row in enumerate(qalg.rows):
        for j, terms in row.items():
            assert terms and qalg.rows[j][i] is terms


def test_is_homomorphism():
    alg, dd = instantiate("FiveThree")
    assert is_homomorphism(identity_map(alg))
    assert is_homomorphism(dd.flip)
    # swapping the central element with an axis is not multiplicative
    alg3, _ = instantiate("ThreeEv")
    n = alg3.dim
    idx = {l: i for i, l in enumerate(alg3.labels)}
    cols = [alg3.basis_vector(i) for i in range(n)]
    cols[idx["p1"]], cols[idx["a0"]] = cols[idx["a0"]], cols[idx["p1"]]
    swap = AlgebraMap(alg3, alg3, Matrix.from_columns(alg3.field, cols, nrows=n))
    assert not is_homomorphism(swap)


def test_extend_from_generators():
    alg, dd = instantiate("FiveThree")
    pairs = [(alg.basis_vector(i), alg.basis_vector(i)) for i in range(alg.dim)]
    ident = extend_from_generators(alg, pairs, alg)
    assert isinstance(ident, AlgebraMap) and ident == identity_map(alg)
    # the cyclic shift extends to an automorphism
    shift_pairs = [(dd.axis(i), dd.axis(i + 1)) for i in range(-2, 3)]
    shift = extend_from_generators(alg, shift_pairs, alg)
    assert isinstance(shift, AlgebraMap)
    assert shift == dd.shift
    # automorphisms carry idempotents to idempotents
    for i in range(-2, 3):
        img = shift.apply(dd.axis(i))
        assert multiply(alg, img, img) == img


def test_extend_flip_fixes_central_element():
    alg, dd = instantiate("ThreeEv")
    pairs = [(dd.axis(i), dd.axis(-i)) for i in (-1, 0, 1)]
    flip = extend_from_generators(alg, pairs, alg)
    assert isinstance(flip, AlgebraMap)
    p1 = alg.basis_vector(alg.label_index("p1"))
    assert flip.apply(p1) == p1


def test_maps_with_the_same_generators_extend_together():
    # FiveThree's shift and flip from the axes a_-2 .. a_2, alone and in one
    # closure; a third map, the identity but for a_-2 -> a_1, does not extend
    alg, dd = instantiate("FiveThree")
    gens = [dd.axis(i) for i in range(-2, 3)]
    shift, flip = (extend_from_generators(alg, [(g, m.apply(g)) for g in gens], alg) for m in (dd.shift, dd.flip))
    assert extend_from_generators(alg, [(g, shift.apply(g), flip.apply(g)) for g in gens], alg) == (shift, flip)
    pairs = [(g, shift.apply(g), flip.apply(g), g if i else dd.axis(1)) for i, g in enumerate(gens)]
    with pytest.raises(DataInconsistency, match=r"^images disagree on dependent word") as failed:
        extend_from_generators(alg, pairs, alg)
    assert failed.value.image == 2


def test_extend_failures():
    alg, dd = instantiate("ThreeEvX")
    # two axes only generate a proper subalgebra here
    with pytest.raises(DataInconsistency, match=r"^the generators span only dimension 2 of 3$"):
        extend_from_generators(alg, [(dd.axis(0), dd.axis(0)), (dd.axis(1), dd.axis(-1))], alg)
    # full basis with a non-multiplicative assignment is inconsistent
    pairs = [(dd.axis(-1), dd.axis(-1)), (dd.axis(0), dd.axis(0)), (dd.axis(1), dd.axis(0))]
    with pytest.raises(
        DataInconsistency, match=r"^images disagree on dependent word \(word 2\*1\)$"
    ):
        extend_from_generators(alg, pairs, alg)
    # a generator dependent on earlier ones must keep their images' relation
    pairs = [(dd.axis(0), dd.axis(0)), (dd.axis(0), dd.axis(1))]
    with pytest.raises(
        DataInconsistency, match=r"^images disagree on dependent word \(generator\)$"
    ):
        extend_from_generators(alg, pairs, alg)
    # the two algebras must share the field, whichever field the pairs are over
    other, other_dd = instantiate("ThreeEvX", "gf:7")
    for source, target, axes in ((alg, other, other_dd), (other, alg, dd)):
        with pytest.raises(DescriptorMismatch):
            extend_from_generators(source, [(axes.axis(i), axes.axis(i)) for i in (-1, 0, 1)], target)


def _closure_by_rounds(alg, gens):
    # the closure generated_subalgebra replaced: multiply all pairs of the
    # current basis until a round adds nothing
    span = Subspace.from_vectors(alg.field, alg.dim, gens)
    while True:
        products = [multiply(alg, x, y) for i, x in enumerate(span.basis) for y in span.basis[: i + 1]]
        grown = Subspace.from_vectors(alg.field, alg.dim, list(span.basis) + products)
        if grown.dim == span.dim:
            return grown
        span = grown


def _orbit_window(alg, dd):
    lo, hi = axis_orbit(alg, dd)
    return [dd.axis(i) for i in range(lo, hi + 1)]


@pytest.mark.parametrize("name", [
    "ThreeEv", "ThreeEvX", "FourEv", "FourEvX", "BarFourTwo", "FiveThree", "SixThree", "Seven", "SevenX",
])
def test_generated_subalgebra_matches_closure_by_rounds(name):
    alg, dd = instantiate(name)
    rng = random.Random(name)
    for gens in (
        [dd.axis(0)],
        [dd.axis(0), dd.axis(1)],
        [dd.axis(-1), dd.axis(2)],
        _orbit_window(alg, dd),
        [Vector.zero(alg.field, alg.dim), dd.axis(0) + dd.axis(1)],
        [_rand_vec(alg, rng)],
    ):
        assert generated_subalgebra(alg, gens).rows == _closure_by_rounds(alg, gens).rows


ENTRIES = ("ThreeEv", "ThreeEvX", "FourEv", "FourEvX", "BarFourTwo", "FiveThree", "SixThree", "Seven", "SevenX")


def _dense_multiply(alg, x, y):
    # the dense loop the sparse rows replaced: every basis pair i <= j, and
    # every coefficient of each product vector
    out = [alg.field.zero()] * alg.dim
    for i, j in combinations_with_replacement(range(alg.dim), 2):
        c = alg.product_of_basis(i, j)
        if i == j:
            s = x[i] * y[i]
        else:
            s = x[i] * y[j] + x[j] * y[i]
        if s.is_zero():
            continue
        for k, ck in enumerate(c.entries):
            if not ck.is_zero():
                out[k] = out[k] + s * ck
    return vector(alg.field, out)


# every entry at its default field (ThreeEv's is Q(eta)), and two other fields
@pytest.mark.parametrize("name,field,eta", [
    *((name, None, None) for name in ENTRIES),
    ("SixThree", "q", "3"),
    ("Seven", "gf:7", None),
])
def test_multiply_matches_dense_loop(name, field, eta):
    alg, dd = instantiate(name, field, eta)
    rng = random.Random(name)
    vectors = [alg.basis_vector(i) for i in range(alg.dim)]
    vectors += [_rand_vec(alg, rng) for _ in range(4)]
    vectors += [v for _, v in dd.base_split.eigenbasis()]
    vectors.append(Vector.zero(alg.field, alg.dim))
    for x in vectors:
        for y in vectors:
            assert multiply(alg, x, y) == _dense_multiply(alg, x, y)


def test_sparse_rows_share_the_table():
    # each nonzero product is held once: the loader keeps one terms map for
    # rows[i][j] and rows[j][i], here with each pair given as (j, i), j >= i
    three, dd = instantiate("ThreeEv")
    doc = derive.document_for(three, dd)
    for item in doc["products"]:
        item["left"], item["right"] = item["right"], item["left"]
    alg, _, _ = algfile.load_document(doc)
    given = {(three.label_index(item["right"]), three.label_index(item["left"])) for item in doc["products"]}
    listed = {(i, j): terms for i, row in enumerate(alg.rows) for j, terms in row.items()}
    assert {key for key in listed if key[0] <= key[1]} == given
    for i, j in combinations_with_replacement(range(alg.dim), 2):
        assert listed.get((i, j)) is listed.get((j, i))
        assert alg.product_of_basis(j, i) == three.product_of_basis(i, j)


def test_zero_products_are_in_neither_table_nor_rows(Q):
    # a zero literal is a missing term, and a product whose literals are all
    # zero a missing pair
    doc = {"field": {"kind": "rationals"}, "basis": ["a", "b"], "products": [
        {"left": "a", "right": "a", "value": {"a": "1", "b": "0"}},
        {"left": "b", "right": "a", "value": {"a": "0", "b": "1 - 1"}},
        {"left": "b", "right": "b", "value": {"b": "0"}},
    ]}
    alg, _, _ = algfile.load_document(doc)
    a, b = alg.basis_vector(0), alg.basis_vector(1)
    assert alg.rows == ({0: {0: Q.ONE}}, {})
    assert alg.product_of_basis(0, 1).is_zero() and alg.product_of_basis(0, 0) == a
    assert multiply(alg, a, b).is_zero() and multiply(alg, b, b).is_zero()


def test_multiply_refuses_other_fields_and_lengths(GF7):
    for alg, other in ((instantiate("SevenX")[0], GF7),
                       (instantiate("ThreeEv")[0], FieldDescriptor.rational_functions("t"))):
        a = alg.basis_vector(0)
        foreign = Vector.unit(other, alg.dim, 0)
        for x, y in ((a, foreign), (foreign, a), (foreign, foreign)):
            with pytest.raises(DescriptorMismatch):
                multiply(alg, x, y)
        with pytest.raises(DimensionMismatch):
            multiply(alg, a, Vector.unit(alg.field, alg.dim + 1, 0))


def test_multiply_work_is_bounded_by_the_product_support(Q, monkeypatch, matsuo_s5):
    alg = matsuo_s5(Q, "1/4")
    assert alg.dim == 10 and sum(j >= i for i, row in enumerate(alg.rows) for j in row) == 40
    ad = adjoint_matrix(alg, _rand_vec(alg, random.Random(5)))
    calls = [0]
    mul, raw_mul, mac = type(Q).mul, type(Q).raw_mul, type(Q).mac

    def counted(a, b, mul=mul):
        calls[0] += 1
        return mul(a, b)

    def counted_mac(out, c, terms):  # one multiplication per term
        terms = tuple(terms)
        calls[0] += len(terms)
        return mac(out, c, terms)

    monkeypatch.setattr(type(Q), "mul", staticmethod(counted))
    monkeypatch.setattr(type(Q), "raw_mul", staticmethod(partial(counted, mul=raw_mul)))
    monkeypatch.setattr(type(Q), "mac", staticmethod(counted_mac))
    for i in range(alg.dim):
        for j in range(alg.dim):
            calls[0] = 0
            product = multiply(alg, alg.basis_vector(i), alg.basis_vector(j))
            nnz = sum(not e.is_zero() for e in product)
            assert calls[0] <= 1 + nnz, (i, j)
    for k in range(alg.dim):
        calls[0] = 0
        ad.apply(alg.basis_vector(k))
        assert calls[0] <= ad.nrows


def test_closure_stops_at_the_full_span(Q, monkeypatch, matsuo_s5):
    # M_eta(S_5) is generated by the four adjacent transpositions; once the
    # span is the whole algebra no product can add to it.  The closure works
    # on sparse words, so the hooks are the kernel and EchelonBasis._insert.
    alg = matsuo_s5(Q, "1/4")
    gens = [alg.basis_vector(alg.label_index(label)) for label in ("12", "23", "34", "45")]
    ranks, products = [], []

    class Recording(algebra.EchelonBasis):
        __slots__ = ()

        def _insert(self, entries):
            pivot = super()._insert(entries)
            ranks.append(len(self.rows))
            return pivot

    def counted(*args):
        products.append(ranks[-1])
        return sparse_product(*args)

    monkeypatch.setattr(algebra, "EchelonBasis", Recording)
    monkeypatch.setattr(algebra, "sparse_product", counted)
    span = algebra.generated_subalgebra(alg, gens)
    assert span.dim == alg.dim == 10
    assert max(products) < 10 and len(products) == 26


def _raw_closure(echelon, gens, product, n):
    # the closure before kept words became echelon remainders: it keeps each
    # generator and each product as it was formed
    words = []
    for g in gens:
        pivot = echelon._insert(g)
        yield pivot, None
        if pivot is not None and pivot < n:
            words.append(g)
    i = 0
    while i < len(words):
        for j in range(i + 1):
            word = product(words[i], words[j])
            pivot = echelon._insert(word)
            yield pivot, (i, j)
            if pivot is not None and pivot < n:
                words.append(word)
        i += 1


CLOSURE_FIELDS = (FieldDescriptor.prime(3), FieldDescriptor.prime(7), FieldDescriptor.rationals())


def _random_word(field, dim, rng):
    values = [field.from_fraction(c) for c in (1, -1, 2, Fraction(1, 2))]
    if field.variable:
        values.append(field.generator())
    return vector(field, [rng.choice(values) if rng.random() < 0.5 else field.zero() for _ in range(dim)])


def _random_algebra(field, rng):
    """Dimension 1 to 6, each product zero or a random word."""
    dim = rng.randint(1, 6)
    table = {(i, j): _random_word(field, dim, rng) for i in range(dim) for j in range(i, dim) if rng.random() < 0.7}
    return table_algebra(field, [f"e{i}" for i in range(dim)], table)


def _random_field(trial, rng):
    return KERNEL_FIELDS["QETA"] if trial % 10 == 0 else rng.choice(CLOSURE_FIELDS)


def test_the_closure_over_remainders_matches_the_closure_over_words():
    rng = random.Random(2106)
    for trial in range(300):
        alg = _random_algebra(_random_field(trial, rng), rng)
        gens = [_random_word(alg.field, alg.dim, rng).terms for _ in range(rng.randint(1, 3))]
        runs = []
        for closure in (algebra._span_closure, _raw_closure):
            echelon = EchelonBasis(alg.field, alg.dim)
            runs.append((list(closure(echelon, gens, partial(sparse_product, alg), alg.dim)), echelon.rows))
        assert runs[0] == runs[1], trial


def test_extending_over_remainders_matches_extending_over_words(monkeypatch):
    # two maps, each the identity or random images, on a basis or on random
    # generators: the same maps, or the same error text and image
    rng, outcomes, closures = random.Random(517), Counter(), (algebra._span_closure, _raw_closure)
    for trial in range(300):
        alg = _random_algebra(_random_field(trial, rng), rng)
        if rng.random() < 0.5:
            gens = [alg.basis_vector(i) for i in range(alg.dim)]
        else:
            gens = [_random_word(alg.field, alg.dim, rng) for _ in range(rng.randint(1, alg.dim))]
        identity = [rng.random() < 0.5 for _ in "fg"]
        pairs = [(g, *(g if same else _random_word(alg.field, alg.dim, rng) for same in identity)) for g in gens]
        results = []
        for closure in closures:
            monkeypatch.setattr(algebra, "_span_closure", closure)
            try:
                results.append(extend_from_generators(alg, pairs, alg))
            except DataInconsistency as exc:
                results.append((str(exc), exc.image))
        assert results[0] == results[1], trial
        first, second = results[0]
        outcomes["maps" if isinstance(first, AlgebraMap) else "span" if "span only" in first else f"image {second}"] += 1
    assert min(outcomes[k] for k in ("maps", "span", "image 0", "image 1")) >= 20, outcomes


@pytest.mark.parametrize("fixture, most", [("Q", 48), ("GF7", 48)])
def test_the_closure_of_matsuo_s5_keeps_unit_words(fixture, most, request, monkeypatch, matsuo_s5):
    # every kept word of the adjacent transpositions' closure is its echelon
    # remainder, a unit vector, so each product sums one row of structure
    # constants: 48 terms in all, where the raw words summed 152
    field = request.getfixturevalue(fixture)
    alg = matsuo_s5(field, "1/4")
    gens = [alg.basis_vector(alg.label_index(label)) for label in ("12", "23", "34", "45")]
    lengths, summed = set(), [0]
    mac = type(field).mac

    def counted(alg, xs, ys):
        lengths.update((len(xs), len(ys)))
        return sparse_product(alg, xs, ys)

    def counted_mac(out, c, terms):  # one multiplication per term
        terms = tuple(terms)
        summed[0] += len(terms)
        return mac(out, c, terms)

    monkeypatch.setattr(algebra, "sparse_product", counted)
    monkeypatch.setattr(type(field), "mac", staticmethod(counted_mac))
    assert algebra.generated_subalgebra(alg, gens).dim == alg.dim
    assert lengths == {1}
    assert summed[0] <= most, summed[0]


# one field of each kind; the number field is Q[eta]/(eta^2 + 2*eta - 1)
KERNEL_FIELDS = {
    "Q": FieldDescriptor.rationals(),
    "GF7": FieldDescriptor.prime(7),
    "NF": FieldDescriptor.number_field((-1, 2, 1)),
    "QETA": FieldDescriptor.rational_functions("eta"),
}


def _scalar(field, a, b):
    """a + b*eta, or a alone in a field without a generator."""
    value = field.from_fraction(a)
    if field in (KERNEL_FIELDS["NF"], KERNEL_FIELDS["QETA"]):
        value = value + field.from_fraction(b) * field.generator()
    return value


# structure constants and coordinates drawn from 0, 1, -1, 1/2, -2/3, eta and
# -eta (as (a, b) of a + b*eta), so that the terms of a product coefficient
# often cancel, and Q sums meet over unequal denominators
small = st.sampled_from([(0, 0), (1, 0), (-1, 0), (Fraction(1, 2), 0), (Fraction(-2, 3), 0), (0, 1), (0, -1)])


@st.composite
def kernel_inputs(draw, field):
    dim = draw(st.integers(1, 4))
    table = {}
    for i in range(dim):
        for j in range(i, dim):
            table[i, j] = vector(field, [_scalar(field, *draw(small)) for _ in range(dim)])
    x, y = ([_scalar(field, *draw(small)) for _ in range(dim)] for _ in "xy")
    return table_algebra(field, [f"e{i}" for i in range(dim)], table), x, y


@pytest.mark.parametrize("name", KERNEL_FIELDS)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sparse_product_is_the_dense_double_sum(name, data):
    field = KERNEL_FIELDS[name]
    alg, x, y = data.draw(kernel_inputs(field))
    dense = [field.zero()] * alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            c = alg.product_of_basis(i, j)
            dense = [d + x[i] * y[j] * ck for d, ck in zip(dense, c)]
    xs, ys = ({k: e.payload for k, e in enumerate(v) if not e.is_zero()} for v in (x, y))
    out = sparse_product(alg, xs, ys)
    assert not any(field.is_zero(c) for c in out.values())
    assert out == {k: e.payload for k, e in enumerate(dense) if not e.is_zero()}


@pytest.mark.parametrize("name", KERNEL_FIELDS)
def test_sparse_product_drops_cancelled_sums(name):
    # e0*e0 = e0 + e1 and e1*e1 = -e0: (e0 + e1)^2 sums 1 - 1 at e0
    field = KERNEL_FIELDS[name]
    one = field.one()
    table = {(0, 0): vector(field, [one, one]), (1, 1): vector(field, [-one, field.zero()])}
    alg = table_algebra(field, ["e0", "e1"], table)
    both = {0: one.payload, 1: one.payload}
    assert sparse_product(alg, both, both) == {1: one.payload}


class _WalkSpy(dict):
    """A ys map that records which side sparse_product walks: its items when
    it is the shorter side, its get when the row is."""

    def __init__(self, terms):
        super().__init__(terms)
        self.walks = set()

    def items(self):
        self.walks.add("ys")
        return super().items()

    def get(self, *args):
        self.walks.add("row")
        return super().get(*args)


@pytest.mark.parametrize("support,walk", [((3,), "ys"), (range(10), "row")])
def test_sparse_product_walks_the_shorter_side(Q, matsuo_s5, support, walk):
    # each row of M_{1/4}(S_5) holds 7 products: t*t and the 6 transpositions
    # that do not commute with t
    alg = matsuo_s5(Q, "1/4")
    assert {len(row) for row in alg.rows} == {7}
    x = alg.basis_vector(0)
    y = Vector.sparse(Q, alg.dim, {k: Q.canonical((k + 1, 2)) for k in support})
    ys = _WalkSpy(y.terms)
    assert sparse_product(alg, x.terms, ys) == _dense_multiply(alg, x, y).terms
    assert ys.walks == {walk}


@pytest.mark.parametrize("wrong, image, word", [(0, 0, "2*0"), (1, 4, "2*1"), (3, 0, "3*0")])
def test_a_disagreeing_flip_drops_out_of_the_closure(monkeypatch, wrong, image, word):
    # Seven's shift and flip from a_-3 .. a_3 in one closure, with the flip
    # sending a_(wrong-3) to a_(image-3): once the flip has disagreed, no
    # product carries an entry in its part, n*2 .. n*3 - 1, and the error is
    # the one that the closure carrying that part to the end raises
    alg, dd = instantiate("Seven")
    n, gens = alg.dim, [dd.axis(i) for i in range(-3, 4)]
    pairs = [(g, dd.shift.apply(g), gens[image] if k == wrong else dd.flip.apply(g)) for k, g in enumerate(gens)]
    events, closure = [], algebra._span_closure

    def product(direct_sum, xs, ys):
        events.append(("product", out := sparse_product(direct_sum, xs, ys)))
        return out

    def logged(*args):
        for pivot, source in closure(*args):
            events.append(("pivot", pivot))
            yield pivot, source

    monkeypatch.setattr(algebra, "sparse_product", product)
    monkeypatch.setattr(algebra, "_span_closure", logged)
    with pytest.raises(DataInconsistency) as failed:
        extend_from_generators(alg, pairs, alg)
    assert (str(failed.value), failed.value.image) == (f"images disagree on dependent word (word {word})", 1)
    first = next(k for k, (kind, x) in enumerate(events) if kind == "pivot" and x is not None and x >= 2 * n)
    in_flip = [any(k >= 2 * n for k in out) for kind, out in events if kind == "product"]
    before = sum(kind == "product" for kind, _ in events[:first])
    assert all(in_flip[:before]) and len(in_flip) > before and not any(in_flip[before:])
