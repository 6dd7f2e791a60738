import random
from fractions import Fraction

import pytest

from axialcheck import polynomials
from axialcheck.catalog import instantiate
from axialcheck.derive import intersection, rref
from axialcheck.errors import AxialError, DescriptorMismatch, DimensionMismatch
from axialcheck.fields import FieldDescriptor, FieldElement, parse_scalar
from axialcheck.linalg import EchelonBasis, Matrix, Subspace, Vector, _reduce, invert, kernel, solve_in_span
from values import identity_matrix, matrix, vector, zero_matrix


def _random_matrix(field, rng, rows, cols, span=5):
    return matrix(
        field,
        [
            [field.from_int(rng.randint(-span, span)) for _ in range(cols)]
            for _ in range(rows)
        ],
    )


# independent elimination oracle for the rank of a rational matrix
def _rank_oracle(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rref_trivial(Q):
    ident = identity_matrix(Q, 3)
    reduced, rank, pivots = rref(ident)
    assert reduced == ident and rank == 3 and pivots == (0, 1, 2)
    zero = zero_matrix(Q, 2, 4)
    reduced, rank, pivots = rref(zero)
    assert reduced == zero and rank == 0 and pivots == ()


def test_rref_random_properties(Q, GF7):
    rng = random.Random(23)
    for field in (Q, GF7):
        for _ in range(60):
            m = _random_matrix(field, rng, rng.randint(1, 4), rng.randint(1, 5))
            reduced, rank, pivots = rref(m)
            again, rank2, pivots2 = rref(reduced)
            assert again == reduced and rank2 == rank and pivots2 == pivots
            ker = kernel(m)
            assert rank + ker.dim == m.ncols
            for v in ker.basis:
                assert m.apply(v).is_zero()
            if field is Q:
                raw = [[Fraction(*e.payload) for e in row] for row in m.rows]
                assert rank == _rank_oracle(raw)


def test_adjoint_of_five_three_axis(QETA):
    # eigenvalue multiplicities of the base-axis adjoint: {1:1, eta:3, 0:1}
    alg, dd = instantiate("FiveThree")
    from axialcheck.algebra import adjoint_matrix

    ad = adjoint_matrix(alg, dd.axis(0))
    eta = dd.eta
    one = alg.field.one()
    assert kernel(ad).dim == 1
    assert kernel(ad.sub_scalar_diag(one)).dim == 1
    e_eta = kernel(ad.sub_scalar_diag(eta))
    assert e_eta.dim == 3
    labels = {l: i for i, l in enumerate(alg.labels)}

    def av(pairs):
        entries = [alg.field.zero()] * alg.dim
        for label, c in pairs.items():
            entries[labels[label]] = parse_scalar(c, alg.field)
        return vector(alg.field, entries)

    for vec in (
        av({"a1": "1", "am1": "-1"}),
        av({"a2": "1", "am2": "-1"}),
        av({"a1": "1", "am1": "1", "a2": "-1", "am2": "-1"}),
    ):
        assert e_eta.contains(vec)
        # multiplied back through the table it really is an eta-eigenvector
        from axialcheck.algebra import multiply

        assert multiply(alg, dd.axis(0), vec) == vec.scale(eta)


def test_solve_in_span(Q):
    v1 = vector(Q, [Q.from_int(1), Q.from_int(0), Q.from_int(2)])
    v2 = vector(Q, [Q.from_int(0), Q.from_int(1), Q.from_int(1)])
    target = v1
    coeffs = solve_in_span(target, [v1, v2])
    assert coeffs == [Q.from_int(1), Q.from_int(0)]
    zero = Vector.zero(Q, 3)
    assert solve_in_span(zero, [v1, v2]) == [Q.zero(), Q.zero()]
    outside = vector(Q, [Q.from_int(0), Q.from_int(0), Q.from_int(1)])
    assert solve_in_span(outside, [v1, v2]) is None


def test_scalar_action_extraction(QETA):
    # base axis times the central element is the documented scalar multiple
    alg, dd = instantiate("ThreeEv")
    from axialcheck.algebra import multiply

    p1 = alg.basis_vector(alg.label_index("p1"))
    prod = multiply(alg, dd.axis(0), p1)
    coeffs = solve_in_span(prod, [dd.axis(0)])
    assert coeffs is not None
    assert coeffs[0] == parse_scalar("-eta*(3*eta+1)/4", alg.field)


def test_subspace_ops(Q):
    rng = random.Random(5)
    vs = [
        vector(Q, [Q.from_int(rng.randint(-3, 3)) for _ in range(4)]) for _ in range(3)
    ]
    space = Subspace.from_vectors(Q, 4, vs)
    zero = Subspace.from_vectors(Q, 4, [])
    assert Subspace.from_vectors(Q, 4, list(space.basis) + list(zero.basis)).rows == space.rows
    assert intersection(space, space).rows == space.rows
    # canonical equality: different generating sets, same space
    doubled = Subspace.from_vectors(Q, 4, [v + v for v in vs] + vs)
    assert doubled.rows == space.rows
    # two planes of Q^4 meeting in a line
    for _ in range(10):
        u0, u1, w0 = (vector(Q, [Q.from_int(rng.randint(-3, 3)) for _ in range(4)]) for _ in range(3))
        plane_u, plane_w = Subspace.from_vectors(Q, 4, [u0, u1]), Subspace.from_vectors(Q, 4, [u0 + u1, w0])
        meet = intersection(plane_u, plane_w)
        both = Subspace.from_vectors(Q, 4, list(plane_u.basis) + list(plane_w.basis))
        assert meet.dim == plane_u.dim + plane_w.dim - both.dim
        assert meet.contains(u0 + u1)
        assert all(plane_u.contains(v) and plane_w.contains(v) for v in meet.basis)
        assert meet.rows == intersection(plane_w, plane_u).rows


def test_direct_sum_of_parts(QETA):
    alg, dd = instantiate("FiveThree")
    from axialcheck.axial import split_eigenspace

    dec = split_eigenspace(alg, dd.axis(0), dd.eta, dd.flip)
    assert dec.dims() == (1, 1, 1, 2)
    total = dec.parts[0]
    for i in (1, 2, 3):
        grown = Subspace.from_vectors(alg.field, alg.dim, list(total.basis) + list(dec.parts[i].basis))
        assert grown.dim == total.dim + dec.parts[i].dim
        total = grown
    assert total.dim == alg.dim


# ---------------------------------------------------------------------------
# sympy as an independent, test-only oracle for elimination (see conftest)
# ---------------------------------------------------------------------------


def _random_low_rank(field, rng, rows, cols, rank):
    def entry():
        if field.kind == field.NUMBER_FIELD:  # (a + b*eta)/c
            c = rng.randint(1, 3)
            return field.element((Fraction(rng.randint(-3, 3), c), Fraction(rng.randint(-3, 3), c)))
        if field.kind == field.RATIONAL_FUNCTIONS:
            return field.element(((rng.randint(-3, 3), rng.randint(-2, 2)), (rng.randint(1, 3),)))
        return field.from_int(rng.randint(-4, 4))

    if not rank:
        return zero_matrix(field, rows, cols)
    left = matrix(field, [[entry() for _ in range(rank)] for _ in range(rows)])
    return left.matmul(matrix(field, [[entry() for _ in range(cols)] for _ in range(rank)]))


@pytest.mark.parametrize("fixture", ["Q", "GF7", "NF", "QETA"])
def test_elimination_matches_sympy(fixture, request, sympy_matrix):
    field = request.getfixturevalue(fixture)
    rng = random.Random(fixture)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        m = _random_low_rank(field, rng, nrows, ncols, rng.randint(0, 4))
        theirs = sympy_matrix(m.rows, ncols, field)
        reduced, rank, pivots = rref(m)
        expected, expected_pivots = theirs.rref()
        assert sympy_matrix(reduced.rows, ncols, field) == expected
        assert (rank, pivots) == (theirs.rank(), tuple(expected_pivots))
        ker = kernel(m)
        null = theirs.nullspace()
        assert ker.dim == null.shape[0] == ncols - rank
        if ker.dim:
            assert sympy_matrix([v.entries for v in ker.basis], ncols, field) == null.rref()[0]
        # the incremental echelon basis grows the same span, in any order, and
        # add gives a new pivot exactly for the rows that raise the rank: the
        # pivot columns of the sampled rows, transposed, in sympy's rref
        echelon = EchelonBasis(field, ncols)
        order = rng.sample(m.rows, len(m.rows))
        _, raising = sympy_matrix(order, ncols, field).transpose().rref()
        for k, row in enumerate(order):
            pivots_before = set(echelon.rows)
            pivot = echelon.add(vector(field, row))
            raised = k in raising
            assert (pivot is None) != raised
            assert set(echelon.rows) - pivots_before == ({pivot} if raised else set())
        assert len(echelon.rows) == rank
        assert echelon.subspace().basis == tuple(vector(field, r) for r in reduced.rows[:rank])


def _dense_apply(m, v):
    return vector(m.field, [sum((a * b for a, b in zip(r, v)), m.field.zero()) for r in m.rows])


def _dense_matmul(m, n):
    return matrix(m.field, [
        [sum((r[k] * n.rows[k][j] for k in range(m.ncols)), m.field.zero()) for j in range(n.ncols)]
        for r in m.rows
    ], n.ncols)


def _sparse_matrix(field, rng, rows, cols):
    # about half the entries zero, and one row all zero
    if not rows or not cols:
        return zero_matrix(field, rows, cols)
    m = [[field.from_int(rng.choice((0, 0, 0, 1, -2, 3))) for _ in range(cols)] for _ in range(rows)]
    m[rng.randrange(rows)] = [field.zero()] * cols
    if field.variable is not None:
        eta = field.generator()
        m = [[e * (eta - 2) / (eta + 1) if rng.random() < 0.5 else e for e in r] for r in m]
    return matrix(field, m)


@pytest.mark.parametrize("fixture", ["Q", "GF7", "QETA"])
def test_apply_and_matmul_match_dense_loops(fixture, request):
    field = request.getfixturevalue(fixture)
    rng = random.Random(fixture)
    # each of the three dimensions may be zero
    shapes = ((3, 4, 2), (5, 5, 5), (1, 6, 3), (4, 1, 4), (6, 6, 6), (2, 3, 5), (6, 2, 1),
              (3, 4, 0), (3, 0, 0), (0, 0, 0), (0, 4, 2), (2, 0, 3), (0, 3, 0))
    for rows, inner, cols in shapes:
        a = _sparse_matrix(field, rng, rows, inner)
        b = _sparse_matrix(field, rng, inner, cols)
        assert a.matmul(b) == _dense_matmul(a, b)
        assert a.matmul(zero_matrix(field, inner, cols)) == zero_matrix(field, rows, cols)
        for v in (Vector.zero(field, inner), *(b.columns[j] for j in range(cols))):
            assert a.apply(v) == _dense_apply(a, v)
        for i in range(inner):
            assert a.apply(Vector.unit(field, inner, i)) == a.columns[i]


def test_a_matrix_without_rows_keeps_its_columns(Q):
    empty = zero_matrix(Q, 0, 4)
    assert (empty.nrows, empty.ncols) == (0, 4)
    assert empty != zero_matrix(Q, 0, 3)
    stacked = Matrix.from_columns(Q, [Vector.zero(Q, 0)] * 4)
    assert (stacked.nrows, stacked.ncols) == (0, 4) and stacked == empty
    assert empty.apply(Vector.zero(Q, 4)) == Vector.zero(Q, 0)
    with pytest.raises(DimensionMismatch):
        matrix(Q, [[Q.one()] * 3], 4)


@pytest.mark.parametrize("fixture", ["Q", "GF7", "NF", "QETA"])
def test_scaling_by_zero_gives_the_zero_vector_and_checks_the_field(fixture, request):
    field = request.getfixturevalue(fixture)
    v = vector(field, [field.from_int(3), field.zero(), field.from_int(-2)])
    assert v.scale(field.zero()) == Vector.zero(field, 3)
    for other in (FieldDescriptor.rationals(), FieldDescriptor.prime(5)):
        if other is not field:
            for s in (other.zero(), other.one()):
                with pytest.raises(DescriptorMismatch):
                    v.scale(s)


def test_apply_and_matmul_refuse_other_fields(GF5, GF7, QETA):
    for field, other in ((GF5, GF7), (QETA, FieldDescriptor.rational_functions("t"))):
        m = identity_matrix(field, 3)
        foreign = identity_matrix(other, 3)
        with pytest.raises(DescriptorMismatch):
            m.apply(Vector.unit(other, 3, 0))
        with pytest.raises(DescriptorMismatch):
            m.matmul(foreign)
        with pytest.raises(DescriptorMismatch):
            foreign.matmul(m)
        with pytest.raises(DimensionMismatch):
            m.apply(Vector.unit(field, 4, 0))
        with pytest.raises(DimensionMismatch):
            m.matmul(identity_matrix(field, 4))


def _int_matrix(field, rows):
    return matrix(field, [[field.from_int(c) for c in row] for row in rows])


def test_invert_refuses_a_singular_matrix(Q, GF7):
    # [m | I] always has rank n: a singular m shows as a pivot in the I half
    for field, rows in ((Q, [[0, 0], [0, 0]]), (Q, [[1, 2], [2, 4]]), (GF7, [[1, 3, 0], [2, 6, 1], [0, 0, 1]])):
        with pytest.raises(DimensionMismatch, match="matrix is singular"):
            invert(_int_matrix(field, rows))
    m = _int_matrix(GF7, [[1, 3, 0], [2, 5, 1], [0, 0, 1]])
    assert m.matmul(invert(m)) == identity_matrix(GF7, 3)


@pytest.mark.parametrize("fixture", ["Q", "GF7", "NF", "QETA"])
def test_payload_maps_match_entrywise_loops(fixture, request):
    # Vector and Matrix arithmetic on payload maps against loops over the
    # FieldElements; every result keeps its shape and no zero payload
    field = request.getfixturevalue(fixture)
    rng = random.Random(fixture)

    def same(v, entries):
        assert v == vector(field, entries) and v.entries == tuple(entries) and len(v) == len(entries)
        assert all(v[j] == e for j, e in enumerate(entries)) and repr(v) == repr(vector(field, entries))
        assert all(0 <= j < len(entries) and not field.is_zero(a) for j, a in v.terms.items())

    for n in (0, 1, 2, 4, 6):
        m, other = _sparse_matrix(field, rng, n, n), _sparse_matrix(field, rng, n, 3)
        rows = m.rows
        assert len(rows) == n and all(len(r) == n for r in rows)
        assert matrix(field, rows) == m == Matrix.from_columns(field, m.columns, n)
        assert all(m.columns[j].entries == tuple(r[j] for r in rows) for j in range(n))
        for u, w in zip(rows, rows[1:] + rows[:1]):
            x, y = vector(field, u), vector(field, w)
            assert x == Vector.sparse(field, n, {j: e.payload for j, e in enumerate(u) if not e.is_zero()})
            same(x + y, [a + b for a, b in zip(u, w)])
            same(x - y, [a - b for a, b in zip(u, w)])
            same(x - x, [field.zero()] * n)
            same(-x, [-a for a in u])
            for s in (field.zero(), field.one(), *w):
                same(x.scale(s), [s * a for a in u])
            assert (x == y) == (u == w)
            same(m.apply(x), _dense_apply(m, x).entries)
        product = m.matmul(other)
        assert product == _dense_matmul(m, other) and (product.nrows, product.ncols) == (n, 3)
        try:
            inverse = invert(m)
        except DimensionMismatch:
            assert rref(m)[1] < n
        else:
            assert _dense_matmul(m, inverse) == identity_matrix(field, n) == _dense_matmul(inverse, m)


def _payload(field, rng):
    """A random nonzero payload: a small fraction, times eta or 1/(1 + eta)
    now and then where the field has eta, so that Q(eta) sums also meet
    polynomial denominators."""
    x = field.from_fraction(rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]))
    if field.variable and rng.random() < 0.5:
        eta = field.generator()
        x = x * (eta if rng.random() < 0.5 else (field.one() + eta).inverse())
    return x.payload


def _naive_reduce(dom, entries, rows):
    # one row at a time in pivot order, each sum in the sympy domain; a row
    # is {pivot: {column: value}} with its leading 1 implied
    entries = dict(entries)
    for pc in sorted(rows):
        c = entries.pop(pc, None)
        for j, b in rows[pc].items() if c is not None else ():
            s = entries.get(j, dom.zero) - c * b
            if dom.is_zero(s):
                del entries[j]
            else:
                entries[j] = s
    return entries


def _naive_insert(dom, rows, entries):
    # EchelonBasis._insert by _naive_reduce, back-substituting into every row
    entries = _naive_reduce(dom, entries, rows)
    if entries:
        pivot = min(entries)
        lead = entries.pop(pivot)
        new = {j: dom.quo(a, lead) for j, a in entries.items()}
        for pc in rows:
            rows[pc] = _naive_reduce(dom, rows[pc], {pivot: new})
        rows[pivot] = new


@pytest.mark.parametrize("fixture", ["Q", "GF7", "NF", "QETA"])
def test_reduce_and_insert_match_the_canonical_elimination(fixture, request, sympy_domain):
    # against the same elimination on sympy's domain elements: canonical
    # payloads of equal values are equal payloads
    field = request.getfixturevalue(fixture)
    dom, convert = sympy_domain(field)
    values = {}

    def valued(pairs):
        out = {}
        for j, a in pairs:
            raw = [Fraction(c, a[1]) for c in a[0]] if field.kind == field.NUMBER_FIELD else a
            assert field.canonical(raw) == a
            if a not in values:
                values[a] = convert(FieldElement(field, a))
            out[j] = values[a]
        return out

    rng = random.Random(fixture)
    for _ in range(20):
        n = rng.randint(4, 9)
        echelon, reference = EchelonBasis(field, n), {}
        for _ in range(rng.randint(1, n)):
            terms = {j: _payload(field, rng) for j in rng.sample(range(n), rng.randint(1, n))}
            echelon._insert(terms)
            _naive_insert(dom, reference, valued(terms.items()))
            rows = echelon.rows
            assert {pc: valued(row.items()) for pc, row in rows.items()} == reference
            for pc, row in rows.items():  # entries after the pivot only, none at a pivot, no zeros
                assert all(j > pc for j in row) and not set(rows).intersection(row)
                assert not any(field.is_zero(a) for a in row.values())
            for size in (1, len(rows) + 1, n):  # shorter and longer than the row set
                v = {j: _payload(field, rng) for j in rng.sample(range(n), min(size, n))}
                assert valued(_reduce(field, v, rows).items()) == _naive_reduce(dom, valued(v.items()), reference)


def test_reducing_over_constant_denominators_takes_no_polynomial_gcd(QETA, monkeypatch):
    # a canonical Q(eta) payload over a constant is a raw sum to mac, so a
    # vector's own entries seed the sum without the canonical mul and add
    eta, third = QETA.generator(), QETA.from_fraction(Fraction(1, 3))
    x = [third * eta, eta * eta / 2 - 1, third + eta, 2 * eta - 5]
    rows = {0: {2: x[0].payload, 3: x[1].payload}, 1: {2: x[2].payload, 3: x[3].payload}}
    v = {0: x[1].payload, 1: x[2].payload, 2: x[3].payload, 3: x[0].payload}
    expected = {2: (x[3] - x[1] * x[0] - x[2] * x[2]).payload, 3: (x[0] - x[1] * x[1] - x[2] * x[3]).payload}
    calls = []
    pgcd = polynomials._pgcd
    monkeypatch.setattr(polynomials, "_pgcd", lambda a, b: calls.append((a, b)) or pgcd(a, b))
    assert _reduce(QETA, v, rows) == expected
    assert calls == []
    assert eta / (eta + 1) and calls  # the patch is the _pgcd that Q(eta) calls


def test_a_raw_sum_that_is_a_multiple_of_the_modulus_is_zero(NF):
    # (1 - 2 eta) - eta * eta sums -(eta^2 + 2 eta - 1) raw: zero in Q[eta]/(m)
    eta, one = NF.generator().payload, NF.ONE
    v = {0: eta, 1: (NF.one() - NF.from_int(2) * NF.generator()).payload}
    assert _reduce(NF, v, {0: {1: eta}}) == {}
    assert _reduce(NF, {**v, 2: one}, {0: {1: eta}}) == {2: one}


def _from_literals(field, rows):
    """The matrix of rows of scalar literals, made from its columns as the engine makes matrices."""
    n = len(rows)
    return Matrix.from_columns(field, [
        sum((Vector.unit(field, n, i).scale(parse_scalar(row[j], field)) for i, row in enumerate(rows)),
            Vector.zero(field, n))
        for j in range(len(rows[0]))], n)


def test_matrix_repr_renders_its_rows(Q, GF7):
    assert repr(_from_literals(Q, [["1", "-1/2", "0"], ["0", "3", "0"]])) == "Matrix[(1, -1/2, 0); (0, 3, 0)]"
    assert repr(_from_literals(GF7, [["0", "-1"], ["5", "1/2"]])) == "Matrix[(0, 6); (5, 4)]"
    assert repr(Matrix.from_columns(Q, [], 2)) == "Matrix[(); ()]" and repr(Matrix.from_columns(Q, [], 0)) == "Matrix[]"


def test_zero_sizes_keep_their_shape(Q):
    empty = vector(Q, [])
    assert (len(empty), empty.entries, list(empty), repr(empty)) == (0, (), [], "()")
    assert empty == Vector.zero(Q, 0) != Vector.zero(Q, 1)
    for nrows, ncols in ((0, 3), (3, 0), (0, 0)):
        m = matrix(Q, [[]] * nrows, ncols)
        assert (m.nrows, m.ncols, m.rows) == (nrows, ncols, ((),) * nrows)
        assert [len(c) for c in m.columns] == [nrows] * ncols
        assert m == zero_matrix(Q, nrows, ncols) == Matrix.from_columns(Q, m.columns, nrows)
        assert m.apply(Vector.zero(Q, ncols)) == Vector.zero(Q, nrows)
        assert m.matmul(zero_matrix(Q, ncols, 2)) == zero_matrix(Q, nrows, 2)
        reduced, rank, _ = rref(m)
        assert (reduced.nrows, reduced.ncols, rank) == (nrows, ncols, 0)
        assert kernel(m).dim == ncols
    assert zero_matrix(Q, 3, 0) != zero_matrix(Q, 2, 0)
    assert invert(identity_matrix(Q, 0)) == zero_matrix(Q, 0, 0)


def test_columns_share_one_field_and_one_length(Q, GF7):
    with pytest.raises(DescriptorMismatch):
        Matrix.from_columns(Q, [Vector.unit(Q, 2, 0), Vector.unit(GF7, 2, 1)])
    with pytest.raises(DescriptorMismatch):
        matrix(Q, [[Q.one(), GF7.one()]])
    with pytest.raises(DimensionMismatch, match="ragged matrix"):
        Matrix.from_columns(Q, [Vector.unit(Q, 2, 0), Vector.unit(Q, 3, 1)])
    with pytest.raises(DimensionMismatch, match="ragged matrix"):
        Matrix.from_columns(Q, [Vector.unit(Q, 2, 0)], nrows=3)
    with pytest.raises(DimensionMismatch, match="ragged matrix"):
        matrix(Q, [[Q.one(), Q.zero()], [Q.one()]])


# ---------------------------------------------------------------------------
# kernel, invert and sub_scalar_diag, read off the echelon rows, against the
# Matrix round trips they replaced: kernel through the rref Matrix and
# Subspace.from_vectors, invert through the rref of [m | I], sub_scalar_diag
# through unit vectors.  Both sides must store the same entries in the same
# order, and fail with the same exception type.
# ---------------------------------------------------------------------------


def _reference_kernel(m):
    reduced, _, pivots = rref(m)
    field, basis = m.field, []
    for f in range(m.ncols):
        if f not in pivots:
            terms = {pivots[i]: field.neg(a) for i, a in reduced.columns[f].terms.items()}
            terms[f] = field.ONE
            basis.append(Vector.sparse(field, m.ncols, terms))
    return Subspace.from_vectors(field, m.ncols, basis)


def _reference_invert(m):
    if m.nrows != m.ncols:
        raise DimensionMismatch("only square matrices invert")
    n = m.nrows
    reduced, _, pivots = rref(Matrix.from_columns(m.field, m.columns + identity_matrix(m.field, n).columns, n))
    if pivots != tuple(range(n)):
        raise DimensionMismatch("matrix is singular")
    return Matrix.from_columns(m.field, reduced.columns[n:], n)


def _reference_sub_scalar_diag(m, s):
    if m.nrows != m.ncols:
        raise DimensionMismatch("square matrix required")
    n = m.nrows
    return Matrix.from_columns(
        m.field, [c - Vector.unit(m.field, n, j).scale(s) for j, c in enumerate(m.columns)], n)


def _layout(f, *args):
    """What f(*args) stores, entries in their stored order, or the type of
    the AxialError it raises."""
    try:
        x = f(*args)
    except AxialError as exc:
        return type(exc)
    if isinstance(x, Subspace):
        return x.ambient, [(pc, list(row.items())) for pc, row in x.rows.items()]
    return x.nrows, x.ncols, [list(c.terms.items()) for c in x.columns]


def _differential_matrices(field, rng):
    """0 x 0, zero, identity, random sparse (each with a zero row, so
    singular), a square one with a repeated column, full-rank and
    rank-deficient products, square and not."""
    yield zero_matrix(field, 0, 0)
    yield zero_matrix(field, 3, 4)
    yield zero_matrix(field, 4, 4)
    yield identity_matrix(field, 5)
    for _ in range(4):
        n = rng.randint(1, 6)
        yield _sparse_matrix(field, rng, n, n)
        yield _sparse_matrix(field, rng, n, rng.randint(1, 7))
        m = _random_low_rank(field, rng, n, n, n)
        yield m
        yield Matrix.from_columns(field, m.columns[:-1] + m.columns[:1], n)
        yield _random_low_rank(field, rng, n, rng.randint(1, 7), rng.randint(0, n))


@pytest.mark.parametrize("fixture", ["Q", "GF10007", "QETA", "NF"])
def test_echelon_reads_match_the_matrix_round_trips(fixture, request, GF5):
    field = FieldDescriptor.prime(10007) if fixture == "GF10007" else request.getfixturevalue(fixture)
    rng = random.Random(fixture)
    shapes = set()
    for m in _differential_matrices(field, rng):
        shapes.add((m.nrows == m.ncols, _layout(invert, m) is DimensionMismatch))
        assert _layout(kernel, m) == _layout(_reference_kernel, m)
        assert _layout(invert, m) == _layout(_reference_invert, m)
        scalars = (field.zero(), field.one(), field.from_int(-3), *(e for c in m.columns[:1] for e in c))
        for s in scalars:
            assert _layout(m.sub_scalar_diag, s) == _layout(_reference_sub_scalar_diag, m, s)
        if m.ncols:  # the reference reads the scalar only at a diagonal entry
            assert _layout(m.sub_scalar_diag, GF5.one()) == _layout(_reference_sub_scalar_diag, m, GF5.one())
    # square and not, invertible and singular: each was met
    assert shapes == {(True, True), (True, False), (False, True)}
    with pytest.raises(DescriptorMismatch):
        zero_matrix(field, 0, 0).sub_scalar_diag(GF5.one())
