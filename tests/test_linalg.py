import random
from fractions import Fraction

import pytest

from axialcheck.catalog import instantiate
from axialcheck.errors import DescriptorMismatch, DimensionMismatch
from axialcheck.fields import FieldDescriptor, parse_scalar
from axialcheck.linalg import EchelonBasis, Matrix, Subspace, Vector, invert, kernel, rref, solve_in_span


def _random_matrix(field, rng, rows, cols, span=5):
    return Matrix(
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
    ident = Matrix.identity(Q, 3)
    reduced, rank, pivots = rref(ident)
    assert reduced == ident and rank == 3 and pivots == (0, 1, 2)
    zero = Matrix.zero(Q, 2, 4)
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
                raw = [[e.payload for e in row] for row in m.rows]
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
        return Vector(alg.field, entries)

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
    v1 = Vector(Q, [Q.from_int(1), Q.from_int(0), Q.from_int(2)])
    v2 = Vector(Q, [Q.from_int(0), Q.from_int(1), Q.from_int(1)])
    target = v1
    coeffs = solve_in_span(target, [v1, v2])
    assert coeffs == [Q.from_int(1), Q.from_int(0)]
    zero = Vector.zero(Q, 3)
    assert solve_in_span(zero, [v1, v2]) == [Q.zero(), Q.zero()]
    outside = Vector(Q, [Q.from_int(0), Q.from_int(0), Q.from_int(1)])
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
        Vector(Q, [Q.from_int(rng.randint(-3, 3)) for _ in range(4)]) for _ in range(3)
    ]
    space = Subspace.from_vectors(Q, 4, vs)
    zero = Subspace.from_vectors(Q, 4, [])
    assert Subspace.from_vectors(Q, 4, list(space.basis) + list(zero.basis)) == space
    assert space.intersection(space) == space
    # canonical equality: different generating sets, same space
    doubled = Subspace.from_vectors(Q, 4, [v + v for v in vs] + vs)
    assert doubled == space
    # two planes of Q^4 meeting in a line
    for _ in range(10):
        u0, u1, w0 = (Vector(Q, [Q.from_int(rng.randint(-3, 3)) for _ in range(4)]) for _ in range(3))
        plane_u, plane_w = Subspace.from_vectors(Q, 4, [u0, u1]), Subspace.from_vectors(Q, 4, [u0 + u1, w0])
        meet = plane_u.intersection(plane_w)
        both = Subspace.from_vectors(Q, 4, list(plane_u.basis) + list(plane_w.basis))
        assert meet.dim == plane_u.dim + plane_w.dim - both.dim
        assert meet.contains(u0 + u1)
        assert all(plane_u.contains(v) and plane_w.contains(v) for v in meet.basis)
        assert meet == plane_w.intersection(plane_u)


def test_direct_sum_of_parts(QETA):
    alg, dd = instantiate("FiveThree")
    from axialcheck.axial import split_eigenspace

    dec = split_eigenspace(alg, dd.axis(0), dd.eta, dd.flip)
    assert dec.dims() == (1, 1, 1, 2)
    total = dec.part(0)
    for i in (1, 2, 3):
        grown = Subspace.from_vectors(alg.field, alg.dim, list(total.basis) + list(dec.part(i).basis))
        assert grown.dim == total.dim + dec.part(i).dim
        total = grown
    assert total.dim == alg.dim


# ---------------------------------------------------------------------------
# sympy as an independent, test-only oracle for elimination (see conftest)
# ---------------------------------------------------------------------------


def _random_low_rank(field, rng, rows, cols, rank):
    def entry():
        if field.kind == field.NUMBER_FIELD:
            return field.element((Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))))
        if field.kind == field.RATIONAL_FUNCTIONS:
            return field.element(((rng.randint(-3, 3), rng.randint(-2, 2)), (1,)))
        return field.from_int(rng.randint(-4, 4))

    if not rank:
        return Matrix.zero(field, rows, cols)
    left = Matrix(field, [[entry() for _ in range(rank)] for _ in range(rows)])
    return left.matmul(Matrix(field, [[entry() for _ in range(cols)] for _ in range(rank)]))


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
        # add gives a new pivot exactly for the rows that raise the rank
        echelon = EchelonBasis(field, ncols)
        added, their_rank = [], 0
        for row in rng.sample(m.rows, len(m.rows)):
            pivots_before = set(echelon.rows)
            pivot = echelon.add(Vector(field, row))
            added.append(row)
            raised = sympy_matrix(added, ncols, field).rank() > their_rank
            their_rank += raised
            assert (pivot is None) != raised
            assert set(echelon.rows) - pivots_before == ({pivot} if raised else set())
        assert len(echelon.rows) == rank
        assert echelon.subspace().basis == tuple(Vector(field, r) for r in reduced.rows[:rank])


def _dense_apply(m, v):
    return Vector(m.field, [sum((a * b for a, b in zip(r, v)), m.field.zero()) for r in m.rows])


def _dense_matmul(m, n):
    return Matrix(m.field, [
        [sum((r[k] * n.rows[k][j] for k in range(m.ncols)), m.field.zero()) for j in range(n.ncols)]
        for r in m.rows
    ])


def _sparse_matrix(field, rng, rows, cols):
    # about half the entries zero, and one row all zero
    if not rows or not cols:
        return Matrix.zero(field, rows, cols)
    m = [[field.from_int(rng.choice((0, 0, 0, 1, -2, 3))) for _ in range(cols)] for _ in range(rows)]
    m[rng.randrange(rows)] = [field.zero()] * cols
    if field.variable is not None:
        eta = field.generator()
        m = [[e * (eta - 2) / (eta + 1) if rng.random() < 0.5 else e for e in r] for r in m]
    return Matrix(field, m)


@pytest.mark.parametrize("fixture", ["Q", "GF7", "QETA"])
def test_apply_and_matmul_match_dense_loops(fixture, request):
    field = request.getfixturevalue(fixture)
    rng = random.Random(fixture)
    # a matrix without rows has no columns either, so a zero dimension shows
    # as a product with no columns, or with no inner dimension and no columns
    shapes = ((3, 4, 2), (5, 5, 5), (1, 6, 3), (4, 1, 4), (6, 6, 6), (2, 3, 5), (6, 2, 1),
              (3, 4, 0), (3, 0, 0), (0, 0, 0))
    for rows, inner, cols in shapes:
        a = _sparse_matrix(field, rng, rows, inner)
        b = _sparse_matrix(field, rng, inner, cols)
        assert a.matmul(b) == _dense_matmul(a, b)
        assert a.matmul(Matrix.zero(field, inner, cols)) == Matrix.zero(field, rows, cols)
        for v in (Vector.zero(field, inner), *(b.column(j) for j in range(cols))):
            assert a.apply(v) == _dense_apply(a, v)
        for i in range(inner):
            assert a.apply(Vector.unit(field, inner, i)) == a.column(i)


@pytest.mark.parametrize("fixture", ["Q", "GF7", "NF", "QETA"])
def test_scaling_by_zero_gives_the_zero_vector_and_checks_the_field(fixture, request):
    field = request.getfixturevalue(fixture)
    v = Vector(field, [field.from_int(3), field.zero(), field.from_int(-2)])
    assert v.scale(field.zero()) == Vector.zero(field, 3)
    for other in (FieldDescriptor.rationals(), FieldDescriptor.prime(5)):
        if other is not field:
            for s in (other.zero(), other.one()):
                with pytest.raises(DescriptorMismatch):
                    v.scale(s)


def test_apply_and_matmul_refuse_other_fields(GF5, GF7, QETA):
    for field, other in ((GF5, GF7), (QETA, FieldDescriptor.rational_functions("t"))):
        m = Matrix.identity(field, 3)
        foreign = Matrix.identity(other, 3)
        with pytest.raises(DescriptorMismatch):
            m.apply(Vector.unit(other, 3, 0))
        with pytest.raises(DescriptorMismatch):
            m.matmul(foreign)
        with pytest.raises(DescriptorMismatch):
            foreign.matmul(m)
        with pytest.raises(DimensionMismatch):
            m.apply(Vector.unit(field, 4, 0))
        with pytest.raises(DimensionMismatch):
            m.matmul(Matrix.identity(field, 4))


def _int_matrix(field, rows):
    return Matrix(field, [[field.from_int(c) for c in row] for row in rows])


def test_invert_refuses_a_singular_matrix(Q, GF7):
    # [m | I] always has rank n: a singular m shows as a pivot in the I half
    for field, rows in ((Q, [[0, 0], [0, 0]]), (Q, [[1, 2], [2, 4]]), (GF7, [[1, 3, 0], [2, 6, 1], [0, 0, 1]])):
        with pytest.raises(DimensionMismatch, match="matrix is singular"):
            invert(_int_matrix(field, rows))
    m = _int_matrix(GF7, [[1, 3, 0], [2, 5, 1], [0, 0, 1]])
    assert m.matmul(invert(m)) == Matrix.identity(GF7, 3)
