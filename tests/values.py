"""Values and maps that only tests build: vectors and matrices from lists
of FieldElements, algebras from tables of product Vectors, the identity and
zero matrices, and the identity map, composites, powers and the involutions
tau_j of dihedral data.  The engine makes its values from payload maps and
columns (Vector.sparse, Matrix.from_columns) and its algebras from checked
documents (algfile.load_document), so none of these is compiled by a run."""

from axialcheck.algebra import AlgebraDef, AlgebraMap
from axialcheck.errors import DataInconsistency, DescriptorMismatch, DimensionMismatch
from axialcheck.linalg import Matrix, Vector


def vector(field, entries):
    """The vector of the FieldElements entries."""
    entries = tuple(entries)
    if any(e.field is not field for e in entries):
        raise DescriptorMismatch("vector entries in mixed fields")
    terms = {j: e.payload for j, e in enumerate(entries) if not field.is_zero(e.payload)}
    return Vector.sparse(field, len(entries), terms)


def matrix(field, rows, ncols=None):
    """The matrix of the rows, each a sequence of ncols FieldElements."""
    rows = [tuple(r) for r in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise DimensionMismatch("ragged matrix")
    return Matrix.from_columns(field, [vector(field, [r[j] for r in rows]) for j in range(ncols)], len(rows))


def table_algebra(field, labels, table):
    """The AlgebraDef whose e_i*e_j is table[i, j], a Vector over field, for
    each key (i, j) given; a pair given once, in either order.  A pair not
    given, or given a zero vector, multiplies to zero.  The rows are built
    as the loader builds them: one terms map shared by (i, j) and (j, i)."""
    labels = tuple(labels)
    rows = tuple({} for _ in labels)
    for (i, j), vec in table.items():
        if vec.terms:
            rows[i][j] = rows[j][i] = vec.terms
    return AlgebraDef(field, labels, rows)


def identity_matrix(field, n):
    return Matrix.from_columns(field, [Vector.unit(field, n, j) for j in range(n)], n)


def zero_matrix(field, nrows, ncols):
    return Matrix.from_columns(field, [Vector.zero(field, nrows)] * ncols, nrows)


def identity_map(alg):
    return AlgebraMap(alg, alg, identity_matrix(alg.field, alg.dim))


def compose(f, g):
    """f o g."""
    if g.target is not f.source and g.target.labels != f.source.labels:
        raise DimensionMismatch("maps do not compose")
    return AlgebraMap(g.source, f.target, f.matrix.matmul(g.matrix))


def power(f, k):
    """f^k, for an endomorphism f and any integer k."""
    if f.source is not f.target:
        raise DimensionMismatch("powers need an endomorphism")
    if k < 0:
        return power(f.inverse(), -k)
    out = identity_map(f.source)
    base = f
    while k:
        if k & 1:
            out = compose(base, out)
        base = compose(base, base)
        k >>= 1
    return out


def involution_at(dd, j):
    """tau_j = shift^j o flip o shift^-j, from the shift and its cached
    inverse; tau_0 is the flip even when the shift is singular."""
    if j == 0:
        return dd.flip
    if dd._unshift is None:
        raise DataInconsistency(f"shift is not invertible, so tau_{j} is undefined")
    forth, back = (dd.shift, dd._unshift) if j > 0 else (dd._unshift, dd.shift)
    return compose(compose(power(forth, abs(j)), dd.flip), power(back, abs(j)))
