"""Commutative structure-constant algebras: products, generated
subalgebras and linear maps between algebras.

Commutativity is structural: e_i*e_j and e_j*e_i are one shared map of
structure constants, so x*y = y*x cannot fail by construction.  A value
keeps what its builder checked: outside input enters through
algfile.load_document, with every check.

extend_from_generators lives in ``dihedral`` and is_ideal, is_homomorphism
and quotient in ``derive``, both compiled on first use; each keeps a one-line
entry point here, the name that the benchmark's tracer binds.  A run maps
vectors, checks maps and inverts the shift; the identity map, composites
and powers, which only tests build, are test helpers.
"""

from __future__ import annotations

from functools import partial

from .errors import DescriptorMismatch, DimensionMismatch
from .fields import _fill, _Frozen
from .linalg import EchelonBasis, Matrix, Subspace, Vector, _full_row, _terms, invert


class AlgebraDef(_Frozen):
    """Algebra given by basis labels and symmetric structure constants.

    ``rows[i]`` maps each j with e_i*e_j nonzero to that product's
    ``terms``, {k: nonzero payload}; missing pairs multiply to zero.  (i, j)
    and (j, i) share one map, and nothing else holds the constants.

    It checks nothing: it keeps the rows that algfile.load_document built
    from a checked document, or derive.quotient from an algebra built so.
    """

    __slots__ = ("field", "labels", "rows", "dim")

    def __init__(self, field, labels, rows):
        _fill(self, field, tuple(labels), rows, len(labels))

    def label_index(self, label):
        return self.labels.index(label)

    def basis_vector(self, i) -> Vector:
        return Vector.unit(self.field, self.dim, i)

    def product_of_basis(self, i, j) -> Vector:
        return Vector.sparse(self.field, self.dim, self.rows[i].get(j, {}))

    def __repr__(self):
        return f"AlgebraDef({', '.join(self.labels)})"


def product_sums(alg: AlgebraDef, xs, ys):
    """x*y for x and y given as {index: nonzero payload}, as the field's raw
    sums, unsettled: the one sum of the structure constants, over i in xs and
    j in both ys and rows[i], walking the shorter of the two, by the field's
    raw_mul and mac on payloads."""
    field = alg.field
    mul, mac = field.raw_mul, field.mac
    out = {}
    for i, a in xs.items():
        row = alg.rows[i]
        if len(ys) < len(row):
            for j, b in ys.items():
                terms = row.get(j)
                if terms is not None:
                    mac(out, mul(a, b), terms.items())
        else:
            for j, terms in row.items():
                b = ys.get(j)
                if b is not None:
                    mac(out, mul(a, b), terms.items())
    return out


def sparse_product(alg: AlgebraDef, xs, ys):
    """x*y as {index: nonzero payload}, the sums that cancel dropped: the
    settled product_sums."""
    return alg.field.settle(product_sums(alg, xs, ys))


def multiply(alg: AlgebraDef, x: Vector, y: Vector) -> Vector:
    """x*y for Vectors of the algebra, by sparse_product on their terms."""
    field, dim = alg.field, alg.dim
    if len(x) != dim or len(y) != dim:
        raise DimensionMismatch("vector length differs from algebra dimension")
    if x.field is not field or y.field is not field:
        raise DescriptorMismatch(f"vector over another field than {field!r}")
    return Vector.sparse(field, dim, sparse_product(alg, x.terms, y.terms))


def adjoint_matrix(alg: AlgebraDef, a: Vector) -> Matrix:
    """Matrix of x -> a*x in the algebra basis."""
    cols = [multiply(alg, a, alg.basis_vector(j)) for j in range(alg.dim)]
    return Matrix.from_columns(alg.field, cols, nrows=alg.dim)


def _span_closure(echelon: EchelonBasis, gens, product, n):
    """Close span(gens) under product, multiplying each pair of kept words once:
    generators first, then products breadth first, later word on the left.
    Words are {index: nonzero payload} maps.  Each goes into echelon and, if
    its remainder's pivot is below n, is kept as that remainder (the new row):
    two remainders multiply to their words' product less products of pairs
    taken before, which are in the span, so echelon grows as on the words.
    (pivot, word) is yielded after each, pivot being what echelon._insert
    returned and word None for a generator or (i, j) for the product of
    words i and j, so a caller can stop early."""
    words = []

    def insert(word, source):
        pivot = echelon._insert(word)
        if pivot is not None and pivot < n:
            words.append(_full_row(echelon.field, pivot, echelon.rows[pivot]))
        return pivot, source

    yield from (insert(g, None) for g in gens)
    i = 0
    while i < len(words):
        yield from (insert(product(words[i], words[j]), (i, j)) for j in range(i + 1))
        i += 1


def generated_subalgebra(alg: AlgebraDef, gens) -> Subspace:
    """Smallest multiplication-closed subspace containing the generators.
    The closure stops once the span is the whole algebra, which is closed."""
    echelon = EchelonBasis(alg.field, alg.dim)
    words = [_terms(g, alg.field, alg.dim) for g in gens]
    for _ in _span_closure(echelon, words, partial(sparse_product, alg), alg.dim):
        if len(echelon.rows) == alg.dim:
            break
    return echelon.subspace()


def is_ideal(alg, s):
    """derive.is_ideal, compiled on first use."""
    from . import derive

    return derive.is_ideal(alg, s)


class AlgebraMap(_Frozen):
    """Linear map between algebras; columns are images of source basis vectors."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        if matrix.ncols != source.dim or matrix.nrows != target.dim:
            raise DimensionMismatch("map matrix has wrong shape")
        _fill(self, source, target, matrix)

    def apply(self, v: Vector) -> Vector:
        return self.matrix.apply(v)

    def inverse(self) -> "AlgebraMap":
        return AlgebraMap(self.target, self.source, invert(self.matrix))

    def __eq__(self, other):
        if not isinstance(other, AlgebraMap):
            return NotImplemented
        return self.matrix == other.matrix


def is_homomorphism(m):
    """derive.is_homomorphism, compiled on first use."""
    from . import derive

    return derive.is_homomorphism(m)


def quotient(alg, ideal):
    """derive.quotient, compiled on first use."""
    from . import derive

    return derive.quotient(alg, ideal)


def extend_from_generators(alg, pairs, target):
    """dihedral.extend_from_generators, compiled on first use."""
    from . import dihedral

    return dihedral.extend_from_generators(alg, pairs, target)
