"""Commutative structure-constant algebras: products, vector literals,
subalgebras, ideals, quotients, and linear maps extended from generators.

Commutativity is structural: e_i*e_j and e_j*e_i are one shared map of
structure constants, so x*y = y*x cannot fail by construction.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace

from .errors import AxialError, DataInconsistency, DescriptorMismatch, DimensionMismatch, NotAnIdeal, ScalarSyntaxError
from .fields import ExpressionEnv, _fill, _Frozen
from .linalg import EchelonBasis, Matrix, Subspace, Vector, _full_row, _terms, invert


class AlgebraDef(_Frozen):
    """Algebra given by basis labels and symmetric structure constants.

    ``rows[i]`` maps each j with e_i*e_j nonzero to that product's
    ``terms``, {k: nonzero payload}; missing pairs multiply to zero.  (i, j)
    and (j, i) share one map, and nothing else holds the constants.

    ``table`` maps each key (i, j) to the product Vector e_i*e_j, and is
    checked here.  The loader, which has checked its document, passes the
    rows themselves, a tuple, and they are kept as they are.
    """

    __slots__ = ("field", "labels", "rows", "dim")

    def __init__(self, field, labels, table):
        labels = tuple(labels)
        dim = len(labels)
        if not isinstance(table, tuple):
            if len(set(labels)) != dim:
                raise DimensionMismatch("basis labels must be distinct")
            rows = tuple({} for _ in range(dim))
            seen = set()  # the unordered keys, zero products included
            for (i, j), vec in table.items():
                if not (0 <= i < dim and 0 <= j < dim):
                    raise DimensionMismatch(f"bad structure-constant key ({i},{j})")
                if (key := (min(i, j), max(i, j))) in seen:
                    raise DimensionMismatch(f"duplicate structure-constant key {key}")
                seen.add(key)
                if len(vec) != dim:
                    raise DimensionMismatch("structure-constant vector has wrong length")
                if vec.field is not field:
                    raise DescriptorMismatch("structure constants over the wrong field")
                if vec.terms:  # a zero product is left out
                    rows[i][j] = rows[j][i] = vec.terms
            table = rows
        _fill(self, field, labels, table, dim)

    def label_index(self, label):
        return self.labels.index(label)

    def basis_vector(self, i) -> Vector:
        return Vector.unit(self.field, self.dim, i)

    def zero_vector(self) -> Vector:
        return Vector.zero(self.field, self.dim)

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


class _LiteralEnv(ExpressionEnv):
    """Expression hooks for vector literals: a name is a basis label before it
    is a scalar's name, and labels combine only linearly.  Only the identity
    rows' subclass, dihedral._RowEnv, multiplies two vectors."""

    def __init__(self, alg: AlgebraDef, eta=None):
        super().__init__(alg.field, eta)
        self.labels = alg.labels

    def atom(self, name):
        if name in self.labels:
            return Vector.unit(self.field, len(self.labels), self.labels.index(name))
        return super().atom(name)

    def add(self, a, b):
        if isinstance(a, Vector) != isinstance(b, Vector):
            raise ScalarSyntaxError("cannot add a scalar to a vector")
        return a + b

    def sub(self, a, b):
        if isinstance(a, Vector) != isinstance(b, Vector):
            raise ScalarSyntaxError("cannot subtract a scalar from a vector")
        return a - b

    def mul(self, a, b):
        if isinstance(a, Vector) and isinstance(b, Vector):
            raise ScalarSyntaxError("vector literals are linear: no products of labels")
        if isinstance(a, Vector):
            return a.scale(b)
        if isinstance(b, Vector):
            return b.scale(a)
        return a * b

    def div(self, a, b):
        if isinstance(b, Vector):
            raise ScalarSyntaxError("cannot divide by a vector")
        if isinstance(a, Vector):
            return a.scale(b.inverse())
        return a / b

    def pow(self, a, n):
        if isinstance(a, Vector):
            raise ScalarSyntaxError("cannot exponentiate a vector")
        return a ** n


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


def is_ideal(alg: AlgebraDef, s: Subspace) -> bool:
    for k in range(alg.dim):
        b = alg.basis_vector(k)
        for v in s.basis:
            if not s.contains(multiply(alg, b, v)):
                return False
    return True


class AlgebraMap(_Frozen):
    """Linear map between algebras; columns are images of source basis vectors."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        if matrix.ncols != source.dim or matrix.nrows != target.dim:
            raise DimensionMismatch("map matrix has wrong shape")
        _fill(self, source, target, matrix)

    @classmethod
    def identity(cls, alg):
        return cls(alg, alg, Matrix.identity(alg.field, alg.dim))

    def apply(self, v: Vector) -> Vector:
        return self.matrix.apply(v)

    def compose(self, other: "AlgebraMap") -> "AlgebraMap":
        if other.target is not self.source and other.target.labels != self.source.labels:
            raise DimensionMismatch("maps do not compose")
        return AlgebraMap(other.source, self.target, self.matrix.matmul(other.matrix))

    def inverse(self) -> "AlgebraMap":
        return AlgebraMap(self.target, self.source, invert(self.matrix))

    def power(self, k: int) -> "AlgebraMap":
        if self.source is not self.target:
            raise DimensionMismatch("powers need an endomorphism")
        if k < 0:
            return self.inverse().power(-k)
        out = AlgebraMap.identity(self.source)
        base = self
        while k:
            if k & 1:
                out = base.compose(out)
            base = base.compose(base)
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, AlgebraMap):
            return NotImplemented
        return self.matrix == other.matrix


def is_homomorphism(m: AlgebraMap) -> bool:
    """Check m(x*y) = m(x)*m(y) on all basis pairs (bilinearity does the rest)."""
    src, tgt = m.source, m.target
    images = m.matrix.columns
    for i in range(src.dim):
        for j in range(i + 1):
            lhs = m.apply(src.product_of_basis(i, j))
            rhs = multiply(tgt, images[i], images[j])
            if lhs != rhs:
                return False
    return True


def quotient(alg: AlgebraDef, ideal: Subspace):
    """Quotient algebra on cosets of non-pivot basis vectors, plus projection.
    The ideal must be proper: the zero algebra has no basis to hold."""
    if ideal.dim == alg.dim:
        raise AxialError("the ideal is the whole algebra, so the quotient is zero")
    if not is_ideal(alg, ideal):
        raise NotAnIdeal("subspace is not closed under multiplication by the algebra")
    keep = [k for k in range(alg.dim) if k not in ideal.rows]
    qdim = len(keep)
    field = alg.field
    index = {k: q for q, k in enumerate(keep)}  # v modulo the ideal is zero at its pivots

    def project(v: Vector) -> Vector:
        return Vector.sparse(field, qdim, {index[k]: c for k, c in ideal.reduce(v).terms.items()})

    qtable = {}
    for qi, ki in enumerate(keep):
        for qj, kj in enumerate(keep[: qi + 1]):
            vec = project(alg.product_of_basis(ki, kj))
            if not vec.is_zero():
                qtable[(qj, qi)] = vec
    qalg = AlgebraDef(field, tuple(alg.labels[k] for k in keep), qtable)
    proj_cols = [project(alg.basis_vector(k)) for k in range(alg.dim)]
    projection = AlgebraMap(alg, qalg, Matrix.from_columns(field, proj_cols, nrows=qdim))
    return qalg, projection


def extend_from_generators(alg: AlgebraDef, pairs, target: AlgebraDef):
    """Extend generator images to linear maps respecting all products.

    Each pair is (g, f_1(g), ..., f_m(g)).  Closes the graph {(w | f_1(w) |
    ... | f_m(w))} of the generators under products, taken in each summand of
    alg + target^m, keeping a word when its source part raises the rank.  A
    remainder whose source part vanishes means that the f_k holding its pivot
    disagrees on a dependent word; that row reduces only f_k's part and the
    later ones.  Once f_k has disagreed, nothing at f_k or later can outrank
    it, so the closure's products stop carrying those parts: their direct-sum
    rows are emptied.  Every pair of spanning words is checked, so each
    returned map is a homomorphism.  Returns f_1 for m = 1, else (f_1, ..., f_m).
    Raises DataInconsistency as extending f_1, ..., f_m in turn would (f_1's
    disagreement, the generators spanning a proper subspace, a later f_k's),
    its ``image`` k - 1 for the f_k at fault.
    """
    pairs = list(pairs)
    if not pairs:
        raise DimensionMismatch("at least one generator pair is required")
    n, t, field = alg.dim, target.dim, target.field
    if alg.field is not field:
        raise DescriptorMismatch("source and target algebras over different fields")
    offsets = [n + b * t for b in range(len(pairs[0]) - 1)]  # where each f_k's part starts
    graph = []
    for src, *imgs in pairs:
        if len(src) != n:
            raise DimensionMismatch("generator not in the source algebra")
        if list(map(len, imgs)) != [t] * len(offsets):
            raise DimensionMismatch("image not in the target algebra")
        graph.append(_terms(src, field, n) | {
            k + off: c for off, img in zip(offsets, imgs) for k, c in _terms(img, field, t).items()})
    rows = [*alg.rows, *({j + off: {k + off: c for k, c in terms.items()} for j, terms in row.items()}
                         for off in offsets for row in target.rows)]
    direct_sum = SimpleNamespace(field=field, rows=rows)  # all that product_sums reads
    echelon, failed = EchelonBasis(field, n + len(offsets) * t), {}
    for pivot, word in _span_closure(echelon, graph, partial(sparse_product, direct_sum), n):
        if pivot is not None and pivot >= n:  # the source part of the remainder vanished
            what = "generator" if word is None else f"word {word[0]}*{word[1]}"
            failed.setdefault(b := (pivot - n) // t, f"images disagree on dependent word ({what})")
            if b == 0:  # nothing outranks f_1's disagreement
                break
            for row in rows[offsets[b]:]:
                row.clear()
    if (rank := sum(pc < n for pc in echelon.rows)) < n:
        failed.setdefault(0, f"the generators span only dimension {rank} of {n}")
    if failed:
        exc = DataInconsistency(failed[min(failed)])
        exc.image = min(failed)
        raise exc
    maps = tuple(AlgebraMap(alg, target, Matrix.from_columns(field, [
        Vector.sparse(field, t, {j - off: a for j, a in echelon.rows[k].items() if off <= j < off + t}) for k in range(n)], t))
        for off in offsets)
    return maps[0] if len(maps) == 1 else maps
