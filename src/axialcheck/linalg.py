"""Exact linear algebra over any FieldDescriptor.

A Vector is its nonzero entries, {index: payload}, and a Matrix is its
column Vectors: every kernel works on these maps with the field's own
payload arithmetic, and FieldElements are made only where an entry is read
(``entries``, indexing, ``rows``).  Everything is immutable.  Reduced row
echelon form is the canonical normal form throughout: two subspaces are
equal iff their RREF bases agree entrywise.  Pivoting always takes the first
nonzero row, never by magnitude -- arithmetic is exact, and determinism
matters more.
"""

from __future__ import annotations

from .errors import AmbientMismatch, DescriptorMismatch, DimensionMismatch
from .fields import FieldElement, render

_set = object.__setattr__  # past the immutability guards, on new objects


def _fill(obj, *values):
    """Set the slots of the new immutable obj to values, in order."""
    for name, value in zip(obj.__slots__, values):
        _set(obj, name, value)


class Vector:
    """A vector of field^dim; ``terms`` maps the index of each nonzero entry
    to its payload and is never changed once the vector holds it."""

    __slots__ = ("field", "dim", "terms")

    def __new__(cls, field, entries):
        """The vector of the FieldElements entries."""
        entries = tuple(entries)
        if any(e.field is not field for e in entries):
            raise DescriptorMismatch("vector entries in mixed fields")
        terms = {j: e.payload for j, e in enumerate(entries) if not field.is_zero(e.payload)}
        return cls.sparse(field, len(entries), terms)

    def __setattr__(self, *_):
        raise AttributeError("Vector is immutable")

    @classmethod
    def sparse(cls, field, dim, terms):
        """The vector of field^dim whose nonzero entries are terms, {index:
        nonzero payload}, which it keeps.  Its slots are set one by one, as
        this is the constructor every kernel calls."""
        v = object.__new__(cls)
        _set(v, "field", field)
        _set(v, "dim", dim)
        _set(v, "terms", terms)
        return v

    @classmethod
    def zero(cls, field, n):
        return cls.sparse(field, n, {})

    @classmethod
    def unit(cls, field, n, i):
        return cls.sparse(field, n, {i: field.ONE})

    entries = property(tuple, doc="The entries, as FieldElements.")

    def __len__(self):
        return self.dim

    def __getitem__(self, i):
        return FieldElement(self.field, self.terms.get(range(self.dim)[i], self.field.ZERO))

    def __iter__(self):
        return map(self.__getitem__, range(self.dim))

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self._check(other)
        add, is_zero = self.field.add, self.field.is_zero
        terms = dict(self.terms)
        for j, b in other.terms.items():
            s = add(terms[j], b) if j in terms else b
            if is_zero(s):
                del terms[j]
            else:
                terms[j] = s
        return Vector.sparse(self.field, self.dim, terms)

    def __sub__(self, other):
        self._check(other)
        return self + -other

    def __neg__(self):
        neg = self.field.neg
        return Vector.sparse(self.field, self.dim, {j: neg(a) for j, a in self.terms.items()})

    def scale(self, s):
        field = self.field
        if s.field is not field:
            raise DescriptorMismatch(f"cannot mix {s.field!r} and {field!r}")
        if s.is_zero():
            return Vector.zero(field, self.dim)
        mul, c = field.mul, s.payload
        return Vector.sparse(field, self.dim, {j: mul(c, a) for j, a in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.field is other.field and self.dim == other.dim and self.terms == other.terms

    def _check(self, other):
        if not isinstance(other, Vector):
            raise DimensionMismatch("expected a Vector")
        if other.field is not self.field:
            raise DescriptorMismatch("vectors over different fields")
        if other.dim != self.dim:
            raise DimensionMismatch(f"vector lengths differ ({self.dim} vs {other.dim})")

    def __repr__(self):
        return "(" + ", ".join(map(render, self)) + ")"


class Matrix:
    """A matrix kept as ``columns``, a tuple of ncols Vectors of length nrows."""

    __slots__ = ("field", "nrows", "ncols", "columns")

    def __new__(cls, field, rows, ncols=None):
        """The matrix of the rows, each a sequence of ncols FieldElements."""
        rows = [tuple(r) for r in rows]
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged matrix")
        return cls.from_columns(field, [Vector(field, [r[j] for r in rows]) for j in range(ncols)], len(rows))

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_columns(cls, field, columns, nrows=None):
        columns = tuple(columns)
        if nrows is None:
            nrows = len(columns[0]) if columns else 0
        for c in columns:
            if c.field is not field:
                raise DescriptorMismatch("matrix entries in mixed fields")
            if c.dim != nrows:
                raise DimensionMismatch("ragged matrix")
        m = object.__new__(cls)
        _fill(m, field, nrows, len(columns), columns)
        return m

    @classmethod
    def identity(cls, field, n):
        return cls.from_columns(field, [Vector.unit(field, n, j) for j in range(n)], n)

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls.from_columns(field, [Vector.zero(field, nrows)] * ncols, nrows)

    @property
    def rows(self):
        return tuple(zip(*self.columns)) if self.ncols else ((),) * self.nrows

    def column(self, j):
        return self.columns[j]

    def apply(self, v: Vector) -> Vector:
        """self * v: the sum of the columns at the support of v, on payloads."""
        if len(v) != self.ncols:
            raise DimensionMismatch("matrix/vector size mismatch")
        field = self.field
        if v.field is not field:
            raise DescriptorMismatch(f"vector over another field than {field!r}")
        out, columns, mac = {}, self.columns, field.mac
        for j, b in v.terms.items():
            mac(out, b, columns[j].terms.items())
        return Vector.sparse(field, self.nrows, field.settle(out))

    def matmul(self, other: "Matrix") -> "Matrix":
        """self * other, one apply per column of other."""
        if self.ncols != other.nrows:
            raise DimensionMismatch("matrix product size mismatch")
        if other.field is not self.field:
            raise DescriptorMismatch(f"matrix over another field than {self.field!r}")
        return Matrix.from_columns(self.field, map(self.apply, other.columns), self.nrows)

    def sub_scalar_diag(self, s) -> "Matrix":
        """self - s*I, used to form eigenoperator matrices."""
        if self.nrows != self.ncols:
            raise DimensionMismatch("square matrix required")
        n = self.nrows
        return Matrix.from_columns(
            self.field, [c - Vector.unit(self.field, n, j).scale(s) for j, c in enumerate(self.columns)], n)

    def augment(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise DimensionMismatch("augment needs equal row counts")
        return Matrix.from_columns(self.field, self.columns + other.columns, self.nrows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field is other.field and self.nrows == other.nrows and self.columns == other.columns

    def __repr__(self):
        return "Matrix[" + "; ".join(repr(Vector(self.field, r)) for r in self.rows) + "]"


def rref(m: Matrix):
    """Reduced row echelon form: returns (rref matrix, rank, pivot columns)."""
    field = m.field
    echelon = EchelonBasis(field, m.ncols)
    for row in _transpose((c.terms.items() for c in m.columns), m.nrows):
        echelon._insert(row)
    pivots = tuple(sorted(echelon.rows))
    columns = _transpose((echelon.rows[pc] for pc in pivots), m.ncols)
    reduced = Matrix.from_columns(field, [Vector.sparse(field, m.nrows, c) for c in columns], m.nrows)
    return reduced, len(pivots), pivots


def _transpose(vectors, n):
    """The n {index: payload} maps of the transpose of vectors, each given by
    its (index, payload) pairs."""
    out = [{} for _ in range(n)]
    for i, terms in enumerate(vectors):
        for j, a in terms:
            out[j][i] = a
    return out


def kernel(m: Matrix) -> "Subspace":
    """Subspace of all v with m v = 0."""
    reduced, rank, pivots = rref(m)
    field, neg = m.field, m.field.neg
    basis = []
    for f in range(m.ncols):
        if f not in pivots:
            terms = {pivots[i]: neg(a) for i, a in reduced.columns[f].terms.items()}
            terms[f] = field.ONE
            basis.append(Vector.sparse(field, m.ncols, terms))
    return Subspace.from_vectors(field, m.ncols, basis)


def solve_in_span(target: Vector, spanners):
    """Coefficients c with sum(c_i * spanners_i) = target, or None.

    Free variables are zero; the answer is the deterministic RREF
    back-substitution solution.
    """
    spanners = list(spanners)
    for s in spanners:
        target._check(s)
    k = len(spanners)
    reduced, rank, pivots = rref(Matrix.from_columns(target.field, spanners + [target], len(target)))
    if k in pivots:
        return None
    solution = dict(zip(pivots, reduced.columns[k]))  # column k of the rref, read at the pivots
    return [solution.get(c, target.field.zero()) for c in range(k)]


class Subspace:
    """A subspace kept as the nonzero rows of an RREF matrix (canonical): as
    sparse payload rows (see EchelonBasis) for reducing, and as Vectors in
    ``basis``."""

    __slots__ = ("field", "ambient", "rows", "basis", "pivots")

    def __init__(self, field, ambient, rows):
        rows = tuple(rows)
        basis = tuple(Vector.sparse(field, ambient, dict(r)) for r in rows)
        _fill(self, field, ambient, rows, basis, tuple(r[0][0] for r in rows))

    def __setattr__(self, *_):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, field, ambient, vectors) -> "Subspace":
        echelon = EchelonBasis(field, ambient)
        for v in vectors:
            echelon.add(v)
        return echelon.subspace()

    @property
    def dim(self):
        return len(self.rows)

    def _check(self, other):
        if not isinstance(other, Subspace):
            raise AmbientMismatch("expected a Subspace")
        if other.ambient != self.ambient or other.field is not self.field:
            raise AmbientMismatch("subspaces in different ambient spaces")

    def reduce(self, v: Vector) -> Vector:
        """Remainder of v modulo this subspace (pivot coordinates cleared)."""
        entries = dict(_terms(v, self.field, self.ambient))
        _reduce(self.field, entries, zip(self.pivots, self.rows))
        return Vector.sparse(self.field, self.ambient, entries)

    def contains(self, v: Vector) -> bool:
        return self.reduce(v).is_zero()

    def intersection(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: the span of (u | u) and (w | 0) meets the vectors that
        vanish on the first half exactly in (0 | U and W)."""
        self._check(other)
        n = self.ambient
        sums = EchelonBasis(self.field, 2 * n)
        for u in self.rows:
            sums._insert(dict(u + tuple((j + n, a) for j, a in u)))
        for w in other.rows:
            sums._insert(dict(w))
        return sums.subspace(n)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field is other.field
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"


def _terms(v: Vector, field, ambient):
    """The terms of v, once v is checked to be a vector of field^ambient."""
    if len(v) != ambient:
        raise AmbientMismatch("vector length differs from ambient dimension")
    if v.field is not field:
        raise DescriptorMismatch("vectors over different fields")
    return v.terms


def _add_multiple(field, entries, c, terms):
    """entries += c * terms, where entries maps columns to nonzero payloads and
    terms are (column, payload) pairs; entries stays free of zeros."""
    add, mul, is_zero = field.add, field.mul, field.is_zero
    for j, b in terms:
        t = mul(c, b)
        if j in entries:
            s = add(entries[j], t)
            if is_zero(s):
                del entries[j]
            else:
                entries[j] = s
        else:
            entries[j] = t


def _reduce(field, entries, rows):
    """Clear entries at the pivot of each (pivot, row) of echelon rows by
    subtracting c * row, c being the entry there.  The rows are zero at each
    other's pivots, so no subtraction refills a cleared pivot."""
    for pc, row in rows:
        c = entries.pop(pc, None)
        if c is not None:
            _add_multiple(field, entries, field.neg(c), row[1:])


class EchelonBasis:
    """A subspace grown one vector at a time, kept in reduced row echelon
    form.  Each row is a tuple of its nonzero (column, payload) pairs in
    column order, led by a 1 at its pivot column, where every other row is
    zero, so reducing a vector is one pass over the rows; the arithmetic is
    the field's own on payloads."""

    __slots__ = ("field", "ambient", "rows")

    def __init__(self, field, ambient):
        self.field, self.ambient = field, ambient
        self.rows = {}  # pivot column -> row

    def add(self, v: Vector):
        """Reduce v against the rows and keep its remainder, if nonzero, as a
        new row.  Returns the new row's pivot column (the remainder's first
        nonzero column), or None exactly when v was in the span."""
        return self._insert(dict(_terms(v, self.field, self.ambient)))

    def _insert(self, entries):
        """add() for a vector given as {column: nonzero payload}, which it
        consumes."""
        field, rows = self.field, self.rows
        _reduce(field, entries, rows.items())
        if not entries:
            return None
        pivot = min(entries)
        lead = entries[pivot]
        if lead != field.ONE:  # a fast path: the new row does not depend on the answer
            inv, mul = field.inv(lead), field.mul
            entries = {j: mul(inv, a) for j, a in entries.items()}
        new = tuple(sorted(entries.items()))
        for pc, row in rows.items():
            c = next((a for j, a in row if j == pivot), None)
            if c is not None:
                reduced = dict(row)
                del reduced[pivot]
                _add_multiple(field, reduced, field.neg(c), new[1:])
                rows[pc] = tuple(sorted(reduced.items()))
        rows[pivot] = new
        return pivot

    def subspace(self, n=0) -> "Subspace":
        """The span's vectors that vanish on the first n coordinates, as a
        subspace of the others: in echelon form, the rows with pivots >= n."""
        rows = [self.rows[pc] for pc in sorted(self.rows) if pc >= n]
        if n:
            rows = [tuple((j - n, a) for j, a in row) for row in rows]
        return Subspace(self.field, self.ambient - n, rows)


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix via RREF on [m | I]; m is singular exactly
    when a pivot falls in the identity half ([m | I] always has rank n)."""
    if m.nrows != m.ncols:
        raise DimensionMismatch("only square matrices invert")
    n = m.nrows
    reduced, _, pivots = rref(m.augment(Matrix.identity(m.field, n)))
    if pivots != tuple(range(n)):
        raise DimensionMismatch("matrix is singular")
    return Matrix.from_columns(m.field, reduced.columns[n:], n)
