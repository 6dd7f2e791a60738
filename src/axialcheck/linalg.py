"""Exact linear algebra over any FieldDescriptor.

A Vector is its nonzero entries, {index: payload}, and a Matrix is its
column Vectors: every kernel works on these maps with the field's own
payload arithmetic, and FieldElements are made only where an entry is read
(``entries``, indexing, ``rows``).  Vector, Matrix and Subspace subclass
fields._Frozen, whose one guard keeps them unchanged once their constructors
have stored their slots through _set and _fill; EchelonBasis, a builder, is
the one mutable class.  Reduced row echelon form is the canonical normal
form throughout: two subspaces are equal iff their RREF bases agree
entrywise.  Pivoting always takes the first nonzero row, never by magnitude
-- arithmetic is exact, and determinism matters more.  rref, kernel and
invert eliminate a matrix's rows into one EchelonBasis (_echelon); kernel
and invert read their answers off its {pivot: row} map, and only rref makes
a Matrix of it.
"""

from __future__ import annotations

from .errors import AmbientMismatch, DescriptorMismatch, DimensionMismatch
from .fields import FieldElement, _fill, _Frozen, _set, render


class Vector(_Frozen):
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

    def _plus(self, c, other):
        """self + c*other for a payload c, by one mac and one settle."""
        self._check(other)
        field, out = self.field, dict(self.terms)
        field.mac(out, c, other.terms.items())
        return Vector.sparse(field, self.dim, field.settle(out))

    def __add__(self, other):
        return self._plus(self.field.ONE, other)

    def __sub__(self, other):
        return self._plus(self.field.neg(self.field.ONE), other)

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
        return self.field is other.field and self.dim == other.dim and not (self - other).terms

    def _check(self, other):
        if not isinstance(other, Vector):
            raise DimensionMismatch("expected a Vector")
        if other.field is not self.field:
            raise DescriptorMismatch("vectors over different fields")
        if other.dim != self.dim:
            raise DimensionMismatch(f"vector lengths differ ({self.dim} vs {other.dim})")

    def __repr__(self):
        return "(" + ", ".join(map(render, self)) + ")"


class Matrix(_Frozen):
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
        """self - s*I, used to form eigenoperator matrices: one mac of -s per
        column, at its diagonal entry."""
        field, n = self.field, self.nrows
        if n != self.ncols:
            raise DimensionMismatch("square matrix required")
        if s.field is not field:
            raise DescriptorMismatch("scalar over another field")
        return Matrix.from_columns(field, [
            Vector.sparse(field, n, _less_unit(field, c.terms, j, s.payload)) for j, c in enumerate(self.columns)], n)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field is other.field and self.nrows == other.nrows and self.columns == other.columns

    def __repr__(self):
        return "Matrix[" + "; ".join(repr(Vector(self.field, r)) for r in self.rows) + "]"


def rref(m: Matrix):
    """Reduced row echelon form: returns (rref matrix, rank, pivot columns)."""
    field = m.field
    space = _echelon(m).subspace()
    pivots = tuple(space.rows)
    columns = _transpose((v.terms for v in space.basis), m.ncols)
    reduced = Matrix.from_columns(field, [Vector.sparse(field, m.nrows, c) for c in columns], m.nrows)
    return reduced, len(pivots), pivots


def _transpose(vectors, n):
    """The n {index: payload} maps of the transpose of vectors, each given as
    such a map."""
    out = [{} for _ in range(n)]
    for i, terms in enumerate(vectors):
        for j, a in terms.items():
            out[j][i] = a
    return out


def _echelon(m, extra=()):
    """The rows of m, each followed by its entries in the column maps extra,
    eliminated in order into one EchelonBasis."""
    columns = [*(c.terms for c in m.columns), *extra]
    echelon = EchelonBasis(m.field, len(columns))
    for row in _transpose(columns, m.nrows):
        echelon._insert(row)
    return echelon


def _less_unit(field, terms, j, c):
    """terms, {index: payload}, less c times the unit vector e_j, by one mac
    and one settle."""
    out = dict(terms)
    field.mac(out, field.neg(c), ((j, field.ONE),))
    return field.settle(out)


def kernel(m: Matrix) -> "Subspace":
    """Subspace of all v with m v = 0: for each free column f, the vector with
    a 1 at f and minus column f of the echelon rows at their pivots.  A row is
    zero at every pivot, its own implied, so its entries are at free columns."""
    field, neg, rows = m.field, m.field.neg, _echelon(m).rows
    nulls = {f: {} for f in range(m.ncols) if f not in rows}
    for pc, row in sorted(rows.items()):
        for f, a in row.items():
            nulls[f][pc] = neg(a)
    null_space = EchelonBasis(field, m.ncols)
    for f, terms in nulls.items():
        terms[f] = field.ONE
        null_space._insert(terms)
    return null_space.subspace()


def solve_in_span(target: Vector, spanners):
    """Coefficients c with sum(c_i * spanners_i) = target, or None.

    Free variables are zero; the answer is the deterministic RREF
    back-substitution solution, read off the echelon rows of [spanners |
    target]: target is in the span exactly when column k is no pivot, and
    c_i is then the entry in column k of the row at pivot i.
    """
    spanners = list(spanners)
    for s in spanners:
        target._check(s)
    field, k = target.field, len(spanners)
    rows = _echelon(Matrix.from_columns(field, spanners + [target], len(target))).rows
    if k in rows:
        return None
    return [FieldElement(field, rows.get(c, {}).get(k, field.ZERO)) for c in range(k)]


class Subspace(_Frozen):
    """A subspace kept as the nonzero rows of an RREF matrix (canonical):
    ``rows`` maps each pivot, in increasing order, to its row's entries after
    the pivot (see EchelonBasis), for reducing, and ``basis`` holds the rows
    as Vectors."""

    __slots__ = ("field", "ambient", "rows", "basis")

    def __init__(self, field, ambient, rows):
        basis = tuple(Vector.sparse(field, ambient, _full_row(field, pc, row)) for pc, row in rows.items())
        _fill(self, field, ambient, rows, basis)

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
        entries = _reduce(self.field, _terms(v, self.field, self.ambient), self.rows)
        return Vector.sparse(self.field, self.ambient, entries)

    def contains(self, v: Vector) -> bool:
        return self.reduce(v).is_zero()

    def intersection(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: the span of (u | u) and (w | 0) meets the vectors that
        vanish on the first half exactly in (0 | U and W)."""
        self._check(other)
        field, n = self.field, self.ambient
        sums = EchelonBasis(field, 2 * n)
        for pc, row in self.rows.items():
            u = _full_row(field, pc, row)
            sums._insert(u | {j + n: a for j, a in u.items()})
        for pc, row in other.rows.items():
            sums._insert(_full_row(field, pc, row))
        return sums.subspace(n)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"


def _terms(v: Vector, field, ambient):
    """The terms of v, once v is checked to be a vector of field^ambient."""
    if len(v) != ambient:
        raise AmbientMismatch("vector length differs from ambient dimension")
    if v.field is not field:
        raise DescriptorMismatch("vectors over different fields")
    return v.terms


def _full_row(field, pivot, row):
    """The entries of the echelon row at pivot, its leading 1 included."""
    return {pivot: field.ONE} | row


def _reduce(field, entries, rows):
    """The remainder of entries, {column: nonzero payload}, against echelon
    rows, {pivot: {column: payload}} with each row's leading 1 implied:
    entries less c * row for each entry c at a pivot, which is deleted, by
    mac and one settle, walking the shorter of the two.  The rows are zero at
    each other's pivots, so no subtraction changes a c.  Returns entries
    itself when no row applies."""
    if len(entries) < len(rows):
        hits = [(pc, c, row) for pc, c in entries.items() if (row := rows.get(pc)) is not None]
    else:
        hits = [(pc, c, row) for pc, row in rows.items() if (c := entries.get(pc)) is not None]
    if not hits:
        return entries
    out, neg, mac = dict(entries), field.neg, field.mac
    for pc, c, row in hits:
        del out[pc]
        mac(out, neg(c), row.items())
    return field.settle(out)


class EchelonBasis:
    """A subspace grown one vector at a time, kept in reduced row echelon
    form.  ``rows`` maps each pivot column to the map {column: nonzero
    payload} of its row's entries after the pivot; the row's 1 at the pivot
    is implied, and every other row is zero there, so a vector reduces in one
    sum (see _reduce).  The arithmetic is the field's own on payloads."""

    __slots__ = ("field", "ambient", "rows")

    def __init__(self, field, ambient):
        self.field, self.ambient = field, ambient
        self.rows = {}  # pivot column -> the row's entries after it

    def add(self, v: Vector):
        """Reduce v against the rows and keep its remainder, if nonzero, as a
        new row.  Returns the new row's pivot column (the remainder's first
        nonzero column), or None exactly when v was in the span."""
        return self._insert(_terms(v, self.field, self.ambient))

    def _insert(self, entries):
        """add() for a vector given as {column: nonzero payload}, which it
        leaves as it is.  The rows holding the new pivot are reduced against
        the new row."""
        field, rows = self.field, self.rows
        entries = _reduce(field, entries, rows)
        if not entries:
            return None
        pivot = min(entries)
        new = dict(entries)
        lead = new.pop(pivot)
        if lead != field.ONE:  # a fast path: the new row does not depend on the answer
            inv, mul = field.inv(lead), field.mul
            new = {j: mul(inv, a) for j, a in new.items()}
        for pc, row in rows.items():
            if pivot in row:
                rows[pc] = _reduce(field, row, {pivot: new})
        rows[pivot] = new
        return pivot

    def subspace(self, n=0) -> "Subspace":
        """The span's vectors that vanish on the first n coordinates, as a
        subspace of the others: in echelon form, the rows with pivots >= n."""
        rows = {pc - n: {j - n: a for j, a in row.items()} if n else row
                for pc, row in sorted(self.rows.items()) if pc >= n}
        return Subspace(self.field, self.ambient - n, rows)


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix via RREF on [m | I]; m is singular exactly
    when a pivot falls in the identity half ([m | I] always has rank n)."""
    if m.nrows != m.ncols:
        raise DimensionMismatch("only square matrices invert")
    field, n = m.field, m.nrows
    rows = _echelon(m, [{i: field.ONE} for i in range(n)]).rows
    if any(pc >= n for pc in rows):
        raise DimensionMismatch("matrix is singular")
    columns = _transpose(map(rows.get, range(n)), 2 * n)[n:]  # the I half, row i at pivot i
    return Matrix.from_columns(field, [Vector.sparse(field, n, c) for c in columns], n)
