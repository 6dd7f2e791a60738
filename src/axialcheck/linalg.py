"""Exact linear algebra over any FieldDescriptor.

Everything is immutable.  Reduced row echelon form is the canonical
normal form throughout: two subspaces are equal iff their RREF bases
agree entrywise.  Pivoting always takes the first nonzero row, never by
magnitude -- arithmetic is exact, and determinism matters more.
"""

from __future__ import annotations

from .errors import AmbientMismatch, DescriptorMismatch, DimensionMismatch
from .fields import FieldElement, render


class Vector:
    __slots__ = ("field", "entries")

    def __init__(self, field, entries):
        entries = tuple(entries)
        for e in entries:
            if e.field is not field:
                raise DescriptorMismatch("vector entries in mixed fields")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *_):
        raise AttributeError("Vector is immutable")

    @classmethod
    def zero(cls, field, n):
        z = field.zero()
        return cls(field, (z,) * n)

    @classmethod
    def unit(cls, field, n, i):
        z, o = field.zero(), field.one()
        return cls(field, tuple(o if j == i else z for j in range(n)))

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def is_zero(self):
        return all(e.is_zero() for e in self.entries)

    def __add__(self, other):
        self._check(other)
        return Vector(self.field, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        self._check(other)
        return Vector(self.field, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self):
        return Vector(self.field, tuple(-a for a in self.entries))

    def scale(self, s):
        return Vector(self.field, tuple(s * a for a in self.entries))

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return self.field is other.field and self.entries == other.entries

    def __hash__(self):
        return hash((self.field, self.entries))

    def _check(self, other):
        if not isinstance(other, Vector):
            raise DimensionMismatch("expected a Vector")
        if other.field is not self.field:
            raise DescriptorMismatch("vectors over different fields")
        if len(other.entries) != len(self.entries):
            raise DimensionMismatch(
                f"vector lengths differ ({len(self.entries)} vs {len(other.entries)})"
            )

    def __repr__(self):
        return "(" + ", ".join(render(e) for e in self.entries) + ")"


class Matrix:
    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows, ncols=None):
        rows = tuple(tuple(r) for r in rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged matrix")
            for e in r:
                if e.field is not field:
                    raise DescriptorMismatch("matrix entries in mixed fields")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, field, nrows, ncols):
        z = field.zero()
        return cls(field, ((z,) * ncols,) * nrows, ncols)

    @classmethod
    def from_columns(cls, field, columns, nrows=None):
        columns = list(columns)
        if not columns:
            return cls.zero(field, nrows or 0, 0)
        n = len(columns[0])
        return cls(field, tuple(tuple(col[i] for col in columns) for i in range(n)), len(columns))

    def column(self, j):
        return Vector(self.field, tuple(r[j] for r in self.rows))

    def apply(self, v: Vector) -> Vector:
        """self * v, summed over the nonzero entries of v on payloads."""
        if len(v) != self.ncols:
            raise DimensionMismatch("matrix/vector size mismatch")
        field = self.field
        if v.field is not field:
            raise DescriptorMismatch(f"vector over another field than {field!r}")
        add, mul, is_zero = field.add, field.mul, field.is_zero
        support = [(j, e.payload) for j, e in enumerate(v.entries) if not is_zero(e.payload)]
        zero = field.zero()
        out = []
        for r in self.rows:
            acc = None
            for j, b in support:
                a = r[j].payload
                if not is_zero(a):
                    t = mul(a, b)
                    acc = t if acc is None else add(acc, t)
            out.append(zero if acc is None else FieldElement(field, acc))
        return Vector(field, out)

    def matmul(self, other: "Matrix") -> "Matrix":
        """self * other, one apply per column of other."""
        if self.ncols != other.nrows:
            raise DimensionMismatch("matrix product size mismatch")
        if other.field is not self.field:
            raise DescriptorMismatch(f"matrix over another field than {self.field!r}")
        columns = [self.apply(other.column(j)) for j in range(other.ncols)]
        return Matrix.from_columns(self.field, columns, nrows=self.nrows)

    def sub_scalar_diag(self, s) -> "Matrix":
        """self - s*I, used to form eigenoperator matrices."""
        if self.nrows != self.ncols:
            raise DimensionMismatch("square matrix required")
        rows = [list(r) for r in self.rows]
        for i in range(self.nrows):
            rows[i][i] = rows[i][i] - s
        return Matrix(self.field, rows)

    def augment(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise DimensionMismatch("augment needs equal row counts")
        return Matrix(self.field, [a + b for a, b in zip(self.rows, other.rows)], self.ncols + other.ncols)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field is other.field and self.ncols == other.ncols and self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        return "Matrix[" + "; ".join(repr(Vector(self.field, r)) for r in self.rows) + "]"


def rref(m: Matrix):
    """Reduced row echelon form: returns (rref matrix, rank, pivot columns)."""
    echelon = EchelonBasis(m.field, m.ncols)
    is_zero = m.field.is_zero
    for r in m.rows:
        echelon._insert({j: e.payload for j, e in enumerate(r) if not is_zero(e.payload)})
    pivots = sorted(echelon.rows)
    zero_row = (m.field.zero(),) * m.ncols
    rows = [_dense(m.field, m.ncols, echelon.rows[pc]) for pc in pivots]
    return Matrix(m.field, rows + [zero_row] * (m.nrows - len(pivots)), m.ncols), len(pivots), tuple(pivots)


def kernel(m: Matrix) -> "Subspace":
    """Subspace of all v with m v = 0."""
    reduced, rank, pivots = rref(m)
    free = [c for c in range(m.ncols) if c not in pivots]
    z, o = m.field.zero(), m.field.one()
    basis = []
    for f in free:
        v = [z] * m.ncols
        v[f] = o
        for row_idx, pc in enumerate(pivots):
            v[pc] = -reduced.rows[row_idx][f]
        basis.append(Vector(m.field, v))
    return Subspace.from_vectors(m.field, m.ncols, basis)


def solve_in_span(target: Vector, spanners):
    """Coefficients c with sum(c_i * spanners_i) = target, or None.

    Free variables are zero; the answer is the deterministic RREF
    back-substitution solution.
    """
    spanners = list(spanners)
    field = target.field
    n = len(target)
    for s in spanners:
        target._check(s)
    k = len(spanners)
    rows = [[s[i] for s in spanners] + [target[i]] for i in range(n)]
    reduced, rank, pivots = rref(Matrix(field, rows))
    if k in pivots:
        return None
    coeffs = [field.zero()] * k
    for row_idx, pc in enumerate(pivots):
        coeffs[pc] = reduced.rows[row_idx][k]
    return coeffs


class Subspace:
    """A subspace kept as the nonzero rows of an RREF matrix (canonical): as
    sparse payload rows (see EchelonBasis) for reducing, and as Vectors in
    ``basis``."""

    __slots__ = ("field", "ambient", "rows", "basis", "pivots")

    def __init__(self, field, ambient, rows):
        rows = tuple(rows)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "basis", tuple(Vector(field, _dense(field, ambient, r)) for r in rows))
        object.__setattr__(self, "pivots", tuple(r[0][0] for r in rows))

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
        entries = _sparse(v, self.field, self.ambient)
        _reduce(self.field, entries, zip(self.pivots, self.rows))
        return Vector(self.field, _dense(self.field, self.ambient, sorted(entries.items())))

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

    def __hash__(self):
        return hash((self.field, self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"


def _sparse(v: Vector, field, ambient):
    """{column: payload} over the nonzero entries of v, a vector of the space."""
    if len(v) != ambient:
        raise AmbientMismatch("vector length differs from ambient dimension")
    if v.field is not field:
        raise DescriptorMismatch("vectors over different fields")
    is_zero = field.is_zero
    return {j: e.payload for j, e in enumerate(v.entries) if not is_zero(e.payload)}


def _dense(field, n, terms):
    """The n entries, as FieldElements, of the sparse (column, payload) terms."""
    entries = [field.zero()] * n
    for j, a in terms:
        entries[j] = FieldElement(field, a)
    return entries


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
        return self._insert(_sparse(v, self.field, self.ambient))

    def _insert(self, entries):
        """add() for a vector given as {column: nonzero payload}, which it
        consumes."""
        field, rows = self.field, self.rows
        _reduce(field, entries, rows.items())
        if not entries:
            return None
        pivot = min(entries)
        lead = entries[pivot]
        if lead != field.ONE:
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

    def vector(self, pc, n=0) -> Vector:
        """The row with pivot pc, less its first n coordinates."""
        terms = ((j - n, a) for j, a in self.rows[pc] if j >= n)
        return Vector(self.field, _dense(self.field, self.ambient - n, terms))

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
    return Matrix(m.field, tuple(r[n:] for r in reduced.rows), n)
