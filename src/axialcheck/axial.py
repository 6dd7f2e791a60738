"""Axis decompositions, fusion checking and Miyamoto involutions: the steps
that every axial algebra takes, dihedral or not.

The two middle eigenvalues coincide here, so the split of the eta-eigenspace
into its plus and minus parts is always recovered from a supplied involution,
never guessed from eigenvalues alone.

The dihedral layer (DihedralData, the dihedral checks, relation
classification and the identity suite) is the module dihedral, compiled the
first time a run loads dihedral data.  check_dihedral, axial_dimension and
identity_suite stay here as its entry points, the names that the benchmark's
tracer binds in this module.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property

from .algebra import AlgebraDef, AlgebraMap, adjoint_matrix, multiply, product_sums
from .errors import (
    DataInconsistency,
    InvolutionMismatch,
    MiyamotoNotAutomorphism,
    NotIdempotent,
    NotSemisimple,
)
from .fields import _Frozen
from .linalg import Matrix, Subspace, Vector, _less_unit, invert, kernel

# Allowed decomposition parts for the product of two parts.  The (0,1) entry
# is the intersection of the two overlapping rules and is empty: those
# products are forced to vanish by the eigenvalue axiom anyway.
_ALLOWED = {
    (0, 0): (0,),
    (0, 1): (),
    (0, 2): (2,),
    (0, 3): (3,),
    (1, 1): (1,),
    (1, 2): (2,),
    (1, 3): (3,),
    (2, 2): (0, 1),
    (2, 3): (3,),
    (3, 3): (0, 1, 2),
}


def allowed(i, j):
    """The parts that the product of parts i and j may meet."""
    return _ALLOWED[(i, j) if i <= j else (j, i)]


def check_eta(eta):
    """The eigenvalues 0, 1 and eta must be distinct."""
    if eta.is_zero() or eta.is_one():
        raise DataInconsistency("eta must avoid 0 and 1")


class AxisDecomposition(_Frozen):
    """A verified splitting M = M0 + M1 + M2 + M3 for one axis; parts holds
    the four Subspaces.  Its coordinates (B^-1) and its product_pattern, the
    one pass over the eigenbasis products that fusion and the Miyamoto map
    read, are derived once.  It keeps an instance __dict__ for these cached
    properties, which write that __dict__ directly, past _Frozen's guard."""

    def __init__(self, algebra: AlgebraDef, axis: Vector, parts):
        vars(self).update(algebra=algebra, axis=axis, parts=parts)

    def dims(self):
        return tuple(p.dim for p in self.parts)

    def eigenbasis(self):
        """The part bases in part order, as (part index, vector) pairs."""
        return [(i, v) for i, p in enumerate(self.parts) for v in p.basis]

    @cached_property
    def coordinates(self) -> Matrix:
        """B^-1, where the columns of B are the eigenbasis: it takes a vector
        to its eigen-coordinates."""
        columns = [v for _, v in self.eigenbasis()]
        return invert(Matrix.from_columns(self.algebra.field, columns, nrows=self.algebra.dim))

    @cached_property
    def product_pattern(self):
        """(escapes, graded) from one pass over the eigenbasis products b_p*b_q,
        p <= q, read in eigen-coordinates: escapes maps (p, q) to b_p*b_q if it
        leaves the parts the fusion rule allows; graded is whether every
        component has the sign s_p*s_q (part 3 odd, the others even).  Every
        allowed set has that sign, so only an escaping product can break the
        grading.  Each pair's product_sums are read, still raw, in the rows of
        B^-1 (given by its columns) of the parts that its rule forbids, up to
        one settle of those coordinates; only a pair that escapes is settled
        and read in every row, for its witness and its signs."""
        alg, field = self.algebra, self.algebra.field
        mac, settle = field.mac, field.settle
        basis = self.eigenbasis()
        parts, words = [i for i, _ in basis], [v.terms for _, v in basis]
        columns = [c.terms for c in self.coordinates.columns]

        @cache
        def forbidden(i, j):
            return [[(r, t) for r, t in col.items() if parts[r] not in allowed(i, j)] for col in columns]

        escapes, graded = {}, True
        for q, j in enumerate(parts):
            for p, i in enumerate(parts[: q + 1]):
                sums, read, coords = product_sums(alg, words[p], words[q]), forbidden(i, j), {}
                for k, c in sums.items():
                    if forbid := read[k]:
                        mac(coords, c, forbid)
                if not (coords and settle(coords)):
                    continue
                prod, coords = settle(sums), {}
                for k, c in prod.items():
                    mac(coords, c, columns[k].items())
                escapes[(p, q)] = Vector.sparse(field, alg.dim, prod)
                odd = (i == 3) != (j == 3)
                graded = graded and all((parts[r] == 3) == odd for r in settle(coords))
        return escapes, graded


def _squares_to_identity(*factors):
    """Whether the product of the square matrices factors is an involution:
    each unit vector e_j goes through the factors twice, starting as the last
    factor's column j, and is back at e_j when the difference settles to zero."""
    field = factors[0].field
    for j, x in enumerate(factors[-1].columns):
        for m in (factors * 2)[-2::-1]:
            x = m.apply(x)
        if _less_unit(field, x.terms, j, field.ONE):
            return False
    return True


def split_eigenspace(alg: AlgebraDef, a: Vector, eta, tau: AlgebraMap) -> AxisDecomposition:
    """Split M along ad(a) eigenvalues 0, 1, eta, with the eta part K divided
    by the supplied involution into its fixed (M2) and negated (M3) pieces.

    The caller vouches that tau is an automorphism; tau^2 = id and tau(a) = a
    are checked here, so tau maps K into K and, as no field has characteristic
    2, K = (1 + tau)K + (1 - tau)K = M2 + M3: ad(a) - eta is eliminated once.
    The parts are independent (eta is not 0 or 1, and a*a = a), so they
    decompose M exactly when their dimensions add up to dim M.
    """
    check_eta(eta)
    if multiply(alg, a, a) != a:
        raise NotIdempotent("axis candidate fails a*a = a")
    if tau.apply(a) != a:
        raise InvolutionMismatch("flip does not fix the axis")
    if not _squares_to_identity(tau.matrix):
        raise InvolutionMismatch("flip squared is not the identity")
    ad = adjoint_matrix(alg, a)
    m0 = kernel(ad)
    m1 = Subspace.from_vectors(alg.field, alg.dim, [a])
    pairs = [(v, tau.apply(v)) for v in kernel(ad.sub_scalar_diag(eta)).basis]
    m2 = Subspace.from_vectors(alg.field, alg.dim, [v + w for v, w in pairs])
    m3 = Subspace.from_vectors(alg.field, alg.dim, [v - w for v, w in pairs])
    if m0.dim + m1.dim + m2.dim + m3.dim != alg.dim:
        raise NotSemisimple(
            f"parts of dimensions {(m0.dim, m1.dim, m2.dim, m3.dim)} "
            f"do not decompose the {alg.dim}-dimensional algebra"
        )
    return AxisDecomposition(alg, a, (m0, m1, m2, m3))


FusionViolation = namedtuple("FusionViolation", "part_i part_j left right product allowed")


def check_fusion(alg: AlgebraDef, dec: AxisDecomposition):
    """All products of part basis vectors must land in the allowed parts.

    Read off the decomposition's product pass.  Returns one violation per
    ordered pair (x in part i, y in part j), i <= j, whose product escapes,
    ordered by (i, j, x, y); empty means the fusion rule holds.
    """
    basis = dec.eigenbasis()
    ordered = sorted(  # b_p*b_q for p <= q, and b_q*b_p too when b_p and b_q share a part
        (basis[a][0], basis[b][0], a, b, prod) for (p, q), prod in dec.product_pattern[0].items()
        for a, b in ({(p, q), (q, p)} if basis[p][0] == basis[q][0] else [(p, q)]))
    return [
        FusionViolation(i, j, basis[p][1], basis[q][1], prod, allowed(i, j))
        for i, j, p, q, prod in ordered
    ]


def miyamoto(alg: AlgebraDef, dec: AxisDecomposition) -> AlgebraMap:
    """The map fixing M0+M1+M2 and negating M3; must be an automorphism.
    It scales b_p*b_q by s_p*s_q and each component by its own sign, so it is
    multiplicative exactly when the product pass found every product graded."""
    if not dec.product_pattern[1]:
        raise MiyamotoNotAutomorphism(
            "sign map of the decomposition is not multiplicative"
        )
    signed = [-v if i == 3 else v for i, v in dec.eigenbasis()]
    signed = Matrix.from_columns(alg.field, signed, nrows=alg.dim)
    return AlgebraMap(alg, alg, signed.matmul(dec.coordinates))


# one row of a report; status is "pass" | "fail" | "skipped"
CheckResult = namedtuple("CheckResult", "name status detail", defaults=("",))


def check_dihedral(alg, dd):
    """dihedral.check_dihedral, compiled on first use."""
    from . import dihedral

    return dihedral.check_dihedral(alg, dd)


def axial_dimension(alg, dd):
    """dihedral.axial_dimension, compiled on first use."""
    from . import dihedral

    return dihedral.axial_dimension(alg, dd)


def identity_suite(alg, dd):
    """dihedral.identity_suite, compiled on first use."""
    from . import dihedral

    return dihedral.identity_suite(alg, dd)
