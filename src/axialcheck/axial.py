"""Axis decompositions, fusion checking, Miyamoto involutions, dihedral
conditions, axial dimension, and the scalar-identity suite.

The two middle eigenvalues coincide here, so the split of the eta-eigenspace
into its plus and minus parts is always recovered from a supplied involution,
never guessed from eigenvalues alone.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property

from .algebra import (
    AlgebraDef,
    AlgebraMap,
    adjoint_matrix,
    generated_subalgebra,
    induce_on_quotient,
    multiply,
    sparse_product,
)
from .errors import (
    AxialError,
    DataInconsistency,
    DimensionMismatch,
    InvolutionMismatch,
    MiyamotoNotAutomorphism,
    NotIdempotent,
    NotSemisimple,
)
from .fields import FieldDescriptor, render
from .linalg import EchelonBasis, Matrix, Subspace, Vector, invert, kernel, solve_in_span

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


class AxisDecomposition:
    """A verified splitting M = M0 + M1 + M2 + M3 for one axis; parts holds
    the four Subspaces.  The cached properties write the instance __dict__
    directly, past the immutability guard."""

    def __init__(self, algebra: AlgebraDef, axis: Vector, parts):
        vars(self).update(algebra=algebra, axis=axis, parts=parts)

    def __setattr__(self, *_):
        raise AttributeError("AxisDecomposition is immutable")

    def part(self, i) -> Subspace:
        return self.parts[i]

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
        component has the sign s_p*s_q (part 3 odd, the others even).  It runs
        on the vectors' terms."""
        alg, field = self.algebra, self.algebra.field
        basis = self.eigenbasis()
        parts, words = [i for i, _ in basis], [v.terms for _, v in basis]
        columns = [c.terms.items() for c in self.coordinates.columns]
        escapes, graded = {}, True
        for q, j in enumerate(parts):
            for p, i in enumerate(parts[: q + 1]):
                prod = sparse_product(alg, words[p], words[q])
                coords = {}  # B^-1 prod, summed over the columns of B^-1 at its support
                for k, c in prod.items():
                    field.mac(coords, c, columns[k])
                support = {parts[r] for r in field.settle(coords)}
                if not support <= set(allowed(i, j)):
                    escapes[(p, q)] = Vector.sparse(field, alg.dim, prod)
                odd = (i == 3) != (j == 3)
                graded = graded and all((k == 3) == odd for k in support)
        return escapes, graded


def _squares_to_identity(*factors):
    """Whether the product of the square matrices factors is an involution:
    each unit vector goes through the factors twice."""
    field, n = factors[0].field, factors[0].ncols
    for j in range(n):
        x = unit = Vector.unit(field, n, j)
        for m in reversed(factors * 2):
            x = m.apply(x)
        if x != unit:
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
    escapes = dec.product_pattern[0]
    ordered = sorted(
        (i, j, p, q, escapes[min(p, q), max(p, q)])
        for p, (i, _) in enumerate(basis) for q, (j, _) in enumerate(basis)
        if i <= j and (min(p, q), max(p, q)) in escapes
    )
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


class DihedralData:
    """The base axis a_0, the shift automorphism and the base flip of a
    dihedral algebra; every other axis is a_i = shift^i(a_0).  The shift and
    the flip are multiplicative by construction (see build).  The cached
    properties write the instance __dict__ past the immutability guard."""

    def __init__(self, algebra, eta, a0, shift, flip):
        vars(self).update(algebra=algebra, eta=eta, shift=shift, flip=flip)
        vars(self).update(_axes={0: a0})

    def __setattr__(self, *_):
        raise AttributeError("DihedralData is immutable")

    @classmethod
    def build(cls, alg, seed_axes, shift, flip, eta):
        """Check that eta avoids 0 and 1 (check_eta), that the seed axes are
        consecutive shifts of a_0 and that the flip fixes a_0.  A singular
        shift is a failed dihedral check, not a rejected input, so it is not
        inverted here; nor is either map checked for multiplicativity: the
        loader proved both with extend_from_generators, in one closure when
        they share generators, or induce_on_quotient induced them from such."""
        check_eta(eta)
        axes = dict(seed_axes)
        seed_lo, seed_hi = min(axes), max(axes)
        if set(axes) != set(range(seed_lo, seed_hi + 1)) or not seed_lo <= 0 <= seed_hi:
            raise DimensionMismatch("seed axes must cover a contiguous range around 0")
        for i in range(seed_lo, seed_hi):
            if shift.apply(axes[i]) != axes[i + 1]:
                raise DataInconsistency(f"shift does not carry axis {i} to axis {i + 1}")
        if flip.apply(axes[0]) != axes[0]:
            raise DataInconsistency("flip does not fix the base axis")
        return cls(alg, eta, axes[0], shift, flip)

    @cached_property
    def _unshift(self) -> "AlgebraMap | None":
        """The inverse of the shift, or None if the shift is singular."""
        try:
            return self.shift.inverse()
        except DimensionMismatch:
            return None

    def axis(self, i) -> Vector:
        """a_i, made from a_(i-1) by the shift for i > 0 and from a_(i+1) by
        its inverse for i < 0, and kept."""
        if i not in self._axes:
            if i > 0:
                self._axes[i] = self.shift.apply(self.axis(i - 1))
            elif self._unshift is None:
                raise DataInconsistency(f"shift is not invertible, so a_{i} is undefined")
            else:
                self._axes[i] = self._unshift.apply(self.axis(i + 1))
        return self._axes[i]

    @cached_property
    def _split(self):
        try:
            return split_eigenspace(self.algebra, self.axis(0), self.eta, self.flip)
        except AxialError as exc:
            return exc

    @property
    def base_split(self) -> AxisDecomposition:
        """The decomposition at a_0 along the flip, derived once for the fusion pass, check_dihedral
        and the identity suite.  A failed split is kept too: every read re-raises its AxialError."""
        if isinstance(self._split, AxialError):
            raise self._split
        return self._split

    @cached_property
    def orbit(self):
        """axis_orbit(self.algebra, self), grown once for all its readers."""
        return axis_orbit(self.algebra, self)

    def on_quotient(self, ideal, qalg, projection) -> "DihedralData | None":
        """The shift, flip and axes induced on qalg = algebra / ideal; None
        if the shift or the flip does not preserve the ideal."""
        qshift = induce_on_quotient(self.shift, ideal, qalg, projection)
        qflip = induce_on_quotient(self.flip, ideal, qalg, projection)
        if qshift is None or qflip is None:
            return None
        return DihedralData.build(qalg, {0: projection.apply(self.axis(0))}, qshift, qflip, self.eta)

    def involution_at(self, j) -> AlgebraMap:
        """tau_j = shift^j o flip o shift^-j, from the shift and its cached
        inverse; tau_0 is the flip even when the shift is singular."""
        if j == 0:
            return self.flip
        if self._unshift is None:
            raise DataInconsistency(f"shift is not invertible, so tau_{j} is undefined")
        forth, back = (self.shift, self._unshift) if j > 0 else (self._unshift, self.shift)
        return forth.power(abs(j)).compose(self.flip).compose(back.power(abs(j)))


# condition is "D1" | "D2" | "D3" | "axis" | "fusion"; index an int or None
DihedralViolation = namedtuple("DihedralViolation", "condition index detail")


def axis_orbit(alg, dd):
    """Grow the window a_lo .. a_hi from a_0 by a_(hi+1), then a_(lo-1), in
    turn, until two steps in a row add nothing to its span (at most dim
    steps add something); reads only dd.axis.  Returns that window (lo, hi),
    the window at the first step that added nothing, which carries exactly
    one relation as every earlier axis raised the rank, and the rank.  With
    an invertible shift the window spans every axis: a_(hi+1) in the span S
    of a_lo .. a_hi gives shift(S) = S, and a_(lo-1) in S does so for the
    inverse."""
    lo = hi = 0
    span = EchelonBasis(alg.field, alg.dim)
    span.add(dd.axis(0))
    relation = None
    quiet = 0
    while quiet < 2:
        if hi == -lo:
            hi += 1
            new_index = hi
        else:
            lo -= 1
            new_index = lo
        if span.add(dd.axis(new_index)) is None:
            quiet += 1
            if relation is None:
                relation = (lo, hi)
        else:
            quiet = 0
    return (lo, hi), relation, len(span.rows)


def check_dihedral(alg, dd: DihedralData):
    """Mechanical check of the dihedral axioms; returns violations (empty = pass).

    The shift and the flip are multiplicative by construction (see
    DihedralData.build), so D2 asks only whether dd.axis finds the shift's
    inverse for a_-1.  D1 generates from the window of axis_orbit.  Only a_0
    is decomposed.  As every axis is a_i = shift^i(a_0), the split, fusion
    and Miyamoto results at a_i are those at a_0 conjugated by the
    automorphism shift^i, and the involution at i is shift^i o flip o
    shift^-i.  The relation flip o shift o flip = shift^-1 with
    flip(a_0) = a_0 then gives tau_j(a_i) = a_{2j-i} for all i and j.
    """
    violations = []
    try:
        dd.axis(-1)
    except DataInconsistency:
        violations.append(DihedralViolation("D2", None, "shift is not invertible"))
    if not _squares_to_identity(dd.flip.matrix):
        violations.append(DihedralViolation("D3", 0, "flip squared is not the identity"))
    if violations:
        return violations

    (lo, hi), _, _ = dd.orbit
    span = generated_subalgebra(alg, [dd.axis(i) for i in range(lo, hi + 1)])
    if span.dim != alg.dim:
        violations.append(
            DihedralViolation("D1", None, f"axes generate only dimension {span.dim}")
        )

    if not _squares_to_identity(dd.flip.matrix, dd.shift.matrix):
        violations.append(DihedralViolation("D3", None, "flip o shift o flip is not shift^-1"))

    try:
        dec = dd.base_split
    except (NotIdempotent, NotSemisimple, InvolutionMismatch) as exc:
        violations.append(DihedralViolation("axis", 0, str(exc)))
        return violations
    for v in check_fusion(alg, dec):
        violations.append(
            DihedralViolation(
                "fusion", 0,
                f"product of parts ({v.part_i},{v.part_j}) escapes parts {v.allowed}",
            )
        )
    try:
        if miyamoto(alg, dec) != dd.flip:
            violations.append(
                DihedralViolation("D3", 0, "flip differs from the Miyamoto involution")
            )
    except MiyamotoNotAutomorphism as exc:
        violations.append(DihedralViolation("D3", 0, str(exc)))
    return violations


class RelationWitness(namedtuple("RelationWitness", "parity case coefficients adim window")):
    """Minimal vanishing combination of axes and the resulting classification:
    parity "even" or "odd", case 1..4, and window the (lo, hi) of the minimal
    relation window."""

    __slots__ = ()

    def describe(self):
        coeffs = ", ".join(render(c) for c in self.coefficients)
        return f"adim {self.adim}, case {self.case} ({self.parity}), coefficients ({coeffs})"

    @classmethod
    def classify(cls, lo, hi, coeffs, adim):
        """Classify the relation sum coeffs[i - lo] a_i = 0 over [lo, hi], with
        c = lo + hi in {0, 1}: the flip mirrors i to c - i, the case is 1 + 2c
        (plus 1 if antisymmetric), and the alphas are the coefficients over
        c..hi divided by the lead one at a_hi, less the first in case 2."""
        c = lo + hi
        if c not in (0, 1):
            raise DataInconsistency("minimal relation window has unexpected shape")
        by_index = dict(zip(range(lo, hi + 1), coeffs))
        symmetric = all(by_index[c - i] == x for i, x in by_index.items())
        antisymmetric = all(by_index[c - i] == -x for i, x in by_index.items())
        if symmetric == antisymmetric:
            raise DataInconsistency("minimal relation has mixed flip symmetry")
        case = 1 + 2 * c + antisymmetric
        seq = tuple(by_index[i] / by_index[hi] for i in range(c, hi + 1))
        if adim != hi - lo:
            raise DataInconsistency(
                f"axial dimension {adim} contradicts relation case {case} (expects {hi - lo})"
            )
        alphas = seq[1:] if case == 2 else seq
        return cls("odd" if antisymmetric else "even", case, alphas, adim, (lo, hi))


def axial_dimension(alg, dd: DihedralData) -> RelationWitness:
    """Classify the one relation of axis_orbit's first relation window by
    its flip symmetry, with the rank of the axis span as the dimension."""
    _, (lo, hi), rank = dd.orbit
    window = [dd.axis(i) for i in range(lo, hi + 1)]
    relation = kernel(Matrix.from_columns(alg.field, window, nrows=alg.dim)).basis[0]
    return RelationWitness.classify(lo, hi, relation, rank)


def p_vector(alg, dd: DihedralData, i: int, j: int) -> Vector:
    """a_j * a_{i+j} - eta (a_j + a_{i+j}); p1 is p_vector(1, 0)."""
    aj, aij = dd.axis(j), dd.axis(i + j)
    return multiply(alg, aj, aij) - (aj + aij).scale(dd.eta)


def lambda_coefficient(alg, dec: AxisDecomposition, target: Vector):
    """Coefficient of the axis in the M1 component of target (M1's basis row
    is the axis divided by its entry at the pivot)."""
    coords = dec.coordinates.apply(target)
    return coords[dec.part(0).dim] / dec.axis[dec.part(1).pivots[0]]


# one row of a report; status is "pass" | "fail" | "skipped"
CheckResult = namedtuple("CheckResult", "name status detail", defaults=("",))


class IdentityReport(namedtuple("IdentityReport", "checks scalars")):
    """The identity rows, a list of CheckResults, and the scalars they found."""

    __slots__ = ()

    def add(self, name, ok, detail=""):
        self.checks.append(CheckResult(name, "pass" if ok else "fail", detail))

    def skip(self, name, detail=""):
        self.checks.append(CheckResult(name, "skipped", detail))


def _residual_detail(v: Vector) -> str:
    return f"residual {v!r}"


def _multiple_row(report, name, v, base, key):
    """Row name passes when v is a multiple of base; the factor is recorded
    as scalar key and returned (None on failure)."""
    sol = solve_in_span(v, [base])
    report.add(name, sol is not None, "" if sol is not None else _residual_detail(v))
    if sol is not None:
        report.scalars[key] = sol[0]
        return sol[0]


def identity_suite(alg, dd: DihedralData) -> IdentityReport:
    """Exact check of the two-generated scalar identities on the base axis.

    Extracts lambda_1..3 from the decomposition at a_0, then mu, nu, rho
    from the three product expansions, pi from p*p, and checks the
    invariant-scalar action and the shifted-p disjunction where applicable.
    """
    report = IdentityReport([], {})
    eta = dd.eta
    field = alg.field
    a0 = dd.axis(0)
    dec = dd.base_split

    lambdas = {}
    for i in (1, 2, 3):
        lambdas[i] = lambda_coefficient(alg, dec, dd.axis(i))
        report.scalars[f"lambda{i}"] = lambdas[i]

    one = field.one()
    # each p_{i,j} once, on first use: a missing axis is reported where first needed
    p = cache(lambda i, j: p_vector(alg, dd, i, j))
    for i in (1, 2, 3):
        p_i0 = p(i, 0)
        lhs = multiply(alg, a0, p_i0)
        rhs = a0.scale((one - eta) * lambdas[i] - eta)
        report.add(f"p{i}0_scalar", lhs == rhs, "" if lhs == rhs else _residual_detail(lhs - rhs))
        mid = p_i0 - a0.scale(lambdas[i] - eta) + (dd.axis(i) + dd.axis(-i)).scale(eta / 2)
        ok = dec.part(2).contains(mid)
        report.add(f"p{i}0_m2_part", ok, "" if ok else _residual_detail(dec.part(2).reduce(mid)))

    lam1, lam2 = lambdas[1], lambdas[2]
    p1, p20, p21, p31, p3m1 = p(1, 0), p(2, 0), p(2, 1), p(3, 1), p(3, -1)
    sym1 = p1.scale(field.from_int(2)) + (dd.axis(1) + dd.axis(-1)).scale(eta)
    sym2 = p20.scale(field.from_int(2)) + (dd.axis(2) + dd.axis(-2)).scale(eta)

    coef1 = (eta * 2 - 1) * (lam1 * 4 - eta * 3) / (eta * 2)
    residual = multiply(alg, a0, p21) - sym1.scale(coef1)
    mu = _multiple_row(report, "mu_expansion", residual, a0, "mu")

    if mu is None:
        report.skip("nu_expansion", "mu unavailable")
        report.skip("rho_expansion", "mu unavailable")
    else:
        coef2 = (eta * 2 - 1) * (lam1 * 2 - eta) / (eta * 2)
        coef3 = (mu - eta * lam2 + eta * eta * 2) / eta
        residual = (
            multiply(alg, a0, p31)
            - (p31 - p3m1).scale(eta / 2)
            + sym2.scale(coef2)
            + sym1.scale(coef3)
        )
        _multiple_row(report, "nu_expansion", residual, a0.scale(one / 2), "nu")

        base = (eta * 2 - 1) * (lam1 * 4 - eta * 3)
        rhs = (
            (p(3, 0).scale(field.from_int(2)) + p31 + p3m1).scale(base / 4)
            + p20.scale(mu + base * ((eta * 2 - 1) * lam1 * 2 - eta * eta * 4 + eta) / (eta * eta * 2))
            + p1.scale(base * ((eta * 2 - 1) * lam1 * 4 - eta * lam2 - eta * eta * 5 + eta * 3) / (eta * eta))
            + (dd.axis(2) + dd.axis(-2)).scale(base * (eta * 2 - 1) * (lam1 * 3 - eta * 2) / (eta * 2))
            + (dd.axis(1) + dd.axis(-1)).scale(base * (mu * 2 - eta * lam2 + eta * eta * 2) / (eta * 2))
        )
        _multiple_row(report, "rho_expansion", multiply(alg, p20, p21) - rhs, a0, "rho")

    # two-generated subalgebra: p*p = pi*p, and dimension 3 away from the
    # degenerate case p = 0 (there the two axes span a Jordan-type plane)
    sub = generated_subalgebra(alg, [a0, dd.axis(1)])
    report.scalars["two_generated_dim"] = FieldDescriptor.rationals().from_int(sub.dim)
    pp = multiply(alg, p1, p1)
    if p1.is_zero():
        report.add("p1_square", pp.is_zero())
        report.scalars["pi"] = field.zero()
        report.skip("two_generated_dim", f"p vanishes; dimension {sub.dim}")
    else:
        _multiple_row(report, "p1_square", pp, p1, "pi")
        report.add(
            "two_generated_dim",
            alg.dim <= 3 or sub.dim == 3,
            f"dimension {sub.dim}",
        )

    # invariant elements acting as scalars on a0 act the same on every p_{i,j}
    fixed = kernel(Matrix.from_columns(field, [
        Vector.sparse(field, 2 * alg.dim, x.terms | {i + alg.dim: c for i, c in y.terms.items()})
        for x, y in zip(*(m.matrix.sub_scalar_diag(one).columns for m in (dd.shift, dd.flip)))], 2 * alg.dim))
    applicable = False
    ok = True
    for x in fixed.basis:
        sol = solve_in_span(multiply(alg, x, a0), [a0])
        if sol is None:
            continue
        applicable = True
        for i in (1, 2, 3):
            for j in (-1, 0, 1):
                if multiply(alg, x, p(i, j)) != p(i, j).scale(sol[0]):
                    ok = False
    if applicable:
        report.add("invariant_scalar_action", ok)
    else:
        report.skip("invariant_scalar_action", "no invariant element acts as a scalar")

    # shifted-p disjunction, applicable when lambda_1 = 3 eta / 4
    if lam1 == eta * 3 / 4:
        if mu is None:
            report.add("p2_shift_or_mu_zero", False, "mu unavailable")
        else:
            ok = (p21 == p20) or mu.is_zero()
            report.add("p2_shift_or_mu_zero", ok)
    else:
        report.skip("p2_shift_or_mu_zero", "lambda_1 differs from 3*eta/4")
    return report


# Each two-sided mode reads the input a_0..a_k extended by a_-1 = sign *
# a_source (lemma 2.3: -a_0; lemma 2.4: a_1, zero if absent): its output is
# zero below index first, then sum(w * a_(i+o)) over the stencil {o: w} for
# i = first .. k + last, then a_k.
_STENCILS = {
    "lemma_2_3_part1": (-1, 0, 1, {1: 1, 0: 2, -1: 2, -2: 1}, 1),
    "lemma_2_3_part2": (-1, 0, 0, {0: 1, -1: 1}, 0),
    "lemma_2_4_part1": (1, 1, 1, {-2: 1, -1: 1, 1: -1, 2: -1}, 1),
    "lemma_2_4_part2": (1, 1, 1, {-1: 1, 1: -1}, 0),
}


def relation_transform(coeffs, mode):
    """Coefficient-sequence transforms derived from the relation lemmas.

    Input/output conventions:

    * lemma_2_3_*: input (a_0..a_k) multiplies (a_{i+1} - a_{-i}); output is
      0-indexed over (a_i - a_{-i}) (index-0 slot is always zero).
    * lemma_2_4_part1/2: input (a_0..a_k) multiplies a_0 and (a_i + a_{-i});
      output as above.
    * lemma_2_4_part3: input (a_1..a_k); output is 1-indexed over
      (a_{i+1} - a_{-i}): the forward differences, then a_k.
    """
    coeffs = tuple(coeffs)
    if not coeffs:
        raise DimensionMismatch("coefficient sequence must be nonempty")
    if mode == "lemma_2_4_part3":
        return tuple(a - b for a, b in zip(coeffs, coeffs[1:])) + coeffs[-1:]
    if mode not in _STENCILS:
        raise DimensionMismatch(f"unknown transform mode {mode!r}")
    sign, source, first, stencil, last = _STENCILS[mode]
    zero = coeffs[0].field.zero()
    k = len(coeffs) - 1
    seq = dict(enumerate(coeffs))
    seq[-1] = sign * seq.get(source, zero)
    out = [zero] * first + [
        sum((w * seq.get(i + o, zero) for o, w in stencil.items()), zero)
        for i in range(first, k + last + 1)
    ]
    return (*out, coeffs[k])
