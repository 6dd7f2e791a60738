"""The dihedral layer: the dihedral data of an algebra, the dihedral checks,
the axis orbit and the classification of its relation, and the
scalar-identity suite.  Compiled the first time a run loads dihedral data
(algfile._load_dihedral); a run that only splits axes, checks fusion and
builds Miyamoto maps never compiles it.

The functions that the benchmark traces are reached through their modules
(axial.split_eigenspace, algebra.multiply, linalg.kernel, ...), so a tracer
installed before this module is first imported still sees every call, and
no binding here keeps its wrapper once it is removed.

The identity suite reads the paper's expansion rows from one table of
literal strings, _ROWS, through the expression parser of fields; _RowEnv,
the one environment in which two vectors multiply, gives their names values.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property

from . import algebra, axial, linalg
from .algebra import AlgebraMap, _LiteralEnv
from .axial import AxisDecomposition, CheckResult, _squares_to_identity, check_eta
from .errors import (
    AxialError,
    DataInconsistency,
    DimensionMismatch,
    InvolutionMismatch,
    MiyamotoNotAutomorphism,
    NotIdempotent,
    NotSemisimple,
    UnknownSymbol,
)
from .fields import ExpressionEnv, FieldDescriptor, _Frozen, parse_expression, render
from .linalg import EchelonBasis, Matrix, Vector


class DihedralData(_Frozen):
    """The base axis a_0, the shift automorphism and the base flip of a
    dihedral algebra; every other axis is a_i = shift^i(a_0).  The shift and
    the flip are multiplicative by construction (see build).  It keeps an
    instance __dict__ for its cached properties, which write that __dict__
    directly, past _Frozen's guard; axis grows the _axes map it holds."""

    def __init__(self, alg, eta, a0, shift, flip):
        vars(self).update(algebra=alg, eta=eta, shift=shift, flip=flip, _axes={0: a0})

    @classmethod
    def build(cls, alg, seed_axes, shift, flip, eta):
        """Check that eta avoids 0 and 1 (check_eta), that the seed axes are
        consecutive shifts of a_0 and that the flip fixes a_0.  A singular
        shift is a failed dihedral check, not a rejected input, so it is not
        inverted here; nor is either map checked for multiplicativity: the
        loader proved both with extend_from_generators, in one closure when
        they share generators, or derive.induce_on_quotient induced them from such."""
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
            return axial.split_eigenspace(self.algebra, self.axis(0), self.eta, self.flip)
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
        """The window (lo, hi) of axis_orbit(self.algebra, self), grown once
        for both its readers: D1 generates from it, and axial_dimension
        classifies its one relation."""
        return axis_orbit(self.algebra, self)

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
    """Make a_-1 first, so a singular shift raises before any window is
    grown, then grow the window a_lo .. a_hi from a_0 by a_(hi+1), then
    a_(lo-1), in turn, and return (lo, hi) at the first axis that adds
    nothing to the span; reads only dd.axis.  Every earlier axis raised the
    rank, so the window carries exactly one relation and spans hi - lo
    dimensions.  With an invertible shift it spans every axis: a_(hi+1) in
    the span S of a_lo .. a_hi gives shift(S) = S, and a_(lo-1) in S does so
    for the inverse."""
    dd.axis(-1)
    lo = hi = 0
    span = EchelonBasis(alg.field, alg.dim)
    span.add(dd.axis(0))
    while True:
        if hi == -lo:
            hi += 1
            axis = dd.axis(hi)
        else:
            lo -= 1
            axis = dd.axis(lo)
        if span.add(axis) is None:
            return lo, hi


def check_dihedral(alg, dd: DihedralData):
    """Mechanical check of the dihedral axioms; returns violations (empty = pass).

    The shift and the flip are multiplicative by construction (see
    DihedralData.build), so D2 asks only whether dd.axis finds the shift's
    inverse for a_-1.  D1 generates from dd.orbit, the window of the first
    relation, which spans every axis once the shift is invertible.  Only a_0
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

    lo, hi = dd.orbit
    span = algebra.generated_subalgebra(alg, [dd.axis(i) for i in range(lo, hi + 1)])
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
    for v in axial.check_fusion(alg, dec):
        violations.append(
            DihedralViolation(
                "fusion", 0,
                f"product of parts ({v.part_i},{v.part_j}) escapes parts {v.allowed}",
            )
        )
    try:
        if axial.miyamoto(alg, dec) != dd.flip:
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
    def classify(cls, lo, hi, coeffs):
        """Classify the relation sum coeffs[i - lo] a_i = 0 over [lo, hi], with
        c = lo + hi in {0, 1}: the flip mirrors i to c - i, the case is 1 + 2c
        (plus 1 if antisymmetric), and the alphas are the coefficients over
        c..hi divided by the lead one at a_hi, less the first in case 2.  The
        relation is the window's only one, so the axial dimension is hi - lo."""
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
        alphas = seq[1:] if case == 2 else seq
        return cls("odd" if antisymmetric else "even", case, alphas, hi - lo, (lo, hi))


def axial_dimension(alg, dd: DihedralData) -> RelationWitness:
    """Classify the one relation of the window dd.orbit by its flip symmetry."""
    lo, hi = dd.orbit
    window = [dd.axis(i) for i in range(lo, hi + 1)]
    relation = linalg.kernel(Matrix.from_columns(alg.field, window, nrows=alg.dim)).basis[0]
    return RelationWitness.classify(lo, hi, relation)


def p_vector(alg, dd: DihedralData, i: int, j: int) -> Vector:
    """a_j * a_{i+j} - eta (a_j + a_{i+j}); p1 is p_vector(1, 0)."""
    aj, aij = dd.axis(j), dd.axis(i + j)
    return algebra.multiply(alg, aj, aij) - (aj + aij).scale(dd.eta)


def lambda_coefficient(alg, dec: AxisDecomposition, target: Vector):
    """Coefficient of the axis in the M1 component of target (M1's basis row
    is the axis divided by its entry at the pivot)."""
    coords = dec.coordinates.apply(target)
    return coords[dec.parts[0].dim] / dec.axis[min(dec.parts[1].rows)]


class IdentityReport(namedtuple("IdentityReport", "checks scalars")):
    """The identity rows, a list of CheckResults, and the scalars they found."""

    __slots__ = ()

    def add(self, name, ok, detail=""):
        self.checks.append(CheckResult(name, "pass" if ok else "fail", detail))

    def skip(self, name, detail=""):
        self.checks.append(CheckResult(name, "skipped", detail))


# The expansions of Hall, Rehren and Shpectorov, "Universal axial algebras and
# a theorem of Sakuma" (J. Algebra 2015), as rows (name, value, test, scalar
# key) in report order, each value a literal read by _RowEnv.  A row passes
# when its value is zero (test "0"), lies in M2 ("M2"), or is a multiple of
# the base literal that test is, the factor then being the scalar key.
_ROWS = [row for i in (1, 2, 3) for row in (
    (f"p{i}0_scalar", f"a0*p{i}0 - ((1 - eta)*lambda{i} - eta)*a0", "0", None),
    (f"p{i}0_m2_part", f"p{i}0 - (lambda{i} - eta)*a0 + eta/2*(a{i} + am{i})", "M2", None),
)] + [
    ("mu_expansion", "a0*p21 - (2*eta - 1)*(4*lambda1 - 3*eta)/(2*eta)*(2*p10 + eta*(a1 + am1))", "a0", "mu"),
    ("nu_expansion", "a0*p31 - eta/2*(p31 - p3m1)"
     " + (2*eta - 1)*(2*lambda1 - eta)/(2*eta)*(2*p20 + eta*(a2 + am2))"
     " + (mu - eta*lambda2 + 2*eta^2)/eta*(2*p10 + eta*(a1 + am1))", "a0/2", "nu"),
    ("rho_expansion", "p20*p21 - mu*p20 - (2*eta - 1)*(4*lambda1 - 3*eta)*((2*p30 + p31 + p3m1)/4"
     " + ((2*eta - 1)*2*lambda1 - 4*eta^2 + eta)/(2*eta^2)*p20"
     " + ((2*eta - 1)*4*lambda1 - eta*lambda2 - 5*eta^2 + 3*eta)/eta^2*p10"
     " + (2*eta - 1)*(3*lambda1 - 2*eta)/(2*eta)*(a2 + am2)"
     " + (2*mu - eta*lambda2 + 2*eta^2)/(2*eta)*(a1 + am1))", "a0", "rho"),
    ("p1_square", "p10*p10", "p10", "pi"),
]


class _RowEnv(_LiteralEnv):
    """The names of the rows: a<i> and am<i> are the axes a_i and a_-i, p<i><j>
    and p<i>m<j> are p_vector(i, j) and p_vector(i, -j), each made once, and
    every other name is a scalar found so far, and only then eta or the
    field's variable; a row's key that no earlier row found is unavailable.
    The product of two vectors is the algebra's."""

    def __init__(self, alg, dd, scalars):
        super().__init__(alg, dd.eta)
        self.alg, self.axis, self.scalars = alg, dd.axis, scalars
        self.p = cache(lambda i, j: p_vector(alg, dd, i, j))
        self.keys = {key for *_, key in _ROWS}

    def atom(self, name):
        head, index = name[0], name[1:].replace("m", "-")
        if head in "ap" and index.replace("-", "").isdigit():
            return self.axis(int(index)) if head == "a" else self.p(int(index[0]), int(index[1:]))
        if name in self.scalars:
            return self.scalars[name]
        if name in self.keys:
            raise UnknownSymbol(f"{name} unavailable")
        return ExpressionEnv.atom(self, name)

    def mul(self, a, b):
        if isinstance(a, Vector) and isinstance(b, Vector):
            return algebra.multiply(self.alg, a, b)
        return super().mul(a, b)


def identity_suite(alg, dd: DihedralData) -> IdentityReport:
    """Exact check of the two-generated scalar identities on the base axis.

    Extracts lambda_1..3 from the decomposition at a_0, evaluates the rows
    (mu, nu and rho from the three product expansions, pi from p*p) and
    checks the two-generated dimension, the invariant-scalar action and the
    shifted-p disjunction where applicable.
    """
    report = IdentityReport([], {})
    eta, field, a0, dec = dd.eta, alg.field, dd.axis(0), dd.base_split
    for i in (1, 2, 3):
        report.scalars[f"lambda{i}"] = lambda_coefficient(alg, dec, dd.axis(i))

    env = _RowEnv(alg, dd, report.scalars)
    for name, literal, test, key in _ROWS:
        try:
            value = parse_expression(literal, env)
        except UnknownSymbol as exc:
            report.skip(name, str(exc))
            continue
        if test == "M2":  # the remainder modulo M2 must vanish
            value = dec.parts[2].reduce(value)
        sol = linalg.solve_in_span(value, [parse_expression(test, env)] if key else [])
        report.add(name, sol is not None, "" if sol is not None else f"residual {value!r}")
        if key and sol is not None:
            report.scalars[key] = sol[0]

    # two-generated subalgebra: dimension 3 away from the degenerate case
    # p = 0 (there the two axes span a Jordan-type plane)
    p, mu = env.p, report.scalars.get("mu")
    sub = algebra.generated_subalgebra(alg, [a0, dd.axis(1)])
    report.scalars["two_generated_dim"] = FieldDescriptor.rationals().from_int(sub.dim)
    if p(1, 0).is_zero():
        report.skip("two_generated_dim", f"p vanishes; dimension {sub.dim}")
    else:
        report.add("two_generated_dim", alg.dim <= 3 or sub.dim == 3, f"dimension {sub.dim}")
    # invariant elements acting as scalars on a0 act the same on every p_{i,j};
    # j = 0 decides every j: the automorphism shift fixes x, and p_{i,j} = shift^j(p_{i,0})
    fixed = linalg.kernel(Matrix.from_columns(field, [
        Vector.sparse(field, 2 * alg.dim, x.terms | {i + alg.dim: c for i, c in y.terms.items()})
        for x, y in zip(*(m.matrix.sub_scalar_diag(field.one()).columns for m in (dd.shift, dd.flip)))], 2 * alg.dim))
    applicable, ok = False, True
    for x in fixed.basis:
        sol = linalg.solve_in_span(algebra.multiply(alg, x, a0), [a0])
        if sol is None:
            continue
        applicable = True
        for i in (1, 2, 3):
            if algebra.multiply(alg, x, p(i, 0)) != p(i, 0).scale(sol[0]):
                ok = False
    if applicable:
        report.add("invariant_scalar_action", ok)
    else:
        report.skip("invariant_scalar_action", "no invariant element acts as a scalar")

    # shifted-p disjunction, applicable when lambda_1 = 3 eta / 4
    if report.scalars["lambda1"] == eta * 3 / 4:
        if mu is None:
            report.add("p2_shift_or_mu_zero", False, "mu unavailable")
        else:
            report.add("p2_shift_or_mu_zero", p(2, 1) == p(2, 0) or mu.is_zero())
    else:
        report.skip("p2_shift_or_mu_zero", "lambda_1 differs from 3*eta/4")
    return report
