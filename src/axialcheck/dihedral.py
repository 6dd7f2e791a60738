"""The dihedral layer: the checker and loader of a dihedral block (load),
vector literals (_LiteralEnv), the closure extending generator images to maps,
the dihedral data of an algebra, the dihedral checks, the axis orbit and
the classification of its relation, and the scalar-identity suite.
Compiled the first time a run loads dihedral data or reads a vector
literal; a run that only splits axes, checks fusion and builds Miyamoto
maps never compiles it.

The functions that the benchmark traces are reached through their modules
(algfile.parse_vector, algebra.extend_from_generators, axial.split_eigenspace,
algebra.multiply, linalg.kernel, ...), so a tracer installed before this
module is first imported still sees every call, and no binding here keeps
its wrapper once it is removed.

The identity suite reads the paper's expansion rows from one table of
literal strings, _ROWS, through the expression parser of fields; _RowEnv,
the one environment in which two vectors multiply, gives their names values.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property, partial
from types import SimpleNamespace

from . import algebra, algfile, axial, linalg
from .algebra import AlgebraMap
from .axial import AxisDecomposition, CheckResult, _squares_to_identity, check_eta
from .errors import (
    AxialError,
    DataInconsistency,
    DescriptorMismatch,
    DimensionMismatch,
    InvolutionMismatch,
    MiyamotoNotAutomorphism,
    NotIdempotent,
    NotSemisimple,
    ScalarSyntaxError,
    UnknownSymbol,
)
from .fields import ExpressionEnv, FieldDescriptor, _Frozen, parse_expression, render
from .linalg import EchelonBasis, Matrix, Vector, _terms


class _LiteralEnv(ExpressionEnv):
    """Expression hooks for vector literals: a name is a basis label before it
    is a scalar's name, and labels combine only linearly.  Only the identity
    rows' subclass, _RowEnv, multiplies two vectors."""

    def __init__(self, alg: algebra.AlgebraDef, eta=None):
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


def extend_from_generators(alg: algebra.AlgebraDef, pairs, target: algebra.AlgebraDef):
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
    for pivot, word in algebra._span_closure(echelon, graph, partial(algebra.sparse_product, direct_sum), n):
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


def load(block, alg, eta):
    """The DihedralData of a document's dihedral block over alg, for
    algfile.load_document, which has checked that the block is an object and
    its eta a literal string.  Its window, axes and images are checked here,
    before any is read; the literals are read by algfile.parse_vector and the
    maps extended by algebra.extend_from_generators."""
    require = algfile._require
    require({"window", "axes", "shift_images", "flip_images"} <= block.keys(),
            "a dihedral block is an object with window, axes, shift_images and flip_images")
    window = block["window"]
    require(isinstance(window, list) and len(window) == 2
            and all(type(i) is int for i in window) and window[0] <= 0 <= window[1],
            "window must be an array [lo, hi] of integers with lo <= 0 <= hi")
    require(algfile._all_str(block["axes"], list) and len(block["axes"]) == window[1] - window[0] + 1,
            "axes must be an array of vector literals, one for each window index")
    for what in ("shift", "flip"):
        images = block[f"{what}_images"]
        require(algfile._all_str(images, dict) and images and images.keys() <= set(alg.labels),
                f"{what}_images must map basis labels to vector literals")
    lo = window[0]
    seed_axes = {lo + pos: algfile.parse_vector(spec, alg, eta) for pos, spec in enumerate(block["axes"])}
    given = {"shift": block["shift_images"], "flip": block["flip_images"]}
    # maps whose images list the same labels in the same order extend in one closure
    groups = [["shift", "flip"]] if list(given["shift"]) == list(given["flip"]) else [["shift"], ["flip"]]
    maps = []
    for names in groups:
        labels = list(given[names[0]])
        images = [[algfile.parse_vector(given[what][label], alg, eta) for label in labels] for what in names]
        gens = [alg.basis_vector(alg.label_index(label)) for label in labels]
        try:
            extended = algebra.extend_from_generators(alg, zip(gens, *images), alg)
        except DataInconsistency as exc:
            raise DataInconsistency(f"{names[exc.image]} images do not extend to an automorphism: {exc}") from None
        maps += extended if len(names) > 1 else [extended]
    return DihedralData.build(alg, seed_axes, *maps, eta)


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
        consecutive shifts of a_0 and that the flip fixes a_0.  It keeps what
        its builders checked: seed_axes is {i: a_i} over a range around 0, as
        load reads a window that brackets 0 and derive.on_quotient passes
        {0: a_0}.  A singular shift is a failed dihedral check, not a rejected
        input, so it is not inverted here; nor is either map checked for
        multiplicativity: the loader proved both with extend_from_generators,
        in one closure when they share generators, or
        derive.induce_on_quotient induced them from such."""
        check_eta(eta)
        for i in range(min(seed_axes), max(seed_axes)):
            if shift.apply(seed_axes[i]) != seed_axes[i + 1]:
                raise DataInconsistency(f"shift does not carry axis {i} to axis {i + 1}")
        if flip.apply(seed_axes[0]) != seed_axes[0]:
            raise DataInconsistency("flip does not fix the base axis")
        return cls(alg, eta, seed_axes[0], shift, flip)

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
