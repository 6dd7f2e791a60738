"""Catalog of the dihedral Majorana-type algebras the verifier knows about,
plus instantiation, per-entry verification, and the claim suite.

Each entry is a symbolic algebra document over Q(eta), in the layout that
``catalog emit`` writes, plus its documented relation.  ``instantiate``
substitutes a field and an eta and hands the document to the one loader,
``algfile.load_document``, so one table serves the symbolic, rational,
prime-field and number-field instantiations alike.  Shift images for
out-of-window axes are frozen linear combinations derived from each entry's
documented relation.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from types import MappingProxyType, SimpleNamespace

from . import algfile
from .algebra import extend_from_generators, is_ideal, quotient
from .axial import CheckResult, axial_dimension, check_dihedral, check_fusion, identity_suite
from .errors import AxialError, ConstraintViolation, DataInconsistency, NotAnIdeal, UnknownEntry
from .fields import FieldDescriptor, parse_scalar, render
from .linalg import Subspace

QETA = FieldDescriptor.rational_functions("eta")

GLOBAL_EXCLUDED_ETA = ("0", "1", "1/2")


def _axis_label(i: int) -> str:
    return f"a{i}" if i >= 0 else f"am{-i}"


def _document(basis, products, lo, hi, wrap, beyond=None, **constraints):
    """The symbolic algebra document over Q(eta) of one entry.

    ``products`` maps (label, label) to {label: literal}.  The axes a_lo ..
    a_hi are basis vectors; the shift moves each to the next and a_hi to
    ``wrap``, and the flip sends a_i to a_-i, or to ``beyond`` where -i is
    outside [lo, hi].  Keyword arguments make the constraints block.
    """
    axes = [_axis_label(i) for i in range(lo, hi + 1)]
    doc = {
        "field": {"kind": "rational_functions", "variable": "eta"},
        "basis": list(basis),
        "products": [{"left": a, "right": b, "value": v} for (a, b), v in products.items()],
        "dihedral": {
            "window": [lo, hi],
            "axes": axes,
            "shift_images": dict(zip(axes, axes[1:] + [wrap])),
            "flip_images": {
                _axis_label(i): _axis_label(-i) if lo <= -i <= hi else beyond
                for i in range(lo, hi + 1)
            },
            "eta": "eta",
        },
    }
    if constraints:
        doc["constraints"] = constraints
    return doc


class CatalogEntry(namedtuple(
    "CatalogEntry",
    "name doc document expected_adim expected_case expected_relation default_field"
    " fixed_eta requires_eta_minpoly",
    defaults=(None, None),
)):
    """One encoded entry: document is the symbolic algebra document in the
    ``catalog emit`` layout, and expected_relation holds the documented
    relation's literal coefficients, leading one last."""

    __slots__ = ()

    @property
    def dim(self):
        return len(self.document["basis"])

    @property
    def required_char(self):
        return self.document.get("constraints", {}).get("characteristic")


# ---------------------------------------------------------------------------
# table builders
# ---------------------------------------------------------------------------


def _scalar_row(labels, literal):
    """Products of one central basis vector acting as a scalar on everything."""
    out = {}
    for label in labels:
        out[(labels[0], label)] = {label: literal}
    return out


def _three_even_document(with_p1: bool, **constraints):
    # every distinct axis pair shares the central element and the axis cycle
    # closes with period three; fusion forces the central action -eta(3eta+1)/4
    axes = ("am1", "a0", "a1")
    labels = ("p1",) + axes if with_p1 else axes
    products = _scalar_row(labels, "-eta*(3*eta+1)/4") if with_p1 else {}
    for a in axes:
        products[(a, a)] = {a: "1"}
    for left, right in (("am1", "a0"), ("a0", "a1"), ("am1", "a1")):
        products[(left, right)] = {left: "eta", right: "eta"}
        if with_p1:
            products[(left, right)]["p1"] = "1"
    return _document(labels, products, -1, 1, "am1", **constraints)


def _three_even():
    return CatalogEntry(
        name="ThreeEv",
        doc="three axes in a period-three cycle plus one central scalar element",
        document=_three_even_document(True, exclude_eta=list(GLOBAL_EXCLUDED_ETA)),
        expected_adim=3,
        expected_case=4,
        expected_relation=("0", "1"),
        default_field="qeta",
    )


def _three_even_x():
    return CatalogEntry(
        name="ThreeEvX",
        doc="three-axis quotient with the central element collapsed",
        document=_three_even_document(False),
        expected_adim=3,
        expected_case=4,
        expected_relation=("0", "1"),
        default_field="q",
        fixed_eta="-1/3",
    )


_FOUR_WRAP = "-(am1+a0+a1+a2)"  # the five window axes sum to zero


def _four_even():
    # the unique algebra whose five window axes satisfy a symmetric vanishing
    # combination; its adjoint spectrum contains -(2*eta+1), so it is axial
    # only at eta = -1/3, where the (3*eta+1)-corrections below vanish
    labels = ("p1", "am1", "a0", "a1", "a2")
    products = _scalar_row(labels, "-eta*(3*eta+1)/4")
    for a in labels[1:]:
        products[(a, a)] = {a: "1"}
    for left, right in (("am1", "a0"), ("a0", "a1"), ("a1", "a2")):
        products[(left, right)] = {"p1": "1", left: "eta", right: "eta"}
    products[("a0", "a2")] = {
        "p1": "-1", "a0": "-2*eta-1", "a2": "-2*eta-1", "a1": "-(3*eta+1)"
    }
    products[("am1", "a1")] = {
        "p1": "-1", "am1": "-2*eta-1", "a1": "-2*eta-1", "a0": "-(3*eta+1)"
    }
    products[("am1", "a2")] = {
        "p1": "-1", "am1": "eta", "a2": "eta", "a0": "3*eta+1", "a1": "3*eta+1"
    }
    return CatalogEntry(
        name="FourEv",
        doc="four axes plus one central scalar element; the five window axes sum to zero",
        document=_document(labels, products, -1, 2, _FOUR_WRAP, _FOUR_WRAP),
        expected_adim=4,
        expected_case=1,
        expected_relation=("1", "1", "1"),
        default_field="q",
        fixed_eta="-1/3",
    )


def _four_even_x():
    labels = ("am1", "a0", "a1", "a2")
    products = {}
    for a in labels:
        products[(a, a)] = {a: "1"}
    for i, left in enumerate(labels):
        for right in labels[i + 1:]:
            products[(left, right)] = {left: "eta", right: "eta"}
    return CatalogEntry(
        name="FourEvX",
        doc="four-axis quotient where every distinct product is symmetric",
        document=_document(labels, products, -1, 2, _FOUR_WRAP, _FOUR_WRAP),
        expected_adim=4,
        expected_case=1,
        expected_relation=("1", "1", "1"),
        default_field="q",
        fixed_eta="-1/3",
    )


def _bar_four_two():
    labels = ("p1", "p20", "p21", "am1", "a0", "a1", "a2")
    products = _scalar_row(labels, "-3")
    # the squares of the two period-two p elements mirror the central one
    products[("p20", "p20")] = {"p20": "-3"}
    products[("p21", "p21")] = {"p21": "-3"}
    products[("p20", "p21")] = {
        "p1": "9", "am1": "9", "a0": "9", "a1": "9", "a2": "9"
    }
    # even offsets act as the scalar, odd offsets spread out
    products[("p20", "a0")] = {"a0": "-3"}
    products[("p20", "a2")] = {"a2": "-3"}
    products[("p21", "am1")] = {"am1": "-3"}
    products[("p21", "a1")] = {"a1": "-3"}
    products[("p20", "am1")] = {"p1": "-3", "a2": "-3", "a0": "-3", "am1": "-6"}
    products[("p20", "a1")] = {"p1": "-3", "a0": "-3", "a2": "-3", "a1": "-6"}
    products[("p21", "a0")] = {"p1": "-3", "am1": "-3", "a1": "-3", "a0": "-6"}
    products[("p21", "a2")] = {"p1": "-3", "a1": "-3", "am1": "-3", "a2": "-6"}
    for a in labels[3:]:
        products[(a, a)] = {a: "1"}
    for left, right in (("am1", "a0"), ("a0", "a1"), ("a1", "a2"), ("am1", "a2")):
        products[(left, right)] = {"p1": "1", left: "2", right: "2"}
    products[("a0", "a2")] = {"p20": "1", "a0": "2", "a2": "2"}
    products[("am1", "a1")] = {"p21": "1", "am1": "2", "a1": "2"}
    return CatalogEntry(
        name="BarFourTwo",
        doc="period-four axis cycle with three scalar-like elements",
        document=_document(labels, products, -1, 2, "am1", "a2"),
        expected_adim=4,
        expected_case=2,
        expected_relation=("0", "1"),
        default_field="q",
        fixed_eta="2",
    )


def _five_three():
    labels = tuple(_axis_label(i) for i in range(-2, 3))
    products = {}
    for a in labels:
        products[(a, a)] = {a: "1"}
    for i, left in enumerate(labels):
        for right in labels[i + 1:]:
            value = {label: "-eta/4" for label in labels}
            value[left] = "3*eta/4"
            value[right] = "3*eta/4"
            products[(left, right)] = value
    return CatalogEntry(
        name="FiveThree",
        doc="five axes whose distinct products share one symmetric combination",
        document=_document(labels, products, -2, 2, "am2", exclude_eta=list(GLOBAL_EXCLUDED_ETA)),
        expected_adim=5,
        expected_case=4,
        expected_relation=("0", "0", "1"),
        default_field="qeta",
    )


def _six_three():
    idx = list(range(-2, 4))
    labels = ("p1",) + tuple(_axis_label(i) for i in idx)
    products = _scalar_row(labels, "-eta^2/2")

    def wrap(i):
        j = (i + 2) % 6 - 2  # representative in [-2, 3]
        return _axis_label(j)

    for a in labels[1:]:
        products[(a, a)] = {a: "1"}
    for pos, i in enumerate(idx):
        for j in idx[pos + 1:]:
            d = (j - i) % 6
            left, right = _axis_label(i), _axis_label(j)
            if d in (1, 5):
                products[(left, right)] = {"p1": "1", left: "eta", right: "eta"}
            elif d == 3:
                products[(left, right)] = {}
            else:
                base = i if d == 2 else j
                value = {}
                value[wrap(base)] = "eta/2"
                value[wrap(base + 2)] = "eta/2"
                value[wrap(base - 2)] = "-eta/2"
                products[(left, right)] = value
    return CatalogEntry(
        name="SixThree",
        doc="period-six axis cycle with opposite axes multiplying to zero",
        document=_document(labels, products, -2, 3, "am2", "a3", exclude_eta=list(GLOBAL_EXCLUDED_ETA)),
        expected_adim=6,
        expected_case=2,
        expected_relation=("0", "0", "1"),
        default_field="nf:-1,2,1",
        requires_eta_minpoly=(-1, 2, 1),
    )


def _seven_document(with_p1: bool, **constraints):
    # the distance-3/5/6 products are the unique assignment compatible with
    # the shift/flip equivariance, semisimple adjoints and fusion; the
    # central action -5/3 vanishes modulo five, which is exactly why the
    # characteristic-five quotient exists
    idx = list(range(-3, 4))
    labels = (("p1",) if with_p1 else ()) + tuple(_axis_label(i) for i in idx)

    products = {}
    if with_p1:
        products.update(_scalar_row(labels, "-5/3"))
    for a in (_axis_label(i) for i in idx):
        products[(a, a)] = {a: "1"}
    for pos, i in enumerate(idx):
        for j in idx[pos + 1:]:
            if j - i in (1, 2, 4):
                value = {_axis_label(i): "4/3", _axis_label(j): "4/3"}
                if with_p1:
                    value["p1"] = "1"
                products[(_axis_label(i), _axis_label(j))] = value
    heavy = {
        ("a0", "a3"): {"am3": "-2/3", "am2": "1/3", "am1": "-1/3", "a0": "1", "a1": "-1/3", "a2": "1/3", "a3": "2/3"},
        ("am1", "a2"): {"am3": "1", "am2": "1/3", "am1": "1", "a0": "-1/3", "a1": "-1/3", "a3": "-2/3"},
        ("am2", "a1"): {"am3": "-2/3", "am1": "-1/3", "a0": "-1/3", "a1": "1", "a2": "1/3", "a3": "1"},
        ("am3", "a0"): {"am3": "2/3", "am2": "1/3", "am1": "-1/3", "a0": "1", "a1": "-1/3", "a2": "1/3", "a3": "-2/3"},
        ("am2", "a3"): {"am3": "2/3", "am2": "1", "am1": "1/3", "a0": "1/3", "a1": "1/3", "a2": "-1/3", "a3": "1/3"},
        ("am3", "a2"): {"am3": "1/3", "am2": "-1/3", "am1": "1/3", "a0": "1/3", "a1": "1/3", "a2": "1", "a3": "2/3"},
        ("am3", "a3"): {"am3": "2/3", "am2": "1/3", "am1": "-1/3", "a0": "-1/3", "a1": "-1/3", "a2": "1/3", "a3": "2/3"},
    }
    for (left, right), value in heavy.items():
        value = dict(value)
        if with_p1 and (left, right) in (("am2", "a3"), ("am3", "a2")):
            value["p1"] = "1"
        products[(left, right)] = value
    wrap = "am3 - a3 + am2 - a2 + am1"
    return _document(labels, products, -3, 3, wrap, **constraints)


def _seven():
    return CatalogEntry(
        name="Seven",
        doc="seven axes plus one central scalar element",
        document=_seven_document(True),
        expected_adim=7,
        expected_case=4,
        expected_relation=("0", "1", "1", "1"),
        default_field="q",
        fixed_eta="4/3",
    )


def _seven_x():
    return CatalogEntry(
        name="SevenX",
        doc="seven-axis quotient with the central element collapsed; needs characteristic five",
        document=_seven_document(False, characteristic=5),
        expected_adim=7,
        expected_case=4,
        expected_relation=("0", "1", "1", "1"),
        default_field="gf:5",
        fixed_eta="4/3",
    )


@cache
def _entries():
    built = (
        _three_even(),
        _three_even_x(),
        _four_even(),
        _four_even_x(),
        _bar_four_two(),
        _five_three(),
        _six_three(),
        _seven(),
        _seven_x(),
    )
    return {e.name.lower(): e for e in built}


def list_entries():
    """The fully encoded entries, in catalog order."""
    return tuple(_entries().values())


def get_entry(name: str) -> CatalogEntry:
    entry = _entries().get(name.lower())
    if entry is None:
        raise UnknownEntry(f"unknown catalog entry {name!r}")
    return entry


def field_from_spec(spec: str) -> FieldDescriptor:
    """Parse a field spec: q | gf:<p> | qeta | nf:<c0,c1,...>."""
    if spec == "q":
        return FieldDescriptor.rationals()
    if spec == "qeta":
        return QETA
    try:
        if spec.startswith("gf:"):
            return FieldDescriptor.prime(int(spec[3:]))
        if spec.startswith("nf:"):
            coeffs = tuple(Fraction(c) for c in spec[3:].split(","))
            return FieldDescriptor.number_field(coeffs)
    except (ValueError, ZeroDivisionError):
        raise ConstraintViolation(f"malformed number in field spec {spec!r}") from None
    raise ConstraintViolation(f"unknown field spec {spec!r}")


_instantiate_cache: dict = {}
_verify_cache: dict = {}


def clear_caches():
    _instantiate_cache.clear()
    _verify_cache.clear()


def instantiate(name, field=None, eta=None, enforce=True):
    """Build (AlgebraDef, DihedralData) for a catalog entry.

    ``field`` is a FieldDescriptor or a spec string; ``eta`` a FieldElement
    or scalar literal.  Defaults come from the entry.  Only the entry's own
    rules are checked here (its fixed eta unless ``enforce`` is false; no
    symbolic eta where a minimal polynomial binds it); the document, at this
    field and eta, then goes through algfile.load_document.  The rules are
    checked before the cache lookup, so the cache is keyed on (entry, field,
    eta) alone: ``enforce`` decides which calls are refused, not what an
    admitted call returns, and each instantiation is loaded once.
    """
    entry = get_entry(name)
    if not isinstance(field, FieldDescriptor):
        field = field_from_spec(entry.default_field if field is None else field)
    if eta is None:
        if entry.fixed_eta is not None:
            eta = parse_scalar(entry.fixed_eta, field)
        elif field.variable is not None:
            eta = field.generator()
        else:
            raise ConstraintViolation(f"{entry.name} needs an explicit eta over {field!r}")
    elif isinstance(eta, str):
        eta = parse_scalar(eta, field)
    if eta.field is not field:
        raise ConstraintViolation("eta does not lie in the requested field")

    if enforce and entry.fixed_eta is not None and eta != parse_scalar(entry.fixed_eta, field):
        raise ConstraintViolation(f"{entry.name} is defined at eta = {entry.fixed_eta} only")
    if entry.requires_eta_minpoly is not None and field.kind == FieldDescriptor.RATIONAL_FUNCTIONS:
        raise ConstraintViolation(
            f"{entry.name} needs eta bound by its minimal polynomial; "
            "a symbolic eta is not admissible"
        )
    key = (entry.name, field, render(eta))
    cached = _instantiate_cache.get(key)
    if cached is not None:
        return cached
    document = dict(
        entry.document,
        field=algfile.field_to_dict(field),
        dihedral=dict(entry.document["dihedral"], eta=render(eta)),
    )
    alg, dd, _ = algfile.load_document(document, entry.name)
    _instantiate_cache[key] = alg, dd
    return alg, dd


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


class EntryReport(namedtuple(
    "EntryReport", "entry field_repr eta_repr checks scalars relation dimensions"
)):
    """A verification report.  Frozen, with read-only mappings and tuples,
    since verify_entry hands one cached report to every caller."""

    __slots__ = ()

    @property
    def passed(self):
        return all(c.status != "fail" for c in self.checks)

    @property
    def structurally_passed(self):
        """Axis/fusion/Miyamoto/dihedral/relation checks, identity rows aside."""
        return all(
            c.status != "fail"
            for c in self.checks
            if not c.name.startswith("identity:")
        )

    def canonical(self):
        def thawed(mapping):
            return {k: list(v) if isinstance(v, tuple) else v for k, v in mapping.items()}

        return {
            "entry": self.entry,
            "field": self.field_repr,
            "eta": self.eta_repr,
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
            "scalars": dict(sorted(self.scalars.items())),
            "relation": thawed(self.relation),
            "dimensions": thawed(self.dimensions),
        }


ALL_CHECKS = ("fusion", "dihedral", "relations", "identities")


def _fusion_pass(report, alg, dd, documented):
    dec = dd.base_split
    report.dimensions["parts"] = tuple(dec.dims())
    violations = check_fusion(alg, dec)
    detail = "; ".join(
        f"parts ({v.part_i},{v.part_j}) escape {v.allowed}" for v in violations[:4]
    )
    report.checks.append(CheckResult("fusion", "fail" if violations else "pass", detail))


def _dihedral_pass(report, alg, dd, documented):
    violations = check_dihedral(alg, dd)
    detail = "; ".join(f"{v.condition}@{v.index}: {v.detail}" for v in violations[:6])
    report.checks.append(CheckResult("dihedral", "fail" if violations else "pass", detail))


def _relation_pass(report, alg, dd, documented):
    witness = axial_dimension(alg, dd)
    report.relation = {
        "adim": witness.adim,
        "case": witness.case,
        "parity": witness.parity,
        "coefficients": tuple(render(c) for c in witness.coefficients),
    }
    report.checks.append(CheckResult("relation", "pass", witness.describe()))
    if documented is None:
        return
    expected = tuple(
        parse_scalar(lit, alg.field, dd.eta) for lit in documented.expected_relation
    )
    ok = (
        witness.adim == documented.expected_adim
        and witness.case == documented.expected_case
        and witness.coefficients == expected
    )
    report.checks.append(
        CheckResult(
            "relation_documented",
            "pass" if ok else "fail",
            "" if ok else
            f"computed {witness.describe()}, documented case "
            f"{documented.expected_case} adim {documented.expected_adim} "
            f"coefficients {list(documented.expected_relation)}",
        )
    )


def _identity_pass(report, alg, dd, documented):
    ident = identity_suite(alg, dd)
    for c in ident.checks:
        report.checks.append(c._replace(name=f"identity:{c.name}"))
    for key, value in ident.scalars.items():
        report.scalars[key] = render(value)


# check name -> (row reported when the pass raises, pass), in report order
_PASSES = {
    "fusion": ("fusion", _fusion_pass),
    "dihedral": ("dihedral", _dihedral_pass),
    "relations": ("relation", _relation_pass),
    "identities": ("identities", _identity_pass),
}


def verify(name, alg, dd, checks=ALL_CHECKS, documented=None):
    """Run the selected verification passes on an algebra and its dihedral data.

    ``documented`` is the CatalogEntry the algebra came from, if any; it adds
    the ``relation_documented`` row.  A pass that raises an AxialError fails
    with the error as its detail: the input was accepted, so a failure here
    is a failed check, not a rejected input.
    """
    report = SimpleNamespace(checks=[], scalars={}, relation={}, dimensions={"ambient": alg.dim})
    for check, (row, run) in _PASSES.items():
        if check not in checks:
            continue
        try:
            run(report, alg, dd, documented)
        except AxialError as exc:
            report.checks.append(CheckResult(row, "fail", str(exc)))
    return EntryReport(
        name, repr(alg.field), render(dd.eta), tuple(report.checks),
        MappingProxyType(report.scalars), MappingProxyType(report.relation),
        MappingProxyType(report.dimensions),
    )


def verify_entry(name, field=None, eta=None, checks=ALL_CHECKS):
    """Instantiate a catalog entry and verify it against its documentation."""
    entry = get_entry(name)
    alg, dd = instantiate(name, field, eta)
    key = (entry.name, alg.field, render(dd.eta), tuple(checks))
    report = _verify_cache.get(key)
    if report is None:
        report = _verify_cache[key] = verify(entry.name, alg, dd, checks, documented=entry)
    return report


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------


ClaimReport = namedtuple("ClaimReport", "name kind subject status detail")


def _claim(name, kind, subject, ok, detail=""):
    return ClaimReport(name, kind, subject, "pass" if ok else "fail", detail)


def _span(alg, dd, literals):
    """The span of the vector literals, read with the algebra's labels and eta."""
    vectors = [algfile.parse_vector(lit, alg, dd.eta) for lit in literals]
    return Subspace.from_vectors(alg.field, alg.dim, vectors)


# entry, then three (label, field, eta) instantiations: p1 spans an ideal at
# the middle one only.  The tables are instantiated unenforced: FourEv away
# from -1/3 is still a well-formed algebra, and is_ideal is meaningful on it.
_IDEAL_ROWS = (
    ("ThreeEv", ("generic", "qeta", "eta"), ("at -1/3", "q", "-1/3"), ("at 1/4", "q", "1/4")),
    ("FourEv", ("generic", "qeta", "eta"), ("at -1/3", "q", "-1/3"), ("at 1/4", "q", "1/4")),
    ("Seven", ("char 0", "q", None), ("char 5", "gf:5", None), ("char 7", "gf:7", None)),
)


def _ideal_claims():
    claims = []
    for name, *instantiations in _IDEAL_ROWS:
        found = []
        for label, field, eta in instantiations:
            alg, dd = instantiate(name, field, eta, enforce=False)
            found.append((label, is_ideal(alg, _span(alg, dd, ["p1"]))))
        ok = [spans for _, spans in found] == [False, True, False]
        detail = ", ".join(f"{label} {spans}" for label, spans in found)
        claims.append(_claim(f"ideal_p1_{name}", "ideal", name, ok, detail))
    return claims


def _quotient_or_none(alg, span):
    """quotient(alg, span), or None if span is not an ideal."""
    try:
        return quotient(alg, span)
    except NotAnIdeal:
        return None


# parent, field, eta, ideal literal, child, and the detail phrases for "the
# literal spans an ideal" and "the quotient is the child"
_QUOTIENT_ROWS = (
    ("FiveThree", "q", "-1/3", "am2+am1+a0+a1+a2", "FourEvX",
     "axis-sum span is ideal", "axis correspondence extends bijectively"),
    ("ThreeEv", "q", "-1/3", "p1", "ThreeEvX", "p1 span is ideal", "matches ThreeEvX"),
    ("FourEv", "q", "-1/3", "p1", "FourEvX", "p1 span is ideal", "matches FourEvX"),
    ("Seven", "gf:5", "4/3", "p1", "SevenX", "p1 span is ideal", "matches SevenX"),
)


def _quotient_isomorphism_claims():
    """Each parent modulo the ideal is its child: the projected axes a_i of
    the parent go to the child's a_i for i in -(d+2) .. d+3, d the child's
    dimension, and that correspondence extends to a bijective map."""
    claims = []
    for parent, field, eta, ideal, child, ideal_phrase, child_phrase in _QUOTIENT_ROWS:
        alg, dd = instantiate(parent, field, eta)
        quotient_by_ideal = _quotient_or_none(alg, _span(alg, dd, [ideal]))
        ok = quotient_by_ideal is not None
        detail = f"{ideal_phrase}: {ok}"
        if ok:
            qalg, proj = quotient_by_ideal
            calg, cdd = instantiate(child)
            d = calg.dim
            pairs = [(proj.apply(dd.axis(i)), cdd.axis(i)) for i in range(-(d + 2), d + 4)]
            try:
                ok = extend_from_generators(qalg, pairs, calg).is_bijective()
            except DataInconsistency:
                ok = False
            detail += f"; {child_phrase}: {ok}"
        claims.append(_claim(
            f"quotient_{parent}_is_{child}", "quotient_isomorphism", parent, ok, detail
        ))
    return claims


def _bar_four_two_quotient_claim():
    alg, dd = instantiate("BarFourTwo")
    span = _span(alg, dd, ["p20 + p1 + 2*(a2+a0) + a1 + am1", "p21 + p1 + a2 + a0 + 2*(a1+am1)"])
    quotient2 = _quotient_or_none(alg, span) if span.dim == 2 else None
    ok = quotient2 is not None
    detail = f"two-dimensional ideal: {ok}"
    if ok:
        qalg, proj = quotient2
        ok = qalg.dim == 5
        detail += f"; quotient dimension {qalg.dim}"
        if ok:
            qdd = dd.on_quotient(span, qalg, proj)
            if qdd is None:
                ok = False
                detail += "; maps do not descend"
            else:
                violations = check_dihedral(qalg, qdd)
                witness = axial_dimension(qalg, qdd)
                ok = not violations and witness.adim == 4
                detail += (
                    f"; quotient dihedral violations {len(violations)}, "
                    f"adim {witness.adim}"
                )
    return _claim("quotient_BarFourTwo_two_dim", "quotient_isomorphism", "BarFourTwo", ok, detail)


# the existence and dimension claims read no identity row
_STRUCTURAL_CHECKS = ("fusion", "dihedral", "relations")


def check_claims():
    """Discharge the catalog's existence, ideal, quotient and dimension claims."""
    reports = []
    for entry in list_entries():
        rep = verify_entry(entry.name, checks=_STRUCTURAL_CHECKS)
        reports.append(
            _claim(
                f"existence_{entry.name}", "existence", entry.name,
                rep.structurally_passed,
                "axes, fusion, Miyamoto involutions and the dihedral axioms "
                "at the stated parameters",
            )
        )
        doc_ok = any(
            c.name == "relation_documented" and c.status == "pass" for c in rep.checks
        )
        reports.append(
            _claim(
                f"dimension_{entry.name}", "dimension", entry.name, doc_ok,
                f"documented adim {entry.expected_adim}, case {entry.expected_case}",
            )
        )
    reports += _ideal_claims()
    reports += _quotient_isomorphism_claims()
    reports.append(_bar_four_two_quotient_claim())
    return reports
