"""Algebra documents, the one loader of files and catalog entries, and
vector-literal expressions.

A document is a JSON object:

    field:    {"kind": "rationals" | "prime" | "number_field" | "rational_functions", ...}
    basis:    ["p1", "a0", ...]
    products: [{"left": "a0", "right": "a1", "value": {"p1": "1", "a0": "eta"}}, ...]
    dihedral: {"window": [lo, hi], "axes": [...], "shift_images": {...},
               "flip_images": {...}, "eta": "<scalar literal>"}   (optional)
    constraints: {"nonzero": [...], "characteristic": int|null,
                  "exclude_eta": [...]}                           (optional)

Omitted product pairs default to the zero product; duplicate unordered pairs
are rejected.  Scalars are always literal strings, never raw numbers.
Vector literals are linear expressions in basis labels and the field
variable, e.g. "2*eta*(a0+a1) - am1".  In every literal but the eta literal
itself, ``eta`` names the document's eta.

The "eta" key in the dihedral block is an extension of the published layout:
concrete-field files need the middle eigenvalue recorded somewhere to be
verifiable; symbolic files default to the field variable.  Catalog entries
are documents too (catalog.instantiate).
"""

from __future__ import annotations

import json

from .axial import DihedralData
from .algebra import AlgebraDef, extend_from_generators
from .errors import (
    AlgebraFileError,
    AxialError,
    ConstraintViolation,
    DataInconsistency,
    DivisionByZero,
    ScalarSyntaxError,
)
from .fields import (
    ExpressionEnv,
    FieldDescriptor,
    FieldElement,
    parse_expression,
    parse_scalar,
    render,
)
from .linalg import Vector


class _LiteralEnv(ExpressionEnv):
    """Expression hooks for vector literals: a name is a basis label before it
    is a scalar's name, and labels combine only linearly."""

    def __init__(self, alg: AlgebraDef, eta: FieldElement | None = None):
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


def parse_vector(text: str, alg: AlgebraDef, eta: FieldElement | None = None) -> Vector:
    """Evaluate a vector literal in the algebra's ambient space."""
    value = parse_expression(text, _LiteralEnv(alg, eta))
    if not isinstance(value, Vector):
        raise ScalarSyntaxError(f"expression {text!r} does not denote a vector")
    return value


# ---------------------------------------------------------------------------
# field block
# ---------------------------------------------------------------------------


def field_from_dict(block) -> FieldDescriptor:
    if not isinstance(block, dict) or "kind" not in block:
        raise AlgebraFileError("field block must be an object with a 'kind'")
    kind = block["kind"]
    if kind == "rationals":
        return FieldDescriptor.rationals()
    variable = block.get("variable", "eta")
    if not (isinstance(variable, str) and variable.isidentifier()):
        raise AlgebraFileError(f"field variable {variable!r:.40} is not a name")
    if kind == "prime":
        p = block.get("p")
        if isinstance(p, str) and p.isascii() and p.isdigit() and len(p) <= 40:
            p = int(p)  # a longer string is far past fields.MAX_CHARACTERISTIC
        if isinstance(p, bool) or not isinstance(p, int):
            raise AlgebraFileError(f"prime field needs an integer 'p', not {p!r:.40}")
        return FieldDescriptor.prime(p)
    if kind == "number_field":
        coeffs = block.get("minpoly")
        if not (isinstance(coeffs, list) and coeffs and all(isinstance(c, str) for c in coeffs)):
            raise AlgebraFileError("number field needs a 'minpoly' array of literal strings")
        try:
            minpoly = [parse_scalar(c, FieldDescriptor.rationals()) for c in coeffs]
        except AxialError as exc:
            raise AlgebraFileError(f"minpoly coefficient is not rational: {exc}") from None
        return FieldDescriptor.number_field(minpoly, variable=variable)
    if kind == "rational_functions":
        return FieldDescriptor.rational_functions(variable=variable)
    raise AlgebraFileError(f"unknown field kind {kind!r:.40}")


def field_to_dict(field: FieldDescriptor) -> dict:
    block = {"kind": field.kind}
    if field.p is not None:
        block["p"] = field.p
    if field.minpoly is not None:
        lead = field.minpoly[-1]  # the field keeps the monic modulus times this lead
        block["minpoly"] = [render(FieldDescriptor.rationals().element((c, lead))) for c in field.minpoly]
    if field.variable is not None:
        block["variable"] = field.variable
    return block


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def _require(ok, message):
    if not ok:
        raise AlgebraFileError(message)


def _all_str(value, container):
    """True if value is a list (container=list) or object (dict) of strings."""
    return isinstance(value, container) and all(
        isinstance(v, str) for v in (value.values() if container is dict else value)
    )


def _check_shape(doc):
    """Reject a document that is not of the layout above, before any parsing."""
    _require(
        isinstance(doc, dict) and {"field", "basis", "products"} <= doc.keys(),
        "an algebra file is a JSON object with field, basis and products blocks",
    )
    basis = doc["basis"]
    _require(_all_str(basis, list) and basis, "basis must be a nonempty array of label strings")
    labels = set(basis)
    _require(len(labels) == len(basis), "basis labels must be distinct")
    _require(isinstance(doc["products"], list), "products must be an array")
    pairs = set()
    for item in doc["products"]:
        _require(
            isinstance(item, dict) and {"left", "right", "value"} <= item.keys(),
            "each product needs left, right and value",
        )
        pair = [item["left"], item["right"]]
        _require(_all_str(item["value"], dict), "product value must map labels to scalar literal strings")
        if not (_all_str(pair, list) and {*pair, *item["value"]} <= labels):
            raise AlgebraFileError(f"undeclared basis label in the product {pair!r:.60}")
        key = frozenset(pair)
        if key in pairs:
            raise AlgebraFileError(f"duplicate product pair {pair}")
        pairs.add(key)

    dihedral = doc.get("dihedral")
    if dihedral is not None:
        _require(
            isinstance(dihedral, dict)
            and {"window", "axes", "shift_images", "flip_images"} <= dihedral.keys(),
            "a dihedral block is an object with window, axes, shift_images and flip_images",
        )
        window = dihedral["window"]
        _require(
            isinstance(window, list) and len(window) == 2
            and all(type(i) is int for i in window) and window[0] <= 0 <= window[1],
            "window must be an array [lo, hi] of integers with lo <= 0 <= hi",
        )
        _require(
            _all_str(dihedral["axes"], list) and len(dihedral["axes"]) == window[1] - window[0] + 1,
            "axes must be an array of vector literals, one for each window index",
        )
        for what in ("shift", "flip"):
            images = dihedral[f"{what}_images"]
            _require(
                _all_str(images, dict) and images and images.keys() <= labels,
                f"{what}_images must map basis labels to vector literals",
            )
        _require(dihedral.get("eta") is None or isinstance(dihedral["eta"], str), "eta must be a literal string")

    constraints = doc.get("constraints")
    if constraints is not None:
        _require(isinstance(constraints, dict), "constraints must be an object")
        for key in ("exclude_eta", "nonzero"):
            _require(_all_str(constraints.get(key, []), list), f"{key} must be an array of literal strings")
        required = constraints.get("characteristic")
        _require(required is None or type(required) is int, "characteristic must be an integer or null")


def load_document(doc, subject="file"):
    """Build (AlgebraDef, DihedralData | None, constraints) from a document.

    The one loader of algebra files and catalog entries.  It checks the
    document's shape, then its whole constraints block, before it parses any
    table entry or extends any map.  ``subject`` names the source in
    constraint messages.
    """
    _check_shape(doc)
    field = field_from_dict(doc["field"])
    dihedral = doc.get("dihedral")
    eta = None
    if dihedral is not None and dihedral.get("eta") is not None:
        eta = parse_scalar(dihedral["eta"], field)
    elif dihedral is not None:
        if field.variable is None:
            raise AlgebraFileError("dihedral block needs an 'eta' literal over this field")
        eta = field.generator()

    constraints = doc.get("constraints") or {}
    required = constraints.get("characteristic")
    if required is not None and field.characteristic() != required:
        raise ConstraintViolation(
            f"{subject} requires characteristic {required!r:.40}, "
            f"field has {field.characteristic()}"
        )
    if eta is not None:
        for literal in constraints.get("exclude_eta", ()):
            try:
                excluded = parse_scalar(literal, field, eta)
            except DivisionByZero:  # the excluded value does not exist in this field
                continue
            if eta == excluded:
                raise ConstraintViolation(f"eta = {literal} is excluded for {subject}")
    for literal in constraints.get("nonzero", ()):
        if parse_scalar(literal, field, eta).is_zero():
            raise ConstraintViolation(f"constraint {literal} != 0 fails for {subject}")

    index = {label: i for i, label in enumerate(doc["basis"])}
    table = {}
    scalars = {}  # each distinct literal is parsed once
    for item in doc["products"]:
        terms = {}
        for label, literal in item["value"].items():
            if literal not in scalars:
                scalars[literal] = parse_scalar(literal, field, eta).payload
            if not field.is_zero(scalars[literal]):
                terms[index[label]] = scalars[literal]
        table[index[item["left"]], index[item["right"]]] = Vector.sparse(field, len(index), terms)
    alg = AlgebraDef(field, doc["basis"], table)
    dd = None if dihedral is None else _load_dihedral(dihedral, alg, eta)
    return alg, dd, constraints


def _load_dihedral(block, alg, eta):
    lo = block["window"][0]
    seed_axes = {lo + pos: parse_vector(spec, alg, eta) for pos, spec in enumerate(block["axes"])}
    given = {"shift": block["shift_images"], "flip": block["flip_images"]}
    # maps whose images list the same labels in the same order extend in one closure
    groups = [["shift", "flip"]] if list(given["shift"]) == list(given["flip"]) else [["shift"], ["flip"]]
    maps = []
    for names in groups:
        labels = list(given[names[0]])
        images = [[parse_vector(given[what][label], alg, eta) for label in labels] for what in names]
        gens = [alg.basis_vector(alg.label_index(label)) for label in labels]
        try:
            extended = extend_from_generators(alg, zip(gens, *images), alg)
        except DataInconsistency as exc:
            raise DataInconsistency(f"{names[exc.image]} images do not extend to an automorphism: {exc}") from None
        maps += extended if len(names) > 1 else [extended]
    return DihedralData.build(alg, seed_axes, *maps, eta)


def loads(text: str):
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, an overlong integer, deep nesting
        raise AlgebraFileError(f"invalid JSON: {exc}") from None
    return load_document(doc)


def load_path(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise AlgebraFileError(f"cannot read {path!r}: {exc}") from None
    return loads(text)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _render_vector_literal(v: Vector, labels, literal) -> str:
    terms = []
    for k, c in sorted(v.terms.items()):
        label, lit = labels[k], literal(c)
        if lit == "1":
            term = label
        elif lit == "-1":
            term = f"-{label}"
        else:
            term = f"({lit})*{label}"
        terms.append(term)
    if not terms:
        return "0*" + labels[0]
    out = terms[0]
    for term in terms[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def document_for(alg: AlgebraDef, dd: DihedralData | None = None, constraints=None) -> dict:
    """Serializable file dict for an algebra (products sorted, values rendered).

    ``eta`` in a document's literals is its eta, so where the field's variable
    is named eta but eta is another element, the variable is written as t.
    """
    field = alg.field
    if dd is not None and field.variable == "eta" and dd.eta != field.generator():
        field = field_from_dict(dict(field_to_dict(field), variable="t"))

    literal = field.render  # of a payload
    products = []
    for (i, j) in sorted(alg.table):
        vec = alg.table[(i, j)]
        value = {alg.labels[k]: literal(c) for k, c in sorted(vec.terms.items())}
        products.append(
            {"left": alg.labels[i], "right": alg.labels[j], "value": value}
        )
    doc = {
        "field": field_to_dict(field),
        "basis": list(alg.labels),
        "products": products,
    }
    if dd is not None:
        seed_range = list(range(-1, alg.dim + 1))
        axes = [_render_vector_literal(dd.axis(i), alg.labels, literal) for i in seed_range]
        shift_images = {}
        flip_images = {}
        for k in range(alg.dim):
            label = alg.labels[k]
            shift_images[label] = _render_vector_literal(
                dd.shift.apply(alg.basis_vector(k)), alg.labels, literal
            )
            flip_images[label] = _render_vector_literal(
                dd.flip.apply(alg.basis_vector(k)), alg.labels, literal
            )
        doc["dihedral"] = {
            "window": [seed_range[0], seed_range[-1]],
            "axes": axes,
            "shift_images": shift_images,
            "flip_images": flip_images,
            "eta": literal(dd.eta.payload),
        }
    if constraints:
        doc["constraints"] = constraints
    return doc


def dumps(alg, dd=None, constraints=None) -> str:
    return json.dumps(document_for(alg, dd, constraints), indent=2, sort_keys=False)
