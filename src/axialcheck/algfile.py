"""Algebra documents, the one loader of files and catalog entries, and
vector-literal expressions.  The writer of documents is ``derive.dumps``.

A document is a JSON object:

    field:    {"kind": "rationals" | "prime" | "number_field" | "rational_functions", ...}
    basis:    ["p1", "a0", ...]
    products: [{"left": "a0", "right": "a1", "value": {"p1": "1", "a0": "eta"}}, ...]
    dihedral: {"window": [lo, hi], "axes": [...], "shift_images": {...},
               "flip_images": {...}, "eta": "<scalar literal>"}   (optional)
    constraints: {"nonzero": [...], "characteristic": int|null,
                  "exclude_eta": [...]}                           (optional)

Omitted product pairs default to the zero product; duplicate unordered pairs
are rejected.  The loader checks each product once, in one pass that also
resolves its labels to basis indices.  Scalars are always literal strings,
never raw numbers.  Vector literals are linear expressions in basis labels
and the field variable, e.g. "2*eta*(a0+a1) - am1".  In every literal but
the eta literal itself, ``eta`` names the document's eta.

The "eta" key in the dihedral block is an extension of the published layout:
concrete-field files need the middle eigenvalue recorded somewhere to be
verifiable; symbolic files default to the field variable.  Catalog entries
are documents too (catalog.instantiate).
"""

from __future__ import annotations

import json

from .axial import DihedralData
from .algebra import AlgebraDef, _LiteralEnv, extend_from_generators
from .errors import (
    AlgebraFileError,
    AxialError,
    ConstraintViolation,
    DataInconsistency,
    DivisionByZero,
    ScalarSyntaxError,
)
from .fields import FieldDescriptor, FieldElement, parse_expression, parse_scalar, render
from .linalg import Vector


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


_PRODUCT_KEYS = frozenset(("left", "right", "value"))


def _check_shape(doc):
    """Reject a document that is not of the layout above, before any parsing.
    Each product is checked once, in order: its keys, its value's literals,
    its labels, its pair's repetition.  Returns the label index and the
    products, {(min(i, j), max(i, j)): (i, j, [(k, literal), ...])}."""
    _require(
        isinstance(doc, dict) and {"field", "basis", "products"} <= doc.keys(),
        "an algebra file is a JSON object with field, basis and products blocks",
    )
    basis = doc["basis"]
    _require(_all_str(basis, list) and basis, "basis must be a nonempty array of label strings")
    index = {label: i for i, label in enumerate(basis)}
    _require(len(index) == len(basis), "basis labels must be distinct")
    _require(isinstance(doc["products"], list), "products must be an array")
    products = {}
    for item in doc["products"]:
        _require(
            isinstance(item, dict) and _PRODUCT_KEYS <= item.keys(),
            "each product needs left, right and value",
        )
        pair, value = [item["left"], item["right"]], item["value"]
        _require(_all_str(value, dict), "product value must map labels to scalar literal strings")
        try:
            i, j = index[pair[0]], index[pair[1]]
            terms = [(index[label], literal) for label, literal in value.items()]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise AlgebraFileError(f"undeclared basis label in the product {pair!r:.60}") from None
        if (key := (i, j) if i <= j else (j, i)) in products:
            raise AlgebraFileError(f"duplicate product pair {pair}")
        products[key] = i, j, terms

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
                _all_str(images, dict) and images and images.keys() <= index.keys(),
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
    return index, products


def load_document(doc, subject="file"):
    """Build (AlgebraDef, DihedralData | None, constraints) from a document.

    The one loader of algebra files and catalog entries.  It checks the
    document's shape, each product once, then its whole constraints block,
    before it parses any table entry or extends any map.  The AlgebraDef
    rows are then built straight from the checked products, with no Vector
    per product.  ``subject`` names the source in constraint messages.
    """
    index, products = _check_shape(doc)
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

    rows = tuple({} for _ in index)  # as AlgebraDef keeps them, from the checked products
    scalars = {}  # each distinct literal is parsed once, and a zero one kept as None
    for i, j, value in products.values():
        terms = {}
        for k, literal in value:
            if literal not in scalars:
                c = parse_scalar(literal, field, eta).payload
                scalars[literal] = None if field.is_zero(c) else c
            if (c := scalars[literal]) is not None:
                terms[k] = c
        if terms:
            rows[i][j] = rows[j][i] = terms
    alg = AlgebraDef(field, doc["basis"], rows)
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
