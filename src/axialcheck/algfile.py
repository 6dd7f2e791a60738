"""Human-writable algebra files and vector-literal expressions.

A file is a JSON document:

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
variable, e.g. "2*eta*(a0+a1) - am1".

The "eta" key in the dihedral block is an extension of the published layout:
concrete-field files need the middle eigenvalue recorded somewhere to be
verifiable; symbolic files default to the field variable.
"""

from __future__ import annotations

import json

from .axial import DihedralData
from .algebra import AlgebraDef, AlgebraMap, extend_from_generators
from .errors import AlgebraFileError, AxialError, DataInconsistency, ScalarSyntaxError, UnknownSymbol
from .fields import (
    ExpressionEnv,
    FieldDescriptor,
    FieldElement,
    parse_expression,
    parse_scalar,
    render,
)
from .linalg import Vector


class _VectorEnv(ExpressionEnv):
    """Expression hooks where names are basis labels or the field variable."""

    def __init__(self, alg: AlgebraDef, eta: FieldElement | None):
        self.alg = alg
        self.eta = eta

    def from_int(self, n):
        return self.alg.field.from_int(n)

    def atom(self, name):
        if name in self.alg.labels:
            return self.alg.basis_vector(self.alg.label_index(name))
        if name == self.alg.field.variable:
            return self.alg.field.generator()
        if self.eta is not None and name == "eta":
            return self.eta
        raise UnknownSymbol(f"unknown label or variable {name!r}")

    def add(self, a, b):
        if isinstance(a, Vector) != isinstance(b, Vector):
            raise ScalarSyntaxError("cannot add a scalar to a vector")
        return a + b

    def sub(self, a, b):
        if isinstance(a, Vector) != isinstance(b, Vector):
            raise ScalarSyntaxError("cannot subtract a scalar from a vector")
        return a - b

    def neg(self, a):
        return -a

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
    value = parse_expression(text, _VectorEnv(alg, eta))
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
            minpoly = tuple(parse_scalar(c, FieldDescriptor.rationals()).payload for c in coeffs)
        except AxialError as exc:
            raise AlgebraFileError(f"minpoly coefficient is not rational: {exc}") from None
        return FieldDescriptor.number_field(minpoly, variable=variable)
    if kind == "rational_functions":
        return FieldDescriptor.rational_functions(variable=variable)
    raise AlgebraFileError(f"unknown field kind {kind!r:.40}")


def field_to_dict(field: FieldDescriptor) -> dict:
    if field.kind == FieldDescriptor.RATIONALS:
        return {"kind": "rationals"}
    if field.kind == FieldDescriptor.PRIME:
        return {"kind": "prime", "p": field.p}
    if field.kind == FieldDescriptor.NUMBER_FIELD:
        coeffs = [
            str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            for c in field.minpoly
        ]
        return {"kind": "number_field", "minpoly": coeffs, "variable": field.variable}
    return {"kind": "rational_functions", "variable": field.variable}


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def load_document(doc: dict):
    """Build (AlgebraDef, DihedralData | None, constraints) from a file dict."""
    if not isinstance(doc, dict):
        raise AlgebraFileError("algebra file must be a JSON object")
    for key in ("field", "basis", "products"):
        if key not in doc:
            raise AlgebraFileError(f"missing required block {key!r}")
    field = field_from_dict(doc["field"])
    basis = doc["basis"]
    if (
        not isinstance(basis, list)
        or not basis
        or any(not isinstance(b, str) for b in basis)
    ):
        raise AlgebraFileError("basis must be a nonempty array of label strings")
    if len(set(basis)) != len(basis):
        raise AlgebraFileError("basis labels must be distinct")
    index = {label: i for i, label in enumerate(basis)}

    table = {}
    seen = set()
    for item in doc["products"]:
        if not isinstance(item, dict) or not {"left", "right", "value"} <= set(item):
            raise AlgebraFileError("each product needs left, right and value")
        left, right = item["left"], item["right"]
        for label in (left, right):
            if label not in index:
                raise AlgebraFileError(f"undeclared basis label {label!r}")
        key = tuple(sorted((index[left], index[right])))
        if key in seen:
            raise AlgebraFileError(f"duplicate product pair ({left}, {right})")
        seen.add(key)
        value = item["value"]
        if not isinstance(value, dict):
            raise AlgebraFileError("product value must map labels to scalar literals")
        entries = [field.zero()] * len(basis)
        for label, literal in value.items():
            if label not in index:
                raise AlgebraFileError(f"undeclared basis label {label!r} in a value")
            if not isinstance(literal, str):
                raise AlgebraFileError("scalars in files must be literal strings")
            entries[index[label]] = parse_scalar(literal, field)
        table[key] = Vector(field, entries)
    alg = AlgebraDef(field, tuple(basis), table)

    dd = None
    if "dihedral" in doc and doc["dihedral"] is not None:
        dd = _load_dihedral(doc["dihedral"], alg)

    constraints = doc.get("constraints") or {}
    if not isinstance(constraints, dict):
        raise AlgebraFileError("constraints must be an object")
    required_char = constraints.get("characteristic")
    if required_char is not None and field.characteristic() != required_char:
        raise AlgebraFileError(
            f"file requires characteristic {required_char}, "
            f"field has {field.characteristic()}"
        )
    return alg, dd, constraints


def _load_dihedral(block, alg):
    for key in ("window", "axes", "shift_images", "flip_images"):
        if key not in block:
            raise AlgebraFileError(f"dihedral block missing {key!r}")
    lo, hi = block["window"]
    axes_spec = block["axes"]
    if len(axes_spec) != hi - lo + 1:
        raise AlgebraFileError("axes array does not match the window bounds")
    field = alg.field
    if "eta" in block and block["eta"] is not None:
        eta = parse_scalar(block["eta"], field)
    elif field.variable is not None:
        eta = field.generator()
    else:
        raise AlgebraFileError("dihedral block needs an 'eta' literal over this field")

    def to_vector(spec):
        if spec in alg.labels:
            return alg.basis_vector(alg.label_index(spec))
        return parse_vector(spec, alg, eta)

    seed_axes = {lo + pos: to_vector(spec) for pos, spec in enumerate(axes_spec)}
    shift = _map_from_images(alg, block["shift_images"], eta, "shift")
    flip = _map_from_images(alg, block["flip_images"], eta, "flip")
    return DihedralData.build(alg, seed_axes, shift, flip, eta)


def _map_from_images(alg, images, eta, what) -> AlgebraMap:
    if not isinstance(images, dict) or not images:
        raise AlgebraFileError(f"{what}_images must be a nonempty object")
    pairs = []
    for label, literal in images.items():
        if label not in alg.labels:
            raise AlgebraFileError(f"undeclared basis label {label!r} in {what}_images")
        src = alg.basis_vector(alg.label_index(label))
        pairs.append((src, parse_vector(literal, alg, eta)))
    result = extend_from_generators(alg, pairs, alg)
    if isinstance(result, AlgebraMap):
        return result
    raise DataInconsistency(f"{what} images do not extend to an automorphism: {result}")


def loads(text: str):
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise AlgebraFileError(f"invalid JSON: {exc}") from None
    return load_document(doc)


def load_path(path):
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _render_vector_literal(v: Vector, labels) -> str:
    terms = []
    for label, c in zip(labels, v.entries):
        if c.is_zero():
            continue
        lit = render(c)
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
    """Serializable file dict for an algebra (products sorted, values rendered)."""
    products = []
    for (i, j) in sorted(alg.table):
        vec = alg.table[(i, j)]
        value = {
            alg.labels[k]: render(c)
            for k, c in enumerate(vec.entries)
            if not c.is_zero()
        }
        products.append(
            {"left": alg.labels[i], "right": alg.labels[j], "value": value}
        )
    doc = {
        "field": field_to_dict(alg.field),
        "basis": list(alg.labels),
        "products": products,
    }
    if dd is not None:
        axes = []
        basis_vectors = {
            alg.basis_vector(k): alg.labels[k] for k in range(alg.dim)
        }
        lo = max(dd.lo, -1)
        hi = min(dd.hi, alg.dim)
        seed_range = list(range(lo, hi + 1))
        for i in seed_range:
            v = dd.axis(i)
            axes.append(basis_vectors.get(v) or _render_vector_literal(v, alg.labels))
        shift_images = {}
        flip_images = {}
        for k in range(alg.dim):
            label = alg.labels[k]
            shift_images[label] = _render_vector_literal(
                dd.shift.apply(alg.basis_vector(k)), alg.labels
            )
            flip_images[label] = _render_vector_literal(
                dd.flip.apply(alg.basis_vector(k)), alg.labels
            )
        doc["dihedral"] = {
            "window": [seed_range[0], seed_range[-1]],
            "axes": axes,
            "shift_images": shift_images,
            "flip_images": flip_images,
            "eta": render(dd.eta),
        }
    if constraints:
        doc["constraints"] = constraints
    return doc


def dumps(alg, dd=None, constraints=None) -> str:
    return json.dumps(document_for(alg, dd, constraints), indent=2, sort_keys=False)
