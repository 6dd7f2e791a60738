"""What the program derives from a verified algebra, compiled on first use:
the algebra-file writer (its field block by field_to_dict; ``algfile`` only
reads documents), the library functions that no verify runs, the dihedral
data induced on a quotient, the catalog's claim suite and the handlers of
``catalog list``, ``catalog emit``, ``catalog claims``, ``isom`` and
``quotient``.

No ``verify`` runs any of it, so a verify never compiles this module.  Each
library function here keeps a one-line entry point in its old module
(``fields.specialize``, ``linalg.rref``, ``algebra.quotient``, ...), and
every call goes through the names that the benchmark traces, in their
modules, so a tracer installed before this module is first imported still
sees every call.
"""

from __future__ import annotations

import json
import sys
import time
from collections import namedtuple

from . import algebra, algfile, axial, catalog, cli, linalg
from .errors import AmbientMismatch, AxialError, DataInconsistency, DenominatorVanishes, DescriptorMismatch, NotAnIdeal
from .fields import FieldDescriptor, FieldElement, render
from .linalg import Matrix, Subspace, Vector

# ---------------------------------------------------------------------------
# the algebra-file writer
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


def field_to_dict(field: FieldDescriptor) -> dict:
    """The field block of a document, which algfile.field_from_dict reads back as field."""
    block = {"kind": field.kind}
    if field.p is not None:
        block["p"] = field.p
    if field.minpoly is not None:
        lead = field.minpoly[-1]  # the field keeps the monic modulus times this lead
        block["minpoly"] = [render(FieldDescriptor.rationals().element((c, lead))) for c in field.minpoly]
    if field.variable is not None:
        block["variable"] = field.variable
    return block


def document_for(alg: algebra.AlgebraDef, dd=None, constraints=None) -> dict:
    """Serializable file dict for an algebra (products sorted, values rendered).

    ``eta`` in a document's literals is its eta, so where the field's variable
    is named eta but eta is another element, the variable is written as t.
    """
    field = alg.field
    if dd is not None and field.variable == "eta" and dd.eta != field.generator():
        field = algfile.field_from_dict(dict(field_to_dict(field), variable="t"))

    literal = field.render  # of a payload
    products = []
    for i, row in enumerate(alg.rows):
        for j in sorted(j for j in row if j >= i):
            value = {alg.labels[k]: literal(c) for k, c in sorted(row[j].items())}
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


# ---------------------------------------------------------------------------
# library functions that no verify runs
# ---------------------------------------------------------------------------


def specialize(x: FieldElement, target: FieldDescriptor, value: FieldElement) -> FieldElement:
    """Substitute the rational-function variable by ``value`` and evaluate.

    A ring homomorphism wherever the denominator (and every coefficient's
    image) survives; raises DenominatorVanishes otherwise.
    """
    if x.field.kind != FieldDescriptor.RATIONAL_FUNCTIONS:
        raise DescriptorMismatch("specialize expects a rational-function element")
    if value.field is not target:
        raise DescriptorMismatch("value does not lie in the target field")
    from .polynomials import _peval  # loaded already, as x lies in Q(t)
    num_val, den_val = (_peval(p, x.payload[1][-1], value, target) for p in x.payload)
    if num_val is None:
        return target.zero()
    if den_val is None or den_val.is_zero():
        raise DenominatorVanishes(f"denominator of {render(x)} vanishes at {render(value)}")
    return num_val / den_val


def rref(m: Matrix):
    """Reduced row echelon form: returns (rref matrix, rank, pivot columns)."""
    field = m.field
    space = linalg._echelon(m).subspace()
    pivots = tuple(space.rows)
    columns = linalg._transpose((v.terms for v in space.basis), m.ncols)
    reduced = Matrix.from_columns(field, [Vector.sparse(field, m.nrows, c) for c in columns], m.nrows)
    return reduced, len(pivots), pivots


def intersection(space: Subspace, other: Subspace) -> Subspace:
    """Zassenhaus: the span of (u | u) and (w | 0) meets the vectors that
    vanish on the first half exactly in (0 | U and W)."""
    if not isinstance(other, Subspace):
        raise AmbientMismatch("expected a Subspace")
    if other.ambient != space.ambient or other.field is not space.field:
        raise AmbientMismatch("subspaces in different ambient spaces")
    field, n = space.field, space.ambient
    sums = linalg.EchelonBasis(field, 2 * n)
    for pc, row in space.rows.items():
        u = linalg._full_row(field, pc, row)
        sums._insert(u | {j + n: a for j, a in u.items()})
    for pc, row in other.rows.items():
        sums._insert(linalg._full_row(field, pc, row))
    return sums.subspace(n)


def is_ideal(alg: algebra.AlgebraDef, s: Subspace) -> bool:
    for k in range(alg.dim):
        b = alg.basis_vector(k)
        for v in s.basis:
            if not s.contains(algebra.multiply(alg, b, v)):
                return False
    return True


def is_homomorphism(m: algebra.AlgebraMap) -> bool:
    """Check m(x*y) = m(x)*m(y) on all basis pairs (bilinearity does the rest)."""
    src, tgt = m.source, m.target
    images = m.matrix.columns
    for i in range(src.dim):
        for j in range(i + 1):
            lhs = m.apply(src.product_of_basis(i, j))
            rhs = algebra.multiply(tgt, images[i], images[j])
            if lhs != rhs:
                return False
    return True


def quotient(alg: algebra.AlgebraDef, ideal: Subspace):
    """Quotient algebra on cosets of non-pivot basis vectors, plus projection.
    The ideal must be proper: the zero algebra has no basis to hold."""
    if ideal.dim == alg.dim:
        raise AxialError("the ideal is the whole algebra, so the quotient is zero")
    if not algebra.is_ideal(alg, ideal):
        raise NotAnIdeal("subspace is not closed under multiplication by the algebra")
    keep = [k for k in range(alg.dim) if k not in ideal.rows]
    qdim = len(keep)
    field = alg.field
    index = {k: q for q, k in enumerate(keep)}  # v modulo the ideal is zero at its pivots

    def project(v: Vector) -> Vector:
        return Vector.sparse(field, qdim, {index[k]: c for k, c in ideal.reduce(v).terms.items()})

    qtable = {}
    for qi, ki in enumerate(keep):
        for qj, kj in enumerate(keep[: qi + 1]):
            vec = project(alg.product_of_basis(ki, kj))
            if not vec.is_zero():
                qtable[(qj, qi)] = vec
    qalg = algebra.AlgebraDef(field, tuple(alg.labels[k] for k in keep), qtable)
    proj_cols = [project(alg.basis_vector(k)) for k in range(alg.dim)]
    projection = algebra.AlgebraMap(alg, qalg, Matrix.from_columns(field, proj_cols, nrows=qdim))
    return qalg, projection


# ---------------------------------------------------------------------------
# the dihedral data of a quotient
# ---------------------------------------------------------------------------


def induce_on_quotient(m: algebra.AlgebraMap, ideal: Subspace, qalg: algebra.AlgebraDef,
                       projection: algebra.AlgebraMap) -> algebra.AlgebraMap | None:
    """Descend an endomorphism to the quotient; None if it does not preserve the ideal."""
    for v in ideal.basis:
        if not ideal.contains(m.apply(v)):
            return None
    keep = [k for k in range(m.source.dim) if k not in ideal.rows]
    cols = [projection.apply(m.apply(m.source.basis_vector(k))) for k in keep]
    return algebra.AlgebraMap(qalg, qalg, Matrix.from_columns(qalg.field, cols, nrows=qalg.dim))


def on_quotient(dd, ideal, qalg, projection):
    """The DihedralData of dd's shift, flip and axes induced on
    qalg = dd.algebra / ideal; None if the shift or the flip does not
    preserve the ideal."""
    from .dihedral import DihedralData

    qshift = induce_on_quotient(dd.shift, ideal, qalg, projection)
    qflip = induce_on_quotient(dd.flip, ideal, qalg, projection)
    if qshift is None or qflip is None:
        return None
    return DihedralData.build(qalg, {0: projection.apply(dd.axis(0))}, qshift, qflip, dd.eta)


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------


ClaimReport = namedtuple("ClaimReport", "name kind subject status detail")


def _claim(name, kind, subject, ok, detail=""):
    return ClaimReport(name, kind, subject, "pass" if ok else "fail", detail)


def _span(alg, eta, literals):
    """The span of the vector literals, read with the algebra's labels and eta."""
    vectors = [algfile.parse_vector(lit, alg, eta) for lit in literals]
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
            alg, dd = catalog.instantiate(name, field, eta, enforce=False)
            found.append((label, algebra.is_ideal(alg, _span(alg, dd.eta, ["p1"]))))
        ok = [spans for _, spans in found] == [False, True, False]
        detail = ", ".join(f"{label} {spans}" for label, spans in found)
        claims.append(_claim(f"ideal_p1_{name}", "ideal", name, ok, detail))
    return claims


def _quotient_or_none(alg, span):
    """quotient(alg, span), or None if span is not an ideal."""
    try:
        return algebra.quotient(alg, span)
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


def _bijective(m):
    """Whether the map m is one to one and onto: its matrix is square, with no kernel."""
    return m.matrix.nrows == m.matrix.ncols and not linalg.kernel(m.matrix).basis


def _quotient_isomorphism_claims():
    """Each parent modulo the ideal is its child: the projected axes a_i of
    the parent go to the child's a_i for i in -(d+2) .. d+3, d the child's
    dimension, and that correspondence extends to a bijective map."""
    claims = []
    for parent, field, eta, ideal, child, ideal_phrase, child_phrase in _QUOTIENT_ROWS:
        alg, dd = catalog.instantiate(parent, field, eta)
        quotient_by_ideal = _quotient_or_none(alg, _span(alg, dd.eta, [ideal]))
        ok = quotient_by_ideal is not None
        detail = f"{ideal_phrase}: {ok}"
        if ok:
            qalg, proj = quotient_by_ideal
            calg, cdd = catalog.instantiate(child)
            d = calg.dim
            pairs = [(proj.apply(dd.axis(i)), cdd.axis(i)) for i in range(-(d + 2), d + 4)]
            try:
                ok = _bijective(algebra.extend_from_generators(qalg, pairs, calg))
            except DataInconsistency:
                ok = False
            detail += f"; {child_phrase}: {ok}"
        claims.append(_claim(
            f"quotient_{parent}_is_{child}", "quotient_isomorphism", parent, ok, detail
        ))
    return claims


def _bar_four_two_quotient_claim():
    alg, dd = catalog.instantiate("BarFourTwo")
    span = _span(alg, dd.eta, ["p20 + p1 + 2*(a2+a0) + a1 + am1", "p21 + p1 + a2 + a0 + 2*(a1+am1)"])
    quotient2 = _quotient_or_none(alg, span) if span.dim == 2 else None
    ok = quotient2 is not None
    detail = f"two-dimensional ideal: {ok}"
    if ok:
        qalg, proj = quotient2
        ok = qalg.dim == 5
        detail += f"; quotient dimension {qalg.dim}"
        if ok:
            qdd = on_quotient(dd, span, qalg, proj)
            if qdd is None:
                ok = False
                detail += "; maps do not descend"
            else:
                violations = axial.check_dihedral(qalg, qdd)
                witness = axial.axial_dimension(qalg, qdd)
                ok = not violations and witness.adim == 4
                detail += (
                    f"; quotient dihedral violations {len(violations)}, "
                    f"adim {witness.adim}"
                )
    return _claim("quotient_BarFourTwo_two_dim", "quotient_isomorphism", "BarFourTwo", ok, detail)


# the existence and dimension claims read no identity row
_STRUCTURAL_CHECKS = ("fusion", "dihedral", "relations")


def check_claims():
    """The body of catalog.check_claims."""
    reports = []
    for entry in catalog.list_entries():
        rep = catalog.verify_entry(entry.name, checks=_STRUCTURAL_CHECKS)
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


# ---------------------------------------------------------------------------
# command handlers other than verify
# ---------------------------------------------------------------------------


def _load_source(source, field_spec, eta_literal):
    """Resolve a catalog name or file path to (name, alg, dd)."""
    entry = cli._catalog_entry(source)
    if entry is None:
        return cli._load_file(source, field_spec, eta_literal)
    alg, dd = catalog.instantiate(source, field_spec, eta_literal)
    return entry.name, alg, dd


def cmd_catalog_list(args) -> int:
    lines = []
    for entry in catalog.list_entries():
        constraints = []
        if entry.fixed_eta:
            constraints.append(f"eta={entry.fixed_eta}")
        if entry.required_char:
            constraints.append(f"char={entry.required_char}")
        if entry.default_field.startswith("nf:"):
            constraints.append("minpoly=" + entry.default_field[3:])
        suffix = f"  [{'; '.join(constraints)}]" if constraints else ""
        lines.append(
            f"{entry.name:<12} dim {entry.dim}  adim {entry.expected_adim} "
            f"case {entry.expected_case}  field {entry.default_field}{suffix}\n"
        )
    return cli._write("".join(lines), 0)


def cmd_catalog_emit(args) -> int:
    if not args.name:
        raise AxialError("emit needs an entry name")
    entry = catalog.get_entry(args.name)
    alg, dd = catalog.instantiate(args.name, args.field, args.eta)
    return cli._write(dumps(alg, dd, entry.document.get("constraints")) + "\n", 0)


def cmd_catalog_claims(args) -> int:
    start = time.monotonic()
    reports = catalog.check_claims()
    code = 0 if all(r.status == "pass" for r in reports) else 1
    if args.json:
        return cli._write(cli._report_text({"claims": [r._asdict() for r in reports]}, time.monotonic() - start, True), code)
    return cli._write("".join(f"[{r.status.upper():>5}] {r.name}  ({r.detail})\n" for r in reports), code)


def _parse_correspondence(text, source_alg, target_alg, eta):
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise AxialError(f"correspondence item {chunk!r} is not label=expression")
        left, right = chunk.split("=", 1)
        left = left.strip()
        if left not in source_alg.labels:
            raise AxialError(f"unknown source label {left!r}")
        src = source_alg.basis_vector(source_alg.label_index(left))
        img = algfile.parse_vector(right.strip(), target_alg, eta)
        pairs.append((src, img))
    if not pairs:
        raise AxialError("empty generator correspondence")
    return pairs


def cmd_isom(args) -> int:
    _, alg_a, dd_a = _load_source(args.source_a, args.field, args.eta)
    field_b = args.field if args.field_b is None else args.field_b
    literal_b = args.eta if args.eta_b is None else args.eta_b
    _, alg_b, dd_b = _load_source(args.source_b, field_b, literal_b)
    if alg_a.field is not alg_b.field:
        raise AxialError(
            f"sources live over different fields ({alg_a.field!r} vs {alg_b.field!r})"
        )
    eta_b = dd_b.eta if dd_b is not None else None
    pairs = _parse_correspondence(args.map, alg_a, alg_b, eta_b)
    if alg_a.dim != alg_b.dim:
        return cli._write("no isomorphism: dimensions differ\n", 1)
    try:
        if _bijective(algebra.extend_from_generators(alg_a, pairs, alg_b)):
            return cli._write("isomorphism found\n", 0)
        reason = "the extended map is not bijective"
    except DataInconsistency as exc:
        reason = exc
    return cli._write(f"no isomorphism: {reason}\n", 1)


def cmd_quotient(args) -> int:
    _, alg, dd = _load_source(args.source, args.field, args.eta)
    literals = [chunk.strip() for chunk in args.ideal.split(";") if chunk.strip()]
    if not literals:
        raise AxialError("empty ideal specification")
    span = _span(alg, dd.eta if dd is not None else None, literals)
    try:
        qalg, proj = algebra.quotient(alg, span)
    except NotAnIdeal:
        print("not an ideal", file=sys.stderr)
        return 1
    qdd = on_quotient(dd, span, qalg, proj) if dd is not None else None
    text = dumps(qalg, qdd)
    if not args.output:
        return cli._write(text + "\n", 0)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return 0
