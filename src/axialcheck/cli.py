"""Command-line surface.

Exit codes: 0 all selected checks pass, 1 at least one check failed,
2 the input was rejected before any check ran.

The --json output has a deterministic "canonical" section (byte-identical
across runs for identical inputs) and a separate "meta" section carrying
wall-clock duration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import algfile, catalog
from .algebra import extend_from_generators, quotient
from .errors import AxialError, ConstraintViolation, DataInconsistency, NotAnIdeal, UnknownEntry
from .linalg import Subspace


def _write(text, code):
    """Write a command's output and return its exit code, decided before the
    output is written.  A reader that closed stdout early leaves the code as
    it is: the rest of the output, and the interpreter's last flush, go to
    os.devnull, as the Python docs' note on SIGPIPE advises."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _report_text(canonical, duration, as_json):
    if as_json:
        return json.dumps(
            {"canonical": canonical, "meta": {"duration_seconds": duration}},
            sort_keys=True,
            indent=2,
        ) + "\n"
    lines = []
    for check in canonical.get("checks", []):
        status = check["status"].upper()
        line = f"[{status:>7}] {check['name']}"
        if check.get("detail"):
            line += f"  ({check['detail']})"
        lines.append(line)
    relation = canonical.get("relation")
    if relation:
        lines.append(
            f"adim={relation['adim']} case={relation['case']} "
            f"parity={relation['parity']} coefficients={relation['coefficients']}"
        )
    scalars = canonical.get("scalars")
    if scalars:
        lines.append("scalars: " + ", ".join(f"{k}={v}" for k, v in sorted(scalars.items())))
    lines.append(f"duration: {duration:.3f}s")
    return "\n".join(lines) + "\n"


def _resolve_checks(text):
    """The named checks, each once, in ALL_CHECKS order."""
    if text == "all":
        return catalog.ALL_CHECKS
    names = [part.strip() for part in text.split(",") if part.strip()]
    for name in names:
        if name not in catalog.ALL_CHECKS:
            raise AxialError(f"unknown check {name!r}")
    if not names:
        raise AxialError(f"--check {text!r} names no check")
    return tuple(check for check in catalog.ALL_CHECKS if check in names)


def _catalog_entry(source):
    try:
        return catalog.get_entry(source)
    except UnknownEntry:
        return None


def _load_file(path, field_spec, eta_literal):
    """(name, alg, dd) of an algebra file, which fixes its own field and eta."""
    if not os.path.exists(path):
        raise AxialError(f"{path!r} is neither a catalog entry nor a file")
    given = [
        flag
        for flag, value in (("--field", field_spec), ("--eta", eta_literal))
        if value is not None
    ]
    if given:
        raise ConstraintViolation(
            f"an algebra file fixes its own field and eta; drop {', '.join(given)}"
        )
    alg, dd, _constraints = algfile.load_path(path)
    return os.path.basename(path), alg, dd


def _load_source(source, field_spec, eta_literal):
    """Resolve a catalog name or file path to (name, alg, dd)."""
    entry = _catalog_entry(source)
    if entry is None:
        return _load_file(source, field_spec, eta_literal)
    alg, dd = catalog.instantiate(source, field_spec, eta_literal)
    return entry.name, alg, dd


def cmd_verify(args) -> int:
    start = time.monotonic()
    checks = _resolve_checks(args.check)
    if _catalog_entry(args.source) is not None:
        report = catalog.verify_entry(args.source, args.field, args.eta, checks)
    else:
        name, alg, dd = _load_file(args.source, args.field, args.eta)
        if dd is None:
            raise AxialError("source has no dihedral block; nothing to verify")
        report = catalog.verify(name, alg, dd, checks)
    return _write(_report_text(report.canonical(), time.monotonic() - start, args.json), 0 if report.passed else 1)


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
    return _write("".join(lines), 0)


def cmd_catalog_emit(args) -> int:
    if not args.name:
        raise AxialError("emit needs an entry name")
    entry = catalog.get_entry(args.name)
    alg, dd = catalog.instantiate(args.name, args.field, args.eta)
    return _write(algfile.dumps(alg, dd, entry.document.get("constraints")) + "\n", 0)


def cmd_catalog_claims(args) -> int:
    start = time.monotonic()
    reports = catalog.check_claims()
    code = 0 if all(r.status == "pass" for r in reports) else 1
    if args.json:
        return _write(_report_text({"claims": [r._asdict() for r in reports]}, time.monotonic() - start, True), code)
    return _write("".join(f"[{r.status.upper():>5}] {r.name}  ({r.detail})\n" for r in reports), code)


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
        return _write("no isomorphism: dimensions differ\n", 1)
    try:
        if extend_from_generators(alg_a, pairs, alg_b).is_bijective():
            return _write("isomorphism found\n", 0)
        reason = "the extended map is not bijective"
    except DataInconsistency as exc:
        reason = exc
    return _write(f"no isomorphism: {reason}\n", 1)


def cmd_quotient(args) -> int:
    _, alg, dd = _load_source(args.source, args.field, args.eta)
    eta = dd.eta if dd is not None else None
    vectors = [
        algfile.parse_vector(chunk.strip(), alg, eta)
        for chunk in args.ideal.split(";")
        if chunk.strip()
    ]
    if not vectors:
        raise AxialError("empty ideal specification")
    span = Subspace.from_vectors(alg.field, alg.dim, vectors)
    try:
        qalg, proj = quotient(alg, span)
    except NotAnIdeal:
        print("not an ideal", file=sys.stderr)
        return 1
    qdd = dd.on_quotient(span, qalg, proj) if dd is not None else None
    text = algfile.dumps(qalg, qdd)
    if not args.output:
        return _write(text + "\n", 0)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="axialcheck",
        description="Exact verification of dihedral axial decomposition algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify a catalog entry or algebra file")
    p_verify.add_argument("source", help="catalog entry name or algebra file path")
    p_verify.add_argument("--field", default=None, help="q | gf:<p> | qeta | nf:<c0,c1,...>")
    p_verify.add_argument("--eta", default=None, help="scalar literal for the parameter")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--check", default="all",
                          help="comma list of fusion,dihedral,relations,identities (default all)")
    p_verify.set_defaults(func=cmd_verify)

    p_cat = sub.add_parser("catalog", help="list entries, emit a file, or run claims")
    actions = p_cat.add_subparsers(dest="action", required=True)
    actions.add_parser("list", help="list the entries").set_defaults(func=cmd_catalog_list)
    p_emit = actions.add_parser("emit", help="write an entry as an algebra file")
    p_emit.add_argument("name", nargs="?", default=None)
    p_emit.add_argument("--field", default=None)
    p_emit.add_argument("--eta", default=None)
    p_emit.set_defaults(func=cmd_catalog_emit)
    p_claims = actions.add_parser("claims", help="discharge the catalog's claims")
    p_claims.add_argument("--json", action="store_true")
    p_claims.set_defaults(func=cmd_catalog_claims)

    p_isom = sub.add_parser("isom", help="test a generator correspondence for isomorphism")
    p_isom.add_argument("source_a")
    p_isom.add_argument("source_b")
    p_isom.add_argument("--map", required=True,
                        help="comma list of label=expression generator images")
    p_isom.add_argument("--field", default=None)
    p_isom.add_argument("--eta", default=None)
    p_isom.add_argument("--field-b", dest="field_b", default=None)
    p_isom.add_argument("--eta-b", dest="eta_b", default=None)
    p_isom.set_defaults(func=cmd_isom)

    p_quot = sub.add_parser("quotient", help="quotient by an ideal and emit the file")
    p_quot.add_argument("source")
    p_quot.add_argument("--ideal", required=True,
                        help="semicolon-separated vector literals spanning the ideal")
    p_quot.add_argument("--field", default=None)
    p_quot.add_argument("--eta", default=None)
    p_quot.add_argument("--output", "-o", default=None)
    p_quot.set_defaults(func=cmd_quotient)
    return parser


def main(argv=None) -> int:
    """Run one command; any rejected input ends here as one error line and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AxialError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
