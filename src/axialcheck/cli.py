"""Command-line surface.

Exit codes: 0 all selected checks pass, 1 at least one check failed,
2 the input was rejected before any check ran.

The --json output has a deterministic "canonical" section (byte-identical
across runs for identical inputs) and a separate "meta" section carrying
wall-clock duration.

Only ``verify`` is handled here; the handlers of ``catalog list``, ``emit``
and ``claims``, ``isom`` and ``quotient`` live in ``derive``, which is
compiled when one of them first runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import algfile, catalog
from .errors import AxialError, ConstraintViolation, UnknownEntry


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


def _derived(name):
    """The handler ``name`` of derive, which is compiled when one of them first runs."""
    def run(args):
        from . import derive

        return getattr(derive, name)(args)

    return run


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
    actions.add_parser("list", help="list the entries").set_defaults(func=_derived("cmd_catalog_list"))
    p_emit = actions.add_parser("emit", help="write an entry as an algebra file")
    p_emit.add_argument("name", nargs="?", default=None)
    p_emit.add_argument("--field", default=None)
    p_emit.add_argument("--eta", default=None)
    p_emit.set_defaults(func=_derived("cmd_catalog_emit"))
    p_claims = actions.add_parser("claims", help="discharge the catalog's claims")
    p_claims.add_argument("--json", action="store_true")
    p_claims.set_defaults(func=_derived("cmd_catalog_claims"))

    p_isom = sub.add_parser("isom", help="test a generator correspondence for isomorphism")
    p_isom.add_argument("source_a")
    p_isom.add_argument("source_b")
    p_isom.add_argument("--map", required=True,
                        help="comma list of label=expression generator images")
    p_isom.add_argument("--field", default=None)
    p_isom.add_argument("--eta", default=None)
    p_isom.add_argument("--field-b", dest="field_b", default=None)
    p_isom.add_argument("--eta-b", dest="eta_b", default=None)
    p_isom.set_defaults(func=_derived("cmd_isom"))

    p_quot = sub.add_parser("quotient", help="quotient by an ideal and emit the file")
    p_quot.add_argument("source")
    p_quot.add_argument("--ideal", required=True,
                        help="semicolon-separated vector literals spanning the ideal")
    p_quot.add_argument("--field", default=None)
    p_quot.add_argument("--eta", default=None)
    p_quot.add_argument("--output", "-o", default=None)
    p_quot.set_defaults(func=_derived("cmd_quotient"))
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
