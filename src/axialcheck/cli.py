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

import json
import os
import sys
import time
import types

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


_USAGE = """\
usage: axialcheck verify SOURCE [--field SPEC] [--eta LITERAL] [--check LIST] [--json]
       axialcheck catalog list
       axialcheck catalog emit [NAME] [--field SPEC] [--eta LITERAL]
       axialcheck catalog claims [--json]
       axialcheck isom SOURCE_A SOURCE_B --map LIST [--field SPEC] [--eta LITERAL]
                       [--field-b SPEC] [--eta-b LITERAL]
       axialcheck quotient SOURCE --ideal LIST [--field SPEC] [--eta LITERAL] [--output PATH]
       axialcheck -h

Exact verification of dihedral axial decomposition algebras.

  SOURCE          a catalog entry name or an algebra file path
  --field SPEC    q | gf:<p> | qeta | nf:<c0,c1,...>
  --eta LITERAL   a scalar literal for the parameter eta
  --check LIST    a comma list of fusion,dihedral,relations,identities (default all)
  --json          print the report as JSON
  --map LIST      a comma list of label=expression generator images
  --ideal LIST    semicolon-separated vector literals spanning the ideal
  --output PATH   write the quotient's file there (-o PATH)
An option's value follows it as the next argument or after "=", and may
start with "-", as in --eta -1/3.
"""

# Each command line: its handler's name, then its arguments.  A plain word is
# a positional argument; --name= is an option that takes a value, whose
# default follows the "=", and --name without "=" is a flag.  Brackets mark
# what may be left out.  The handlers other than cmd_verify are derive's.
_COMMANDS = {
    "verify": "cmd_verify source [--field=] [--eta=] [--check=all] [--json]",
    "catalog list": "cmd_catalog_list",
    "catalog emit": "cmd_catalog_emit [name] [--field=] [--eta=]",
    "catalog claims": "cmd_catalog_claims [--json]",
    "isom": "cmd_isom source_a source_b --map= [--field=] [--eta=] [--field-b=] [--eta-b=]",
    "quotient": "cmd_quotient source --ideal= [--field=] [--eta=] [--output=]",
}


def _usage_error(message):
    """Print the usage lines, which end at the first blank line of _USAGE,
    and the message to stderr, and exit 2."""
    usage = _USAGE.split("\n\n")[0]
    sys.stderr.write(f"{usage}\naxialcheck: error: {message}\n")
    raise SystemExit(2)


def _parse(words):
    """The handler name and the arguments of one command line.  -h prints the
    usage and exits 0; a usage error ends in _usage_error."""
    if "-h" in words or "--help" in words:
        raise SystemExit(_write(_USAGE, 0))
    key = " ".join(words[:2 if words[:1] == ["catalog"] else 1])
    if key not in _COMMANDS:
        _usage_error("the following arguments are required: command" if key in ("", "catalog")
                     else f"unrecognized arguments: {' '.join(words)}")
    handler, *spec = _COMMANDS[key].split()
    args, options, positional, required, extra = {}, {}, [], {}, []
    for word in spec:
        name, takes, default = word.strip("[]").partition("=")
        attr = name.lstrip("-").replace("-", "_")
        args[attr] = default or (False if name[0] == "-" and not takes else None)  # a flag starts False
        if name[0] == "-":
            options[name] = attr, takes
        else:
            positional.append(attr)
        if word[0] != "[":
            required[name] = attr
    rest = iter(words[len(key.split()):])
    for word in rest:
        name, given, value = word.partition("=")
        attr, takes = options.get("--output" if name == "-o" else name, (None, ""))
        if attr and not (takes or given):
            args[attr] = True
        elif attr and takes and (given or (value := next(rest, None)) is not None):
            args[attr] = value
        elif positional and word[:1] != "-":
            args[positional.pop(0)] = word
        else:
            extra.append(word)
    missing = [name for name, attr in required.items() if args[attr] is None]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if extra:
        _usage_error(f"unrecognized arguments: {' '.join(extra)}")
    return handler, types.SimpleNamespace(**args)


def main(argv=None) -> int:
    """Run one command; any rejected input ends here as one error line and exit 2."""
    handler, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        if handler == "cmd_verify":
            return cmd_verify(args)
        from . import derive

        return getattr(derive, handler)(args)
    except (AxialError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
