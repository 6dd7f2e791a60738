"""Regenerate the golden corpus of axialcheck outputs.

    PYTHONPATH=src python3 tests/golden/make_golden.py

Every case runs through ``cli.main`` in this process.  A report case stores
its exit code and the ``canonical`` section of its ``--json`` report (the
``meta`` section holds wall-clock time and is left out).  A file case stores
the command's stdout verbatim: the ``catalog emit`` outputs, which the
``verify_file`` cases read back, the ``quotient`` outputs and ``catalog list``.

``tests/test_golden.py`` recomputes every case and compares it byte for
byte with the stored snapshot; it never writes.  Standard library only.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent

ENTRIES = (
    "ThreeEv", "ThreeEvX", "FourEv", "FourEvX", "BarFourTwo",
    "FiveThree", "SixThree", "Seven", "SevenX",
)
SIX_THREE_AT_3 = ("--field", "q", "--eta", "3")


def _cases():
    """(kind, name, argv); "{emit:X}" in argv stands for emit/X.json."""
    cases = []
    for entry in ENTRIES:
        cases.append(("file", f"emit/{entry}", ("catalog", "emit", entry)))
    cases.append(("file", "emit/SixThree_q_3", ("catalog", "emit", "SixThree") + SIX_THREE_AT_3))
    for entry in ENTRIES:
        cases.append(("report", f"verify/{entry}", ("verify", entry, "--json")))
    cases.append(("report", "verify/SixThree_q_3", ("verify", "SixThree") + SIX_THREE_AT_3 + ("--json",)))
    cases.append(("report", "verify/Seven_gf7", ("verify", "Seven", "--field", "gf:7", "--json")))
    for entry in ENTRIES + ("SixThree_q_3",):
        cases.append(("report", f"verify_file/{entry}", ("verify", f"{{emit:{entry}}}", "--json")))
    cases.append(("report", "claims", ("catalog", "claims", "--json")))
    cases.append(("file", "catalog_list", ("catalog", "list")))
    cases.append((
        "file", "quotient/FiveThree_axis_sum",
        ("quotient", "FiveThree", "--field", "q", "--eta=-1/3", "--ideal", "a2+am2+a1+am1+a0"),
    ))
    cases.append((
        "file", "quotient/ThreeEv_p1",
        ("quotient", "ThreeEv", "--field", "q", "--eta=-1/3", "--ideal", "p1"),
    ))
    return tuple(cases)


CASES = _cases()


def snapshot_path(name):
    return GOLDEN / f"{name}.json"


def _resolve(arg):
    if arg.startswith("{emit:"):
        return str(snapshot_path(f"emit/{arg[6:-1]}"))
    return arg


def render_case(kind, argv):
    """The snapshot text of one case, computed now."""
    from axialcheck import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([_resolve(arg) for arg in argv])
    if kind == "file":
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}: {err.getvalue()}")
        return out.getvalue()
    canonical = json.loads(out.getvalue())["canonical"]
    return json.dumps({"exit": code, "canonical": canonical}, sort_keys=True, indent=2) + "\n"


def main():
    src = GOLDEN.parents[1] / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for kind, name, argv in CASES:
        path = snapshot_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_case(kind, argv), encoding="utf-8")
        print(f"wrote {path.relative_to(GOLDEN)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
