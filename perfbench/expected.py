"""Hand-written expected verdicts for the `verify` and `claims` workloads.

Each verify request maps to the exit code and the set of check names whose
status must be "fail".  An exit code of 2 means the input is rejected before
any check runs: no report, and one "error: ..." line on stderr.  Every line
cites where the expectation comes from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# the catalog emits these entries to files, which `verify` then reads through
# the file pipeline instead of the catalog one
FILE_ENTRIES = ("FiveThree", "Seven", "SevenX", "BarFourTwo")


@dataclass(frozen=True)
class VerifyRequest:
    name: str             # stable name used in reports
    args: tuple           # arguments after `axialcheck verify`; "{file:X}" is X's emitted file
    exit_code: int
    failing: frozenset    # checks with status "fail"
    source: str           # where the expectation comes from


def _req(name, args, exit_code, failing, source):
    return VerifyRequest(name, tuple(args), exit_code, frozenset(failing), source)


_ACCEPTANCE = "tests/test_acceptance.py docstring, criterion 4 (rho fails on BarFourTwo and SixThree)"
_CATALOG = (
    "ROADMAP 'Net effect' (all 26 catalog claims pass, so every entry passes its "
    "structural checks) and README (only the product-expansion identity fails by design)"
)

VERIFY_REQUESTS = (
    _req("ThreeEv", ["ThreeEv"], 0, [], _CATALOG),
    _req("ThreeEvX", ["ThreeEvX"], 0, [], _CATALOG),
    _req("FourEv", ["FourEv"], 0, [], _CATALOG),
    _req("FourEvX", ["FourEvX"], 0, [], _CATALOG),
    _req("BarFourTwo", ["BarFourTwo"], 1, ["identity:rho_expansion"], _ACCEPTANCE),
    _req("FiveThree", ["FiveThree"], 0, [], _CATALOG),
    _req("SixThree", ["SixThree"], 1, ["identity:rho_expansion"], _ACCEPTANCE),
    _req("Seven", ["Seven"], 0, [], _CATALOG),
    _req("SevenX", ["SevenX"], 0, [], _CATALOG),
    _req(
        "SixThree@q/3", ["SixThree", "--field", "q", "--eta", "3"], 1,
        ["fusion", "dihedral", "identity:mu_expansion"],
        "README ('fails fusion, exit 1'); check_dihedral repeats fusion at every "
        "window axis, and identity_suite's mu expansion assumes the fusion law",
    ),
    _req(
        "Seven@gf:7", ["Seven", "--field", "gf:7"], 0, [],
        "ROADMAP open item 2: Seven at gf:7 passes the structural checks; "
        "its identity rows pass as well",
    ),
    _req(
        "FourEv@q/-1", ["FourEv", "--field", "q", "--eta=-1"], 2, [],
        "catalog: FourEv has fixed_eta -1/3, so any other eta is rejected",
    ),
    _req(
        "SevenX@gf:7", ["SevenX", "--field", "gf:7"], 2, [],
        "catalog: SevenX has required_char 5, so GF(7) is rejected",
    ),
    _req(
        "file:FiveThree", ["{file:FiveThree}"], 0, [],
        "catalog emit round trip of a passing entry (README, 'Algebra files')",
    ),
    _req(
        "file:Seven", ["{file:Seven}"], 0, [],
        "catalog emit round trip of a passing entry (README, 'Algebra files')",
    ),
    _req(
        "file:SevenX", ["{file:SevenX}"], 0, [],
        "catalog emit round trip of a passing entry (README, 'Algebra files')",
    ),
    _req(
        "file:BarFourTwo", ["{file:BarFourTwo}"], 1, ["identity:rho_expansion"],
        _ACCEPTANCE + "; the file keeps the table, so the identity still fails",
    ),
)

# `axialcheck catalog claims --json`: all 26 claims pass, exit 0.  Source:
# ROADMAP "Net effect" ("all 26 catalog claims pass") and catalog.check_claims,
# which makes an existence and a dimension claim per entry, three ideal
# claims and five quotient claims.
_ENTRIES = (
    "ThreeEv", "ThreeEvX", "FourEv", "FourEvX", "BarFourTwo",
    "FiveThree", "SixThree", "Seven", "SevenX",
)
CLAIMS = tuple(
    [f"{kind}_{e}" for e in _ENTRIES for kind in ("existence", "dimension")]
    + ["ideal_p1_ThreeEv", "ideal_p1_FourEv", "ideal_p1_Seven"]
    + [
        "quotient_FiveThree_is_FourEvX",
        "quotient_ThreeEv_is_ThreeEvX",
        "quotient_FourEv_is_FourEvX",
        "quotient_Seven_is_SevenX",
        "quotient_BarFourTwo_two_dim",
    ]
)
CLAIMS_EXIT_CODE = 0


def _checks(stdout):
    """(name, status) of every check in a `verify --json` report."""
    report = json.loads(stdout)
    return [(c["name"], c["status"]) for c in report["canonical"]["checks"]]


def verify_mismatch(request: VerifyRequest, result) -> str | None:
    """Why a request's result ({exit, stdout, stderr}) differs from the table, or None."""
    exit_code, stdout, stderr = result["exit"], result["stdout"], result["stderr"]
    if exit_code != request.exit_code:
        return f"exit {exit_code}, expected {request.exit_code}: {stderr.strip()[-200:]}"
    if request.exit_code == 2:
        if stdout.strip() or not stderr.startswith("error: "):
            return "rejected input must print only an 'error:' line on stderr"
        return None
    if "Traceback" in stderr:
        return "traceback on stderr"
    try:
        checks = _checks(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}"
    if not checks:
        return "report lists no checks"
    failing = frozenset(name for name, status in checks if status == "fail")
    if failing != request.failing:
        return f"failing checks {sorted(failing)}, expected {sorted(request.failing)}"
    return None


def claims_mismatch(result) -> str | None:
    """Why a `catalog claims --json` result differs from CLAIMS, or None."""
    try:
        claims = json.loads(result["stdout"])["canonical"]["claims"]
        claims = [(c["name"], c["status"]) for c in claims]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable claims report ({exc}): {result['stderr'][-300:]}"
    if result["exit"] != CLAIMS_EXIT_CODE:
        return f"exit {result['exit']}, expected {CLAIMS_EXIT_CODE}"
    names = [name for name, _ in claims]
    if sorted(names) != sorted(CLAIMS):
        return f"claims {names}, expected {list(CLAIMS)}"
    failed = [name for name, status in claims if status != "pass"]
    if failed:
        return f"claims not passing: {failed}"
    return None
