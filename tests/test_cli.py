import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from axialcheck import catalog, cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def is_error_line(err):
    """A rejected input's stderr: exactly one line, "error: ...", no traceback."""
    return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_verify_five_three(capsys):
    code, out, _ = run(capsys, "verify", "FiveThree", "--field", "qeta", "--json")
    assert code == 0
    doc = json.loads(out)
    canonical = doc["canonical"]
    assert canonical["relation"]["adim"] == 5
    assert canonical["relation"]["case"] == 4
    assert "duration_seconds" in doc["meta"]


def test_verify_rejects_symbolic_six_three(capsys):
    code, _, err = run(capsys, "verify", "SixThree", "--field", "qeta")
    assert code == 2 and "minimal polynomial" in err


def test_verify_rejects_wrong_characteristic(capsys):
    code, _, err = run(capsys, "verify", "SevenX", "--field", "gf:7")
    assert code == 2 and "characteristic 5" in err


def test_verify_negative_control_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "SixThree", "--field", "q", "--eta", "3",
                       "--check", "fusion,dihedral")
    assert code == 1
    assert "FAIL" in out


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    names = [line.split()[0] for line in out.splitlines()]
    assert names == [entry.name for entry in catalog.list_entries()] and len(names) == 9


@pytest.mark.parametrize("argv", [
    ("list", "Seven", "--field", "gf:7", "--eta", "5", "--json"),
    ("claims", "Seven", "--field", "gf:7", "--eta", "9"),
    ("emit", "Seven", "--json"),
], ids=lambda argv: argv[0])
def test_catalog_actions_take_only_their_own_options(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(["catalog", *argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments" in captured.err and "Traceback" not in captured.err


def test_catalog_emit_round_trip(tmp_path, capsys):
    # a file and its catalog entry get the same report, witnesses included;
    # only the catalog report carries the relation_documented row
    for source, exit_code in ((("ThreeEv",), 0), (("SixThree", "--field", "q", "--eta", "3"), 1)):
        code, out, _ = run(capsys, "catalog", "emit", *source)
        assert code == 0
        path = tmp_path / f"{source[0]}.json"
        path.write_text(out, encoding="utf-8")
        file_code, file_out, _ = run(capsys, "verify", str(path), "--json")
        direct_code, direct_out, _ = run(capsys, "verify", *source, "--json")
        assert file_code == direct_code == exit_code
        emitted = json.loads(file_out)["canonical"]
        direct = json.loads(direct_out)["canonical"]
        for key in ("field", "eta", "relation", "scalars", "dimensions"):
            assert emitted[key] == direct[key]
        direct_rows = [c for c in direct["checks"] if c["name"] != "relation_documented"]
        assert emitted["checks"] == direct_rows
    fusion = [c for c in emitted["checks"] if c["name"] == "fusion"]
    assert fusion == [{"name": "fusion", "status": "fail", "detail": "parts (2,2) escape (0, 1)"}]


def test_file_source_fixes_field_eta_and_window(tmp_path, capsys):
    code, out, _ = run(capsys, "catalog", "emit", "FiveThree")
    assert code == 0
    path = tmp_path / "fivethree.json"
    path.write_text(out, encoding="utf-8")
    for flags in (("--eta", "3"), ("--field", "gf:7")):
        code, out, err = run(capsys, "verify", str(path), *flags)
        assert code == 2 and out == ""
        assert err.startswith("error: an algebra file fixes its own field") and flags[0] in err
    code, _, err = run(capsys, "quotient", str(path), "--field", "q", "--ideal", "a0")
    assert code == 2 and "--field" in err


def test_malformed_field_specs_exit_two(capsys):
    # an nf: coefficient is a scalar literal: decimals, a leading '+' and
    # exponent forms are not in its grammar; a gf: prime is at most 40 ASCII
    # digits, as a file's "p" is, with no sign, space, underscore or other
    # script's digit
    for spec in ("gf:abc", "gf:", "nf:1,x,1", "nf:1/0,1", "nf:-0.5,0,1", "nf:+1,0,1", "nf:1e3,0,1",
                 "gf:+7", "gf: 7", "gf:\u0667", "gf:1_1", "gf:" + "1" * 41):
        code, out, err = run(capsys, "verify", "Seven", "--field", spec)
        assert code == 2 and out == ""
        assert err == f"error: malformed number in field spec {spec!r}\n"


def test_unknown_field_specs_exit_two(capsys):
    # a kind is one of q, qeta, gf:, nf:, in lower case and with its colon
    for spec in ("", "gf", "nf", "q:", "qeta:", "GF:7"):
        code, out, err = run(capsys, "verify", "Seven", "--field", spec)
        assert code == 2 and out == ""
        assert err == f"error: unknown field spec {spec!r}\n"


def test_prime_field_beyond_the_primality_limit_exits_two(capsys):
    code, out, err = run(capsys, "verify", "Seven", "--field", f"gf:{2**89 - 1}")
    assert code == 2 and out == ""
    assert "is not below the limit" in err


def test_there_is_no_window_option(capsys):
    # the axes are the shift orbit of a_0, so no option sets how many to make
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "Seven", "--window", "4"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "unrecognized arguments: --window 4" in err and "Traceback" not in err


_HELP = "usage: axialcheck verify SOURCE [--field SPEC] [--eta LITERAL] [--check LIST] [--json]\n"


# (argv, exit code, the stream written, a text it holds)
_COMMAND_LINES = [
    (["-h"], 0, "out", _HELP),
    (["verify", "-h"], 0, "out", _HELP),
    (["--help"], 0, "out", _HELP),
    (["verify", "ThreeEv", "--field", "q", "--eta=-1", "--check", "fusion", "--json"], 0, "out", '"eta": "-1"'),
    (["verify", "ThreeEv", "--field", "q", "--eta", "-1", "--check", "fusion", "--json"], 0, "out", '"eta": "-1"'),
    (["verify", "ThreeEv", "--field", "q", "--eta", "-1/3", "--check", "fusion", "--json"], 0, "out",
     '"eta": "-1/3"'),
    (["verify", "--json", "ThreeEv", "--check=fusion"], 0, "out", '"canonical"'),
    (["quotient", "ThreeEv", "--field", "q", "--eta=-1/3", "--ideal", "p1", "-o", "{path}"], 0, "out", ""),
    (["quotient", "ThreeEv", "--field", "q", "--eta=-1/3", "--ideal", "p1", "--output={path}"], 0, "out", ""),
    (["isom", "ThreeEvX", "ThreeEvX"], 2, "err", "axialcheck: error: the following arguments are required: --map\n"),
    (["quotient", "ThreeEv"], 2, "err", "axialcheck: error: the following arguments are required: --ideal\n"),
    (["verify"], 2, "err", "axialcheck: error: the following arguments are required: source\n"),
    (["verify", "Seven", "--eta"], 2, "err", "axialcheck: error: unrecognized arguments: --eta\n"),
    (["catalog"], 2, "err", "axialcheck: error: the following arguments are required: command\n"),
    ([], 2, "err", "axialcheck: error: the following arguments are required: command\n"),
    (["frobnicate", "Seven"], 2, "err", "axialcheck: error: unrecognized arguments: frobnicate Seven\n"),
    (["catalog", "frobnicate"], 2, "err", "axialcheck: error: unrecognized arguments: catalog frobnicate\n"),
    (["verify", "Seven", "--fie", "gf:7"], 2, "err", "axialcheck: error: unrecognized arguments: --fie gf:7\n"),
    (["verify", "Seven", "--json=yes"], 2, "err", "axialcheck: error: unrecognized arguments: --json=yes\n"),
    (["verify", "Seven", "-o", "x"], 2, "err", "axialcheck: error: unrecognized arguments: -o x\n"),
]


@pytest.mark.parametrize("argv, code, stream, text", _COMMAND_LINES,
                         ids=[" ".join(argv) or "(no arguments)" for argv, *_ in _COMMAND_LINES])
def test_the_command_line_table(tmp_path, capsys, argv, code, stream, text):
    # -h prints the usage to stdout; a usage error prints its lines and one
    # error line to stderr and exits 2; a value may start with "-"; "{path}"
    # stands for a file that the run writes
    path = tmp_path / "q.json"
    writes = any("{path}" in a for a in argv)
    argv = [a.format(path=path) for a in argv]
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    out, err = captured.out, captured.err
    assert got == code and text in (out if stream == "out" else err)
    if text == _HELP:
        assert out == cli._USAGE
    assert (err if stream == "out" else out) == ""
    if code == 2:
        assert err.startswith(cli._USAGE.split("\n\n")[0] + "\n") and err.count("error:") == 1
    assert path.exists() == writes
    if writes:
        assert json.loads(path.read_text(encoding="utf-8"))["basis"]


def test_check_selection_names_a_check(capsys):
    for selection in (",", " , ,", ""):
        code, out, err = run(capsys, "verify", "Seven", "--check", selection)
        assert code == 2 and out == ""
        assert err == f"error: --check {selection!r} names no check\n"


def test_check_selection_is_taken_in_report_order(capsys):
    catalog.clear_caches()
    outputs = set()
    for selection in ("fusion,,fusion", "fusion", "relations, fusion", "fusion,relations,fusion"):
        code, out, _ = run(capsys, "verify", "ThreeEv", "--check", selection, "--json")
        assert code == 0
        outputs.add(json.dumps(json.loads(out)["canonical"]))
    assert sorted(key[-1] for key in catalog._verify_cache) == [
        ("fusion",), ("fusion", "relations"),
    ]
    assert len(outputs) == 2


def test_catalog_emit_unknown(capsys):
    code, _, err = run(capsys, "catalog", "emit", "Nonesuch")
    assert code == 2 and is_error_line(err)
    code, out, err = run(capsys, "catalog", "emit")
    assert code == 2 and out == ""
    assert err == "error: emit needs an entry name\n"


def test_claims_text_lists_every_claim(capsys):
    golden = Path(__file__).resolve().parent / "golden" / "claims.json"
    claims = json.loads(golden.read_text(encoding="utf-8"))["canonical"]["claims"]
    code, out, err = run(capsys, "catalog", "claims")
    assert (code, err) == (0, "") and len(claims) == 26
    assert out.splitlines() == [f"[ PASS] {c['name']}  ({c['detail']})" for c in claims]


def test_claims_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "catalog", "claims", "--json")
    code2, out2, _ = run(capsys, "catalog", "claims", "--json")
    assert code1 == code2 == 0
    c1 = json.dumps(json.loads(out1)["canonical"], sort_keys=True)
    c2 = json.dumps(json.loads(out2)["canonical"], sort_keys=True)
    assert c1 == c2
    claims = json.loads(out1)["canonical"]["claims"]
    assert any(c["name"] == "quotient_FiveThree_is_FourEvX" for c in claims)


def test_isom_commands(tmp_path, capsys):
    code, out, _ = run(
        capsys, "quotient", "FiveThree", "--field", "q", "--eta=-1/3",
        "--ideal", "a2+am2+a1+am1+a0", "-o", str(tmp_path / "q.json"),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "isom", str(tmp_path / "q.json"), "FourEvX",
        "--map", "am1=am1,a0=a0,a1=a1,a2=a2",
    )
    assert code == 0 and "isomorphism found" in out
    code, out, _ = run(capsys, "isom", "ThreeEvX", "FourEvX", "--field", "q",
                       "--map", "a0=a0,a1=a1,am1=am1")
    assert code == 1
    code, _, err = run(capsys, "isom", "ThreeEv", "ThreeEv", "--map", "a0=oops")
    assert code == 2 and is_error_line(err)
    code, out, err = run(capsys, "isom", "ThreeEv", "ThreeEv", "--field", "q", "--eta", "2",
                         "--field-b", "gf:7", "--map", "a0=a0")
    assert code == 2 and out == "" and is_error_line(err)
    assert "sources live over different fields" in err


@pytest.mark.parametrize("mapping, code, line", [
    ("am1=a1,a0=a0,a1=am1", 0, "isomorphism found"),
    ("am1=0*a0,a0=0*a0,a1=0*a0", 1, "no isomorphism: the extended map is not bijective"),
    ("a0=a0", 1, "no isomorphism: the generators span only dimension 1 of 3"),
])
def test_isom_prints_its_reason(capsys, mapping, code, line):
    assert run(capsys, "isom", "ThreeEvX", "ThreeEvX", "--map", mapping) == (code, line + "\n", "")


@pytest.mark.parametrize("option, error", [
    ("--field-b", "error: unknown field spec ''\n"),
    ("--eta-b", "error: empty expression\n"),
])
def test_isom_reads_an_empty_second_option_as_given(capsys, option, error):
    # an empty --field-b or --eta-b is refused, as verify refuses it, and does
    # not fall back to --field or --eta
    argv = ["isom", "ThreeEvX", "ThreeEvX", "--map", "a0=a0,a1=a1,am1=am1", "--field", "gf:7"]
    assert run(capsys, *argv) == (0, "isomorphism found\n", "")
    assert run(capsys, *argv, option, "") == (2, "", error)


def test_isom_self_identity(capsys):
    code, out, _ = run(
        capsys, "isom", "FiveThree", "FiveThree",
        "--map", "am2=am2,am1=am1,a0=a0,a1=a1,a2=a2",
    )
    assert code == 0


def test_quotient_errors(tmp_path, capsys):
    code, _, err = run(capsys, "quotient", "ThreeEv", "--ideal", "p1")
    assert code == 1  # not an ideal generically
    code, _, err = run(capsys, "quotient", "ThreeEv", "--ideal", "p1 + *")
    assert code == 2 and is_error_line(err)
    code, out, err = run(capsys, "quotient", "ThreeEv", "--ideal", "")
    assert code == 2 and out == ""
    assert err == "error: empty ideal specification\n"
    missing = tmp_path / "missing" / "q.json"
    code, out, err = run(capsys, "quotient", "ThreeEv", "--field", "q", "--eta=-1/3",
                         "--ideal", "p1", "-o", str(missing))
    assert code == 2 and out == "" and is_error_line(err)
    assert str(missing) in err and not missing.exists()


def test_a_quotient_by_the_whole_algebra_exits_two(capsys):
    # the zero algebra has no basis that a file can hold
    code, out, err = run(capsys, "quotient", "ThreeEvX", "--ideal", "am1;a0;a1")
    assert code == 2 and out == ""
    assert err == "error: the ideal is the whole algebra, so the quotient is zero\n"


def test_a_power_of_a_vector_in_an_ideal_exits_two(capsys):
    code, out, err = run(capsys, "quotient", "ThreeEv", "--ideal", "a0^2")
    assert code == 2 and out == ""
    assert err == "error: cannot exponentiate a vector\n"


def test_quotient_of_three_ev_at_third(tmp_path, capsys):
    code, out, _ = run(
        capsys, "quotient", "ThreeEv", "--field", "q", "--eta=-1/3",
        "--ideal", "p1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == ["am1", "a0", "a1"]


def _emitted(capsys, entry):
    code, out, _ = run(capsys, "catalog", "emit", entry)
    assert code == 0
    return json.loads(out)


def _verify_document(capsys, tmp_path, doc, raw=None):
    path = tmp_path / "mutated.json"
    path.write_text(raw if raw is not None else json.dumps(doc), encoding="utf-8")
    return run(capsys, "verify", str(path))


@pytest.mark.parametrize("field", [
    {"kind": "prime", "p": "abc"},
    {"kind": "prime", "p": 7.5},
    {"kind": "prime", "p": "9" * 5000},
    {"kind": "number_field", "minpoly": ["x", "0", "1"]},
    {"kind": "number_field", "minpoly": ["1/0", "0", "1"]},
    {"kind": "number_field", "minpoly": [-1, 2, 1]},
    {"kind": "number_field", "minpoly": "-1,2,1"},
    {"kind": "rational_functions", "variable": ["eta"]},
], ids=lambda f: json.dumps(f)[:40])
def test_malformed_field_block_exits_two(tmp_path, capsys, field):
    doc = _emitted(capsys, "ThreeEvX")
    doc["field"] = field
    code, out, err = _verify_document(capsys, tmp_path, doc)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_malformed_numbers_elsewhere_in_a_file_exit_two(tmp_path, capsys):
    doc = _emitted(capsys, "ThreeEvX")
    # a JSON integer too long for int(), and a non-integer characteristic
    raw = json.dumps(doc).replace('"kind": "rationals"', '"kind": "prime", "p": ' + "9" * 5000)
    code, out, err = _verify_document(capsys, tmp_path, doc, raw=raw)
    assert code == 2 and err.startswith("error: invalid JSON")
    doc["constraints"] = {"characteristic": "abc"}
    code, out, err = _verify_document(capsys, tmp_path, doc)
    assert code == 2 and err == "error: characteristic must be an integer or null\n"


@pytest.mark.parametrize("characteristic, exit_code", [("5", 2), (True, 2), (5.0, 2), (5, 0), (None, 0)])
def test_required_characteristic_is_an_integer_or_null(tmp_path, capsys, characteristic, exit_code):
    # a string once failed as "requires characteristic '5', field has 5"
    doc = _emitted(capsys, "SevenX")
    assert doc["field"] == {"kind": "prime", "p": 5}
    doc["constraints"]["characteristic"] = characteristic
    code, out, err = _verify_document(capsys, tmp_path, doc)
    assert code == exit_code
    if exit_code:
        assert out == "" and err == "error: characteristic must be an integer or null\n"
    else:
        assert err == ""


@pytest.mark.parametrize("entry, literal", [
    ("ThreeEvX", "(((2^64)^64)^64)^64"),
    ("ThreeEv", "((eta+1)^64)^64"),
])
def test_nested_power_in_a_product_literal_exits_two(tmp_path, capsys, entry, literal):
    doc = _emitted(capsys, entry)
    value = doc["products"][0]["value"]
    value[next(iter(value))] = literal
    start = time.monotonic()
    code, out, err = _verify_document(capsys, tmp_path, doc)
    assert time.monotonic() - start < 1.0
    assert code == 2 and out == "" and "would pass" in err


@pytest.mark.parametrize("eta", ["1", "0"])
def test_eta_outside_the_fusion_table_names_eta(tmp_path, capsys, eta):
    doc = _emitted(capsys, "ThreeEvX")
    doc["dihedral"]["eta"] = eta
    code, out, err = _verify_document(capsys, tmp_path, doc)
    assert code == 2 and out == ""
    assert err == "error: eta must avoid 0 and 1\n"


def test_singular_shift_fails_the_dihedral_check(tmp_path, capsys):
    # the zero map as the shift: D2 names it, and the axes a_i, i < 0, which
    # need the shift's inverse, fail the relation and identities rows
    doc = _emitted(capsys, "ThreeEvX")
    doc["dihedral"].update(window=[0, 0], axes=["a0"])
    doc["dihedral"]["shift_images"] = dict.fromkeys(doc["dihedral"]["shift_images"], "0*a0")
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path), "--json")
    assert code == 1 and err == ""
    rows = {c["name"]: c for c in json.loads(out)["canonical"]["checks"]}
    assert rows["dihedral"] == {
        "name": "dihedral", "status": "fail", "detail": "D2@None: shift is not invertible",
    }
    for name in ("relation", "identities"):
        assert rows[name] == {
            "name": name, "status": "fail",
            "detail": "shift is not invertible, so a_-1 is undefined",
        }


@pytest.mark.parametrize("what, label, image, error", [
    ("shift", "a0", "a0", "error: shift images do not extend to an automorphism: "
     "images disagree on dependent word (word 1*0)\n"),
    ("flip", "a1", "a1", "error: flip images do not extend to an automorphism: "
     "images disagree on dependent word (word 2*0)\n"),
])
def test_images_that_are_not_multiplicative_are_rejected(tmp_path, capsys, what, label, image, error):
    # the loader proves the shift and the flip multiplicative; check_dihedral
    # does not prove it again
    doc = _emitted(capsys, "ThreeEvX")
    doc["dihedral"][f"{what}_images"][label] = image
    code, out, err = _verify_document(capsys, tmp_path, doc)
    assert (code, out, err) == (2, "", error)


_SHIFT = "error: shift images do not extend to an automorphism: "
_FLIP = "error: flip images do not extend to an automorphism: "


# ThreeEvX mutations: shift and flip images set, the labels kept (None for
# all), whether flip_images lists them reversed, and the error.  The shift and
# the flip extend in one closure when they list the same labels in the same
# order, and each error is the one that extending the shift and then the flip
# would raise, with the word numbered in its own map's closure.
@pytest.mark.parametrize("shift, flip, only, reverse, error", [
    # both maps disagree
    ({"a0": "a0"}, {"a1": "a1"}, None, False, _SHIFT + "images disagree on dependent word (word 1*0)\n"),
    # the flip disagrees on word 1*0, before the shift on word 2*1
    ({"a0": "am1"}, {"am1": "a0"}, None, False, _SHIFT + "images disagree on dependent word (word 2*1)\n"),
    # the flip disagrees, and the generators span less than the algebra
    ({"a0": "a1"}, {"a0": "a0 + a1"}, ["a0"], False, _SHIFT + "the generators span only dimension 1 of 3\n"),
    # flip_images in another order: two closures, each numbering its own words
    ({}, {"am1": "a0"}, None, True, _FLIP + "images disagree on dependent word (word 2*1)\n"),
    ({"a0": "a0"}, {"a1": "a1"}, None, True, _SHIFT + "images disagree on dependent word (word 1*0)\n"),
    ({"a0": "a1", "a1": "am1"}, {"a0": "a0 + a1"}, ["a0", "a1"], True,
     _SHIFT + "the generators span only dimension 2 of 3\n"),
    # every literal is read before the one closure, so a malformed flip
    # literal is reported before the shift's disagreement
    ({"a0": "a0"}, {"a1": "a1 +"}, None, False, "error: unexpected token None\n"),
])
def test_the_shift_and_the_flip_fail_in_order(tmp_path, capsys, shift, flip, only, reverse, error):
    doc = _emitted(capsys, "ThreeEvX")
    block = doc["dihedral"]
    for what, images in (("shift", shift), ("flip", flip)):
        given = block[f"{what}_images"]
        given = {label: given[label] for label in only or given}
        given.update(images)
        block[f"{what}_images"] = dict(reversed(given.items())) if reverse and what == "flip" else given
    code, out, err = _verify_document(capsys, tmp_path, doc)
    assert (code, out, err) == (2, "", error)


def _first_product_value(doc, literal):
    value = doc["products"][0]["value"]
    value[next(iter(value))] = literal


# a command line, or a mutation of the SevenX file to verify; the literal
# that has no value, and its field
NO_VALUE = {
    "fixed eta": (["verify", "Seven", "--field", "gf:3"], "4/3", "GF(3)"),
    "file eta": (lambda doc: doc["dihedral"].update(eta="1/5"), "1/5", "GF(5)"),
    "product value": (lambda doc: _first_product_value(doc, "1/5"), "1/5", "GF(5)"),
    "axis": (lambda doc: doc["dihedral"]["axes"].__setitem__(0, "am1/5"), "am1/5", "GF(5)"),
    "ideal": (["quotient", "Seven", "--field", "gf:5", "--ideal", "p1/5"], "p1/5", "GF(5)"),
}


@pytest.mark.parametrize("name", NO_VALUE)
def test_a_literal_with_no_value_in_the_field_names_itself(tmp_path, capsys, name):
    how, literal, field = NO_VALUE[name]
    if callable(how):
        doc = _emitted(capsys, "SevenX")
        how(doc)
        code, out, err = _verify_document(capsys, tmp_path, doc)
    else:
        code, out, err = run(capsys, *how)
    assert code == 2 and out == "" and is_error_line(err)
    assert err.startswith(f"error: {literal!r} has no value in {field}: "), err


@pytest.mark.parametrize("constraints", [
    {"exclude_eta": ["0", "-1/3"]},
    {"nonzero": ["1", "3*eta+1"]},
    {"characteristic": 5},
], ids=lambda c: next(iter(c)))
def test_a_file_is_held_to_its_own_constraints(tmp_path, capsys, constraints):
    # ThreeEvX sits at eta = -1/3, where 3*eta+1 vanishes
    doc = _emitted(capsys, "ThreeEvX")
    doc["constraints"] = constraints
    code, out, err = _verify_document(capsys, tmp_path, doc)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


# structural mistakes that once ended in a traceback
MALFORMED = [
    (("dihedral", "window"), "ab"),
    (("dihedral", "window"), [0, -1]),
    (("dihedral", "axes"), 5),
    (("products", 0, "left"), ["am1"]),
    (("products",), 5),
    (("dihedral",), 5),
]


@pytest.mark.parametrize("path, value", MALFORMED, ids=lambda v: json.dumps(v))
def test_malformed_structure_exits_two(tmp_path, capsys, path, value):
    doc = _emitted(capsys, "ThreeEvX")
    _set(doc, path, value)
    code, out, err = _verify_document(capsys, tmp_path, doc)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unreadable_sources_exit_two(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'\xff{"field": 1}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    for source in (tmp_path, binary, deep):
        code, out, err = run(capsys, "verify", str(source))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_emitted_file_keeps_eta_apart_from_the_field_variable(tmp_path, capsys):
    # at the other root of eta^2 + 2*eta - 1, "eta" in the file is that root,
    # so the emitted field names its generator t
    source = ("SixThree", "--eta=-eta-2")
    code, out, _ = run(capsys, "catalog", "emit", *source)
    assert code == 0
    doc = json.loads(out)
    assert doc["field"]["variable"] == "t" and doc["dihedral"]["eta"] == "-t - 2"
    path = tmp_path / "conjugate.json"
    path.write_text(out, encoding="utf-8")
    file_code, file_out, _ = run(capsys, "verify", str(path), "--json")
    direct_code, direct_out, _ = run(capsys, "verify", *source, "--json")
    assert file_code == direct_code == 1
    rows = [(c["name"], c["status"]) for c in json.loads(file_out)["canonical"]["checks"]]
    direct = json.loads(direct_out)["canonical"]["checks"]
    assert rows == [(c["name"], c["status"]) for c in direct if c["name"] != "relation_documented"]


def _fresh_interpreter(probe):
    """The stdout of running the statements probe in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH="src")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return subprocess.run([sys.executable, "-c", probe], cwd=root, env=env,
                          capture_output=True, text=True, check=True).stdout


def _loaded_by_import(modules, names, then="pass"):
    """Which of the named modules a fresh interpreter loads with the given
    ones and the statement ``then``, whose output is dropped."""
    return _fresh_interpreter(f"import sys, {', '.join(modules)}; sys.stdout = open({os.devnull!r}, 'w'); {then}; "
                              f"print(sorted({set(names)!r} & set(sys.modules)), file=sys.__stdout__)")


def test_runs_load_only_the_standard_library():
    # the runtime has no dependencies: every top-level module that importing
    # the CLI and running both polynomial kinds and the claims adds is the
    # standard library's or the package.  A site hook may load third-party
    # modules first (certifi, say), so only what the run adds counts.
    runs = [["verify", "ThreeEv", "--json"], ["verify", "SixThree", "--json"], ["catalog", "claims", "--json"]]
    added = _fresh_interpreter(
        f"import sys; before = set(sys.modules); import axialcheck.cli; "
        f"sys.stdout = open({os.devnull!r}, 'w'); [axialcheck.cli.main(argv) for argv in {runs!r}]; "
        f"print(*sorted({{m.partition('.')[0] for m in set(sys.modules) - before}}), file=sys.__stdout__)").split()
    assert "axialcheck" in added
    assert [m for m in added if m != "axialcheck" and m not in sys.stdlib_module_names] == []


# The AST nodes of the package modules that `verify Seven --json` loads: a
# fresh process with PYTHONDONTWRITEBYTECODE set, as perfbench runs them,
# compiles them all, so they are paid in setup_s on every workload.  ROADMAP
# aim 2 keeps the trail of this count beside its ceiling.
_VERIFY_AST_CEILING = 18_511


def _compiled_ast_nodes(modules, then):
    """{module: AST nodes} of each package module that a fresh interpreter
    loads with the given ones and the statement ``then``, whose output is dropped."""
    return json.loads(_fresh_interpreter(
        f"import ast, json, sys, {', '.join(modules)}; sys.stdout = open({os.devnull!r}, 'w'); {then}; "
        f"files = {{name: m.__file__ for name, m in list(sys.modules.items()) if name.partition('.')[0] == 'axialcheck'}}; "
        f"print(json.dumps({{name: sum(1 for _ in ast.walk(ast.parse(open(f, encoding='utf-8').read()))) "
        f"for name, f in sorted(files.items())}}), file=sys.__stdout__)"))


def test_a_verify_compiles_at_most_the_ceiling_of_ast_nodes():
    per_module = _compiled_ast_nodes(["axialcheck.cli"], "axialcheck.cli.main(['verify', 'Seven', '--json'])")
    nodes = sum(per_module.values())
    assert nodes <= _VERIFY_AST_CEILING, f"a verify compiles {nodes} AST nodes: {per_module}"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # a fresh interpreter, so that no earlier import has loaded either module
    assert _loaded_by_import(["axialcheck.cli"], ["dataclasses", "inspect"]) == "[]\n"


def test_cli_import_leaves_out_fractions_and_decimal():
    # every payload is ints, so no Fraction (whose module imports decimal) is needed
    assert _loaded_by_import(["axialcheck.cli"], ["fractions", "decimal"]) == "[]\n"


@pytest.mark.parametrize("argv", [
    ["verify", "Seven", "--json"], ["verify", "{file}", "--json"], ["catalog", "claims", "--json"],
], ids=["verify_entry", "verify_file", "claims"])
def test_commands_leave_out_argparse_gettext_and_locale(tmp_path, argv):
    # the command line is read from one table, with no parser library
    from axialcheck import derive

    path = tmp_path / "ThreeEvX.json"
    path.write_text(derive.dumps(*catalog.instantiate("ThreeEvX")), encoding="utf-8")
    then = f"assert axialcheck.cli.main({[str(path) if a == '{file}' else a for a in argv]!r}) == 0"
    assert _loaded_by_import(["axialcheck.cli"], ["argparse", "gettext", "locale"], then) == "[]\n"


def _matsuo_s3_over_q():
    """M_eta(S_3) at eta = 1/4 over Q, in the layout of perfbench/matsuo.py."""
    t = ["t1_2", "t1_3", "t2_3"]
    products = [{"left": s, "right": s, "value": {s: "1"}} for s in t]
    products += [{"left": a, "right": b, "value": {a: "1/8", b: "1/8", c: "-1/8"}}
                 for a, b, c in ((t[0], t[1], t[2]), (t[0], t[2], t[1]), (t[1], t[2], t[0]))]
    return json.dumps({"field": {"kind": "rationals"}, "basis": t, "products": products})


# the matsuo workload's calls on M_eta(S_3): the axis t1_2, split along the
# flip t1_3 <-> t2_3, has parts of dimensions (1, 1, 0, 1), obeys the fusion
# law, has that flip as its Miyamoto map, and t1_2, t1_3 generate everything
_MATSUO_CALLS = (
    "from axialcheck.algebra import AlgebraMap, generated_subalgebra; "
    "from axialcheck.axial import check_fusion, miyamoto, split_eigenspace; "
    "from axialcheck.fields import parse_scalar; "
    "from axialcheck.linalg import Matrix, Vector; "
    f"alg, dd, _ = axialcheck.algfile.loads({_matsuo_s3_over_q()!r}); "
    "f = alg.field; "
    "flip = AlgebraMap(alg, alg, Matrix.from_columns(f, [Vector.unit(f, 3, k) for k in (0, 2, 1)], nrows=3)); "
    "dec = split_eigenspace(alg, alg.basis_vector(0), parse_scalar('1/4', f), flip); "
    "assert dd is None and dec.dims() == (1, 1, 0, 1); "
    "assert check_fusion(alg, dec) == [] and miyamoto(alg, dec) == flip; "
    "assert generated_subalgebra(alg, [alg.basis_vector(0), alg.basis_vector(1)]).dim == 3"
)


def test_engine_import_leaves_out_the_catalog_and_the_cli():
    # the package resolves list_entries on first use, and only dihedral data
    # loads the dihedral layer, so loading files and splitting axes, checking
    # fusion and building Miyamoto maps on them compiles none of the
    # dihedral layer, the catalog or the command line
    loaded = _loaded_by_import(["axialcheck.algfile", "axialcheck.axial"],
                               ["axialcheck.catalog", "axialcheck.cli", "axialcheck.derive",
                                "axialcheck.dihedral", "argparse"], _MATSUO_CALLS)
    assert loaded == "[]\n"


# The same count for the engine import with the matsuo workload's calls,
# which load no dihedral data: pinned at what it compiled once the values
# and maps that only tests build, the field-block writer and the dihedral
# block's checks had left these modules (736 nodes), so undoing any of that
# fails here.  The import compiles about 9,744 nodes; the roughly 216 left
# are room for ROADMAP items 2, 3 and 11.
_ENGINE_AST_CEILING = 9_960


def test_the_engine_import_compiles_at_most_its_ceiling_of_ast_nodes():
    per_module = _compiled_ast_nodes(["axialcheck.algfile", "axialcheck.axial"], _MATSUO_CALLS)
    nodes = sum(per_module.values())
    assert nodes <= _ENGINE_AST_CEILING, f"the engine import compiles {nodes} AST nodes: {per_module}"


@pytest.mark.parametrize("then, loaded", [
    ("axialcheck.list_entries()", False),
    ("assert axialcheck.cli.main(['verify', 'Seven', '--json']) == 0", True),
    ("assert axialcheck.cli.main(['verify', 'FourEv', '--field', 'q', '--eta=-1']) == 2", False),
    ("assert axialcheck.cli.main(['verify', 'SevenX', '--field', 'gf:7']) == 2", False),
], ids=["list_entries", "Seven", "FourEv_rejected", "SevenX_rejected"])
def test_only_dihedral_data_loads_the_dihedral_layer(then, loaded):
    # importing the command line and building the catalog compile no dihedral
    # check, nor does an entry whose constraints reject it before its
    # dihedral block is read; the first document with a dihedral block does
    probe = _loaded_by_import(["axialcheck.cli"], ["axialcheck.dihedral"], then)
    assert probe == ("['axialcheck.dihedral']\n" if loaded else "[]\n")


# Wraps axial.split_eigenspace before the dihedral layer is first imported,
# verifies ThreeEvX, restores the original and prints the axes the wrapper
# saw, whether they are a_0, and every binding in the package that still
# holds the wrapper.
_WRAPPED_SPLIT_PROBE = """
import json, sys
from axialcheck import axial, catalog
assert "axialcheck.dihedral" not in sys.modules
original, seen = axial.split_eigenspace, []
def wrapper(*args):
    seen.append(args[1])
    return original(*args)
axial.split_eigenspace = wrapper
catalog.verify_entry("ThreeEvX")
axial.split_eigenspace = original
alg, dd = catalog.instantiate("ThreeEvX")
left = [f"{name}.{attr}" for name, module in sorted(sys.modules.items()) if name.startswith("axialcheck")
        for attr, value in vars(module).items() if value is wrapper]
print(json.dumps([len(seen), seen == [dd.axis(0)], "axialcheck.dihedral" in sys.modules, left]))
"""


def test_the_dihedral_layer_splits_through_the_axial_module():
    # a wrapper of axial.split_eigenspace installed before the dihedral layer
    # is compiled sees its one split of a_0, as the benchmark's tracer needs,
    # and once removed no binding in the package still holds it
    assert json.loads(_fresh_interpreter(_WRAPPED_SPLIT_PROBE)) == [1, True, True, []]


# Wraps algebra.extend_from_generators and algfile.parse_vector before the
# dihedral layer is first imported, verifies ThreeEvX, restores the originals
# and prints each wrapper's calls, whether the dihedral layer was loaded, and
# every binding in the package that still holds a wrapper.
_WRAPPED_LOADER_PROBE = """
import json, sys
from axialcheck import algebra, algfile, catalog
assert "axialcheck.dihedral" not in sys.modules
calls = {(algebra, "extend_from_generators"): 0, (algfile, "parse_vector"): 0}
originals = {key: getattr(*key) for key in calls}
def wrap(key):
    def wrapper(*args):
        calls[key] += 1
        return originals[key](*args)
    return wrapper
wrappers = {key: wrap(key) for key in calls}
for (module, name), wrapper in wrappers.items():
    setattr(module, name, wrapper)
catalog.verify_entry("ThreeEvX")
for (module, name), original in originals.items():
    setattr(module, name, original)
left = [f"{name}.{attr}" for name, module in sorted(sys.modules.items()) if name.startswith("axialcheck")
        for attr, value in vars(module).items() if any(value is w for w in wrappers.values())]
print(json.dumps([list(calls.values()), "axialcheck.dihedral" in sys.modules, left]))
"""


def test_the_dihedral_loader_calls_through_the_traced_names():
    # wrappers of algebra.extend_from_generators and algfile.parse_vector
    # installed before the dihedral layer is compiled see the loader's one
    # closure and its nine literals (three axes, three shift images, three
    # flip images), the counts that the benchmark's tracer takes, and once
    # removed no binding in the package still holds either
    assert json.loads(_fresh_interpreter(_WRAPPED_LOADER_PROBE)) == [[1, 9], True, []]


@pytest.mark.parametrize("then, loaded", [
    ("axialcheck.list_entries()", False),
    ("axialcheck.cli.main(['verify', 'Seven', '--json'])", False),
    ("axialcheck.cli.main(['verify', 'SevenX', '--json'])", False),
    (f"axialcheck.algfile.loads({_matsuo_s3_over_q()!r})", False),
    ("axialcheck.cli.main(['verify', 'ThreeEv'])", True),
    ("axialcheck.cli.main(['verify', 'SixThree'])", True),
], ids=["list_entries", "Seven", "SevenX", "matsuo_file", "ThreeEv", "SixThree"])
def test_only_a_polynomial_field_loads_the_polynomials(then, loaded):
    # runs over Q and GF(p) never compile the Q[t]/(m) and Q(eta) arithmetic
    probe = _loaded_by_import(["axialcheck.cli", "axialcheck.algfile"], ["axialcheck.polynomials"], then)
    assert probe == ("['axialcheck.polynomials']\n" if loaded else "[]\n")


@pytest.mark.parametrize("argv, code, loaded", [
    (None, None, False),
    (["verify", "Seven", "--json"], 0, False),
    (["verify", "{file}", "--json"], 0, False),
    (["verify", "FourEv", "--field", "q", "--eta=-1"], 2, False),
    (["catalog", "claims"], 0, True),
    (["catalog", "list"], 0, True),
    (["catalog", "emit", "Seven"], 0, True),
    (["isom", "ThreeEvX", "ThreeEvX", "--map", "a0=a0,a1=a1,am1=am1"], 0, True),
    (["quotient", "ThreeEv", "--field", "q", "--eta=-1/3", "--ideal", "p1"], 0, True),
], ids=["list_entries", "verify_entry", "verify_file", "verify_rejected", "claims", "list", "emit", "isom",
        "quotient"])
def test_only_commands_other_than_verify_load_derive(tmp_path, argv, code, loaded):
    # the file writer, the claim suite and the other handlers are compiled on
    # first use, so no verify, accepted or rejected, loads them
    from axialcheck import derive

    path = tmp_path / "ThreeEvX.json"
    path.write_text(derive.dumps(*catalog.instantiate("ThreeEvX")), encoding="utf-8")
    if argv is None:
        then = "axialcheck.list_entries()"
    else:
        then = f"assert axialcheck.cli.main({[str(path) if a == '{file}' else a for a in argv]!r}) == {code}"
    probe = _loaded_by_import(["axialcheck.cli"], ["axialcheck.derive"], then)
    assert probe == ("['axialcheck.derive']\n" if loaded else "[]\n")


def test_package_finds_list_entries_on_first_use():
    import axialcheck
    from axialcheck.catalog import list_entries

    assert axialcheck.list_entries is list_entries
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        axialcheck.no_such_name


# Runs under the reach test: the golden corpus's commands, then these
# (argv, exit code), where "{hostile}" stands for the text of
# hostile_file(6, 3, 1) written to a file.
_REACH_RUNS = [
    (["verify", "FourEv", "--field", "q", "--eta=-1"], 2),
    (["verify", "SevenX", "--field", "gf:7"], 2),
    (["verify", "{hostile}"], 1),
    (["verify", "ThreeEv", "--field", "qeta"], 0),
    (["verify", "FiveThree", "--field", "gf:7", "--eta", "3"], 0),
    (["verify", "Seven", "--check", "fusion,relations"], 0),
    (["isom", "ThreeEvX", "ThreeEvX", "--map", "a0=a0,a1=a1,am1=am1"], 0),
    (["verify", "no_such_file.json"], 2),
    (["quotient", "ThreeEv", "--field", "q", "--eta=-1/3", "--ideal", "(2^1/2)*p1"], 0),
    (["verify", "Seven", "--window", "4"], 2),
]

# Every function of src that none of those runs calls, and why it stays.
_UNREACHED = {
    "fields._Frozen.__setattr__": "the immutability guard: it runs only when code breaks the rule",
    "fields._Frozen.__delattr__": "the immutability guard against deletion: it runs only when code breaks the rule",
    "fields.FieldElement.__repr__": "debugging aid",
    "linalg.Matrix.__repr__": "debugging aid",
    "linalg.Subspace.__repr__": "debugging aid",
    "algebra.AlgebraDef.__repr__": "debugging aid",
    "algebra.is_homomorphism": "perfbench binds it",
    "derive.is_homomorphism": "perfbench binds its entry point, algebra.is_homomorphism",
    "linalg.rref": "perfbench binds it",
    "derive.rref": "perfbench binds its entry point, linalg.rref; test_acceptance uses it",
    "linalg.Subspace.intersection": "perfbench binds it",
    "derive.intersection": "perfbench binds its entry point, Subspace.intersection",
    "fields.specialize": "perfbench binds it",
    "derive.specialize": "perfbench binds its entry point, fields.specialize; test_acceptance uses it",
    "polynomials._peval": "perfbench binds it (through derive.specialize)",
    "catalog.clear_caches": "perfbench calls it; test_acceptance uses it",
    "fields.FieldDescriptor.__eq__": "perfbench binds it",
    "fields.FieldElement.__rsub__": "tested scalar protocol",
    "fields.FieldElement.__hash__": "tested scalar protocol",
    "fields.FieldDescriptor.zero": "test-facing constructor (derive.specialize uses it)",
    "linalg.Matrix.rows": "test-facing view (Matrix.__repr__ reads it)",
    "fields.FieldDescriptor.generator": "defensive default: no caller asks a field without a variable",
    "fields._PrimeField.canonical": "defensive default: no run makes a GF(p) element from a raw payload",
    "polynomials._RationalFunctions.canonical": "defensive default: no run makes a Q(t) element from a raw payload",
}

# Records (file, first line, name) of every Python function called from the
# first import of axialcheck on; Python 3.10 code objects have no qualname.
_REACH_PROBE = """
import json, os, sys
called = set()
sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
sys.path.insert(0, os.path.join("tests", "golden"))
import make_golden
from axialcheck import cli
for kind, name, argv in make_golden.CASES:
    make_golden.render_case(kind, argv)
sys.stdout = open(os.devnull, "w")
for argv, code in {runs!r}:
    try:
        got = cli.main(argv)
    except SystemExit as exc:  # a usage error ends the run this way
        got = exc.code
    assert got == code, argv
sys.setprofile(None)
src = os.path.abspath(os.path.join("src", "axialcheck"))
called = [c for c in called if os.path.dirname(os.path.abspath(c.co_filename)) == src]
print(json.dumps([(os.path.basename(c.co_filename), c.co_firstlineno, c.co_name) for c in called]), file=sys.__stdout__)
"""


def _src_functions():
    """{(file, first line, name): "module.qualname"} for every def under src,
    its first line being its first decorator's, as in its code object."""
    package = Path(__file__).resolve().parents[1] / "src" / "axialcheck"
    found = {}

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(file, first, child.name)] = prefix + child.name
                walk(child, file, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, file, f"{prefix}{child.name}.")
            else:
                walk(child, file, prefix)

    for path in package.glob("*.py"):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.name, f"{path.stem}.")
    return found


def test_every_src_function_is_reached_or_listed(tmp_path, hostile_file):
    # what no command runs either gains a caller or leaves src; what stays
    # for tests, perfbench or a protocol is named here, with its reason
    hostile = tmp_path / "hostile.json"
    hostile.write_text(hostile_file(6, 3, 1), encoding="utf-8")
    runs = [([str(hostile) if a == "{hostile}" else a for a in argv], code) for argv, code in _REACH_RUNS]
    called = {tuple(key) for key in json.loads(_fresh_interpreter(_REACH_PROBE.format(runs=runs)))}
    functions = _src_functions()
    assert sorted(name for key, name in functions.items() if key not in called) == sorted(_UNREACHED)
