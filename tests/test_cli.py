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
    # exponent forms are not in its grammar
    for spec in ("gf:abc", "gf:", "nf:1,x,1", "nf:1/0,1", "nf:-0.5,0,1", "nf:+1,0,1", "nf:1e3,0,1"):
        code, out, err = run(capsys, "verify", "Seven", "--field", spec)
        assert code == 2 and out == ""
        assert err == f"error: malformed number in field spec {spec!r}\n"


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


def _loaded_by_import(modules, names):
    """Which of the named modules a fresh interpreter loads with the given ones."""
    env = dict(os.environ, PYTHONPATH="src")
    probe = f"import sys, {', '.join(modules)}; print(sorted({set(names)!r} & set(sys.modules)))"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return subprocess.run([sys.executable, "-c", probe], cwd=root, env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # a fresh interpreter, so that no earlier import has loaded either module
    assert _loaded_by_import(["axialcheck.cli"], ["dataclasses", "inspect"]) == "[]\n"


def test_cli_import_leaves_out_fractions_and_decimal():
    # every payload is ints, so no Fraction (whose module imports decimal) is needed
    assert _loaded_by_import(["axialcheck.cli"], ["fractions", "decimal"]) == "[]\n"


def test_engine_import_leaves_out_the_catalog_and_the_cli():
    # the package resolves list_entries on first use, so loading files and
    # checking axes compiles neither the catalog nor the command line
    loaded = _loaded_by_import(["axialcheck.algfile", "axialcheck.axial"],
                               ["axialcheck.catalog", "axialcheck.cli", "argparse"])
    assert loaded == "[]\n"


def test_package_finds_list_entries_on_first_use():
    import axialcheck
    from axialcheck.catalog import list_entries

    assert axialcheck.list_entries is list_entries
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        axialcheck.no_such_name
