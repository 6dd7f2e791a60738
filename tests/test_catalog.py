import json

import pytest

from axialcheck import algebra, algfile, axial, catalog, cli, fields
from axialcheck.algebra import multiply
from axialcheck.axial import split_eigenspace
from axialcheck.errors import ConstraintViolation, NotSemisimple, UnknownEntry
from axialcheck.fields import FieldDescriptor, parse_scalar, render, specialize


def test_list_entries():
    entries = catalog.list_entries()
    assert len(entries) == 9
    names = [e.name for e in entries]
    assert names == [
        "ThreeEv", "ThreeEvX", "FourEv", "FourEvX", "BarFourTwo",
        "FiveThree", "SixThree", "Seven", "SevenX",
    ]
    three = catalog.get_entry("ThreeEv")
    assert three.document["basis"] == ["p1", "am1", "a0", "a1"] and three.dim == 4
    assert catalog.get_entry("SevenX").required_char == 5


def test_lookup_case_insensitive():
    assert catalog.get_entry("fivethree").name == "FiveThree"
    with pytest.raises(UnknownEntry):
        catalog.get_entry("EightEv")


def test_instantiate_five_three_symbolic():
    alg, dd = catalog.instantiate("FiveThree")
    assert alg.field.kind == FieldDescriptor.RATIONAL_FUNCTIONS
    eta = dd.eta
    prod = multiply(alg, dd.axis(0), dd.axis(1))
    sigma = alg.zero_vector()
    for i in range(-2, 3):
        sigma = sigma + dd.axis(i)
    expected = sigma.scale(-eta / 4) + (dd.axis(0) + dd.axis(1)).scale(eta)
    assert prod == expected


def test_instantiate_bar_four_two():
    alg, dd = catalog.instantiate("BarFourTwo")
    p20 = alg.basis_vector(alg.label_index("p20"))
    prod = multiply(alg, dd.axis(0), p20)
    assert prod == dd.axis(0).scale(alg.field.from_int(-3))


def test_constraint_rejections():
    with pytest.raises(ConstraintViolation):
        catalog.instantiate("SixThree", "qeta")
    with pytest.raises(ConstraintViolation):
        catalog.instantiate("SevenX", "gf:7")
    with pytest.raises(ConstraintViolation):
        catalog.instantiate("FourEv", "q", "-1")
    with pytest.raises(ConstraintViolation):
        catalog.instantiate("BarFourTwo", "q", "3")
    for bad_eta in ("0", "1", "1/2"):
        with pytest.raises(ConstraintViolation):
            catalog.instantiate("ThreeEv", "q", bad_eta)
    with pytest.raises(ConstraintViolation):
        catalog.instantiate("FiveThree", "q")  # concrete field needs an eta


def test_rejections_come_before_any_table_is_built(monkeypatch):
    def build(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(algfile, "AlgebraDef", build)
    for args in (("FourEv", "q", "-1"), ("SevenX", "gf:7"), ("ThreeEv", "q", "1/2")):
        with pytest.raises(ConstraintViolation):
            catalog.instantiate(*args)
    with pytest.raises(AssertionError, match="table was built"):
        catalog.instantiate("ThreeEv", "q", "7/11")


def test_seven_x_allows_half_residue():
    # 4/3 is congruent to 1/2 modulo five; the fixed-parameter entry is exempt
    alg, dd = catalog.instantiate("SevenX")
    assert alg.field.characteristic() == 5
    assert render(dd.eta) == "3"


def test_verify_entry_seven():
    rep = catalog.verify_entry("Seven")
    assert rep.structurally_passed
    assert rep.relation["adim"] == 7 and rep.relation["parity"] == "odd"
    alg, dd = catalog.instantiate("Seven")
    p1 = alg.basis_vector(alg.label_index("p1"))
    prod = multiply(alg, dd.axis(0), p1)
    assert prod == dd.axis(0).scale(parse_scalar("-5/3", alg.field))


def test_verify_splits_the_base_axis_once(monkeypatch, hostile_file):
    # FiveThree splits; FourEv, BarFourTwo and Seven at a symbolic eta and a
    # seeded hostile file fail the split.  Each gets fresh dihedral data, so
    # no earlier pass has split its base axis yet.
    calls = []

    def counted(*args):
        calls.append(args[1])
        return split_eigenspace(*args)

    monkeypatch.setattr(axial, "split_eigenspace", counted)
    for source in ("FiveThree", "FourEv", "BarFourTwo", "Seven", "hostile"):
        if source == "hostile":
            text = hostile_file(6, 3, 1)
        else:
            eta = (None, None) if source == "FiveThree" else ("qeta", "eta")
            text = algfile.dumps(*catalog.instantiate(source, *eta, enforce=False))
        alg, dd, _ = algfile.loads(text)
        calls.clear()
        report = catalog.verify(f"{source}.json", alg, dd)
        # check_dihedral, fusion and identities all share the one a_0 split,
        # whether it decomposes or raises
        assert len(calls) == 1, source
        assert "relation_documented" not in {c.name for c in report.checks}
        if source == "FiveThree":
            assert report.passed
            continue
        with pytest.raises(NotSemisimple) as failed:
            split_eigenspace(alg, dd.axis(0), dd.eta, dd.flip)
        rows = {c.name: c for c in report.checks}
        # every pass that reads the split reports the error's own text
        assert rows["fusion"] == ("fusion", "fail", str(failed.value))
        assert rows["identities"] == ("identities", "fail", str(failed.value))
        assert rows["dihedral"].status == "fail"
        assert rows["dihedral"].detail.endswith(f"axis@0: {failed.value}")


def test_two_generated_dim_is_an_integer_in_every_characteristic():
    # a dimension, not a field element: 3 is not read as 0 over GF(3)
    report = catalog.verify_entry("BarFourTwo", "gf:3")
    assert report.scalars["two_generated_dim"] == "3"
    assert ("identity:two_generated_dim", "pass", "dimension 3") in report.checks


def test_verify_entry_three_ev_symbolic():
    rep = catalog.verify_entry("ThreeEv")
    assert rep.structurally_passed and rep.passed
    assert rep.relation["adim"] == 3


def test_symbolic_vs_specialized_coherence():
    # same overall verdict symbolically and at admissible rational parameters
    for name in ("ThreeEv", "FiveThree"):
        sym = catalog.verify_entry(name).structurally_passed
        for eta in ("2", "3", "-2", "1/3", "7/5"):
            spec = catalog.verify_entry(name, "q", eta).structurally_passed
            assert spec == sym, (name, eta)


def test_check_claims_all_pass():
    reports = catalog.check_claims()
    assert all(r.status == "pass" for r in reports), [
        (r.name, r.detail) for r in reports if r.status != "pass"
    ]
    names = {r.name for r in reports}
    assert "quotient_FiveThree_is_FourEvX" in names
    assert "ideal_p1_Seven" in names
    assert "quotient_BarFourTwo_two_dim" in names


def test_an_unenforced_load_does_not_admit_an_enforced_call():
    # the cache is keyed on (entry, field, eta), and the fixed-eta rule is
    # checked before the lookup
    catalog.instantiate("FourEv", "q", "1/4", enforce=False)
    with pytest.raises(ConstraintViolation, match="defined at eta = -1/3 only"):
        catalog.instantiate("FourEv", "q", "1/4")


def test_claims_load_each_instantiation_once(monkeypatch):
    subjects = []
    load_document = algfile.load_document

    def counted(doc, subject="file"):
        subjects.append(subject)
        return load_document(doc, subject)

    monkeypatch.setattr(algfile, "load_document", counted)
    catalog.clear_caches()
    reports = catalog.check_claims()
    assert len(reports) == 26 and all(r.status == "pass" for r in reports)
    assert len(subjects) == 16


def test_claims_run_no_identity_suite(monkeypatch):
    # the existence and dimension claims read only the structural rows
    calls = []
    identity_suite = catalog.identity_suite

    def counted(alg, dd):
        calls.append(alg)
        return identity_suite(alg, dd)

    monkeypatch.setattr(catalog, "identity_suite", counted)
    catalog.clear_caches()
    catalog.check_claims()
    assert calls == []


def test_each_instantiation_extends_the_shift_and_the_flip_in_one_closure(monkeypatch):
    # every catalog document lists the flip's generators as the shift's, in
    # the same order, so the loader closes both graphs together
    calls = []
    span_closure = algebra._span_closure

    def counted(*args):
        calls.append(args)
        return span_closure(*args)

    monkeypatch.setattr(algebra, "_span_closure", counted)
    for entry in catalog.list_entries():
        catalog.clear_caches()
        calls.clear()
        catalog.instantiate(entry.name)
        assert len(calls) == 1, entry.name


# Every Q(eta) reduction calls fields._pgcd, so its calls bound the Q(eta)
# work of a run, with no timing.  The bounds are the counts before the summing
# kernels deferred Q(eta) sums, except for claims, which then made 3,769.
@pytest.mark.parametrize("source, most", [((6, 3, 1), 2657), ((8, 4, 1), 5826), ("claims", 2000)])
def test_pgcd_calls_stay_within_their_bound(monkeypatch, capsys, tmp_path, hostile_file, source, most):
    calls = []
    pgcd = fields._pgcd

    def counted(a, b):
        calls.append(None)
        return pgcd(a, b)

    monkeypatch.setattr(fields, "_pgcd", counted)
    catalog.clear_caches()
    if source == "claims":
        assert cli.main(["catalog", "claims"]) == 0
    else:
        path = tmp_path / "hostile.json"
        path.write_text(hostile_file(*source), encoding="utf-8")
        assert cli.main(["verify", str(path)]) == 1
    capsys.readouterr()
    assert len(calls) <= most, len(calls)


def test_a_quotient_row_with_the_wrong_child_fails(monkeypatch):
    row = ("ThreeEv", "q", "-1/3", "p1", "FourEvX", "p1 span is ideal", "matches FourEvX")
    monkeypatch.setattr(catalog, "_QUOTIENT_ROWS", [row])
    (claim,) = catalog._quotient_isomorphism_claims()
    assert claim.status == "fail"
    assert claim.detail == "p1 span is ideal: True; matches FourEvX: False"
    row = ("ThreeEv", "qeta", "eta", "p1", "ThreeEvX", "p1 span is ideal", "matches ThreeEvX")
    monkeypatch.setattr(catalog, "_QUOTIENT_ROWS", [row])
    (claim,) = catalog._quotient_isomorphism_claims()
    assert (claim.status, claim.detail) == ("fail", "p1 span is ideal: False")


def test_an_ideal_row_whose_middle_is_not_special_fails(monkeypatch):
    row = ("ThreeEv", ("generic", "qeta", "eta"), ("at 1/4", "q", "1/4"), ("at -1/3", "q", "-1/3"))
    monkeypatch.setattr(catalog, "_IDEAL_ROWS", [row])
    (claim,) = catalog._ideal_claims()
    assert claim.status == "fail"
    assert claim.detail == "generic False, at 1/4 False, at -1/3 True"


def test_a_documented_relation_that_differs_fails():
    entry = catalog.get_entry("ThreeEvX")
    alg, dd = catalog.instantiate("ThreeEvX")
    report = catalog.verify(entry.name, alg, dd, ("relations",), entry._replace(expected_case=1))
    row = next(c for c in report.checks if c.name == "relation_documented")
    assert row.status == "fail"
    assert row.detail == (
        "computed adim 3, case 4 (odd), coefficients (0, 1), "
        "documented case 1 adim 3 coefficients ['0', '1']"
    )


def test_identity_rows_are_check_results():
    # one row type serves the identity suite and the report
    assert catalog.CheckResult is axial.CheckResult
    checks = axial.identity_suite(*catalog.instantiate("Seven")).checks
    assert checks and all(type(c) is axial.CheckResult for c in checks)


def test_cached_reports_are_frozen():
    first = catalog.verify_entry("Seven")
    snapshot = json.dumps(first.canonical(), sort_keys=True)
    mutations = (
        lambda r: r.checks.append(catalog.CheckResult("extra", "fail")),
        lambda r: r.scalars.__setitem__("mu", "0"),
        lambda r: r.relation.__setitem__("adim", 0),
        lambda r: r.relation["coefficients"].append("1"),
        lambda r: r.dimensions["parts"].append(1),
        lambda r: setattr(r, "entry", "Eight"),
    )
    for mutate in mutations:
        with pytest.raises((AttributeError, TypeError)):
            mutate(first)
    canonical = first.canonical()
    canonical["checks"].clear()
    canonical["relation"]["coefficients"].append("1")
    canonical["dimensions"]["parts"].append(1)
    assert json.dumps(catalog.verify_entry("Seven").canonical(), sort_keys=True) == snapshot


# (entry, field, eta): the default fields, plus the other instantiations the
# golden corpus and the claims use
_INSTANTIATIONS = [(entry.name, None, None) for entry in catalog.list_entries()] + [
    ("SixThree", "q", "3"),
    ("Seven", "gf:7", None),
    ("ThreeEv", "q", "2"),
]


@pytest.mark.parametrize("name, field, eta", _INSTANTIATIONS, ids=lambda v: str(v))
def test_loader_binds_eta_as_specialization_does(name, field, eta):
    # each literal of the symbolic document, evaluated by the loader with eta
    # bound, is the Q(eta) value specialized at eta
    entry = catalog.get_entry(name)
    alg, dd = catalog.instantiate(name, field, eta)
    qeta = FieldDescriptor.rational_functions("eta")
    expected = {}
    for item in entry.document["products"]:
        key = tuple(sorted((alg.label_index(item["left"]), alg.label_index(item["right"]))))
        for label, literal in item["value"].items():
            value = specialize(parse_scalar(literal, qeta), alg.field, dd.eta)
            expected[key + (alg.label_index(label),)] = value
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            product = alg.product_of_basis(i, j)
            for k in range(alg.dim):
                assert product[k] == expected.get((i, j, k), alg.field.zero()), (i, j, k)
