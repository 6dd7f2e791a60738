import importlib
import json
import pkgutil
from fnmatch import fnmatch
from pathlib import Path

import pytest

import axialcheck
from axialcheck import algebra, algfile, axial, catalog, cli, derive, polynomials
from axialcheck.algebra import AlgebraDef, AlgebraMap, multiply
from axialcheck.axial import AxisDecomposition, DihedralData, split_eigenspace
from axialcheck.errors import ConstraintViolation, NotSemisimple, UnknownEntry
from axialcheck.fields import FieldDescriptor, FieldElement, parse_scalar, render, specialize
from axialcheck.linalg import Matrix, Subspace, Vector


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


def test_every_data_file_of_the_package_is_shipped():
    # an installed axialcheck needs its catalog.json: setuptools installs a
    # package's non-Python files only where package-data lists them
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as handle:
        listed = tomllib.load(handle)["tool"]["setuptools"]["package-data"]["axialcheck"]
    package = root / "src" / "axialcheck"
    data = [str(path.relative_to(package)) for path in package.rglob("*")
            if path.is_file() and path.suffix != ".py" and "__pycache__" not in path.parts]
    assert "catalog.json" in data
    assert [name for name in data if not any(fnmatch(name, pattern) for pattern in listed)] == []


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
            text = derive.dumps(*catalog.instantiate(source, *eta, enforce=False))
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


def _pgcd_operands(monkeypatch, capsys, tmp_path, hostile_file, source):
    """The operand lengths of every polynomials._pgcd call of verifying
    hostile_file(*source), or of catalog claims."""
    calls = []
    pgcd = polynomials._pgcd

    def counted(a, b):
        calls.append((len(a), len(b)))
        return pgcd(a, b)

    monkeypatch.setattr(polynomials, "_pgcd", counted)
    catalog.clear_caches()
    if source == "claims":
        assert cli.main(["catalog", "claims"]) == 0
    else:
        path = tmp_path / "hostile.json"
        path.write_text(hostile_file(*source), encoding="utf-8")
        assert cli.main(["verify", str(path)]) == 1
    capsys.readouterr()
    assert calls, "the patched _pgcd is not the one the run calls"
    return calls


# Every Q(eta) reduction calls polynomials._pgcd, so its calls bound the Q(eta)
# work of a run, with no timing.  The runs make 926, 2,236 and 91 calls; the
# claims made 118 until products over int denominators were summed raw, with
# no reduction each.  Each bound was set from an earlier count (937, 2,251
# and 132) by the ratio of the bound before it to its count (2,299, 4,985 and
# 1,665 over 2,159, 4,769 and 565 calls), and stays.
@pytest.mark.parametrize("source, most", [((6, 3, 1), 998), ((8, 4, 1), 2353), ("claims", 389)])
def test_pgcd_calls_stay_within_their_bound(monkeypatch, capsys, tmp_path, hostile_file, source, most):
    calls = _pgcd_operands(monkeypatch, capsys, tmp_path, hostile_file, source)
    assert len(calls) <= most, len(calls)


# Most of those calls return at once for a constant operand; the ones with two
# non-constant operands run Brown's algorithm: 142, 235 and 44 runs (55 on
# the claims before the raw products).
@pytest.mark.parametrize("source, most", [((6, 3, 1), 153), ((8, 4, 1), 250), ("claims", 67)])
def test_brown_calls_stay_within_their_bound(monkeypatch, capsys, tmp_path, hostile_file, source, most):
    calls = _pgcd_operands(monkeypatch, capsys, tmp_path, hostile_file, source)
    brown = sum(a > 1 and b > 1 for a, b in calls)
    assert brown <= most, brown


def test_a_quotient_row_with_the_wrong_child_fails(monkeypatch):
    row = ("ThreeEv", "q", "-1/3", "p1", "FourEvX", "p1 span is ideal", "matches FourEvX")
    monkeypatch.setattr(derive, "_QUOTIENT_ROWS", [row])
    (claim,) = derive._quotient_isomorphism_claims()
    assert claim.status == "fail"
    assert claim.detail == "p1 span is ideal: True; matches FourEvX: False"
    row = ("ThreeEv", "qeta", "eta", "p1", "ThreeEvX", "p1 span is ideal", "matches ThreeEvX")
    monkeypatch.setattr(derive, "_QUOTIENT_ROWS", [row])
    (claim,) = derive._quotient_isomorphism_claims()
    assert (claim.status, claim.detail) == ("fail", "p1 span is ideal: False")


def test_an_ideal_row_whose_middle_is_not_special_fails(monkeypatch):
    row = ("ThreeEv", ("generic", "qeta", "eta"), ("at 1/4", "q", "1/4"), ("at -1/3", "q", "-1/3"))
    monkeypatch.setattr(derive, "_IDEAL_ROWS", [row])
    (claim,) = derive._ideal_claims()
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


@pytest.mark.parametrize("entry, field, kind", [
    ("Seven", "q", "rationals"), ("Seven", "gf:7", "prime"), ("SixThree", None, "number_field"),
    ("ThreeEv", "qeta", "rational_functions"),
], ids=["Q", "GF7", "number_field", "Qeta"])
def test_every_value_class_is_frozen(entry, field, kind):
    # each value class, over each field kind, refuses a store to an attribute
    # it has and to a new name, and the deletion of either, and keeps its value
    alg, dd = catalog.instantiate(entry, field)
    assert alg.field.kind == kind
    dec = dd.base_split
    values = [  # (class, instance, one of its attributes)
        (FieldDescriptor, alg.field, "p"), (FieldElement, dd.eta, "payload"), (Vector, dd.axis(0), "terms"),
        (Matrix, dd.shift.matrix, "columns"), (Subspace, dec.parts[1], "rows"), (AlgebraDef, alg, "rows"),
        (AlgebraMap, dd.flip, "matrix"), (AxisDecomposition, dec, "parts"), (DihedralData, dd, "eta"),
    ]
    for cls, value, name in values:
        assert isinstance(value, cls)
        before = getattr(value, name)
        for attribute in (name, "extra"):
            with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
                setattr(value, attribute, None)
            with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
                delattr(value, attribute)
        assert getattr(value, name) is before and not hasattr(value, "extra")
    # the rule is written once: no other class of the package has its own guard
    modules = [importlib.import_module(f"axialcheck.{m.name}") for m in pkgutil.iter_modules(axialcheck.__path__)]
    guarded = [f"{cls.__module__}.{cls.__qualname__}" for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__
               and {"__setattr__", "__delattr__"} & vars(cls).keys()]
    assert guarded == ["axialcheck.fields._Frozen"]


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
