import json

import pytest

from axialcheck import algfile, catalog, derive
from axialcheck.algebra import multiply
from axialcheck.errors import AlgebraFileError, ScalarSyntaxError, UnknownSymbol
from axialcheck.fields import render


def _doc_for(name):
    alg, dd = catalog.instantiate(name)
    return derive.document_for(alg, dd), alg, dd


def test_round_trip_three_ev():
    doc, alg, dd = _doc_for("ThreeEv")
    loaded_alg, loaded_dd, _ = algfile.load_document(json.loads(json.dumps(doc)))
    assert loaded_alg.labels == alg.labels
    assert loaded_alg.field is alg.field and loaded_alg.rows == alg.rows
    assert loaded_dd is not None
    assert loaded_dd.shift == dd.shift and loaded_dd.flip == dd.flip
    assert loaded_dd.eta == dd.eta


def test_a_symbolic_file_without_an_eta_literal_takes_the_field_variable():
    doc, alg, _ = _doc_for("ThreeEv")
    assert doc["dihedral"].pop("eta") == "eta"
    loaded_alg, loaded_dd, _ = algfile.load_document(doc)
    assert loaded_dd.eta == loaded_alg.field.generator() and render(loaded_dd.eta) == "eta"
    assert loaded_alg.field is alg.field and loaded_alg.rows == alg.rows


def test_round_trip_concrete_entries():
    for name in ("BarFourTwo", "SevenX", "SixThree"):
        doc, alg, dd = _doc_for(name)
        loaded_alg, loaded_dd, _ = algfile.load_document(doc)
        assert loaded_alg.field is alg.field and loaded_alg.rows == alg.rows
        assert loaded_dd.eta == dd.eta


def test_omitted_pairs_default_to_zero():
    doc = {
        "field": {"kind": "rationals"},
        "basis": ["x", "y"],
        "products": [{"left": "x", "right": "x", "value": {"x": "1"}}],
    }
    alg, dd, _ = algfile.load_document(doc)
    assert dd is None
    y = alg.basis_vector(1)
    assert multiply(alg, y, y).is_zero()
    assert multiply(alg, alg.basis_vector(0), y).is_zero()


def test_validation_errors():
    base = {
        "field": {"kind": "rationals"},
        "basis": ["x", "y"],
        "products": [],
    }
    dup = dict(base)
    dup["products"] = [
        {"left": "x", "right": "y", "value": {}},
        {"left": "y", "right": "x", "value": {}},
    ]
    with pytest.raises(AlgebraFileError):
        algfile.load_document(dup)
    undeclared = dict(base)
    undeclared["products"] = [{"left": "x", "right": "z", "value": {}}]
    with pytest.raises(AlgebraFileError):
        algfile.load_document(undeclared)
    repeated = dict(base)
    repeated["basis"] = ["x", "x"]
    with pytest.raises(AlgebraFileError):
        algfile.load_document(repeated)
    raw_number = dict(base)
    raw_number["products"] = [{"left": "x", "right": "y", "value": {"x": 3}}]
    with pytest.raises(AlgebraFileError):
        algfile.load_document(raw_number)
    with pytest.raises(AlgebraFileError):
        algfile.loads("{not json")


@pytest.mark.parametrize("left,right,value,message", [
    ("x", "z", {}, "undeclared basis label in the product ['x', 'z']"),
    ("x", "y", {"w": "1"}, "undeclared basis label in the product ['x', 'y']"),
    (1, "x", {}, "undeclared basis label in the product [1, 'x']"),
    (["x"] * 20, "y", {}, "undeclared basis label in the product " + repr([["x"] * 20, "y"])[:60]),
    ("y", "x", {}, "duplicate product pair ['y', 'x']"),
    # a product with several faults is named by the first of: the value's
    # literals, then the labels, then the pair's repetition
    ("x", "z", {"x": 3}, "product value must map labels to scalar literal strings"),
    (1, "x", ["x"], "product value must map labels to scalar literal strings"),
    ("y", "x", {"z": "1"}, "undeclared basis label in the product ['y', 'x']"),
    ("x", "y", {"y": 2}, "product value must map labels to scalar literal strings"),
])
def test_product_shape_messages(left, right, value, message):
    # x*y is declared first, so the last case repeats it
    doc = {
        "field": {"kind": "rationals"},
        "basis": ["x", "y"],
        "products": [{"left": "x", "right": "y", "value": {}},
                     {"left": left, "right": right, "value": value}],
    }
    with pytest.raises(AlgebraFileError) as exc:
        algfile.load_document(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize("products, extra, message", [
    # the first faulty product is named, whatever the later ones hold
    ([{"left": "x", "right": "z", "value": {}}, {"left": "x", "value": {}}], {},
     "undeclared basis label in the product ['x', 'z']"),
    ([{"left": "x", "value": {}}, {"left": "x", "right": "z", "value": {"x": 3}}], {},
     "each product needs left, right and value"),
    # a faulty product is named before a malformed dihedral block or a violated constraint
    ([{"left": "x", "right": "x", "value": {"x": 1}}], {"dihedral": {"window": [0, 0]}},
     "product value must map labels to scalar literal strings"),
    ([{"left": "x", "right": "y", "value": {}}, {"left": "y", "right": "x", "value": {}}],
     {"constraints": {"characteristic": 7}}, "duplicate product pair ['y', 'x']"),
])
def test_the_first_fault_of_the_products_is_named(products, extra, message):
    doc = {"field": {"kind": "rationals"}, "basis": ["x", "y"], "products": products, **extra}
    with pytest.raises(AlgebraFileError) as exc:
        algfile.load_document(doc)
    assert str(exc.value) == message


_BLOCK = "a dihedral block is an object with window, axes, shift_images and flip_images"
_WINDOW = "window must be an array [lo, hi] of integers with lo <= 0 <= hi"
_AXES = "axes must be an array of vector literals, one for each window index"
_SHIFT = "shift_images must map basis labels to vector literals"
_FLIP = "flip_images must map basis labels to vector literals"
_DROP = object()  # the key is left out of the block


@pytest.mark.parametrize("key, value, message", [
    (None, ["am1", "a0", "a1"], _BLOCK),
    ("window", _DROP, _BLOCK),
    ("axes", _DROP, _BLOCK),
    ("shift_images", _DROP, _BLOCK),
    ("flip_images", _DROP, _BLOCK),
    ("window", [-1], _WINDOW),
    ("window", [-1, "3"], _WINDOW),
    ("window", [-1, 3.0], _WINDOW),
    ("window", [1, 5], _WINDOW),
    ("axes", ["am1", "a0", "a1", "am1"], _AXES),
    ("axes", ["am1", "a0", 1, "am1", "a0"], _AXES),
    ("shift_images", {}, _SHIFT),
    ("shift_images", {"am1": "a0", "a0": 1, "a1": "am1"}, _SHIFT),
    ("shift_images", {"am1": "a0", "b": "a1", "a1": "am1"}, _SHIFT),
    ("flip_images", {}, _FLIP),
    ("flip_images", {"am1": "a1", "a0": ["a0"], "a1": "am1"}, _FLIP),
    ("flip_images", {"am1": "a1", "a0": "a0", "am2": "am1"}, _FLIP),
    ("eta", 1, "eta must be a literal string"),
], ids=["not_an_object", "no_window", "no_axes", "no_shift_images", "no_flip_images", "window_of_one",
        "window_of_a_string", "window_of_a_float", "window_not_bracketing_0", "axes_too_few",
        "axis_not_a_string", "shift_images_empty", "shift_image_not_a_string", "shift_images_undeclared",
        "flip_images_empty", "flip_image_not_a_string", "flip_images_undeclared", "eta_not_a_string"])
def test_each_fault_of_the_dihedral_block_is_refused_by_name(tmp_path, capsys, key, value, message):
    # the emitted ThreeEvX file with one fault in its dihedral block
    from axialcheck import cli

    doc, _, _ = _doc_for("ThreeEvX")
    if key is None:
        doc["dihedral"] = value
    elif value is _DROP:
        del doc["dihedral"][key]
    else:
        doc["dihedral"][key] = value
    path = tmp_path / "ThreeEvX.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_vector_literals():
    alg, dd = catalog.instantiate("ThreeEv")
    v = algfile.parse_vector("2*eta*(a0+a1) - am1", alg, dd.eta)
    expected = (dd.axis(0) + dd.axis(1)).scale(dd.eta * 2) - dd.axis(-1)
    assert v == expected
    with pytest.raises(ScalarSyntaxError, match="^vector literals are linear: no products of labels$"):
        algfile.parse_vector("a0*a1", alg, dd.eta)
    with pytest.raises(ScalarSyntaxError):
        algfile.parse_vector("3", alg, dd.eta)
    with pytest.raises(UnknownSymbol):
        algfile.parse_vector("b7 + a0", alg, dd.eta)


def test_vector_literals_take_powers_of_scalars_only():
    alg, dd = catalog.instantiate("ThreeEv")
    with pytest.raises(ScalarSyntaxError, match="^cannot exponentiate a vector$"):
        algfile.parse_vector("a0^2", alg, dd.eta)
    a0 = alg.basis_vector(alg.label_index("a0"))
    assert algfile.parse_vector("eta^2*a0", alg, dd.eta) == a0.scale(dd.eta * dd.eta)


def test_zero_literals_drop_out_of_the_table():
    doc = {
        "field": {"kind": "rationals"},
        "basis": ["x", "y"],
        "products": [
            {"left": "x", "right": "x", "value": {"x": "0", "y": "2"}},
            {"left": "x", "right": "y", "value": {"x": "1 - 1"}},
        ],
    }
    alg, _, _ = algfile.load_document(doc)
    assert alg.rows == ({0: {1: alg.field.from_int(2).payload}}, {})
    assert derive.document_for(alg)["products"] == [{"left": "x", "right": "x", "value": {"y": "2"}}]


def test_emitted_scalars_are_strings():
    doc, _, _ = _doc_for("FiveThree")
    for item in doc["products"]:
        for value in item["value"].values():
            assert isinstance(value, str)
    assert doc["dihedral"]["eta"] == "eta"


def test_each_literal_is_parsed_once(monkeypatch, capsys):
    from axialcheck import cli

    assert cli.main(["catalog", "emit", "FiveThree"]) == 0
    doc = json.loads(capsys.readouterr().out)
    calls = []
    parse = algfile.parse_scalar

    def counted(text, *args):
        calls.append(text)
        return parse(text, *args)

    monkeypatch.setattr(algfile, "parse_scalar", counted)
    algfile.load_document(doc)
    literals = [literal for item in doc["products"] for literal in item["value"].values()]
    assert len(literals) == 55 and len(set(literals)) == 3
    # the eta literal, the constraint literals, and each product literal once
    assert doc["constraints"] == {"exclude_eta": ["0", "1", "1/2"]}
    assert sorted(calls) == sorted(["eta", "0", "1", "1/2", *set(literals)])


def test_a_repeated_malformed_literal_is_one_error(tmp_path, capsys):
    from axialcheck import cli

    doc, _, _ = _doc_for("ThreeEvX")
    errors = []
    for repeats in (1, 3):
        for item in doc["products"][:repeats]:
            value = item["value"]
            value[next(iter(value))] = "2*/3"
        path = tmp_path / f"bad{repeats}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["verify", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        errors.append(err)
    assert errors[0] == errors[1]
