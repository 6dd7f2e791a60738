"""The CLI contract under generated input: every run of ``cli.main`` exits
0, 1 or 2 and never ends in a traceback.

A reader that closes stdout early does not change the exit code.  Four kinds
of input are generated: ``--field`` specs, ``--eta`` literals,
``catalog emit ThreeEvX`` files with a mutated field block, product literal
or any other part of the document, and ``catalog emit ThreeEv`` files (over
Q(eta)) with a mutated product literal.  The examples are derandomized, so
the suite stays deterministic; the explicit examples are inputs that once
crashed.
"""

import copy
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from axialcheck import cli

CONTRACT = settings(max_examples=40, deadline=2000, derandomize=True, database=None)


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # a usage error, or -h, ends the run this way
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


def _emit(entry):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["catalog", "emit", entry]) == 0
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def emitted():
    return _emit("ThreeEvX")


@pytest.fixture(scope="module")
def emitted_symbolic():
    return _emit("ThreeEv")


def _verify_file(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("doc") / "algebra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return _run("verify", str(path))


numbers = st.one_of(
    st.integers(-10**6, 10**30).map(str),
    st.sampled_from(["1/2", "-1/3", "1/0", "x", "", "0.5", "2^64", "9" * 5000]),
)
literals = st.recursive(
    st.one_of(st.integers(0, 10**6).map(str), st.sampled_from(["eta", "x", ""])),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(inner, st.integers(0, 70)).map(lambda t: f"({t[0]})^{t[1]}"),
    ),
    max_leaves=8,
)
json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-10**30, 10**30), st.floats(allow_nan=False),
    numbers, st.lists(numbers, max_size=4),
)
field_blocks = st.one_of(
    st.fixed_dictionaries({"kind": st.just("prime"), "p": json_values}),
    st.fixed_dictionaries({"kind": st.just("number_field"), "minpoly": json_values}),
    st.fixed_dictionaries({
        "kind": st.sampled_from(["rationals", "rational_functions", "number_field", "nope"]),
        "variable": json_values, "minpoly": st.lists(numbers, min_size=2, max_size=4),
    }),
    json_values,
)


@CONTRACT
@given(spec=st.one_of(
    st.builds("gf:{}".format, numbers),
    st.builds(lambda cs: "nf:" + ",".join(cs), st.lists(numbers, max_size=4)),
    st.text(alphabet="qgfnetaxi:0123456789,/-", max_size=12),
))
@example(spec="gf:abc")
@example(spec="nf:1,x,1")
def test_field_specs(spec):
    _run("verify", "ThreeEv", "--field", spec, "--eta", "3")


@CONTRACT
@given(eta=literals)
@example(eta="(((2^64)^64)^64)^64")
@example(eta="((518)^43)^37")
@example(eta="\u0663")
def test_eta_literals(eta):
    _run("verify", "ThreeEv", "--field", "q", "--eta", eta)


@CONTRACT
@given(field=field_blocks)
@example(field={"kind": "prime", "p": "abc"})
@example(field={"kind": "number_field", "minpoly": ["x", "0", "1"]})
def test_mutated_field_block(tmp_path_factory, emitted, field):
    doc = dict(emitted, field=field)
    path = tmp_path_factory.mktemp("field") / "algebra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _run("verify", str(path))


@CONTRACT
@given(index=st.integers(0, 5), literal=literals)
@example(index=0, literal="(((2^64)^64)^64)^64")
def test_mutated_product_literal(tmp_path_factory, emitted, index, literal):
    products = [dict(p, value=dict(p["value"])) for p in emitted["products"]]
    value = products[index % len(products)]["value"]
    value[next(iter(value))] = literal
    path = tmp_path_factory.mktemp("literal") / "algebra.json"
    path.write_text(json.dumps(dict(emitted, products=products)), encoding="utf-8")
    _run("verify", str(path))


# every place in a ThreeEvX document; a mutation replaces the value there
PATHS = (
    ("basis",), ("basis", 0), ("products",), ("products", 0), ("products", 0, "left"),
    ("products", 0, "value"), ("products", 0, "value", "am1"), ("dihedral",),
    ("dihedral", "window"), ("dihedral", "window", 0), ("dihedral", "axes"),
    ("dihedral", "axes", 0), ("dihedral", "shift_images"), ("dihedral", "shift_images", "a0"),
    ("dihedral", "eta"), ("constraints",), ("constraints", "characteristic"),
    ("constraints", "exclude_eta"), ("constraints", "nonzero"),
)
labels = st.sampled_from(["am1", "a0", "a1", "x", "eta", ""])
structures = st.one_of(
    json_values,
    literals,
    st.lists(st.one_of(labels, st.integers(-3, 3)), max_size=4),
    st.dictionaries(labels, st.one_of(literals, json_values), max_size=3),
)


@CONTRACT
@given(path=st.sampled_from(PATHS), value=structures)
@example(path=("dihedral", "window"), value="ab")
@example(path=("dihedral", "axes"), value=5)
@example(path=("products", 0, "left"), value=["am1"])
@example(path=("products",), value=5)
@example(path=("dihedral",), value=5)
@example(path=("constraints", "exclude_eta"), value=["-1/3"])
@example(path=("constraints", "nonzero"), value=["3*eta+1"])
def test_mutated_structure(tmp_path_factory, emitted, path, value):
    doc = copy.deepcopy(emitted)
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[path[-1]] = value
    _verify_file(tmp_path_factory, doc)


@CONTRACT
@given(index=st.integers(0, 9), literal=literals)
@example(index=0, literal="((eta+1)^64)^64")
@example(index=5, literal="(2^40*eta+1)^48/(eta^2+5)^24")
def test_mutated_symbolic_product_literal(tmp_path_factory, emitted_symbolic, index, literal):
    products = [dict(p, value=dict(p["value"])) for p in emitted_symbolic["products"]]
    value = products[index % len(products)]["value"]
    value[next(iter(value))] = literal
    _verify_file(tmp_path_factory, dict(emitted_symbolic, products=products))


@pytest.mark.parametrize("argv, code", [
    (["verify", "Seven"], 0),
    (["verify", "BarFourTwo"], 1),
    (["catalog", "claims"], 0),
    (["verify", "."], 2),  # a directory is unreadable input
])
def test_a_closed_stdout_keeps_the_exit_code(argv, code):
    # the pipe's read end is closed before the child starts, so its first write fails
    read, write = os.pipe()
    os.close(read)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        done = subprocess.run([sys.executable, "-m", "axialcheck.cli", *argv], cwd=root, stdout=write,
                              stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH="src"))
    finally:
        os.close(write)
    assert done.returncode == code
    if code == 2:
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    else:
        assert done.stderr == ""
