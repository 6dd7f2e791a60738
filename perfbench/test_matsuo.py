"""The Matsuo generator against an independent computation in sympy.

    python3 -m pytest perfbench -q
"""

import json
import random
from fractions import Fraction
from math import comb

import pytest
import sympy

import matsuo


def _sympy_parts(case):
    """(dim M0, dim M1, dim M2, dim M3) of ad(axis), split by the flip, in sympy."""
    doc = json.loads(case.text)
    labels = doc["basis"]
    index = {label: k for k, label in enumerate(labels)}
    dim = len(labels)
    a = index[case.axis]
    ad = sympy.zeros(dim, dim)
    for item in doc["products"]:
        left, right = index[item["left"]], index[item["right"]]
        for other, partner in ((left, right), (right, left)):
            if other == a:
                for label, literal in item["value"].items():
                    ad[index[label], partner] = sympy.Rational(literal)
    flip = sympy.zeros(dim, dim)
    for j, image in enumerate(case.flip):
        flip[image, j] = 1
    eta = sympy.Rational(case.eta)
    eye = sympy.eye(dim)

    def nullity(*blocks):
        return dim - sympy.Matrix.vstack(*blocks).rank()

    return (
        nullity(ad),
        nullity(ad - eye),
        nullity(ad - eta * eye, flip - eye),
        nullity(ad - eta * eye, flip + eye),
    )


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_part_dimensions_match_sympy(n, seed):
    case = matsuo.generate(n, "q", random.Random(seed))
    assert _sympy_parts(case) == case.expected_dims == matsuo.expected_dims(n)
    assert sum(case.expected_dims) == comb(n, 2)


def test_every_eta_is_admissible_in_every_field():
    for eta in matsuo.ETAS:
        matsuo.check_eta(eta, None)
        for p in matsuo.PRIMES:
            matsuo.check_eta(eta, p)


def test_check_eta_rejects_degenerate_values():
    for eta, p in (("0", None), ("1", None), ("3/2", 3), ("8/1", 7), ("5/5", None)):
        with pytest.raises(ValueError):
            matsuo.check_eta(eta, p)


def test_same_seed_same_pass():
    first = [c.as_dict() for c in matsuo.generate_pass(random.Random(7))]
    second = [c.as_dict() for c in matsuo.generate_pass(random.Random(7))]
    assert first == second
    assert [c["n"] for c in first] == [n for n, _field in matsuo.SIZES]


def test_products_are_the_matsuo_rule():
    case = matsuo.generate(5, "gf", random.Random(3))
    doc = json.loads(case.text)
    assert doc["field"]["kind"] == "prime" and doc["field"]["p"] in matsuo.PRIMES
    half = Fraction(case.eta) / 2
    pairs = set()
    for item in doc["products"]:
        pair = frozenset((item["left"], item["right"]))
        assert pair not in pairs
        pairs.add(pair)
        values = {k: Fraction(v) for k, v in item["value"].items()}
        if len(pair) == 1:
            assert values == {item["left"]: 1}
        else:
            assert sorted(values.values()) == sorted([half, half, -half])
    # diagonal products plus one per pair of transpositions sharing a point
    assert len(pairs) == comb(5, 2) + comb(5, 2) * 2 * 3 // 2
