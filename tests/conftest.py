import json
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from axialcheck.algebra import AlgebraDef, AlgebraMap
from axialcheck.axial import split_eigenspace
from axialcheck.fields import FieldDescriptor, render
from axialcheck.linalg import Matrix, Vector


@pytest.fixture(scope="session")
def Q():
    return FieldDescriptor.rationals()


@pytest.fixture(scope="session")
def QETA():
    return FieldDescriptor.rational_functions("eta")


@pytest.fixture(scope="session")
def GF5():
    return FieldDescriptor.prime(5)


@pytest.fixture(scope="session")
def GF7():
    return FieldDescriptor.prime(7)


@pytest.fixture(scope="session")
def NF():
    # eta^2 + 2*eta - 1 = 0
    return FieldDescriptor.number_field((-1, 2, 1))


@pytest.fixture(scope="session")
def sympy_value():
    """element -> its value as a sympy expression, parsed from its rendered
    literal, so that the oracles do not depend on the payload layout."""
    sympy = pytest.importorskip("sympy")
    values = {}

    def value(e):
        if e not in values:
            names = {e.field.variable: sympy.Symbol(e.field.variable)} if e.field.variable else {}
            values[e] = sympy.sympify(render(e).replace("^", "**"), locals=names)
        return values[e]

    return value


@pytest.fixture(scope="session")
def sympy_domain(sympy_value):
    """field -> (domain, convert): the sympy domain matching field and the map
    of its elements into it, so that sympy serves as an independent, test-only
    oracle.  A number field must be Q[eta]/(eta^2+2*eta-1), mapped to
    QQ<sqrt(2)>."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import GF, QQ

    def domain(field):
        if field.kind == field.RATIONALS:
            return QQ, lambda e: QQ(Fraction(*e.payload))
        if field.kind == field.PRIME:
            gf = GF(field.p)
            return gf, lambda e: gf(e.payload)
        t = sympy.Symbol(field.variable)
        if field.kind == field.RATIONAL_FUNCTIONS:
            qt = QQ.frac_field(t)
            return qt, lambda e: qt.from_sympy(sympy_value(e))
        assert field.minpoly == (-1, 2, 1)  # eta = sqrt(2) - 1
        nf = QQ.algebraic_field(sympy.sqrt(2))
        eta = nf.from_sympy(sympy.sqrt(2) - 1)
        return nf, lambda e: sum(
            (nf.convert(c) * eta**i for i, c in enumerate(reversed(sympy.Poly(sympy_value(e), t).all_coeffs()))),
            nf.zero,
        )

    return domain


@pytest.fixture(scope="session")
def sympy_matrix(sympy_domain):
    """(rows, ncols, field) -> the rows as a sympy DomainMatrix over the
    domain matching field (see sympy_domain)."""
    from sympy.polys.matrices import DomainMatrix

    converted = {}

    def matrix(rows, ncols, field):
        dom, convert = sympy_domain(field)
        for e in (e for r in rows for e in r if e not in converted):
            converted[e] = convert(e)
        return DomainMatrix([[converted[e] for e in r] for r in rows], (len(rows), ncols), dom)

    return matrix


@pytest.fixture(scope="session")
def matsuo_s5():
    """(field, eta) -> M_eta(S_5), by the rule of the perfbench/matsuo.py
    docstring: t*t = t, s*t = 0 if s and t commute, s*t = (eta/2)(s + t - tst)
    if st has order 3.  The basis is the transpositions "12", "13", ..."""
    def build(field, eta):
        trans = list(combinations(range(1, 6), 2))
        index = {t: k for k, t in enumerate(trans)}
        half = field.from_fraction(Fraction(eta) / 2)

        def vec(coeffs):
            return Vector(field, [coeffs.get(k, field.zero()) for k in range(len(trans))])

        table = {(k, k): vec({k: field.one()}) for k in range(len(trans))}
        for s, t in combinations(trans, 2):
            if len(set(s) | set(t)) != 3:
                continue
            u = tuple(sorted(set(s) ^ set(t)))  # tst, the third transposition
            table[index[s], index[t]] = vec({index[s]: half, index[t]: half, index[u]: -half})
        return AlgebraDef(field, [f"{a}{b}" for a, b in trans], table)

    return build


@pytest.fixture(scope="session")
def matsuo_flip():
    """alg -> the flip of M_eta(S_5) at the axis "12": conjugation by (1 2),
    which permutes the transpositions."""
    def flip(alg):
        swap = {"1": "2", "2": "1"}
        images = ["".join(sorted(swap.get(c, c) for c in label)) for label in alg.labels]
        columns = [alg.basis_vector(alg.label_index(label)) for label in images]
        return AlgebraMap(alg, alg, Matrix.from_columns(alg.field, columns, nrows=alg.dim))

    return flip


@pytest.fixture(scope="session")
def matsuo_split(matsuo_s5, matsuo_flip):
    """(field, eta) -> the decomposition of M_eta(S_5) at the axis "12" with
    the flip of matsuo_flip."""
    def split(field, eta):
        alg = matsuo_s5(field, eta)
        return split_eigenspace(alg, alg.basis_vector(0), field.from_fraction(Fraction(eta)), matsuo_flip(alg))

    return split


@pytest.fixture(scope="session")
def hostile_file():
    """(n, d, seed) -> the text of a seeded random algebra file over Q(eta)
    with basis e0 .. e(n-1).  e0 is idempotent; every other product is 3
    random basis terms whose coefficients are quotients of random degree-d
    polynomials in eta.  The shift and the flip are the identity, and e0 is
    the one axis."""
    def make(n, d, seed):
        rng = random.Random(seed)
        labels = [f"e{k}" for k in range(n)]

        def poly():
            return " + ".join(f"{rng.randint(1 if k == d else -9, 9)}*eta^{k}" for k in range(d + 1))

        products = [{"left": "e0", "right": "e0", "value": {"e0": "1"}}]
        for i, j in combinations_with_replacement(range(n), 2):
            if (i, j) != (0, 0):
                terms = rng.sample(labels, 3)
                products.append({"left": labels[i], "right": labels[j],
                                 "value": {t: f"({poly()})/({poly()})" for t in terms}})
        identity = {label: label for label in labels}
        return json.dumps({
            "field": {"kind": "rational_functions", "variable": "eta"},
            "basis": labels,
            "products": products,
            "dihedral": {"window": [0, 0], "axes": ["e0"], "shift_images": identity, "flip_images": identity},
        })

    return make
