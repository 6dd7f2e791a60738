import ast
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from axialcheck import algfile, catalog, fields, polynomials
from axialcheck.algebra import AlgebraDef, AlgebraMap
from axialcheck.errors import (
    AlgebraFileError,
    ConstraintViolation,
    DenominatorVanishes,
    DescriptorMismatch,
    DivisionByZero,
    InvalidDescriptor,
    ScalarSyntaxError,
    UnknownSymbol,
)
from axialcheck.fields import (
    FieldDescriptor,
    FieldElement,
    parse_scalar,
    render,
    specialize,
)
from axialcheck.linalg import Matrix, Vector


# ---------------------------------------------------------------------------
# independent oracle: naive polynomial arithmetic on coefficient lists
# ---------------------------------------------------------------------------

def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def _monic_parts(sympy_value, x):
    """(numerator, denominator) of a Q(eta) element as ascending Fraction
    coefficients with the denominator monic, read from its value rather than
    its payload.  Nothing is cancelled here, so the parts are in lowest terms
    only if the field's own reduction made them so."""
    sympy = pytest.importorskip("sympy")
    eta = sympy.Symbol(x.field.variable)
    num, den = (sympy.Poly(p, eta, domain=sympy.QQ) for p in sympy.fraction(sympy_value(x)))
    lead = den.LC()
    return tuple(
        polynomials._ptrim(tuple(Fraction(int(c.p), int(c.q)) for c in reversed((p * (1 / lead)).all_coeffs())))
        for p in (num, den)
    )


def test_parse_spec_examples(QETA, GF5, sympy_value):
    x = parse_scalar("(-1)*eta*(3*eta+1)/4", QETA)
    assert x == parse_scalar("-3/4*eta^2 - 1/4*eta", QETA)
    assert parse_scalar("0", GF5).is_zero()
    y = parse_scalar("(2*eta)/(eta+1)", QETA)
    num, den = _monic_parts(sympy_value, y)
    assert den == (Fraction(1), Fraction(1))  # monic eta + 1
    assert num == (Fraction(0), Fraction(2))


def test_parenthesized_power(QETA):
    a = parse_scalar("(5*eta^2-1)/((eta+1)^2)", QETA)
    b = parse_scalar("(5*eta^2-1)/((eta+1)*(eta+1))", QETA)
    assert a == b


def test_reduction_against_oracle(QETA, sympy_value):
    # (eta/(eta+1)) * (eta+1) must cancel; oracle multiplies numerators naively
    x = parse_scalar("eta/(eta+1)", QETA)
    y = parse_scalar("eta+1", QETA)
    prod = x * y
    xn, xd = _monic_parts(sympy_value, x)
    raw_num = _pmul(list(xn), [Fraction(1), Fraction(1)])
    prod_num = _monic_parts(sympy_value, prod)[0]
    assert list(prod_num) == raw_num[: len(prod_num)] or prod == parse_scalar("eta", QETA)
    assert prod == parse_scalar("eta", QETA)


def test_number_field_reduction(NF):
    eta = NF.generator()
    assert eta * eta == parse_scalar("1 - 2*eta", NF)
    # inverse round-trips
    x = parse_scalar("3*eta + 2", NF)
    assert (x * x.inverse()).is_one()


def test_specialize_examples(Q, QETA):
    x = parse_scalar("-eta*(3*eta+1)/4", QETA)
    at_third = specialize(x, Q, Q.from_fraction(Fraction(-1, 3)))
    assert at_third.is_zero()
    y = parse_scalar("(2*eta)/(eta+1)", QETA)
    with pytest.raises(DenominatorVanishes):
        specialize(y, Q, Q.from_int(-1))
    z = parse_scalar("(5*eta^2-1)/((eta+1)^2)", QETA)
    assert specialize(z, Q, Q.from_int(1)) == Q.from_int(1)


def test_specialize_into_prime_and_number_field(QETA, GF5, NF):
    x = parse_scalar("4/3", QETA)
    assert specialize(x, GF5, GF5.from_fraction(Fraction(4, 3))) == GF5.from_int(3)
    gen = NF.generator()
    y = parse_scalar("eta^2 + 2*eta - 1", QETA)
    assert specialize(y, NF, gen).is_zero()


def test_characteristic(Q, QETA, GF5, NF):
    assert QETA.characteristic() == 0
    assert GF5.characteristic() == 5
    assert NF.characteristic() == 0
    assert Q.characteristic() == 0


def test_render_round_trip(Q, QETA, GF5, NF):
    rng = random.Random(7)
    samples = []
    for _ in range(50):
        samples.append(Q.from_fraction(Fraction(rng.randint(-30, 30), rng.randint(1, 9))))
        samples.append(GF5.from_int(rng.randint(0, 4)))
        samples.append(
            NF.element([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)])
        )
        num = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
        den = tuple(Fraction(rng.randint(-4, 4)) for _ in range(2)) + (Fraction(1),)
        samples.append(QETA.element((num, den)))
    for x in samples:
        assert parse_scalar(render(x), x.field) == x


def test_canonical_idempotence(QETA):
    x = parse_scalar("(2*eta^2+2*eta)/(eta+1)", QETA)
    assert QETA.canonical(x.payload) == x.payload
    # equality is payload equality for equal values built differently
    y = parse_scalar("2*eta", QETA)
    assert x == y and x.payload == y.payload


def test_field_laws_random(Q, QETA, GF7, NF):
    rng = random.Random(11)

    def rand(field):
        if field.kind == FieldDescriptor.RATIONALS:
            return field.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        if field.kind == FieldDescriptor.PRIME:
            return field.from_int(rng.randint(0, field.p - 1))
        if field.kind == FieldDescriptor.NUMBER_FIELD:
            return field.element([Fraction(rng.randint(-4, 4)) for _ in range(2)])
        num = tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))
        den = (Fraction(rng.randint(1, 3)), Fraction(1))
        return field.element((num, den))

    for field in (Q, QETA, GF7, NF):
        for _ in range(100):
            a, b, c = rand(field), rand(field), rand(field)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + (-a)).is_zero()
            if not a.is_zero():
                assert (a * a.inverse()).is_one()


def test_errors(Q, QETA, GF5):
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("2 +", Q)
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("eta^65", QETA)
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("eta^-1", QETA)
    with pytest.raises(UnknownSymbol):
        parse_scalar("eta", Q)
    with pytest.raises(DivisionByZero):
        parse_scalar("1/0", Q)
    with pytest.raises(DivisionByZero):
        parse_scalar("1/(eta-eta)", QETA)
    with pytest.raises(DescriptorMismatch):
        parse_scalar("1", Q) + parse_scalar("1", GF5)


def test_invalid_descriptors():
    with pytest.raises(InvalidDescriptor):
        FieldDescriptor.prime(2)
    with pytest.raises(InvalidDescriptor):
        FieldDescriptor.prime(9)
    with pytest.raises(InvalidDescriptor):
        FieldDescriptor.number_field((1, 1))  # degree 1
    with pytest.raises(InvalidDescriptor):
        FieldDescriptor.number_field((-1, 0, 1))  # eta^2 - 1 is reducible
    with pytest.raises(InvalidDescriptor):
        FieldDescriptor.number_field((1, 0, 0, 0, 1))  # degree 4 unsupported


def test_primality_matches_sympy():
    sympy = pytest.importorskip("sympy")
    # two Carmichael numbers, then strong pseudoprimes to the first 4 and 11 prime bases
    for n in [*range(10**4), 561, 41041, 3215031751, 3825123056546413051, 2**61 - 1]:
        assert fields._is_prime(n) == sympy.isprime(n), n
    assert FieldDescriptor.prime(2**61 - 1).p == 2**61 - 1
    # a Mersenne prime past the range where the Miller-Rabin bases are exact
    assert sympy.isprime(2**89 - 1) and 2**89 - 1 >= fields.MAX_CHARACTERISTIC
    with pytest.raises(InvalidDescriptor):
        FieldDescriptor.prime(2**89 - 1)


def test_int_coercion(QETA):
    eta = QETA.generator()
    assert 2 * eta - 1 == parse_scalar("2*eta - 1", QETA)
    assert (1 - eta) + eta == QETA.one()
    assert eta / 2 == parse_scalar("eta/2", QETA)


def test_nested_powers_are_refused_before_they_are_computed(Q, QETA, NF, sympy_value):
    # each exponent is within MAX_EXPONENT, but nesting multiplies them
    for text, field in (
        ("((eta+1)^64)^64", QETA),
        ("(((2^64)^64)^64)^64", Q),
        ("(((eta+3)^64)^64)^64", NF),
    ):
        start = time.monotonic()
        with pytest.raises(ScalarSyntaxError, match="would pass"):
            parse_scalar(text, field)
        assert time.monotonic() - start < 1.0, text
    # the largest single powers stay allowed
    assert _monic_parts(sympy_value, parse_scalar("(eta+1)^64", QETA))[0][32] == math.comb(64, 32)
    assert parse_scalar("(2^64)^64", Q) == Q.from_int(2**4096)


def test_overlong_integer_literal_is_a_syntax_error(Q):
    with pytest.raises(ScalarSyntaxError, match="too long"):
        parse_scalar("9" * 5000, Q)


def test_only_ascii_digits_make_integer_literals(Q):
    # str.isdigit is true of these too; the grammar's uint is ASCII digits
    for text, char in (("\u0663+1", "\u0663"), ("\u00b2", "\u00b2")):
        with pytest.raises(ScalarSyntaxError, match=f"unexpected character {char!r}"):
            parse_scalar(text, Q)


def test_number_field_modulus_size_is_bounded():
    # the rational-root test tries divisors of the cleared modulus's ends
    with pytest.raises(InvalidDescriptor, match="root-search limit"):
        FieldDescriptor.number_field((10**30 + 1, 0, 1))
    assert FieldDescriptor.number_field((999999999989, 0, 1)).minpoly[0] == 999999999989


def _random_poly(rng, degree):
    # integer coefficients with a content that is sometimes not 1
    content = rng.choice([1, 1, 1, 2, 6])
    coeffs = [content * rng.randint(-60, 60) for _ in range(degree)]
    return polynomials._ptrim(tuple(coeffs) + (content * rng.choice([-7, -1, 1, 2, 9]) * rng.randint(1, 5),))


def _sympy_poly(sympy, poly):
    return sympy.Poly(list(reversed(poly)), sympy.Symbol("x"), domain=sympy.QQ)


def test_polynomial_gcd_matches_sympy():
    # random pairs with a random common factor, some of them with a repeated one
    sympy = pytest.importorskip("sympy")

    def to_sympy(poly):
        return _sympy_poly(sympy, poly)

    rng = random.Random(20260)
    for _ in range(150):
        common = _random_poly(rng, rng.randint(0, 4))
        a = polynomials._pmul(common, _random_poly(rng, rng.randint(0, 6)))
        b = polynomials._pmul(common, _random_poly(rng, rng.randint(0, 6)))
        if rng.random() < 0.25:
            b = polynomials._pmul(b, common)
        expected = to_sympy(a).gcd(to_sympy(b)).monic()
        g, qa, qb = polynomials._pgcd(a, b)
        assert to_sympy(g).monic() == expected, (a, b)
        assert math.gcd(*g) == 1 and polynomials._pmul(g, qa) == a and polynomials._pmul(g, qb) == b
        assert polynomials._pgcd(a, (3,)) == ((1,), a, (3,))


def test_polynomial_division_matches_sympy():
    # dividends shorter than the divisor, with trailing zero coefficients or
    # zero, constant divisors and exact quotients among the cases
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261)
    seen = set()
    for _ in range(300):
        b = _random_poly(rng, rng.randint(0, 4))
        a = _random_poly(rng, rng.randint(0, 8)) if rng.random() < 0.95 else ()
        exact = rng.random() < 0.2
        if exact:
            a = polynomials._pmul(b, a)
        a += (0,) * rng.choice([0, 0, 1, 3])
        kinds = {"short": len(a) < len(b), "constant": len(b) == 1, "untrimmed": a[-1:] == (0,),
                 "exact": exact, "unit": abs(b[-1]) == 1}
        seen.update(kind for kind, on in kinds.items() if on)
        q, r, f = polynomials._pdivmod(a, b)
        assert q == polynomials._ptrim(q) and r == polynomials._ptrim(r) and len(r) < len(b)
        assert polynomials._padd(polynomials._pmul(q, b), r) == tuple(f * c for c in polynomials._ptrim(a))
        assert f > 0 and abs(b[-1]) ** len(a) % f == 0
        if exact or abs(b[-1]) == 1:  # b divides a in Z[t], or a unit lead: no scaling
            assert f == 1 and (r == () or not exact)
        expected = sympy.div(_sympy_poly(sympy, a), _sympy_poly(sympy, b))
        assert (_sympy_poly(sympy, q) * sympy.Rational(1, f), _sympy_poly(sympy, r) * sympy.Rational(1, f)) == expected
    assert seen == {"short", "constant", "untrimmed", "exact", "unit"}


def test_rational_functions_with_large_coefficients_reduce_quickly(QETA, sympy_value):
    # Euclid over Fraction coefficients took about 12 s on the first one
    for text, common in (
        ("(2^40*eta+1)^48/(eta^2+5)^24", 0),
        ("(2^40*eta+3)^32/((2^40*eta+3)^16*(eta+1))", 16),
    ):
        start = time.monotonic()
        x = parse_scalar(text, QETA)
        assert time.monotonic() - start < 1.0, text
        num, den = _monic_parts(sympy_value, x)
        assert (len(num) - 1, len(den) - 1) == ((48, 48) if common == 0 else (16, 1))


def test_numbers_too_long_for_a_literal_are_not_rendered(Q):
    # (518^43)^37 passes the power limits but has more digits than int() parses
    x = parse_scalar("((518)^43)^37", Q)
    with pytest.raises(ScalarSyntaxError, match="too long to write"):
        render(x)
    assert render(parse_scalar("((518)^42)^37", Q)) == str(518**1554)


# ---------------------------------------------------------------------------
# Q payloads: coprime (numerator, denominator) int pairs, checked against Fraction
# ---------------------------------------------------------------------------


def _plus(field, a, b):
    """a + b for payloads, by FieldElement's +: the field's mac and settle."""
    return (FieldElement(field, a) + FieldElement(field, b)).payload


def _is_canonical_pair(payload):
    num, den = payload
    return type(num) is int and type(den) is int and den > 0 and math.gcd(num, den) == 1


@st.composite
def _raw_rational_pairs(draw):
    """Two raw (numerator, denominator) pairs of either sign whose
    denominators are equal, coprime or share a factor."""
    nums = st.one_of(st.just(0), st.integers(-10**12, 10**12))
    d, k1, k2 = draw(st.integers(1, 10**6)), draw(st.integers(1, 60)), draw(st.integers(1, 60))
    d1, d2 = draw(st.sampled_from([(d, d), (d, d * k1 + 1), (d * k1, d * k2)]))
    signs = st.sampled_from((1, -1))
    return (draw(nums), draw(signs) * d1), (draw(nums), draw(signs) * d2)


@given(_raw_rational_pairs())
def test_rational_payloads_agree_with_fraction(pairs):
    Q = FieldDescriptor.rationals()
    (a, b), (fa, fb) = (Q.canonical(r) for r in pairs), (Fraction(*r) for r in pairs)
    expected = [(a, fa), (b, fb), (_plus(Q, a, b), fa + fb), (_plus(Q, a, a), fa + fa),
                (Q.neg(a), -fa), (Q.mul(a, b), fa * fb), (Q.embed(fa.numerator, fa.denominator), fa)]
    if fb:
        expected.append((Q.inv(b), 1 / fb))
    for payload, fr in expected:
        assert _is_canonical_pair(payload)
        assert payload == (fr.numerator, fr.denominator)
    assert Q.render(a) == str(fa)
    assert Q.size(a) == (0, fa.numerator.bit_length() + fa.denominator.bit_length())
    assert Q.is_zero(a) == (fa == 0)


def test_rational_payloads_with_a_zero_operand(Q):
    x = (3, 7)
    assert Q.mul((0, 1), x) == Q.mul(x, (0, 1)) == Q.mul((0, 1), (0, 1)) == (0, 1)
    assert _plus(Q, (0, 1), x) == _plus(Q, x, (0, 1)) == x
    assert _plus(Q, x, Q.neg(x)) == _plus(Q, (5, 12), (-5, 12)) == (0, 1)
    assert Q.neg((0, 1)) == Q.canonical((0, -5)) == Q.embed(0, 1) == Q.ZERO == (0, 1)
    assert Q.is_zero((0, 1)) and not Q.is_zero(x)
    assert render(Q.zero()) == "0"
    for op, arg in ((Q.inv, (0, 1)), (Q.canonical, (1, 0))):
        with pytest.raises(DivisionByZero):
            op(arg)


# ---------------------------------------------------------------------------
# Q(eta) and Q[t]/(m) payloads: integer polynomials, checked against the
# arithmetic on polynomials with Fraction coefficients
# ---------------------------------------------------------------------------


def _fpoly(coeffs):
    return polynomials._ptrim(tuple(Fraction(c) for c in coeffs))


def _fadd(a, b):
    n = max(len(a), len(b))
    return _fpoly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _fmul(a, b):
    return _fpoly(_pmul(a, b)) if a and b else ()


def _fmod(a, m):
    a = list(a)
    while len(a) >= len(m):
        factor = a[-1] / m[-1]
        for i, c in enumerate(m):
            a[len(a) - len(m) + i] -= factor * c
        a = list(_fpoly(a))
    return tuple(a)


def _fgcd(a, b):
    while b:
        a, b = b, _fmod(a, b)
    return tuple(c / a[-1] for c in a)


def _fquo(a, b):
    q, a = [Fraction(0)] * (len(a) - len(b) + 1), list(a)
    for k in reversed(range(len(q))):
        q[k] = a[k + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            a[k + i] -= q[k] * c
    return _fpoly(q)


def _fraction_function(num, den):
    """num/den in the form of the Fraction reference: coprime, den monic."""
    num, den = _fpoly(num), _fpoly(den)
    if not num:
        return (), (Fraction(1),)
    g = _fgcd(num, den)
    num, den = _fquo(num, g), _fquo(den, g)
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


def _render_reference(poly, variable):
    terms = []
    for deg in range(len(poly) - 1, -1, -1):
        c = poly[deg]
        if c:
            coeff = str(abs(c))
            var = "" if deg == 0 else variable if deg == 1 else f"{variable}^{deg}"
            body = coeff if not var else var if coeff == "1" else f"{coeff}*{var}"
            terms.append(("-" if c < 0 else "") + body if not terms else (" - " if c < 0 else " + ") + body)
    return "".join(terms) or "0"


def _size_reference(*polys):
    return max((c.numerator.bit_length() + c.denominator.bit_length() for p in polys for c in p), default=0)


_coefficients = st.builds(Fraction, st.one_of(st.integers(-40, 40), st.integers(-2**70, 2**70)), st.integers(1, 12))
_polys = st.lists(_coefficients, max_size=4).map(_fpoly)


@st.composite
def _raw_rational_functions(draw):
    """(num, den) with Fraction coefficients, den nonzero and of either sign,
    often with a common factor."""
    common = draw(st.one_of(st.just((Fraction(1),)), _polys.filter(bool)))
    num = _fmul(draw(_polys), common)
    den = _fmul(draw(_polys.filter(bool)), common)
    return num, den


def _is_canonical_function(payload):
    num, den = payload
    coeffs = num + den
    return (all(type(c) is int for c in coeffs) and den == polynomials._ptrim(den) == _fpoly(den) and den[-1] > 0
            and num == polynomials._ptrim(num) and math.gcd(*coeffs) == 1
            and (not num or len(_fgcd(_fpoly(num), _fpoly(den))) == 1))


def _function_value(payload):
    """A Q(eta) payload in the form of the Fraction reference."""
    num, den = payload
    return tuple(Fraction(c, den[-1]) for c in num), tuple(Fraction(c, den[-1]) for c in den)


@given(_raw_rational_functions(), _raw_rational_functions(), _coefficients)
def test_rational_function_payloads_agree_with_fraction_polynomials(raw_a, raw_b, r):
    QETA = FieldDescriptor.rational_functions("eta")
    a, b = QETA.canonical(raw_a), QETA.canonical(raw_b)
    (na, da), (nb, db) = fa, fb = _fraction_function(*raw_a), _fraction_function(*raw_b)
    expected = [
        (a, fa), (b, fb), (QETA.neg(a), (tuple(-c for c in na), da)),
        (_plus(QETA, a, b), _fraction_function(_fadd(_fmul(na, db), _fmul(nb, da)), _fmul(da, db))),
        (_plus(QETA, a, a), _fraction_function(_fadd(na, na), da)),
        (QETA.mul(a, b), _fraction_function(_fmul(na, nb), _fmul(da, db))),
        (QETA.embed(r.numerator, r.denominator), _fraction_function(_fpoly([r]), (1,))),
        # a product by a constant, on either side
        (QETA.mul(a, QETA.embed(r.numerator, r.denominator)), _fraction_function(_fmul(na, _fpoly([r])), da)),
        (QETA.mul(QETA.embed(r.numerator, r.denominator), b), _fraction_function(_fmul(_fpoly([r]), nb), db)),
    ]
    if nb:
        expected.append((QETA.inv(b), _fraction_function(db, nb)))
    for payload, reference in expected:
        assert _is_canonical_function(payload)
        assert _function_value(payload) == reference
    assert QETA.canonical(a) == a
    text = _render_reference(na, "eta")
    assert render(QETA.element(raw_a)) == (text if da == (1,) else f"({text})/({_render_reference(da, 'eta')})")
    assert QETA.size(a) == (max(len(na), len(da)) - 1, _size_reference(na, da))
    assert QETA.is_zero(a) == (na == ())


@pytest.mark.parametrize("minpoly", [(-1, 2, 1), (Fraction(-1, 2), 0, 1), (Fraction(-1, 3), Fraction(1, 2), 0, 1)])
@given(raw=st.tuples(_polys, _polys), r=_coefficients)
def test_number_field_payloads_agree_with_fraction_polynomials(minpoly, raw, r):
    NF = FieldDescriptor.number_field(minpoly)
    m = _fpoly(minpoly)

    def value(payload):
        c, d = payload
        return tuple(Fraction(x, d) for x in c)

    def is_canonical(payload):
        c, d = payload
        return (all(type(x) is int for x in c + (d,)) and d > 0 and c == polynomials._ptrim(c)
                and math.gcd(*c, d) == 1 and len(c) < len(m))

    a, b = (NF.canonical(p) for p in raw)
    fa, fb = (_fmod(p, m) for p in raw)
    expected = [(a, fa), (b, fb), (NF.neg(a), tuple(-c for c in fa)), (_plus(NF, a, b), _fadd(fa, fb)),
                (_plus(NF, a, a), _fadd(fa, fa)), (NF.mul(a, b), _fmod(_fmul(fa, fb), m)),
                (NF.embed(r.numerator, r.denominator), _fpoly([r]))]
    if fb:
        inverse = NF.inv(b)
        expected.append((inverse, value(inverse)))
        assert _fmod(_fmul(value(inverse), fb), m) == (1,)
    for payload, reference in expected:
        assert is_canonical(payload)
        assert value(payload) == reference
    assert NF.canonical(raw[0]) == a and render(NF.element(raw[0])) == _render_reference(fa, "eta")
    assert NF.size(a) == (0, _size_reference(fa, m))
    assert NF.is_zero(a) == (fa == ())
    assert repr(NF) == f"Q[eta]/({_render_reference(m, 'eta')})"


# ---------------------------------------------------------------------------
# mac and settle: each kind's multiply-accumulate, against Fraction arithmetic
# ---------------------------------------------------------------------------

MAC_FIELDS = {
    "Q": FieldDescriptor.rationals(),
    "GF7": FieldDescriptor.prime(7),
    "NF": FieldDescriptor.number_field((-1, 2, 1)),
    "QETA": FieldDescriptor.rational_functions("eta"),
}
# small values over few denominators, so that sums often cancel exactly and
# Q sums meet over equal and unequal denominators
_mac_values = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4, 6]))


def _mac_scalars(field):
    if field.kind == FieldDescriptor.PRIME:
        return st.integers(0, field.p - 1)
    value = _mac_values.map(field.from_fraction)
    if field.variable is not None:  # a + b*eta
        value = st.builds(lambda a, b: a + b * field.generator(), value, value)
    if field.kind == FieldDescriptor.RATIONAL_FUNCTIONS:
        # now and then over 1 + c*eta, so that Q(eta) sums switch from their
        # raw form over an int to canonical sums, and still cancel
        over = st.sampled_from([None, 1, 2]).map(lambda c: c and 1 + c * field.generator())
        value = st.builds(lambda x, d: x / d if d else x, value, over)
    return value.map(lambda x: x.payload)


def _reference_arithmetic(field):
    """(value, add, mul): a payload's value, and the sum and product of values,
    by Fraction and the Fraction-polynomial helpers above, sharing no code with
    the field.  Canonical payloads of equal values are equal."""
    if field.kind == FieldDescriptor.RATIONALS:
        return (lambda a: Fraction(*a)), (lambda x, y: x + y), (lambda x, y: x * y)
    if field.kind == FieldDescriptor.PRIME:
        p = field.p
        return (lambda a: a), (lambda x, y: (x + y) % p), (lambda x, y: x * y % p)
    if field.kind == FieldDescriptor.NUMBER_FIELD:
        m = _fpoly(field.minpoly)
        return (lambda a: _fpoly([Fraction(c, a[1]) for c in a[0]])), _fadd, (lambda x, y: _fmod(_fmul(x, y), m))
    return (_function_value,
            lambda x, y: _fraction_function(_fadd(_fmul(x[0], y[1]), _fmul(y[0], x[1])), _fmul(x[1], y[1])),
            lambda x, y: _fraction_function(_fmul(x[0], y[0]), _fmul(x[1], y[1])))


def _values(field, payloads):
    value = _reference_arithmetic(field)[0]
    return {k: value(a) for k, a in payloads.items()}


def _mac_reference(field, steps):
    value, add, mul = _reference_arithmetic(field)
    sums = {}
    for c, terms in steps:
        for k, t in terms:
            t = mul(value(c), value(t))
            sums[k] = add(sums[k], t) if k in sums else t
    zero = value(field.ZERO)
    return {k: s for k, s in sums.items() if s != zero}


def _settled(field, steps):
    out = {}
    for c, terms in steps:
        field.mac(out, c, terms)
    settled = field.settle(out)
    for payload in settled.values():
        raw = payload
        if field.kind == FieldDescriptor.NUMBER_FIELD:  # canonical reads a coefficient list
            raw = [Fraction(c, payload[1]) for c in payload[0]]
        assert not field.is_zero(payload) and field.canonical(raw) == payload
    return settled


@pytest.mark.parametrize("name", MAC_FIELDS)
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_settle_after_mac_is_the_canonical_loop(name, data):
    field = MAC_FIELDS[name]
    scalars = _mac_scalars(field)
    terms = st.lists(st.tuples(st.integers(0, 2), scalars), max_size=4)
    steps = data.draw(st.lists(st.tuples(scalars, terms), max_size=5))
    assert _values(field, _settled(field, steps)) == _mac_reference(field, steps)


@pytest.mark.parametrize("name,steps,expected", [
    # (1/3)(3/2) = 3/6 raw, then -(1/2) over the lcm 6 cancels it
    ("Q", [((1, 3), [(0, (3, 2))]), ((-1, 1), [(0, (1, 2))])], {}),
    # 1/2 + 1/3 over the lcm 6, and a sum over equal raw denominators
    ("Q", [((1, 2), [(0, (1, 1)), (1, (1, 2))]), ((1, 3), [(0, (1, 1))]), ((1, 2), [(1, (1, 2))])],
     {0: (5, 6), 1: (1, 2)}),
    # 3*4 + 2*1 = 14 = 0 mod 7 drops out, and 3*6 + 6*6 = 54 = 5 mod 7
    ("GF7", [(3, [(0, 4), (1, 6)]), (2, [(0, 1)]), (6, [(1, 6)])], {1: 5}),
    # eta*eta + 2*eta - 1 is the modulus itself: a nonzero raw sum, zero in Q[eta]/(m)
    ("NF", [(((0, 1), 1), [(0, ((0, 1), 1))]), (((2,), 1), [(0, ((0, 1), 1))]), (((-1,), 1), [(0, ((1,), 1))])],
     {}),
    # 1/2 + eta/3 over the lcm 6
    ("QETA", [(((1,), (2,)), [(0, ((1,), (1,)))]), (((1,), (3,)), [(0, ((0, 1), (1,)))])], {0: ((3, 2), (6,))}),
    # 1/2 + 1/(1 + eta) is a canonical sum from its second term on, and
    # - 1/(1 + eta) - 1/2 cancels it
    ("QETA", [(((1,), (2,)), [(0, ((1,), (1,)))]), (((1,), (1,)), [(0, ((1,), (1, 1)))]),
              (((-1,), (1,)), [(0, ((1,), (1, 1)))]), (((-1,), (2,)), [(0, ((1,), (1,)))])], {}),
])
def test_mac_sums_that_cancel_or_meet_over_an_lcm(name, steps, expected):
    field = MAC_FIELDS[name]
    settled = _settled(field, steps)
    assert settled == expected and _values(field, settled) == _mac_reference(field, steps)


# ---------------------------------------------------------------------------
# equality is a zero test: every == settles a difference by the field's settle
# ---------------------------------------------------------------------------


def _small_element(field, rng):
    """A seeded element of few values, so that equal pairs come often."""
    x = field.from_fraction(Fraction(rng.randint(-2, 2), rng.choice([1, 2])))
    if field.variable is not None:
        x = x + field.from_int(rng.randint(-1, 1)) * field.generator()
        if field.kind == FieldDescriptor.RATIONAL_FUNCTIONS and rng.random() < 0.5:
            x = x / (field.one() + field.generator())
    return x


def test_no_field_kind_has_a_second_addition_rule():
    for cls in (FieldDescriptor, *FieldDescriptor.__subclasses__()):
        assert not hasattr(cls, "add"), cls


def test_the_kernels_read_no_field_kind():
    # each field kind chooses its arithmetic: axial, dihedral, algebra and
    # linalg call their field's methods and never branch on which kind it is
    package = Path(fields.__file__).parent
    for module in ("axial", "dihedral", "algebra", "linalg"):
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "kind"] == [], module


@pytest.mark.parametrize("name", MAC_FIELDS)
def test_equality_is_a_zero_test(name, monkeypatch):
    field = MAC_FIELDS[name]
    settle, settles = field.settle, []

    def counted(self, out):
        settles.append(out)
        return settle(out)

    monkeypatch.setattr(type(field), "settle", counted)

    def decided(outcome, expected):
        # the outcome agrees with payload comparison, and came through settle
        assert outcome == expected and settles
        settles.clear()

    rng = random.Random(name)
    source, target = AlgebraDef(field, ["e0", "e1"], {}), AlgebraDef(field, ["e0", "e1", "e2"], {})
    seen = {True: 0, False: 0}
    for _ in range(40):
        xs = [_small_element(field, rng) for _ in range(3)]
        # equal values by another route about half the time
        ys = [x - field.one() + field.one() if rng.random() < 0.5 else _small_element(field, rng) for x in xs]
        for x, y in zip(xs, ys):
            same = x.payload == y.payload
            seen[same] += 1
            settles.clear()
            decided(x == y, same)
            decided(x != y, not same)
            decided(x.is_one(), x.payload == field.ONE)
        u, v = Vector(field, xs), Vector(field, ys)
        decided(u == v, u.terms == v.terms)
        decided(u != v, u.terms != v.terms)
        m, n = (Matrix.from_columns(field, [w, u], 3) for w in (u, v))
        decided(m == n, u.terms == v.terms)
        decided(AlgebraMap(source, target, m) == AlgebraMap(source, target, n), u.terms == v.terms)
    assert seen[True] and seen[False]
    decided(field.one().is_one(), True)
    decided((field.one() + field.one() - field.one()).is_one(), True)


# ---------------------------------------------------------------------------
# the contract of raw_mul, mac and settle, against FieldElement arithmetic
# ---------------------------------------------------------------------------

CONTRACT_FIELDS = {
    "Q": FieldDescriptor.rationals(),
    "GF10007": FieldDescriptor.prime(10007),
    "NF": FieldDescriptor.number_field((-1, 2, 1)),  # Q[t]/(t^2 + 2t - 1)
    "QETA": FieldDescriptor.rational_functions("eta"),
}


@pytest.mark.parametrize("name", CONTRACT_FIELDS)
def test_mac_takes_raw_products_and_raw_sums_as_its_coefficient(name):
    # settle(mac sums of raw_mul products) is the sum of the products, and a
    # raw sum, cancelled ones included, multiplies terms as its value does;
    # over Q(eta) about half the elements have a polynomial denominator
    field = CONTRACT_FIELDS[name]
    rng = random.Random(name)
    seen = {"cancelled": 0, "over a polynomial": 0}
    for _ in range(60):
        raw, sums = {}, {}
        for _ in range(5):  # a*b*t into one of three sums
            a, b, t = (_small_element(field, rng) for _ in range(3))
            k = rng.randrange(3)
            field.mac(raw, field.raw_mul(a.payload, b.payload), [(k, t.payload)])
            sums[k] = sums.get(k, field.zero()) + a * b * t
            seen["over a polynomial"] += name == "QETA" and any(len(x.payload[1]) > 1 for x in (a, b))
        assert field.settle(raw) == {k: s.payload for k, s in sums.items() if not s.is_zero()}
        seen["cancelled"] += any(s.is_zero() for s in sums.values())
        u, v = _small_element(field, rng), _small_element(field, rng)
        out, expected = {}, {k: s * u for k, s in sums.items()}
        for k, s in raw.items():  # each raw sum times u into entry k, and all of them times v into entry 3
            field.mac(out, s, [(k, u.payload), (3, v.payload)])
        expected[3] = sum((s * v for s in sums.values()), field.zero())
        assert field.settle(out) == {k: x.payload for k, x in expected.items() if not x.is_zero()}
    assert seen["cancelled"] and (seen["over a polynomial"] or name != "QETA"), seen


# ---------------------------------------------------------------------------
# interning: equal fields are one object
# ---------------------------------------------------------------------------

# each kind: its constructor and its catalog field spec
KINDS = {
    "Q": (FieldDescriptor.rationals, "q"),
    "GF5": (lambda: FieldDescriptor.prime(5), "gf:5"),
    "NF": (lambda: FieldDescriptor.number_field((-1, 2, 1)), "nf:-1,2,1"),
    "QETA": (lambda: FieldDescriptor.rational_functions("eta"), "qeta"),
}


@pytest.mark.parametrize("kind", KINDS)
def test_equal_fields_are_one_object(kind):
    make, spec = KINDS[kind]
    field = make()
    assert make() is field
    assert catalog.field_from_spec(spec) is field
    assert algfile.field_from_dict(algfile.field_to_dict(field)) is field


def test_number_field_spec_coefficients_are_scalar_literals():
    assert catalog.field_from_spec("nf:1-2,2^1,(3-1)/2") is FieldDescriptor.number_field((-1, 2, 1))


@pytest.mark.parametrize("spec, block", [
    ("q", {"kind": "rationals"}),
    ("qeta", {"kind": "rational_functions"}),
    ("gf:7", {"kind": "prime", "p": "7"}),
    ("nf:-1,2,1", {"kind": "number_field", "minpoly": ["-1", "2", "1"]}),
])
def test_a_spec_is_the_field_block_it_names(spec, block):
    assert catalog.field_from_spec(spec) is algfile.field_from_dict(block)


def _field_or_refusal(make, malformed):
    """The field made, or how it was refused: the InvalidDescriptor message,
    or "malformed" for the reader's own refusal."""
    try:
        return make()
    except InvalidDescriptor as exc:
        return f"invalid: {exc}"
    except malformed:
        return "malformed"


def test_a_gf_spec_reads_its_prime_as_a_file_reads_p():
    rng = random.Random(28)

    def digits(n):
        return "".join(rng.choice("0123456789") for _ in range(n))

    for p in ("+7", " 7", "1_1", "\u0667", digits(1), digits(40), digits(41), digits(4301), "91", "2", "7"):
        spec = _field_or_refusal(lambda: catalog.field_from_spec(f"gf:{p}"), ConstraintViolation)
        block = _field_or_refusal(lambda: algfile.field_from_dict({"kind": "prime", "p": p}), AlgebraFileError)
        if isinstance(block, FieldDescriptor):
            assert spec is block, p
        else:
            assert spec == block, p[:50]


@pytest.mark.parametrize("kind", KINDS)
def test_elements_of_fields_made_apart_mix(kind):
    make, spec = KINDS[kind]
    two = make().from_int(2)
    three = parse_scalar("3", catalog.field_from_spec(spec))
    block = algfile.field_to_dict(make())
    five = parse_scalar("5", algfile.field_from_dict(block))
    assert two + three == five and three - two == make().one() and two * three == make().from_int(6)
    assert Vector(make(), [two, three, five]) + Vector(five.field, [two] * 3) == Vector(
        two.field, [2 * two, two + three, two + five]
    )


def test_rejected_fields_are_not_interned():
    interned = dict(fields._FIELDS)
    for make in (lambda: FieldDescriptor.prime(9),
                 lambda: FieldDescriptor.number_field((-1, 0, 1)),  # eta^2 - 1
                 lambda: catalog.field_from_spec("gf:1"),
                 lambda: algfile.field_from_dict({"kind": "prime", "p": 9})):
        with pytest.raises(InvalidDescriptor):
            make()
    assert fields._FIELDS == interned


def test_elements_equal_only_elements_of_their_field(Q, GF7):
    # in GF(7) one element would equal both 3 and 10, so no hash could agree
    # with ==; ints and Fractions are other values, and equal elements hash alike
    assert Q.from_int(2) != 2 and GF7.from_int(3) != 3
    assert {Q.from_int(2): 1}.get(Q.from_int(4) / 2) == 1
    assert Q.from_int(1) + 1 == Q.from_int(2)
    with pytest.raises(TypeError):
        Q.from_int(1) + Fraction(1, 2)


def test_different_fields_do_not_mix(QETA, GF5, GF7):
    qt = FieldDescriptor.rational_functions("t")
    for a, b in ((GF5.one(), GF7.one()), (QETA.generator(), qt.generator())):
        assert a.field is not b.field and a != b
        with pytest.raises(DescriptorMismatch):
            a + b
        with pytest.raises(DescriptorMismatch):
            a * b
        with pytest.raises(DescriptorMismatch):
            Vector(a.field, [a, b])


def test_parse_scalar_binds_eta(Q, QETA, NF):
    assert parse_scalar("eta^2 + 1", Q, eta=Q.from_int(3)) == Q.from_int(10)
    # eta names the given element, not the field's variable of that name
    assert parse_scalar("eta", QETA, eta=QETA.from_int(2)) == QETA.from_int(2)
    eta = NF.generator()
    assert parse_scalar("eta*eta", NF, eta=eta + 1) == (eta + 1) * (eta + 1)
    assert parse_scalar("eta", QETA) == QETA.generator()


# every refusal of the literal reader and of the vector-literal hooks: the
# input, the exception class and its exact message, position included
_LITERAL_ERRORS = (
    (" ", "scalar", ScalarSyntaxError, "empty expression"),
    ("1 2", "scalar", ScalarSyntaxError, "trailing input near position 3"),
    ("(((1)))) ", "scalar", ScalarSyntaxError, "trailing input near position 8"),
    ("(1", "scalar", ScalarSyntaxError, "expected ')'"),
    ("2^x", "scalar", ScalarSyntaxError, "exponent must be an unsigned integer"),
    ("2^65", "scalar", ScalarSyntaxError, "exponent 65 exceeds limit 64"),
    ("1 +", "scalar", ScalarSyntaxError, "unexpected token None"),
    ("*3", "scalar", ScalarSyntaxError, "unexpected token '*'"),
    ("1 $", "scalar", ScalarSyntaxError, "unexpected character '$' at position 2"),
    ("9" * 5000, "scalar", ScalarSyntaxError, "integer literal at position 0 is too long"),
    ("x", "scalar", UnknownSymbol, "unknown symbol 'x' in Q"),
    ("1/0", "scalar", DivisionByZero, "'1/0' has no value in Q: division by zero"),
    ("(" * 5000 + "1" + ")" * 5000, "scalar", ScalarSyntaxError, "expression is nested too deeply"),
    ("a0 + 1", "vector", ScalarSyntaxError, "cannot add a scalar to a vector"),
    ("a0 - 1", "vector", ScalarSyntaxError, "cannot subtract a scalar from a vector"),
    ("1/a0", "vector", ScalarSyntaxError, "cannot divide by a vector"),
    ("a0*a1", "vector", ScalarSyntaxError, "vector literals are linear: no products of labels"),
    ("a0^2", "vector", ScalarSyntaxError, "cannot exponentiate a vector"),
    ("2", "vector", ScalarSyntaxError, "expression '2' does not denote a vector"),
)


@pytest.mark.parametrize("text, reader, error, message", _LITERAL_ERRORS,
                         ids=[f"{row[1]}:{row[0]:.12}" for row in _LITERAL_ERRORS])
def test_every_literal_error_names_its_cause_and_position(Q, text, reader, error, message):
    alg, dd = catalog.instantiate("Seven")  # over Q, with the basis label a0
    with pytest.raises(error) as caught:
        if reader == "scalar":
            parse_scalar(text, Q)
        else:
            algfile.parse_vector(text, alg, dd.eta)
    assert type(caught.value) is error and str(caught.value) == message
