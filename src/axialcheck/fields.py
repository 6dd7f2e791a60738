"""Exact scalar arithmetic for the four coefficient fields of the verifier.

Supported field kinds, one FieldDescriptor subclass each:

* ``rationals``            -- Q, each element a coprime (numerator, denominator)
                               pair of ints with a positive denominator,
* ``prime``                -- GF(p) for an odd prime p,
* ``number_field``         -- Q[t]/(m(t)) for a monic irreducible m of degree 2 or 3,
* ``rational_functions``   -- Q(t) in one named variable.

Every element is kept in a unique canonical form, so equal values have equal
payloads (and hashes); equality itself is decided as every zero is, by the
field's settle on the difference.  Payloads are immutable; all operations are
pure.
Polynomial payloads hold integer polynomials (tuples of ints) and integer
denominators; an int or a Fraction is read by its numerator and denominator.
Fields are interned: equal fields are one object and compare by identity.
"""

from __future__ import annotations

import itertools
import math
import operator

from .errors import (
    DenominatorVanishes,
    DescriptorMismatch,
    DivisionByZero,
    InvalidDescriptor,
    ScalarSyntaxError,
    UnknownSymbol,
)

MAX_EXPONENT = 64
# Nested powers multiply their exponents, so a power is refused before it is
# computed when its estimated result passes this degree or coefficient size.
MAX_POWER_DEGREE = 64
MAX_POWER_BITS = 1 << 14

# ---------------------------------------------------------------------------
# dense univariate polynomials over Z: tuples of int, ascending degree, no
# trailing zeros; () is the zero polynomial.  A polynomial over Q is one over
# Z and a common denominator (Knuth, TAOCP vol. 2, 4.6.1).
# ---------------------------------------------------------------------------

_PZERO: tuple = ()
_PONE = (1,)


def _ptrim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _pscale(a, c):
    return tuple(x * c for x in a)


def _pmul(a, b):
    if not a or not b:
        return _PZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)  # the product of the leads is the nonzero lead


def _pdivmod(a, b):
    """Pseudo-division in Z[t] by b != 0: (q, r, f) with f*a = q*b + r, len(r) < len(b) and
    f > 0 a divisor of a power of lead(b); f = 1 when b divides a in Z[t] or lead(b) = +-1."""
    a, n = list(a), len(b) - 1
    q = [0] * max(len(a) - n, 0)
    lead, f = b[-1], 1
    for shift in reversed(range(len(q))):
        s = abs(lead) // math.gcd(a[shift + n], lead)
        if s != 1:
            a, q, f = [c * s for c in a], [c * s for c in q], f * s
        q[shift] = factor = a[shift + n] // lead
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
    return _ptrim(q), _ptrim(a[:n]), f


def _primitive(a):
    """a over the gcd of its coefficients, for a nonzero a."""
    g = math.gcd(*a)
    return a if g == 1 else tuple(c // g for c in a)


def _pgcd_mod(a, b, p):
    """Monic gcd modulo p of two integer polynomials whose leads p does not divide."""
    a, b = [c % p for c in a], [c % p for c in b]
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            factor = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - factor * c) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


_GCD_PRIMES = [(1 << 61) - 1]


def _gcd_prime(k):
    """The k-th prime below 2^61, counting down."""
    while len(_GCD_PRIMES) <= k:
        p = _GCD_PRIMES[-1] - 2
        while not _is_prime(p):
            p -= 2
        _GCD_PRIMES.append(p)
    return _GCD_PRIMES[k]


def _pgcd(a, b):
    """(g, a/g, b/g) for a primitive gcd g in Z[t] of two nonzero integer
    polynomials, by Brown's (1971) modular algorithm: gcds modulo primes
    below 2^61, scaled to the gcd of the leading coefficients, are lifted by
    Chinese remaindering until the primitive part stops changing and divides
    both inputs, so no coefficient grows past the gcd's own."""
    if len(a) == 1 or len(b) == 1:
        return _PONE, a, b
    ia, ib = _primitive(a), _primitive(b)
    scale = math.gcd(ia[-1], ib[-1])
    image = candidate = None
    for k in itertools.count():
        p = _gcd_prime(k)
        if ia[-1] % p == 0 or ib[-1] % p == 0:
            continue
        g = _pgcd_mod(ia, ib, p)
        if len(g) == 1:
            return _PONE, a, b
        g = [scale * c % p for c in g]
        if image is None or len(g) < len(image):  # the earlier primes were unlucky
            image, modulus = g, p
        elif len(g) == len(image):
            m_inv = pow(modulus, -1, p)
            image = [h + modulus * ((c - h) * m_inv % p) for h, c in zip(image, g)]
            modulus *= p
        else:
            continue
        previous, candidate = candidate, _primitive(tuple(h - modulus if 2 * h > modulus else h for h in image))
        if candidate == previous:
            # a primitive divisor over Q divides in Z[t] (Gauss), so f = 1
            (qa, ra, _), (qb, rb, _) = _pdivmod(a, candidate), _pdivmod(b, candidate)
            if not ra and not rb:
                return candidate, qa, qb


def _accumulate(out, k, num, d):
    """out[k] += num/d for an integer polynomial num and an int d > 0, summed as _Rationals.mac sums."""
    if k in out:
        sn, sd = out[k]
        if sd == d:
            num = _padd(sn, num)
        else:
            g = math.gcd(sd, d)
            num, d = _padd(_pscale(sn, d // g), _pscale(num, sd // g)), sd // g * d
    out[k] = num, d


def _cleared(coeffs):
    """(integer polynomial, d > 0) whose quotient has these coefficients: ints,
    Fractions or elements of Q."""
    pairs = [c.payload if isinstance(c, FieldElement) else (c.numerator, c.denominator) for c in coeffs]
    d = math.lcm(*(den for _, den in pairs))
    return _ptrim([num * (d // den) for num, den in pairs]), d


def _peval(a, den, point, target):
    """Horner evaluation of a/den at a point of the target field; None for a = ()."""
    acc = None
    for c in reversed(a):
        fc = FieldElement(target, target.embed(*_Rationals.canonical((c, den))))
        acc = fc if acc is None else acc * point + fc
    return acc


# ---------------------------------------------------------------------------
# validation of field parameters
# ---------------------------------------------------------------------------


# Miller-Rabin on the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases").
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3317044064679887385961981
# The rational-root test tries every divisor of the cleared modulus's constant
# over every divisor of its leading coefficient.
MAX_ROOT_SEARCH = 10**12


def _is_prime(n):
    """Deterministic Miller-Rabin; exact for n below MAX_CHARACTERISTIC."""
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    for b in _MR_BASES:
        x = pow(b, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _has_rational_root(poly):
    """Rational-root test for an integer polynomial: is sum c_i p^i q^(deg-i) ever 0?"""
    lead, const, deg = poly[-1], poly[0], len(poly) - 1
    if const == 0:
        return True
    if abs(lead * const) > MAX_ROOT_SEARCH:
        raise InvalidDescriptor(f"modulus coefficients pass the root-search limit {MAX_ROOT_SEARCH}")
    for p in _divisors(abs(const)):
        for q in _divisors(abs(lead)):
            for r in (p, -p):
                if not sum(c * r**i * q ** (deg - i) for i, c in enumerate(poly)):
                    return True
    return False


def _divisors(n):
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def _bits(den, *polys):
    """The largest numerator plus denominator bit length among the coefficients over den."""
    return max((_Rationals.size(_Rationals.canonical((c, den)))[1] for p in polys for c in p), default=0)


# ---------------------------------------------------------------------------
# rendering (inverse of parse_scalar on canonical elements)
# ---------------------------------------------------------------------------


def _render_fraction(num, den):
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # more digits than int() converts, so no literal could hold it
        bits = num.bit_length() + den.bit_length()
        raise ScalarSyntaxError(f"a number of {bits} bits is too long to write as a literal") from None


def _render_poly(poly, den, variable):
    """The rational polynomial poly/den, highest degree first."""
    if not poly:
        return "0"
    terms = []
    for deg in range(len(poly) - 1, -1, -1):
        c = poly[deg]
        if c == 0:
            continue
        coeff = _render_fraction(*_Rationals.canonical((abs(c), den)))
        if deg == 0:
            body = coeff
        else:
            var = variable if deg == 1 else f"{variable}^{deg}"
            body = var if coeff == "1" else f"{coeff}*{var}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(terms)


def render(x: FieldElement) -> str:
    """Canonical literal for x, parseable back by parse_scalar."""
    return x.field.render(x.payload)


# ---------------------------------------------------------------------------
# field descriptors: one subclass per kind owns the arithmetic on payloads
# ---------------------------------------------------------------------------

_FIELDS: dict = {}  # (class, p, minpoly, variable) -> the one such field


class FieldDescriptor:
    """Identifies one of the four exact fields and does the arithmetic on its
    elements' payloads.  Each kind is a subclass, so a field's arithmetic is
    chosen when the field is made.  Fields are made by the constructors
    below, which validate and then intern: equal fields are one object."""

    # each kind's tag in the field block of an algebra file
    RATIONALS, PRIME, NUMBER_FIELD, RATIONAL_FUNCTIONS = (
        "rationals", "prime", "number_field", "rational_functions")

    __slots__ = ("p", "minpoly", "variable")

    def __new__(cls, p=None, minpoly=None, variable=None):
        """The one field of this kind with these (already validated) parameters."""
        key = (cls, p, minpoly, variable)
        if key not in _FIELDS:
            field = _FIELDS[key] = object.__new__(cls)
            for name, value in zip(FieldDescriptor.__slots__, key[1:]):
                object.__setattr__(field, name, value)
        return _FIELDS[key]

    def __setattr__(self, *_):
        raise AttributeError("FieldDescriptor is immutable")

    # constructors ---------------------------------------------------------

    @classmethod
    def rationals(cls):
        return _Rationals()

    @classmethod
    def prime(cls, p):
        if p is not None and p >= MAX_CHARACTERISTIC:
            raise InvalidDescriptor(f"{p} is not below the limit {MAX_CHARACTERISTIC}")
        if p is None or not _is_prime(p):
            raise InvalidDescriptor(f"{p} is not prime")
        if p == 2:
            raise InvalidDescriptor("characteristic 2 is not supported")
        return _PrimeField(p)

    @classmethod
    def number_field(cls, minpoly, variable="eta"):
        """minpoly: the monic modulus's ascending coefficients, ints, Fractions or elements of Q."""
        minpoly, d = _cleared(minpoly)
        deg = len(minpoly) - 1
        if deg < 2:
            raise InvalidDescriptor("modulus must have degree >= 2")
        if deg > 3:
            raise InvalidDescriptor("moduli of degree > 3 are not supported")
        if minpoly[-1] != d:
            raise InvalidDescriptor("modulus must be monic")
        if _has_rational_root(minpoly):
            raise InvalidDescriptor("modulus is reducible over Q")
        return _NumberField(minpoly=minpoly, variable=variable or "eta")

    @classmethod
    def rational_functions(cls, variable="eta"):
        return _RationalFunctions(variable=variable or "eta")

    # basics ---------------------------------------------------------------

    def __eq__(self, other):
        return self is other  # interned, so equal fields are identical

    __hash__ = object.__hash__

    def characteristic(self):
        return self.p or 0

    # elements -------------------------------------------------------------

    def element(self, payload):
        return FieldElement(self, self.canonical(payload))

    def zero(self):
        return FieldElement(self, self.ZERO)

    def one(self):
        return FieldElement(self, self.ONE)

    def from_int(self, n):
        return self.from_fraction(n)

    def from_fraction(self, fr):
        """The image of an int or a Fraction, read by its numerator and denominator."""
        return FieldElement(self, self.embed(fr.numerator, fr.denominator))

    def generator(self):
        """The element represented by the field's variable."""
        raise UnknownSymbol(f"field {self!r} has no variable")

    # Each kind defines ZERO and ONE (payloads); canonical(raw payload); embed(num,
    # den) of a rational in lowest terms; neg, mul and inv on canonical payloads;
    # render; and size(payload) -> (degree, bits), which bounds the growth of powers.
    # mac(out, c, terms) does out[k] += c*t for each (k, t) of terms, keeping the sums
    # in a raw form of the kind's own (a canonical payload is one), and settle(out)
    # returns their canonical nonzero entries.  mac is each kind's one addition rule,
    # and settle its one decision that a sum, or a difference, is zero.
    # Every payload but GF(p)'s is a pair whose first part is zero exactly for zero.
    @staticmethod
    def is_zero(a):
        return not a[0]


class _Rationals(FieldDescriptor):
    """Payloads are (numerator, denominator) ints: coprime, the denominator
    positive, so zero is (0, 1).  The arithmetic is that of fractions.Fraction
    on plain ints (Knuth, TAOCP vol. 2, 4.5.1): as the operands are reduced,
    gcds of the smaller cross terms reduce each product."""

    __slots__ = ()
    kind = FieldDescriptor.RATIONALS
    ZERO, ONE = (0, 1), (1, 1)

    @staticmethod
    def canonical(a):
        num, den = a
        if not den:
            raise DivisionByZero("zero denominator")
        g = math.gcd(num, den)
        if den < 0:
            g = -g
        return num // g, den // g

    @staticmethod
    def embed(num, den):
        return num, den

    @staticmethod
    def neg(a):
        return -a[0], a[1]

    @staticmethod
    def mul(a, b):
        na, da = a
        nb, db = b
        g1 = math.gcd(na, db)  # a zero factor has denominator 1, so the product is (0, 1)
        g2 = math.gcd(nb, da)
        return (na // g1) * (nb // g2), (da // g2) * (db // g1)

    @staticmethod
    def inv(a):
        num, den = a
        if num > 0:
            return den, num
        if num < 0:
            return -den, -num
        raise DivisionByZero("inverse of zero")

    @staticmethod
    def mac(out, c, terms):
        """Raw sums are unreduced pairs with positive denominators: equal
        denominators add their numerators, others meet at their lcm, so a raw
        denominator divides the lcm of the terms' unreduced denominators."""
        cn, cd = c
        for k, (n, d) in terms:
            n, d = cn * n, cd * d
            if k in out:
                sn, sd = out[k]
                if sd == d:
                    n += sn
                else:
                    g = math.gcd(sd, d)
                    n, d = sn * (d // g) + n * (sd // g), sd // g * d
            out[k] = n, d

    @staticmethod
    def settle(out):
        gcd = math.gcd  # one per entry; g >= 1, as d > 0
        return {k: (n // g, d // g) for k, (n, d) in out.items() if n and (g := gcd(n, d))}

    @staticmethod
    def render(a):
        return _render_fraction(*a)

    @staticmethod
    def size(a):
        return 0, a[0].bit_length() + a[1].bit_length()

    def __repr__(self):
        return "Q"


class _PrimeField(FieldDescriptor):
    __slots__ = ()
    kind = FieldDescriptor.PRIME
    ZERO, ONE = 0, 1
    render = staticmethod(str)
    is_zero = staticmethod(operator.not_)

    def canonical(self, a):
        return int(a) % self.p

    def embed(self, num, den):
        if den % self.p == 0:
            raise DenominatorVanishes(f"{_render_fraction(num, den)} has no image in GF({self.p})")
        return num * pow(den, -1, self.p) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    @staticmethod
    def mac(out, c, terms):
        """Raw sums are plain ints, reduced mod p by settle."""
        for k, t in terms:
            out[k] = out[k] + c * t if k in out else c * t

    def settle(self, out):
        p = self.p
        return {k: r for k, s in out.items() if (r := s % p)}

    def size(self, a):  # elements do not grow
        return 0, 0

    def __repr__(self):
        return f"GF({self.p})"


class _NumberField(FieldDescriptor):
    """Payloads are (c, d) for c(t)/d: c in Z[t] of lower degree than minpoly, the
    modulus's primitive integer multiple, and d > 0 an int with gcd(c, d) = 1."""

    __slots__ = ()
    kind = FieldDescriptor.NUMBER_FIELD
    ZERO, ONE = (_PZERO, 1), (_PONE, 1)

    def canonical(self, a):
        return self._reduce(*_cleared(a))

    def _reduce(self, c, d):
        if len(c) >= len(self.minpoly):
            _, c, f = _pdivmod(c, self.minpoly)
            d *= f
        g = math.gcd(*c, d)
        return (c, d) if g == 1 else (tuple(x // g for x in c), d // g)

    @staticmethod
    def embed(num, den):
        return (num,) if num else _PZERO, den

    @staticmethod
    def neg(a):
        return _pscale(a[0], -1), a[1]

    def mul(self, a, b):
        return self._reduce(_pmul(a[0], b[0]), a[1] * b[1])

    def inv(self, a):
        # extended Euclid on pseudo-remainders, keeping r = s*c modulo minpoly
        c, d = a
        r0, r1, s0, s1 = self.minpoly, c, _PZERO, _PONE
        while len(r1) != 1:
            if not r1:
                raise InvalidDescriptor("modulus is not irreducible")
            q, r, f = _pdivmod(r0, r1)
            r0, r1, s0, s1 = r1, r, s1, _padd(_pscale(s0, f), _pscale(_pmul(q, s1), -1))
        e = r1[0]  # s1*c = e, so (c/d)^-1 = d*s1/e
        return self._reduce(_pscale(s1, d if e > 0 else -d), abs(e))

    def mac(self, out, c, terms):
        """Raw sums are (c, d) pairs reduced neither by the modulus nor by a gcd."""
        cn, cd = c
        for k, (tn, td) in terms:
            _accumulate(out, k, _pmul(cn, tn), cd * td)

    def settle(self, out):
        reduce = self._reduce  # zero only once reduced: a raw c can be a multiple of the modulus
        return {k: r for k, s in out.items() if (r := reduce(*s))[0]}

    def generator(self):
        return self.element((0, 1))

    def render(self, a):
        return _render_poly(*a, self.variable)

    def size(self, a):  # the degree stays below the modulus's
        return 0, max(_bits(a[1], a[0]), _bits(self.minpoly[-1], self.minpoly))

    def __repr__(self):
        return f"Q[{self.variable}]/({_render_poly(self.minpoly, self.minpoly[-1], self.variable)})"


class _RationalFunctions(FieldDescriptor):
    """Payloads are (N, D) for N/D: N and D in Z[t] with no common factor (their
    polynomial gcd and the gcd of all their coefficients are 1) and lead(D) > 0."""

    __slots__ = ()
    kind = FieldDescriptor.RATIONAL_FUNCTIONS
    ZERO, ONE = (_PZERO, _PONE), (_PONE, _PONE)

    def canonical(self, payload):
        (num, dn), (den, dd) = (_cleared(p) for p in payload)
        return self._reduce(_pscale(num, dd), _pscale(den, dn))

    @staticmethod
    def _reduce(num, den):
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            return _PZERO, _PONE
        _, num, den = _pgcd(num, den)  # at once for a constant operand
        g = math.gcd(*num, *den)
        if den[-1] < 0:
            g = -g
        return (num, den) if g == 1 else (tuple(c // g for c in num), tuple(c // g for c in den))

    @staticmethod
    def embed(num, den):
        return (num,) if num else _PZERO, (den,)

    def _add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if d1 == d2:
            return self._reduce(_padd(n1, n2), d1)
        return self._reduce(_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))

    @staticmethod
    def neg(a):
        return _pscale(a[0], -1), a[1]

    def mul(self, a, b):
        return self._reduce(_pmul(a[0], b[0]), _pmul(a[1], b[1]))

    def inv(self, a):
        return self._reduce(a[1], a[0])

    def mac(self, out, c, terms):
        """Raw sums are (N, d) pairs over an int d, as in Q[t]/(m), until a term
        with a polynomial denominator comes: from then on the sum is a payload,
        summed by the canonical mul and _add, so no polynomial lcm is deferred.
        A payload over a constant, as a caller may seed out with, is such a
        raw pair already."""
        for k, t in terms:
            s = out.get(k)
            if s is not None and type(s[1]) is tuple and len(s[1]) == 1:
                s = out[k] = s[0], s[1][0]
            if len(c[1]) == len(t[1]) == 1 and (s is None or type(s[1]) is int):
                _accumulate(out, k, _pmul(c[0], t[0]), c[1][0] * t[1][0])
            else:
                t = self.mul(c, t)
                out[k] = t if s is None else self._add(t, s if type(s[1]) is tuple else (s[0], (s[1],)))

    @staticmethod
    def settle(out):
        gcd = math.gcd  # a payload's content is 1, so it stays as it is
        return {k: (n, d) if type(d) is tuple else (tuple(x // g for x in n), (d // g,))
                for k, (n, d) in out.items() if n and (g := 1 if type(d) is tuple else gcd(*n, d))}

    def generator(self):
        return FieldElement(self, ((0, 1), _PONE))

    def render(self, a):
        (num, den), v = a, self.variable
        text = _render_poly(num, den[-1], v)
        return text if len(den) == 1 else f"({text})/({_render_poly(den, den[-1], v)})"

    def size(self, a):
        return max(map(len, a)) - 1, _bits(a[1][-1], *a)

    def __repr__(self):
        return f"Q({self.variable})"


class FieldElement:
    """A scalar in canonical form; supports +, -, *, /, ** and exact equality.
    Its field does the arithmetic on the payloads."""

    __slots__ = ("field", "payload")

    def __init__(self, field, payload):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, *_):
        raise AttributeError("FieldElement is immutable")

    # predicates -----------------------------------------------------------

    def is_zero(self):
        return self.field.is_zero(self.payload)

    def is_one(self):
        f = self.field
        return not self._sum(f.neg(f.ONE), f.ONE)

    # helpers --------------------------------------------------------------

    def _sum(self, c, b):
        """self + c*b for payloads c and b, by the field's mac and settle: {0:
        payload}, or {} exactly when the sum is zero."""
        f, out = self.field, {0: self.payload}
        f.mac(out, c, ((0, b),))
        return f.settle(out)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise DescriptorMismatch(
                    f"cannot mix {self.field!r} and {other.field!r}"
                )
            return other
        if hasattr(other, "denominator"):  # an int or a Fraction
            return self.field.from_fraction(other)
        return NotImplemented

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        return FieldElement(f, self._sum(f.ONE, other.payload).get(0, f.ZERO))

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return FieldElement(f, f.neg(self.payload))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        return FieldElement(f, f.mul(self.payload, other.payload))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        f = self.field
        return FieldElement(f, f.inv(self.payload))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero")
        return self * other.inverse()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ScalarSyntaxError("exponent must be a nonnegative integer")
        degree, bits = self.field.size(self.payload)
        if degree * n > MAX_POWER_DEGREE or (bits + degree) * n > MAX_POWER_BITS:
            raise ScalarSyntaxError(
                f"power ^{n} would pass {MAX_POWER_DEGREE} degrees or {MAX_POWER_BITS} bits"
            )
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # equality -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            if not hasattr(other, "denominator"):  # neither an int nor a Fraction
                return NotImplemented
            try:
                other = self.field.from_fraction(other)
            except DenominatorVanishes:
                return False
        f = self.field
        return f is other.field and not self._sum(f.neg(f.ONE), other.payload)

    def __hash__(self):
        return hash((self.field, self.payload))

    def __repr__(self):
        return f"<{render(self)} in {self.field!r}>"


# ---------------------------------------------------------------------------
# recursive-descent parser for the scalar grammar
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := '-' factor | primary ('^' uint)?
#   primary:= uint | NAME | '(' expr ')'
#
# The '^'-after-parentheses extension is a superset of the published grammar.
# ---------------------------------------------------------------------------


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.token = None
        self.advance()

    def advance(self):
        text, n = self.text, len(self.text)
        i = self.pos
        while i < n and text[i].isspace():
            i += 1
        j = i + 1
        if i >= n:
            self.token, j = ("end", None), i
        elif "0" <= text[i] <= "9":  # ASCII only: str.isdigit also takes other scripts' digits
            while j < n and "0" <= text[j] <= "9":
                j += 1
            try:
                self.token = ("int", int(text[i:j]))
            except ValueError:  # more digits than int() converts
                raise ScalarSyntaxError(f"integer literal at position {i} is too long") from None
        elif text[i].isalpha() or text[i] == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            self.token = ("name", text[i:j])
        elif text[i] in "+-*/^()":
            self.token = ("op", text[i])
        else:
            raise ScalarSyntaxError(f"unexpected character {text[i]!r} at position {i}")
        self.pos = j


class ExpressionEnv:
    """Value hooks for the expression parser: integers and names denote
    scalars of the field, where ``eta``, if given, names eta before the
    field's variable does.  Subclassed for vector literals."""

    def __init__(self, field, eta=None):
        self.field = field
        self.eta = eta

    def from_int(self, n):
        return self.field.from_int(n)

    def atom(self, name):
        if self.eta is not None and name == "eta":
            return self.eta
        if name == self.field.variable:
            return self.field.generator()
        raise UnknownSymbol(f"unknown symbol {name!r} in {self.field!r}")

    # operations on values; vector literals override them
    add, sub, neg = staticmethod(operator.add), staticmethod(operator.sub), staticmethod(operator.neg)
    mul, div, pow = staticmethod(operator.mul), staticmethod(operator.truediv), staticmethod(operator.pow)


class _Parser:
    def __init__(self, text, env):
        self.scanner = _Scanner(text)
        self.env = env

    def parse(self):
        value = self.expr()
        kind, _ = self.scanner.token
        if kind != "end":
            raise ScalarSyntaxError(f"trailing input near position {self.scanner.pos}")
        return value

    def expr(self):
        value = self.term()
        while self.scanner.token in (("op", "+"), ("op", "-")):
            op = self.env.add if self.scanner.token[1] == "+" else self.env.sub
            self.scanner.advance()
            value = op(value, self.term())
        return value

    def term(self):
        value = self.factor()
        while self.scanner.token in (("op", "*"), ("op", "/")):
            op = self.env.mul if self.scanner.token[1] == "*" else self.env.div
            self.scanner.advance()
            value = op(value, self.factor())
        return value

    def factor(self):
        if self.scanner.token == ("op", "-"):
            self.scanner.advance()
            return self.env.neg(self.factor())
        value = self.primary()
        if self.scanner.token == ("op", "^"):
            self.scanner.advance()
            kind, n = self.scanner.token
            if kind != "int":
                raise ScalarSyntaxError("exponent must be an unsigned integer")
            if n > MAX_EXPONENT:
                raise ScalarSyntaxError(f"exponent {n} exceeds limit {MAX_EXPONENT}")
            self.scanner.advance()
            value = self.env.pow(value, n)
        return value

    def primary(self):
        kind, payload = self.scanner.token
        if kind == "int":
            self.scanner.advance()
            return self.env.from_int(payload)
        if kind == "name":
            self.scanner.advance()
            return self.env.atom(payload)
        if self.scanner.token == ("op", "("):
            self.scanner.advance()
            value = self.expr()
            if self.scanner.token != ("op", ")"):
                raise ScalarSyntaxError("expected ')'")
            self.scanner.advance()
            return value
        raise ScalarSyntaxError(f"unexpected token {payload!r}")


def parse_expression(text, env):
    """Parse an expression with the supplied value hooks.  Every scalar and
    vector literal comes through here, so a literal with no value in the
    field (a division by zero there) is named here, with the field."""
    if not isinstance(text, str) or not text.strip():
        raise ScalarSyntaxError("empty expression")
    try:
        return _Parser(text, env).parse()
    except RecursionError:
        raise ScalarSyntaxError("expression is nested too deeply") from None
    except DivisionByZero as exc:
        raise DivisionByZero(f"{text!r:.60} has no value in {env.field!r}: {exc}") from None


def parse_scalar(text: str, field: FieldDescriptor, eta: FieldElement | None = None) -> FieldElement:
    """Parse a scalar literal into a canonical element of the field; where
    ``eta`` is given, the name eta denotes it rather than the field's variable."""
    return parse_expression(text, ExpressionEnv(field, eta))


# ---------------------------------------------------------------------------
# specialization Q(t) -> concrete field
# ---------------------------------------------------------------------------


def specialize(x: FieldElement, target: FieldDescriptor, value: FieldElement) -> FieldElement:
    """Substitute the rational-function variable by ``value`` and evaluate.

    A ring homomorphism wherever the denominator (and every coefficient's
    image) survives; raises DenominatorVanishes otherwise.
    """
    if x.field.kind != FieldDescriptor.RATIONAL_FUNCTIONS:
        raise DescriptorMismatch("specialize expects a rational-function element")
    if value.field is not target:
        raise DescriptorMismatch("value does not lie in the target field")
    num_val, den_val = (_peval(p, x.payload[1][-1], value, target) for p in x.payload)
    if num_val is None:
        return target.zero()
    if den_val is None or den_val.is_zero():
        raise DenominatorVanishes(f"denominator of {render(x)} vanishes at {render(value)}")
    return num_val / den_val
