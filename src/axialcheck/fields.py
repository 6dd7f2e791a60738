"""Exact scalar arithmetic for the four coefficient fields of the verifier.

Supported field kinds, one FieldDescriptor subclass each:

* ``rationals``            -- arbitrary-precision fractions,
* ``prime``                -- GF(p) for an odd prime p,
* ``number_field``         -- Q[t]/(m(t)) for a monic irreducible m of degree 2 or 3,
* ``rational_functions``   -- Q(t) in one named variable.

Every element is kept in a unique canonical form so that equality of values
is equality of payloads.  Payloads are immutable; all operations are pure.
Fields are interned: equal fields are one object and compare by identity.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

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
# dense univariate polynomials over Q: tuples of Fraction, ascending degree,
# no trailing zeros; () is the zero polynomial.
# ---------------------------------------------------------------------------

_PZERO: tuple = ()
_PONE = (Fraction(1),)


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


def _pneg(a):
    return tuple(-c for c in a)


def _psub(a, b):
    return _padd(a, _pneg(b))


def _pmul(a, b):
    if not a or not b:
        return _PZERO
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _ptrim(out)


def _pdivmod(a, b):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for shift in reversed(range(len(q))):
        q[shift] = factor = a[shift + len(b) - 1] / lead
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
    return _ptrim(q), _ptrim(a[: len(b) - 1])


def _pmonic(a):
    if not a:
        return a
    lead = a[-1]
    if lead == 1:
        return a
    return tuple(c / lead for c in a)


def _primitive(a):
    """The integer polynomial with coprime coefficients that is proportional to a."""
    denom = math.lcm(*(c.denominator for c in a))
    ints = [c.numerator * (denom // c.denominator) for c in a]
    g = math.gcd(*ints)
    return [c // g for c in ints]


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
    """Monic gcd over Q by Brown's (1971) modular algorithm: gcds modulo primes
    below 2^61, scaled to the gcd of the leading coefficients, are lifted by
    Chinese remaindering until the primitive part stops changing and divides
    both inputs, so no coefficient grows past the gcd's own."""
    if not a or not b:
        return _pmonic(a or b)
    if len(a) == 1 or len(b) == 1:
        return _PONE
    ia, ib = _primitive(a), _primitive(b)
    scale = math.gcd(ia[-1], ib[-1])
    image = candidate = None
    for k in itertools.count():
        p = _gcd_prime(k)
        if ia[-1] % p == 0 or ib[-1] % p == 0:
            continue
        g = _pgcd_mod(ia, ib, p)
        if len(g) == 1:
            return _PONE
        g = [scale * c % p for c in g]
        if image is None or len(g) < len(image):  # the earlier primes were unlucky
            image, modulus = g, p
        elif len(g) == len(image):
            m_inv = pow(modulus, -1, p)
            image = [h + modulus * ((c - h) * m_inv % p) for h, c in zip(image, g)]
            modulus *= p
        else:
            continue
        previous, candidate = candidate, _primitive([h - modulus if 2 * h > modulus else h for h in image])
        if candidate == previous:
            monic = _pmonic(tuple(Fraction(c) for c in candidate))
            if not _pdivmod(a, monic)[1] and not _pdivmod(b, monic)[1]:
                return monic


def _pxgcd(a, b):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g, g monic (or zero)."""
    r0, r1 = a, b
    s0, s1 = _PONE, _PZERO
    t0, t1 = _PZERO, _PONE
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1))
        t0, t1 = t1, _psub(t0, _pmul(q, t1))
    if r0:
        lead = r0[-1]
        r0 = _pmonic(r0)
        s0 = tuple(c / lead for c in s0)
        t0 = tuple(c / lead for c in t0)
    return r0, s0, t0


def _pconst(value):
    value = Fraction(value)
    return _PZERO if value == 0 else (value,)


def _peval(a, point, target):
    """Horner evaluation of a Q-polynomial at a point of the target field;
    None for the zero polynomial."""
    acc = None
    for c in reversed(a):
        fc = target.from_fraction(c)
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
    """Rational-root test for a monic polynomial with rational coefficients."""
    denom = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * denom) for c in poly]
    lead, const = ints[-1], ints[0]
    if const == 0:
        return True
    if abs(lead * const) > MAX_ROOT_SEARCH:
        raise InvalidDescriptor(f"modulus coefficients pass the root-search limit {MAX_ROOT_SEARCH}")
    for p in _divisors(abs(const)):
        for q in _divisors(abs(lead)):
            for sign in (1, -1):
                r = Fraction(sign * p, q)
                value = Fraction(0)
                for c in reversed(poly):
                    value = value * r + c
                if value == 0:
                    return True
    return False


def _divisors(n):
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def _bits(*polys):
    """The largest numerator plus denominator bit length among the coefficients."""
    return max((c.numerator.bit_length() + c.denominator.bit_length() for p in polys for c in p), default=0)


# ---------------------------------------------------------------------------
# rendering (inverse of parse_scalar on canonical elements)
# ---------------------------------------------------------------------------


def _render_fraction(fr):
    try:
        return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"
    except ValueError:  # more digits than int() converts, so no literal could hold it
        bits = fr.numerator.bit_length() + fr.denominator.bit_length()
        raise ScalarSyntaxError(f"a number of {bits} bits is too long to write as a literal") from None


def _render_poly(poly, variable):
    if not poly:
        return "0"
    terms = []
    for deg in range(len(poly) - 1, -1, -1):
        c = poly[deg]
        if c == 0:
            continue
        if deg == 0:
            body = _render_fraction(abs(c))
        else:
            var = variable if deg == 1 else f"{variable}^{deg}"
            if abs(c) == 1:
                body = var
            else:
                body = f"{_render_fraction(abs(c))}*{var}"
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
        minpoly = _ptrim(tuple(Fraction(c) for c in minpoly))
        deg = len(minpoly) - 1
        if deg < 2:
            raise InvalidDescriptor("modulus must have degree >= 2")
        if deg > 3:
            raise InvalidDescriptor("moduli of degree > 3 are not supported")
        if minpoly[-1] != 1:
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
        return FieldElement(self, self.embed(Fraction(fr)))

    def generator(self):
        """The element represented by the field's variable."""
        raise UnknownSymbol(f"field {self!r} has no variable")

    # Each kind defines ZERO and ONE (payloads); canonical(raw payload) and
    # embed(Fraction); add, neg, mul and inv on canonical payloads; render;
    # and size(payload) -> (degree, bits), which bounds the growth of powers.
    is_zero = staticmethod(operator.not_)


class _Rationals(FieldDescriptor):
    __slots__ = ()
    kind = FieldDescriptor.RATIONALS
    ZERO, ONE = Fraction(0), Fraction(1)
    canonical = embed = staticmethod(Fraction)
    add, neg, mul = staticmethod(operator.add), staticmethod(operator.neg), staticmethod(operator.mul)
    render = staticmethod(_render_fraction)

    def inv(self, a):
        return 1 / a

    def size(self, a):
        return 0, _bits((a,))

    def __repr__(self):
        return "Q"


class _PrimeField(FieldDescriptor):
    __slots__ = ()
    kind = FieldDescriptor.PRIME
    ZERO, ONE = 0, 1
    render = staticmethod(str)

    def canonical(self, a):
        return int(a) % self.p

    def embed(self, fr):
        if fr.denominator % self.p == 0:
            raise DenominatorVanishes(f"{fr} has no image in GF({self.p})")
        return fr.numerator * pow(fr.denominator, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def size(self, a):  # elements do not grow
        return 0, 0

    def __repr__(self):
        return f"GF({self.p})"


class _NumberField(FieldDescriptor):
    __slots__ = ()
    kind = FieldDescriptor.NUMBER_FIELD
    ZERO, ONE = _PZERO, _PONE
    embed = staticmethod(_pconst)
    add, neg = staticmethod(_padd), staticmethod(_pneg)

    def canonical(self, a):
        return _pdivmod(_ptrim(tuple(Fraction(c) for c in a)), self.minpoly)[1]

    def mul(self, a, b):
        prod = _pmul(a, b)
        return _pdivmod(prod, self.minpoly)[1] if len(prod) >= len(self.minpoly) else prod

    def inv(self, a):
        g, s, _ = _pxgcd(a, self.minpoly)
        if len(g) != 1:
            raise InvalidDescriptor("modulus is not irreducible")
        return _pdivmod(s, self.minpoly)[1]

    def generator(self):
        return self.element((0, 1))

    def render(self, a):
        return _render_poly(a, self.variable)

    def size(self, a):  # the degree stays below the modulus's
        return 0, _bits(a, self.minpoly)

    def __repr__(self):
        return f"Q[{self.variable}]/({_render_poly(self.minpoly, self.variable)})"


class _RationalFunctions(FieldDescriptor):
    """Payloads are (numerator, denominator): coprime, the denominator monic."""

    __slots__ = ()
    kind = FieldDescriptor.RATIONAL_FUNCTIONS
    ZERO, ONE = (_PZERO, _PONE), (_PONE, _PONE)

    def canonical(self, payload):
        num, den = (_ptrim(tuple(Fraction(c) for c in p)) for p in payload)
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            return self.ZERO
        g = _pgcd(num, den)
        if len(g) > 1:
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
        lead = den[-1]
        if lead != 1:
            num = tuple(c / lead for c in num)
            den = tuple(c / lead for c in den)
        return (num, den)

    def embed(self, fr):
        return _pconst(fr), _PONE

    def is_zero(self, a):
        return not a[0]

    def add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if d1 == _PONE and d2 == _PONE:
            return _padd(n1, n2), _PONE
        return self.canonical((_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2)))

    def neg(self, a):
        return _pneg(a[0]), a[1]

    def mul(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if not n1 or not n2:
            return self.ZERO
        if d1 == _PONE and d2 == _PONE:
            return _pmul(n1, n2), _PONE
        return self.canonical((_pmul(n1, n2), _pmul(d1, d2)))

    def inv(self, a):
        return self.canonical((a[1], a[0]))

    def generator(self):
        return FieldElement(self, ((Fraction(0), Fraction(1)), _PONE))

    def render(self, a):
        num, den = a
        if den == _PONE:
            return _render_poly(num, self.variable)
        return f"({_render_poly(num, self.variable)})/({_render_poly(den, self.variable)})"

    def size(self, a):
        return max(map(len, a)) - 1, _bits(*a)

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
        return self.payload == self.field.ONE

    # helpers --------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise DescriptorMismatch(
                    f"cannot mix {self.field!r} and {other.field!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
        return NotImplemented

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        return FieldElement(f, f.add(self.payload, other.payload))

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
        if isinstance(other, (int, Fraction)):
            try:
                other = self.field.from_fraction(other)
            except DenominatorVanishes:
                return False
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field is other.field and self.payload == other.payload

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
    num_val, den_val = (_peval(p, value, target) for p in x.payload)
    if num_val is None:
        return target.zero()
    if den_val is None or den_val.is_zero():
        raise DenominatorVanishes(f"denominator of {render(x)} vanishes at {render(value)}")
    return num_val / den_val
