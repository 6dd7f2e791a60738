"""Exact scalar arithmetic for the four coefficient fields of the verifier.

Supported field kinds, one FieldDescriptor subclass each:

* ``rationals``            -- Q, each element a coprime (numerator, denominator)
                               pair of ints with a positive denominator,
* ``prime``                -- GF(p) for an odd prime p,
* ``number_field``         -- Q[t]/(m(t)) for a monic irreducible m of degree 2 or 3,
* ``rational_functions``   -- Q(t) in one named variable.

Every element is kept in a unique canonical form, so equal values have equal
payloads; equality itself is decided as every zero is, by the field's settle
on the difference.  Payloads are immutable; all operations are pure.  An
element equals only elements of its own field, never an int or a Fraction, so
equal elements hash alike.  The arithmetic takes an int as its image
(from_int); from_fraction is the way to bring in a Fraction.
Fields are interned: equal fields are one object and compare by identity.
The two polynomial kinds live in ``polynomials``, which is compiled when such
a field is first made, so a run over Q or GF(p) never loads it.
"""

from __future__ import annotations

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
# validation of field parameters
# ---------------------------------------------------------------------------


# Miller-Rabin on the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases").
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3317044064679887385961981


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


# ---------------------------------------------------------------------------
# rendering (inverse of parse_scalar on canonical elements)
# ---------------------------------------------------------------------------


def _render_fraction(num, den):
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # more digits than int() converts, so no literal could hold it
        bits = num.bit_length() + den.bit_length()
        raise ScalarSyntaxError(f"a number of {bits} bits is too long to write as a literal") from None


def render(x: FieldElement) -> str:
    """Canonical literal for x, parseable back by parse_scalar."""
    return x.field.render(x.payload)


# ---------------------------------------------------------------------------
# field descriptors: one subclass per kind owns the arithmetic on payloads
# ---------------------------------------------------------------------------

_set = object.__setattr__  # past _Frozen's guard, on objects still being made


class _Frozen:
    """The base of the engine's value classes: fields, elements, vectors,
    matrices, subspaces, algebras, maps, decompositions and dihedral data,
    which are shared once made and so never changed.  Its guards, the
    package's one __setattr__ and __delattr__, refuse every store and every
    deletion, so a constructor stores its slots through _set or _fill.  A
    subclass that keeps an instance __dict__ for cached_property writes
    that __dict__ directly."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, _):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _fill(obj, *values):
    """Set the slots of the new obj to values, in order."""
    for name, value in zip(obj.__slots__, values):
        _set(obj, name, value)


_FIELDS: dict = {}  # (class, p, minpoly, variable) -> the one such field


class FieldDescriptor(_Frozen):
    """Identifies one of the four exact fields and does the arithmetic on its
    elements' payloads.  Each kind is a subclass, so a field's arithmetic is
    chosen when the field is made; the polynomial kinds' arithmetic is also
    compiled then, on the first such field.  Fields are made by the
    constructors below, which validate and then intern: equal fields are one
    object."""

    # each kind's tag in the field block of an algebra file
    RATIONALS, PRIME, NUMBER_FIELD, RATIONAL_FUNCTIONS = (
        "rationals", "prime", "number_field", "rational_functions")

    __slots__ = ("p", "minpoly", "variable")

    def __new__(cls, p=None, minpoly=None, variable=None):
        """The one field of this kind with these (already validated) parameters."""
        key = (cls, p, minpoly, variable)
        if key not in _FIELDS:
            field = _FIELDS[key] = object.__new__(cls)
            for name, value in zip(FieldDescriptor.__slots__, key[1:]):  # a kind's own __slots__ is empty
                _set(field, name, value)
        return _FIELDS[key]

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
        from .polynomials import _NumberField, _cleared, _has_rational_root
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
        from .polynomials import _RationalFunctions
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
    # and settle its one decision that a sum, or a difference, is zero.  The
    # coefficient c may be a payload or a raw sum, and raw_mul(a, b) gives the
    # product of two payloads in that raw form, so a sum of products is settled once.
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
    def raw_mul(a, b):
        return a[0] * b[0], a[1] * b[1]

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
    render, raw_mul = staticmethod(str), staticmethod(operator.mul)
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
        """Raw sums and raw products are plain ints, reduced mod p by settle."""
        for k, t in terms:
            out[k] = out[k] + c * t if k in out else c * t

    def settle(self, out):
        p = self.p
        return {k: r for k, s in out.items() if (r := s % p)}

    def size(self, a):  # elements do not grow
        return 0, 0

    def __repr__(self):
        return f"GF({self.p})"


class FieldElement(_Frozen):
    """A scalar in canonical form; supports +, -, *, /, ** and exact equality.
    Its field does the arithmetic on the payloads."""

    __slots__ = ("field", "payload")

    def __init__(self, field, payload):
        _set(self, "field", field)
        _set(self, "payload", payload)

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
        if isinstance(other, int):
            return self.field.from_int(other)
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
            return NotImplemented
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


# expr and term: each level's operators, loosest first, and their env hooks
_BINARY = ({"+": "add", "-": "sub"}, {"*": "mul", "/": "div"})


class _Parser:
    """Reads one literal: its text, pos just past the current token, and the
    token: ("from_int", n) or ("atom", name), by the env hook that gives its
    value, ("op", char) or ("end", None).  Only an operator's value is in +-*/^()."""

    def __init__(self, text, env):
        self.text, self.pos, self.env = text, 0, env
        self.advance()

    def advance(self):
        """Read the token at pos, after any spaces."""
        text, i, n = self.text, self.pos, len(self.text)
        while i < n and text[i].isspace():
            i += 1
        j = i + 1
        if i >= n:
            self.token, j = ("end", None), i
        elif "0" <= text[i] <= "9":  # ASCII only: str.isdigit also takes other scripts' digits
            while j < n and "0" <= text[j] <= "9":
                j += 1
            try:
                self.token = ("from_int", int(text[i:j]))
            except ValueError:  # more digits than int() converts
                raise ScalarSyntaxError(f"integer literal at position {i} is too long") from None
        elif text[i].isalpha() or text[i] == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            self.token = ("atom", text[i:j])
        elif text[i] in "+-*/^()":
            self.token = ("op", text[i])
        else:
            raise ScalarSyntaxError(f"unexpected character {text[i]!r} at position {i}")
        self.pos = j

    def parse(self):
        value = self.binary()
        if self.token[0] != "end":
            raise ScalarSyntaxError(f"trailing input near position {self.pos}")
        return value

    def binary(self, level=0):
        """expr at level 0, term at level 1: operands of the next level, or
        factors after the last, joined left to right by this level's operators."""
        ops, last = _BINARY[level], level == len(_BINARY) - 1
        value = self.factor() if last else self.binary(level + 1)
        while hook := ops.get(self.token[1]):
            self.advance()
            value = getattr(self.env, hook)(value, self.factor() if last else self.binary(level + 1))
        return value

    def factor(self):
        if self.token[1] == "-":
            self.advance()
            return self.env.neg(self.factor())
        value = self.primary()
        if self.token[1] == "^":
            self.advance()
            kind, n = self.token
            if kind != "from_int":
                raise ScalarSyntaxError("exponent must be an unsigned integer")
            if n > MAX_EXPONENT:
                raise ScalarSyntaxError(f"exponent {n} exceeds limit {MAX_EXPONENT}")
            self.advance()
            value = self.env.pow(value, n)
        return value

    def primary(self):
        kind, value = self.token
        if kind == "from_int" or kind == "atom":
            self.advance()
            return getattr(self.env, kind)(value)
        if value == "(":
            self.advance()
            value = self.binary()
            if self.token[1] != ")":
                raise ScalarSyntaxError("expected ')'")
            self.advance()
            return value
        raise ScalarSyntaxError(f"unexpected token {value!r}")


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


def specialize(x, target, value):
    """derive.specialize, compiled on first use."""
    from . import derive

    return derive.specialize(x, target, value)
