"""Integer polynomials and the field kinds on them, Q[t]/(m) and Q(t).  ``fields``
imports this module when a run first makes such a field or specializes such an
element, so a run over Q or GF(p) never compiles it."""

import itertools
import math

from .errors import DivisionByZero, InvalidDescriptor
from .fields import FieldDescriptor, FieldElement, _is_prime, _Rationals, _render_fraction

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


def _primitive_pair(num, den):
    """num/den over the gcd of all their coefficients, with lead(den) > 0."""
    g = math.gcd(*num, *den)
    if den[-1] < 0:
        g = -g
    return (num, den) if g == 1 else (tuple(c // g for c in num), tuple(c // g for c in den))


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


# The rational-root test tries every divisor of the cleared modulus's constant
# over every divisor of its leading coefficient.
MAX_ROOT_SEARCH = 10**12


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
        return self._reduce(*self.raw_mul(a, b))

    @staticmethod
    def raw_mul(a, b):
        return _pmul(a[0], b[0]), a[1] * b[1]

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
        """Raw sums and raw products are (c, d) pairs reduced neither by the
        modulus nor by a gcd."""
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
        return _primitive_pair(num, den)

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
        if len(a[0]) == len(a[1]) == 1:
            a, b = b, a
        if len(b[0]) == len(b[1]) == 1:  # a nonzero constant n/d: as N and D are coprime,
            (n,), (d,) = b  # N*n and D*d share only content, and d > 0 keeps lead(D*d) > 0
            return _primitive_pair(_pscale(a[0], n), _pscale(a[1], d))
        return self._reduce(_pmul(a[0], b[0]), _pmul(a[1], b[1]))

    def raw_mul(self, a, b):
        """Over an int when both denominators are constants, as mac sums it."""
        if len(a[1]) == len(b[1]) == 1:
            return _pmul(a[0], b[0]), a[1][0] * b[1][0]
        return self.mul(a, b)

    def inv(self, a):
        return self._reduce(a[1], a[0])

    def mac(self, out, c, terms):
        """Raw sums are (N, d) pairs over an int d, as in Q[t]/(m), until a term
        with a polynomial denominator comes: from then on the sum is a payload,
        summed by the canonical mul and _add, so no polynomial lcm is deferred.
        A payload over a constant, as a caller may seed out with, is such a
        raw pair already.  A raw c over an int d is read as over (d,), which
        mul takes: it clears the content that N and d may share."""
        if type(c[1]) is int:
            c = c[0], (c[1],)
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
