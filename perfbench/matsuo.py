"""Matsuo algebras M_eta(S_n) as algebra-file JSON, with their closed-form answers.

The basis is the set of transpositions of S_n.  For transpositions s and t:

    t*t = t,
    s*t = 0                              if s and t commute,
    s*t = (eta/2) * (s + t - s^t)        if st has order 3,

where s^t = tst is the third transposition of the S_3 they generate.  Each
transposition is an axis of Jordan type eta (Hall, Rehren and Shpectorov,
"Primitive axial algebras of Jordan type"), so with the flip taken to be
conjugation by the axis transposition t, the parts of ad(t) are:

    M0 = the C(n-2, 2) transpositions disjoint from t, plus s + s^t - eta*t
         for each of the n-2 pairs {s, s^t} meeting t in one point;
    M1 = <t>;
    M2 = 0;
    M3 = s - s^t for each of those n-2 pairs.

The fusion law holds, the Miyamoto involution of t is conjugation by t, and
the adjacent transpositions generate the whole algebra (they generate S_n,
and s*t determines s^t whenever eta != 0).

Standard library only: this module never imports axialcheck.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

# eta values with small numerators and denominators.  Hand-checked: none is
# 0 or 1 over Q, and for every prime p in PRIMES, p divides neither the
# numerator, nor the denominator, nor numerator - denominator, so the image in
# GF(p) also avoids 0 and 1 (and eta/2 exists because p is odd).
ETAS = ("1/4", "1/3", "-1", "3", "-1/3", "2/5", "5/3", "-2")
PRIMES = (10007, 10009, 10037, 10039)

# (n, field) pairs of one pass: dimensions 10, 15, 21, 28 over Q and 45 over GF(p).
SIZES = ((5, "q"), (6, "q"), (7, "q"), (8, "q"), (10, "gf"))


@dataclass(frozen=True)
class MatsuoCase:
    """One generated algebra and what the engine must find in it."""

    name: str
    n: int
    eta: str                 # scalar literal, valid in the case's field
    text: str                # algebra-file JSON
    labels: tuple            # basis order of the file
    axis: str                # label of the axis transposition t
    flip: tuple              # flip[j] = index of t * basis[j] * t
    generators: tuple        # labels of the adjacent transpositions
    expected_dims: tuple     # (dim M0, dim M1, dim M2, dim M3)

    def as_dict(self):
        return {
            "name": self.name,
            "n": self.n,
            "eta": self.eta,
            "text": self.text,
            "labels": list(self.labels),
            "axis": self.axis,
            "flip": list(self.flip),
            "generators": list(self.generators),
            "expected_dims": list(self.expected_dims),
        }


def label(t):
    return f"t{t[0]}_{t[1]}"


def conjugate(s, t):
    """s^t = tst for transpositions given as sorted pairs."""
    swap = {t[0]: t[1], t[1]: t[0]}
    a, b = (swap.get(x, x) for x in s)
    return (a, b) if a < b else (b, a)


def expected_dims(n):
    return (
        (n - 2) * (n - 3) // 2 + (n - 2),
        1,
        0,
        n - 2,
    )


def _literal(fr: Fraction) -> str:
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def check_eta(eta: str, p: int | None):
    """Raise ValueError unless eta avoids 0 and 1 in Q and, if given, in GF(p)."""
    fr = Fraction(eta)
    if fr in (0, 1):
        raise ValueError(f"eta = {eta} must avoid 0 and 1")
    if p is not None:
        a, b = fr.numerator, fr.denominator
        if p == 2 or a % p == 0 or b % p == 0 or (a - b) % p == 0:
            raise ValueError(f"eta = {eta} is 0, 1 or undefined in GF({p})")


def generate(n: int, field: str, rng) -> MatsuoCase:
    """M_eta(S_n) over Q (field "q") or GF(p) (field "gf").

    ``rng`` (a random.Random) picks eta, the prime, the basis order and the
    axis; nothing else about the case is random.
    """
    eta = rng.choice(ETAS)
    p = rng.choice(PRIMES) if field == "gf" else None
    check_eta(eta, p)
    half = Fraction(eta) / 2
    trans = list(combinations(range(1, n + 1), 2))
    rng.shuffle(trans)
    index = {t: k for k, t in enumerate(trans)}

    products = []
    for s, t in combinations(trans, 2):
        if len(set(s) | set(t)) == 3:
            u = conjugate(s, t)
            value = {label(s): _literal(half), label(t): _literal(half),
                     label(u): _literal(-half)}
            products.append({"left": label(s), "right": label(t), "value": value})
    for t in trans:
        products.append({"left": label(t), "right": label(t), "value": {label(t): "1"}})
    rng.shuffle(products)

    field_block = {"kind": "rationals"} if p is None else {"kind": "prime", "p": p}
    doc = {"field": field_block, "basis": [label(t) for t in trans], "products": products}
    axis = rng.choice(trans)
    return MatsuoCase(
        name=f"M({eta})(S{n})" + ("" if p is None else f"/GF({p})"),
        n=n,
        eta=eta,
        text=json.dumps(doc, sort_keys=True),
        labels=tuple(label(t) for t in trans),
        axis=label(axis),
        flip=tuple(index[conjugate(s, axis)] for s in trans),
        generators=tuple(label((i, i + 1)) for i in range(1, n)),
        expected_dims=expected_dims(n),
    )


def generate_pass(rng):
    """The algebras of one matsuo pass, smallest first."""
    return [generate(n, field, rng) for n, field in SIZES]
