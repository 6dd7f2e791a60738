"""Acceptance suite: one test per criterion, one printed line per check.

Exact arithmetic everywhere, so every comparison is equality (zero
tolerance).  Three criteria contain sub-checks that are mathematically
unattainable and are asserted as stated anyway, so they fail honestly
(tests/test_certificates.py checks the facts behind criterion 4):

* criterion 1: a symbolic-parameter FourEv family does not exist (the even
  four-axis algebra is axial only at eta = -1/3);
* criterion 3: ThreeEv's minimal relation is odd (a2 = a-1); an even
  case-(3) relation with an idempotent wrap axis forces eta = -1/2;
* criterion 4: the big product-expansion identity (rho) fails on the two
  entries that exercise it nontrivially, and the dim-3 two-generated
  statement fails on the two quotients whose axis pairs are degenerate.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from axialcheck import algfile, catalog, cli
from axialcheck.algebra import is_ideal, multiply, quotient
from axialcheck.axial import (
    axial_dimension,
    identity_suite,
    miyamoto,
    split_eigenspace,
)
from axialcheck.errors import AxialError, ConstraintViolation, InvalidDescriptor
from axialcheck.fields import FieldDescriptor, render, specialize
from axialcheck.linalg import Subspace, Vector, kernel, rref
from relation_lemmas import relation_transform
from values import identity_matrix, involution_at, matrix, vector

SEED = 20260809


def _line(ok, label, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {label}" + (f"  ({detail})" if detail else ""))
    return ok


# ---------------------------------------------------------------------------
# criterion 1 — catalog existence at the criterion's stated parameters
# ---------------------------------------------------------------------------

STATED_PARAMETERS = (
    ("ThreeEv", "qeta", "eta"),
    ("FourEv", "qeta", "eta"),
    ("FiveThree", "qeta", "eta"),
    ("ThreeEvX", "q", "-1/3"),
    ("FourEvX", "q", "-1/3"),
    ("BarFourTwo", "q", "2"),
    ("SixThree", "nf:-1,2,1", None),
    ("Seven", "q", "4/3"),
    ("SevenX", "gf:5", None),
)


def test_criterion_1_catalog_existence():
    catalog.clear_caches()
    start = time.monotonic()
    failures = []
    for name, field, eta in STATED_PARAMETERS:
        try:
            rep = catalog.verify_entry(name, field, eta)
            ok = rep.structurally_passed
            detail = "" if ok else "; ".join(
                c.name for c in rep.checks
                if c.status == "fail" and not c.name.startswith("identity:")
            )
        except AxialError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if not _line(ok, f"criterion 1: {name} at ({field}, {eta})", detail):
            failures.append(f"{name}: {detail}")
    elapsed = time.monotonic() - start
    _line(elapsed < 10.0, f"criterion 1: total runtime {elapsed:.2f}s < 10s")
    assert elapsed < 10.0
    assert not failures, (
        "unattainable as stated (see ledger): " + " | ".join(failures)
    )


def test_criterion_1_documented_parameters():
    """All nine entries pass structurally at their catalog parameters."""
    for entry in catalog.list_entries():
        rep = catalog.verify_entry(entry.name)
        assert _line(rep.structurally_passed, f"criterion 1*: {entry.name} at documented parameters")


# ---------------------------------------------------------------------------
# criterion 2 — negative controls
# ---------------------------------------------------------------------------

def test_criterion_2_negative_controls():
    rep = catalog.verify_entry("SixThree", "q", "3")
    fusion_fails = any(
        c.status == "fail" and "fusion" in c.name.lower() or
        (c.name == "dihedral" and "fusion" in c.detail)
        for c in rep.checks
    )
    assert _line(fusion_fails, "criterion 2: SixThree fails fusion at eta=3 over Q")

    with pytest.raises(ConstraintViolation):
        catalog.instantiate("FourEv", "q", "-1")
    _line(True, "criterion 2: FourEv rejects eta=-1")

    for spec in ("gf:7", "q", "gf:11"):
        with pytest.raises(ConstraintViolation):
            catalog.instantiate("SevenX", spec)
    _line(True, "criterion 2: SevenX rejects characteristics other than 5")

    with pytest.raises(InvalidDescriptor):
        FieldDescriptor.prime(2)
    with pytest.raises(AxialError):
        catalog.field_from_spec("gf:2")
    _line(True, "criterion 2: characteristic 2 rejected at load")


# ---------------------------------------------------------------------------
# criterion 3 — axial dimensions and relation cases as stated
# ---------------------------------------------------------------------------

STATED_RELATIONS = {
    "ThreeEv": (3, "even", None),
    "FourEv": (4, "even", None),
    "FiveThree": (5, "odd", ("0", "0", "1")),   # a3 = a-2
    "SixThree": (6, "odd", ("0", "0", "1")),    # a3 = a-3
    "Seven": (7, "odd", ("0", "1", "1", "1")),  # alpha=beta=1, gamma=0
    "BarFourTwo": (4, "odd", ("0", "1")),       # leading coefficient 1
}


def test_criterion_3_axial_dimensions():
    failures = []
    for name, (adim, parity, coeffs) in STATED_RELATIONS.items():
        alg, dd = catalog.instantiate(name)
        w = axial_dimension(alg, dd)
        got = (w.adim, w.parity, tuple(render(c) for c in w.coefficients))
        ok = w.adim == adim and w.parity == parity
        if coeffs is not None:
            ok = ok and got[2] == coeffs
        entry = catalog.get_entry(name)
        documented = (
            w.adim == entry.expected_adim and w.case == entry.expected_case
        )
        detail = f"computed adim {w.adim}, case {w.case} ({w.parity}), coefficients {got[2]}"
        if not _line(ok, f"criterion 3: {name} -> ({adim}, {parity})", detail):
            failures.append(f"{name}: expected ({adim}, {parity}), {detail}")
        assert documented, f"{name} disagrees with its catalog documentation"
    assert not failures, (
        "unattainable as stated (see ledger): " + " | ".join(failures)
    )


# ---------------------------------------------------------------------------
# criterion 4 — identity suite on every entry
# ---------------------------------------------------------------------------

def test_criterion_4_identity_suite():
    failures = []
    for entry in catalog.list_entries():
        alg, dd = catalog.instantiate(entry.name)
        report = identity_suite(alg, dd)
        rows = {c.name: c for c in report.checks}
        bad = []
        for i in (1, 2, 3):
            if rows[f"p{i}0_scalar"].status != "pass":
                bad.append(f"p{i}0_scalar")
            if rows[f"p{i}0_m2_part"].status != "pass":
                bad.append(f"p{i}0_m2_part")
        for name in ("mu_expansion", "nu_expansion", "rho_expansion", "p1_square"):
            if rows[name].status != "pass":
                bad.append(name)
        if alg.dim > 3 and render(report.scalars["two_generated_dim"]) != "3":
            bad.append(f"two_generated_dim={render(report.scalars['two_generated_dim'])}")
        if rows["p2_shift_or_mu_zero"].status == "fail":
            bad.append("p2_shift_or_mu_zero")
        recorded = all(k in report.scalars for k in ("lambda1", "lambda2", "lambda3"))
        if not recorded:
            bad.append("scalars missing")
        ok = not bad
        if not _line(ok, f"criterion 4: identities on {entry.name}", "; ".join(bad)):
            failures.append(f"{entry.name}: {'; '.join(bad)}")
    assert not failures, (
        "unattainable as stated (see ledger): " + " | ".join(failures)
    )


# ---------------------------------------------------------------------------
# criterion 5 — quotient and isomorphism claims
# ---------------------------------------------------------------------------

def test_criterion_5_quotient_claims():
    reports = {r.name: r for r in catalog.check_claims()}
    for name in (
        "ideal_p1_ThreeEv",
        "ideal_p1_FourEv",
        "ideal_p1_Seven",
        "quotient_FiveThree_is_FourEvX",
        "quotient_BarFourTwo_two_dim",
        "quotient_ThreeEv_is_ThreeEvX",
        "quotient_FourEv_is_FourEvX",
        "quotient_Seven_is_SevenX",
    ):
        r = reports[name]
        assert _line(r.status == "pass", f"criterion 5: {name}", r.detail)


# ---------------------------------------------------------------------------
# criterion 6 — randomized property suites (>= 1000 cases each, fixed seed)
# ---------------------------------------------------------------------------

def _random_element(field, rng):
    if field.kind == FieldDescriptor.RATIONALS:
        return field.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
    if field.kind == FieldDescriptor.PRIME:
        return field.from_int(rng.randint(0, field.p - 1))
    if field.kind == FieldDescriptor.NUMBER_FIELD:
        return field.element([Fraction(rng.randint(-4, 4)) for _ in range(2)])
    num = tuple(Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3)))
    den = tuple(Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(0, 1))) + (Fraction(1),)
    return field.element((num, den))


def test_criterion_6_field_laws(Q, QETA, GF7, NF):
    rng = random.Random(SEED)
    for field in (Q, QETA, GF7, NF):
        for _ in range(1000):
            a, b, c = (_random_element(field, rng) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a - a).is_zero()
            if not b.is_zero():
                assert (a / b) * b == a
    _line(True, "criterion 6: field laws, 1000 triples in each of 4 field kinds")


def test_criterion_6_specialization_homomorphism(Q, QETA, GF7):
    rng = random.Random(SEED + 1)
    done = 0
    while done < 1000:
        x = _random_element(QETA, rng)
        y = _random_element(QETA, rng)
        target, value = (
            (Q, Q.from_fraction(Fraction(rng.randint(-6, 6), rng.randint(1, 4))))
            if rng.random() < 0.5
            else (GF7, GF7.from_int(rng.randint(0, 6)))
        )
        try:
            sx = specialize(x, target, value)
            sy = specialize(y, target, value)
            sxy = specialize(x * y, target, value)
            sxpy = specialize(x + y, target, value)
        except AxialError:
            continue
        assert sxy == sx * sy
        assert sxpy == sx + sy
        done += 1
    _line(True, "criterion 6: specialization homomorphism, 1000 cases")


def test_criterion_6_linear_algebra(Q, GF7):
    rng = random.Random(SEED + 2)
    for k in range(1000):
        field = Q if k % 2 == 0 else GF7
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = matrix(
            field,
            [
                [field.from_int(rng.randint(-5, 5)) for _ in range(cols)]
                for _ in range(rows)
            ],
        )
        reduced, rank, pivots = rref(m)
        assert rref(reduced) == (reduced, rank, pivots)
        ker = kernel(m)
        assert rank + ker.dim == cols
        for v in ker.basis:
            assert m.apply(v).is_zero()
    _line(True, "criterion 6: rref idempotence, rank-nullity and kernel membership, 1000 matrices")


QUOTIENT_SETUPS = (
    ("ThreeEv", "q", "-1/3", ["p1"]),
    ("FiveThree", "q", "-1/3", ["a2+am2+a1+am1+a0"]),
    ("Seven", "gf:5", None, ["p1"]),
    ("BarFourTwo", "q", None, ["p20 + p1 + 2*(a2+a0) + a1 + am1",
                               "p21 + p1 + a2 + a0 + 2*(a1+am1)"]),
)


def test_criterion_6_quotient_projections():
    rng = random.Random(SEED + 3)
    setups = []
    for name, field, eta, ideal_exprs in QUOTIENT_SETUPS:
        alg, dd = catalog.instantiate(name, field, eta)
        vectors = [algfile.parse_vector(t, alg, dd.eta) for t in ideal_exprs]
        span = Subspace.from_vectors(alg.field, alg.dim, vectors)
        assert is_ideal(alg, span)
        qalg, proj = quotient(alg, span)
        setups.append((alg, qalg, proj))
    for k in range(1000):
        alg, qalg, proj = setups[k % len(setups)]
        x = vector(alg.field, [alg.field.from_int(rng.randint(-4, 4)) for _ in range(alg.dim)])
        y = vector(alg.field, [alg.field.from_int(rng.randint(-4, 4)) for _ in range(alg.dim)])
        assert proj.apply(multiply(alg, x, y)) == multiply(qalg, proj.apply(x), proj.apply(y))
    _line(True, "criterion 6: quotient projection multiplicativity, 1000 pairs")


def test_criterion_6_miyamoto_coherence():
    rng = random.Random(SEED + 4)
    eta_pool = ["2", "3", "-2", "1/3", "2/5", "-3", "5", "7/3", "-5/2", "4"]
    pool = []
    for eta in eta_pool:
        pool.append(catalog.instantiate("ThreeEv", "q", eta))
        pool.append(catalog.instantiate("FiveThree", "q", eta))
    pool.append(catalog.instantiate("BarFourTwo"))
    pool.append(catalog.instantiate("SixThree"))
    pool.append(catalog.instantiate("SevenX"))
    checked = 0
    while checked < 1000:
        alg, dd = pool[rng.randrange(len(pool))]
        j = rng.randint(-2, 3)
        tau_j = involution_at(dd, j)
        dec = split_eigenspace(alg, dd.axis(j), dd.eta, tau_j)
        g = miyamoto(alg, dec)
        assert g.matrix.matmul(g.matrix) == identity_matrix(alg.field, alg.dim)
        assert g == tau_j  # conjugate of the base flip IS the Miyamoto map
        checked += 1
    _line(True, "criterion 6: miyamoto involution and conjugation coherence, 1000 cases")


def _formal_combination(case, coeffs):
    out = {}

    def add(i, c):
        out[i] = out.get(i, c.field.zero()) + c

    if case == 1:
        add(0, coeffs[0])
        for i, c in enumerate(coeffs[1:], start=1):
            add(i, c)
            add(-i, c)
    elif case == 4:
        for i, c in enumerate(coeffs):
            add(i + 1, c)
            add(-i, -c)
    else:
        raise ValueError(case)
    return out


def _formal_flip(d):
    return {-i: c for i, c in d.items()}


def _formal_shift(d, by):
    return {i + by: c for i, c in d.items()}


def _formal_sub(a, b):
    out = dict(a)
    for i, c in b.items():
        if i in out:
            out[i] = out[i] - c
        else:
            out[i] = -c
    return {i: c for i, c in out.items() if not c.is_zero()}


def _formal_add(a, b):
    return _formal_sub(a, {i: -c for i, c in b.items()})


def _pairs_to_formal(coeffs, start):
    """0- or 1-indexed (a_i - a_{-i}) or (a_{i+1} - a_{-i}) coefficients."""
    out = {}
    for i, c in enumerate(coeffs, start=start):
        if c.is_zero():
            continue
        hi, lo = (i, -i) if start == 0 else (i + 1, -i)
        out[hi] = out.get(hi, c.field.zero()) + c
        out[lo] = out.get(lo, c.field.zero()) - c
    return {i: c for i, c in out.items() if not c.is_zero()}


def test_criterion_6_relation_transforms():
    rng = random.Random(SEED + 5)
    odd_pool = [catalog.instantiate(n) for n in ("ThreeEv", "FiveThree", "Seven")]
    odd_pool += [catalog.instantiate("FiveThree", "q", e) for e in ("2", "3", "-2")]
    even_pool = [catalog.instantiate("FourEv"), catalog.instantiate("FourEvX")]
    witnesses = {}
    checked = 0
    while checked < 1000:
        use_odd = rng.random() < 0.6
        alg, dd = (odd_pool if use_odd else even_pool)[
            rng.randrange(len(odd_pool if use_odd else even_pool))
        ]
        key = id(alg)
        if key not in witnesses:
            witnesses[key] = axial_dimension(alg, dd)
        w = witnesses[key]
        if use_odd:
            mode = rng.choice(("lemma_2_3_part1", "lemma_2_3_part2"))
            out = relation_transform(w.coefficients, mode)
            rel = _formal_combination(4, w.coefficients)
            s = _formal_sub(rel, _formal_flip(rel))
            expected = s if mode.endswith("part2") else _formal_add(
                _formal_add(s, _formal_shift(s, 1)), _formal_shift(s, -1)
            )
            assert _pairs_to_formal(out, 0) == expected, mode
            acc = Vector.zero(alg.field, alg.dim)
            for i, c in enumerate(out):
                acc = acc + (dd.axis(i) - dd.axis(-i)).scale(c)
        else:
            mode = rng.choice(("lemma_2_4_part1", "lemma_2_4_part2", "lemma_2_4_part3"))
            rel = _formal_combination(1, w.coefficients)
            f_diff = _formal_sub(_formal_shift(rel, 1), rel)
            if mode.endswith("part3"):
                out = relation_transform(w.coefficients[1:], mode)
                assert _pairs_to_formal(out, 1) == f_diff, mode
                acc = Vector.zero(alg.field, alg.dim)
                for i, c in enumerate(out, start=1):
                    acc = acc + (dd.axis(i + 1) - dd.axis(-i)).scale(c)
            else:
                out = relation_transform(w.coefficients, mode)
                s = _formal_sub(f_diff, _formal_flip(f_diff))
                expected = s if mode.endswith("part2") else _formal_add(
                    _formal_add(s, _formal_shift(s, 1)), _formal_shift(s, -1)
                )
                assert _pairs_to_formal(out, 0) == expected, mode
                acc = Vector.zero(alg.field, alg.dim)
                for i, c in enumerate(out):
                    acc = acc + (dd.axis(i) - dd.axis(-i)).scale(c)
        assert acc.is_zero(), mode
        checked += 1
    _line(True, "criterion 6: relation transforms vs explicit flip/shift application, 1000 cases")


# ---------------------------------------------------------------------------
# criterion 7 — byte-identical canonical reports
# ---------------------------------------------------------------------------

def test_criterion_7_determinism(capsys):
    def canonical_bytes():
        code = cli.main(["catalog", "claims", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        return json.dumps(doc["canonical"], sort_keys=True, separators=(",", ":")).encode()

    first = canonical_bytes()
    second = canonical_bytes()
    assert first == second
    _line(True, "criterion 7: byte-identical canonical claims reports")
