"""Certificates for the criterion-4 sub-checks that fail by design.

The acceptance suite asserts two statements of the scalar-identity suite as
stated, and both fail on some catalog entries.  These tests check exactly
why, on every entry at its default field and eta:

* two-generated dimension 3: on FourEvX and SevenX, p1 = a0*a1 - eta(a0 + a1)
  is 0, so a0 and a1 span a subalgebra of dimension 2;
* rho_expansion: apart from its mu*p20 term, the stated right-hand side
  carries the factor base = (2*eta - 1)(4*lambda1 - 3*eta).  base is 0 on
  every entry except BarFourTwo (-6) and SixThree (2*eta - 1), so the stated
  coefficients are tested only on those two entries, which are the two where
  the row fails.  The residual is 9*p1 + 9*a0 on BarFourTwo (eta = 2) and
  (1 - 2*eta)*p1 + (3 - 7*eta)/8*a0 on SixThree, over its number field.  The
  first vanishes mod 3, so BarFourTwo over GF(3) passes every row.

Whether one corrected p1 coefficient fits both is still open.

The characteristic polynomial of ad(a0), computed by sympy, is checked
against the decomposition's part dimensions on every entry, and on FourEv
away from its fixed eta, where it has an extra root: criterion 1 asks for a
symbolic-eta FourEv, which cannot be axial.
"""

import pytest

from axialcheck import catalog
from axialcheck.algebra import adjoint_matrix, generated_subalgebra
from axialcheck.dihedral import lambda_coefficient, p_vector
from axialcheck.fields import parse_scalar, render

ENTRIES = tuple(entry.name for entry in catalog.list_entries())


@pytest.mark.parametrize("name", ["FourEvX", "SevenX"])
def test_degenerate_axis_pair_spans_dimension_two(name):
    alg, dd = catalog.instantiate(name)
    assert p_vector(alg, dd, 1, 0).is_zero()
    assert generated_subalgebra(alg, [dd.axis(0), dd.axis(1)]).dim == 2


@pytest.mark.parametrize("name", ENTRIES)
def test_rho_expansion_factor(name):
    alg, dd = catalog.instantiate(name)
    eta = dd.eta
    lam1 = lambda_coefficient(alg, dd.base_split, dd.axis(1))
    base = (eta * 2 - 1) * (lam1 * 4 - eta * 3)
    expected = {
        "BarFourTwo": alg.field.from_int(-6),
        "SixThree": eta * 2 - 1,
    }.get(name, alg.field.zero())
    assert base == expected


@pytest.mark.parametrize("name, eta, p1_coeff, a0_coeff", [
    ("BarFourTwo", "2", "9", "9"),
    ("SixThree", "eta", "1 - 2*eta", "(3 - 7*eta)/8"),
])
def test_rho_expansion_residual(name, eta, p1_coeff, a0_coeff):
    alg, dd = catalog.instantiate(name)
    assert render(dd.eta) == eta
    p1, a0 = alg.basis_vector(alg.label_index("p1")), dd.axis(0)
    residual = p1.scale(parse_scalar(p1_coeff, alg.field, dd.eta)) + a0.scale(parse_scalar(a0_coeff, alg.field, dd.eta))
    rows = {c.name: c for c in catalog.verify_entry(name).checks}
    assert rows["identity:rho_expansion"] == ("identity:rho_expansion", "fail", f"residual {residual!r}")


def test_bar_four_two_passes_every_row_in_characteristic_three():
    report = catalog.verify_entry("BarFourTwo", "gf:3")
    assert report.passed
    assert ("identity:rho_expansion", "pass", "") in report.checks


def _char_poly(sympy_matrix, alg, dd):
    """The characteristic polynomial of ad(a0), by sympy."""
    return sympy_matrix(adjoint_matrix(alg, dd.axis(0)).rows, alg.dim, alg.field).charpoly()


def _poly_with_roots(sympy_matrix, field, roots):
    """prod (x - r) over roots, as the characteristic polynomial of diag(roots)."""
    n = len(roots)
    diagonal = [[r if i == j else field.zero() for j in range(n)] for i, r in enumerate(roots)]
    return sympy_matrix(diagonal, n, field).charpoly()


@pytest.mark.parametrize("name", ENTRIES)
def test_adjoint_char_poly_matches_the_parts(name, sympy_matrix):
    # x^d0 (x-1)^d1 (x-eta)^(d2+d3), (d0, d1, d2, d3) the base split's dimensions
    alg, dd = catalog.instantiate(name)
    d0, d1, d2, d3 = dd.base_split.dims()
    field = alg.field
    roots = [field.zero()] * d0 + [field.one()] * d1 + [dd.eta] * (d2 + d3)
    assert _char_poly(sympy_matrix, alg, dd) == _poly_with_roots(sympy_matrix, field, roots)


def test_four_ev_has_an_extra_root_off_its_fixed_eta(sympy_matrix):
    # x (x-1) (x-eta)^2 (x+2eta+1) over Q(eta): the extra root -(2eta+1) is
    # eta only at eta = -1/3, so FourEv is axial there and nowhere else
    sympy = pytest.importorskip("sympy")
    alg, dd = catalog.instantiate("FourEv", "qeta", "eta", enforce=False)
    field, eta = alg.field, dd.eta
    roots = [field.zero(), field.one(), eta, eta, -(eta * 2 + 1)]
    assert _char_poly(sympy_matrix, alg, dd) == _poly_with_roots(sympy_matrix, field, roots)
    t = sympy.Symbol("eta")
    assert sympy.solve(sympy.Eq(-(2 * t + 1), t), t) == [sympy.Rational(-1, 3)]
