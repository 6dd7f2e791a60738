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
  the row fails.

Whether one corrected p1 coefficient fits both is still open.
"""

import pytest

from axialcheck import catalog
from axialcheck.algebra import generated_subalgebra
from axialcheck.axial import lambda_coefficient, p_vector

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
    lam1 = lambda_coefficient(alg, dd.base_split(), dd.axis(1))
    base = (eta * 2 - 1) * (lam1 * 4 - eta * 3)
    expected = {
        "BarFourTwo": alg.field.from_int(-6),
        "SixThree": eta * 2 - 1,
    }.get(name, alg.field.zero())
    assert base == expected
