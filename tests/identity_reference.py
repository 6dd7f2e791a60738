"""identity_suite as it was before its expansion rows became the literal
table dihedral._ROWS, kept as the reference that the identity tests compare
the table with.

    from identity_reference import identity_suite_reference
"""

from functools import cache

from axialcheck.algebra import generated_subalgebra, multiply
from axialcheck.dihedral import IdentityReport, lambda_coefficient, p_vector
from axialcheck.fields import FieldDescriptor
from axialcheck.linalg import Matrix, Vector, kernel, solve_in_span


def _residual_detail(v: Vector) -> str:
    return f"residual {v!r}"


def _multiple_row(report, name, v, base, key):
    """Row name passes when v is a multiple of base; the factor is recorded
    as scalar key and returned (None on failure)."""
    sol = solve_in_span(v, [base])
    report.add(name, sol is not None, "" if sol is not None else _residual_detail(v))
    if sol is not None:
        report.scalars[key] = sol[0]
        return sol[0]


def identity_suite_reference(alg, dd):
    """Exact check of the two-generated scalar identities on the base axis.

    Extracts lambda_1..3 from the decomposition at a_0, then mu, nu, rho
    from the three product expansions, pi from p*p, and checks the
    invariant-scalar action and the shifted-p disjunction where applicable.
    """
    report = IdentityReport([], {})
    eta = dd.eta
    field = alg.field
    a0 = dd.axis(0)
    dec = dd.base_split

    lambdas = {}
    for i in (1, 2, 3):
        lambdas[i] = lambda_coefficient(alg, dec, dd.axis(i))
        report.scalars[f"lambda{i}"] = lambdas[i]

    one = field.one()
    # each p_{i,j} once, on first use: a missing axis is reported where first needed
    p = cache(lambda i, j: p_vector(alg, dd, i, j))
    for i in (1, 2, 3):
        p_i0 = p(i, 0)
        lhs = multiply(alg, a0, p_i0)
        rhs = a0.scale((one - eta) * lambdas[i] - eta)
        report.add(f"p{i}0_scalar", lhs == rhs, "" if lhs == rhs else _residual_detail(lhs - rhs))
        mid = p_i0 - a0.scale(lambdas[i] - eta) + (dd.axis(i) + dd.axis(-i)).scale(eta / 2)
        ok = dec.parts[2].contains(mid)
        report.add(f"p{i}0_m2_part", ok, "" if ok else _residual_detail(dec.parts[2].reduce(mid)))

    lam1, lam2 = lambdas[1], lambdas[2]
    p1, p20, p21, p31, p3m1 = p(1, 0), p(2, 0), p(2, 1), p(3, 1), p(3, -1)
    sym1 = p1.scale(field.from_int(2)) + (dd.axis(1) + dd.axis(-1)).scale(eta)
    sym2 = p20.scale(field.from_int(2)) + (dd.axis(2) + dd.axis(-2)).scale(eta)

    coef1 = (eta * 2 - 1) * (lam1 * 4 - eta * 3) / (eta * 2)
    residual = multiply(alg, a0, p21) - sym1.scale(coef1)
    mu = _multiple_row(report, "mu_expansion", residual, a0, "mu")

    if mu is None:
        report.skip("nu_expansion", "mu unavailable")
        report.skip("rho_expansion", "mu unavailable")
    else:
        coef2 = (eta * 2 - 1) * (lam1 * 2 - eta) / (eta * 2)
        coef3 = (mu - eta * lam2 + eta * eta * 2) / eta
        residual = (
            multiply(alg, a0, p31)
            - (p31 - p3m1).scale(eta / 2)
            + sym2.scale(coef2)
            + sym1.scale(coef3)
        )
        _multiple_row(report, "nu_expansion", residual, a0.scale(one / 2), "nu")

        base = (eta * 2 - 1) * (lam1 * 4 - eta * 3)
        rhs = (
            (p(3, 0).scale(field.from_int(2)) + p31 + p3m1).scale(base / 4)
            + p20.scale(mu + base * ((eta * 2 - 1) * lam1 * 2 - eta * eta * 4 + eta) / (eta * eta * 2))
            + p1.scale(base * ((eta * 2 - 1) * lam1 * 4 - eta * lam2 - eta * eta * 5 + eta * 3) / (eta * eta))
            + (dd.axis(2) + dd.axis(-2)).scale(base * (eta * 2 - 1) * (lam1 * 3 - eta * 2) / (eta * 2))
            + (dd.axis(1) + dd.axis(-1)).scale(base * (mu * 2 - eta * lam2 + eta * eta * 2) / (eta * 2))
        )
        _multiple_row(report, "rho_expansion", multiply(alg, p20, p21) - rhs, a0, "rho")

    # two-generated subalgebra: p*p = pi*p, and dimension 3 away from the
    # degenerate case p = 0 (there the two axes span a Jordan-type plane)
    sub = generated_subalgebra(alg, [a0, dd.axis(1)])
    report.scalars["two_generated_dim"] = FieldDescriptor.rationals().from_int(sub.dim)
    pp = multiply(alg, p1, p1)
    if p1.is_zero():
        report.add("p1_square", pp.is_zero())
        report.scalars["pi"] = field.zero()
        report.skip("two_generated_dim", f"p vanishes; dimension {sub.dim}")
    else:
        _multiple_row(report, "p1_square", pp, p1, "pi")
        report.add(
            "two_generated_dim",
            alg.dim <= 3 or sub.dim == 3,
            f"dimension {sub.dim}",
        )

    # invariant elements acting as scalars on a0 act the same on every p_{i,j};
    # j = 0 decides every j: the automorphism shift fixes x, and p_{i,j} = shift^j(p_{i,0})
    fixed = kernel(Matrix.from_columns(field, [
        Vector.sparse(field, 2 * alg.dim, x.terms | {i + alg.dim: c for i, c in y.terms.items()})
        for x, y in zip(*(m.matrix.sub_scalar_diag(one).columns for m in (dd.shift, dd.flip)))], 2 * alg.dim))
    applicable = False
    ok = True
    for x in fixed.basis:
        sol = solve_in_span(multiply(alg, x, a0), [a0])
        if sol is None:
            continue
        applicable = True
        for i in (1, 2, 3):
            if multiply(alg, x, p(i, 0)) != p(i, 0).scale(sol[0]):
                ok = False
    if applicable:
        report.add("invariant_scalar_action", ok)
    else:
        report.skip("invariant_scalar_action", "no invariant element acts as a scalar")

    # shifted-p disjunction, applicable when lambda_1 = 3 eta / 4
    if lam1 == eta * 3 / 4:
        if mu is None:
            report.add("p2_shift_or_mu_zero", False, "mu unavailable")
        else:
            ok = (p21 == p20) or mu.is_zero()
            report.add("p2_shift_or_mu_zero", ok)
    else:
        report.skip("p2_shift_or_mu_zero", "lambda_1 differs from 3*eta/4")
    return report
