import pytest

from axialcheck.fields import FieldDescriptor


@pytest.fixture(scope="session")
def Q():
    return FieldDescriptor.rationals()


@pytest.fixture(scope="session")
def QETA():
    return FieldDescriptor.rational_functions("eta")


@pytest.fixture(scope="session")
def GF5():
    return FieldDescriptor.prime(5)


@pytest.fixture(scope="session")
def GF7():
    return FieldDescriptor.prime(7)


@pytest.fixture(scope="session")
def NF():
    # eta^2 + 2*eta - 1 = 0
    return FieldDescriptor.number_field((-1, 2, 1))


@pytest.fixture(scope="session")
def sympy_matrix():
    """(rows, ncols, field) -> the rows as a sympy DomainMatrix over the
    domain matching field: sympy serves as an independent, test-only oracle.
    A number field must be Q[eta]/(eta^2+2*eta-1), mapped to QQ<sqrt(2)>."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import GF, QQ
    from sympy.polys.matrices import DomainMatrix

    def domain(field):
        if field.kind == field.RATIONALS:
            return QQ, lambda e: QQ(e.payload.numerator, e.payload.denominator)
        if field.kind == field.PRIME:
            gf = GF(field.p)
            return gf, lambda e: gf(e.payload)
        if field.kind == field.RATIONAL_FUNCTIONS:
            t = sympy.Symbol(field.variable)
            qt = QQ.frac_field(t)

            def poly(coeffs):
                return sum((sympy.Rational(c.numerator, c.denominator) * t**i for i, c in enumerate(coeffs)), sympy.S.Zero)

            return qt, lambda e: qt.from_sympy(poly(e.payload[0]) / poly(e.payload[1]))
        assert field.minpoly == (-1, 2, 1)  # eta = sqrt(2) - 1
        nf = QQ.algebraic_field(sympy.sqrt(2))
        eta = nf.from_sympy(sympy.sqrt(2) - 1)
        return nf, lambda e: sum(
            (nf.convert(QQ(c.numerator, c.denominator)) * eta**i for i, c in enumerate(e.payload)),
            nf.zero,
        )

    def matrix(rows, ncols, field):
        dom, convert = domain(field)
        return DomainMatrix([[convert(e) for e in r] for r in rows], (len(rows), ncols), dom)

    return matrix
