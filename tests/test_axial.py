import importlib.util
import json
import random
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

from axialcheck import algebra, axial, catalog, cli
from axialcheck.algebra import AlgebraDef, AlgebraMap, adjoint_matrix, generated_subalgebra, multiply
from axialcheck.algfile import load_document, load_path, parse_vector
from axialcheck.axial import (
    AxisDecomposition,
    FusionViolation,
    allowed,
    check_eta,
    check_fusion,
    miyamoto,
    split_eigenspace,
)
from axialcheck.catalog import instantiate
from axialcheck.derive import document_for, is_homomorphism, on_quotient, quotient
from axialcheck.dihedral import (
    _ROWS,
    DihedralData,
    DihedralViolation,
    RelationWitness,
    axial_dimension,
    axis_orbit,
    check_dihedral,
    identity_suite,
    lambda_coefficient,
    p_vector,
)
from axialcheck.errors import (
    ConstraintViolation,
    DataInconsistency,
    InvolutionMismatch,
    MiyamotoNotAutomorphism,
    NotIdempotent,
    NotSemisimple,
)
from axialcheck.fields import FieldDescriptor, FieldElement, parse_scalar, render
from axialcheck.linalg import Matrix, Subspace, Vector, invert, kernel, solve_in_span
from identity_reference import identity_suite_reference
from relation_lemmas import relation_transform
from values import compose, identity_map, identity_matrix, involution_at, matrix, power, vector


def _axis_diff(alg, dd, i):
    return dd.axis(i) - dd.axis(-i)


def _relation_vector(dd, witness):
    """Evaluate the witnessed combination on the axes (must be zero)."""
    out = Vector.zero(dd.algebra.field, dd.algebra.dim)
    if witness.case == 1:
        out = out + dd.axis(0).scale(witness.coefficients[0])
        for i, c in enumerate(witness.coefficients[1:], start=1):
            out = out + (dd.axis(i) + dd.axis(-i)).scale(c)
    elif witness.case == 2:
        for i, c in enumerate(witness.coefficients, start=1):
            out = out + (dd.axis(i) - dd.axis(-i)).scale(c)
    elif witness.case == 3:
        for i, c in enumerate(witness.coefficients):
            out = out + (dd.axis(i + 1) + dd.axis(-i)).scale(c)
    else:
        for i, c in enumerate(witness.coefficients):
            out = out + (dd.axis(i + 1) - dd.axis(-i)).scale(c)
    return out


def test_fusion_table_invariants(QETA):
    assert allowed(2, 2) == (0, 1)
    assert allowed(3, 3) == (0, 1, 2)
    assert allowed(2, 3) == allowed(3, 2) == (3,)
    assert allowed(0, 2) == allowed(2, 0) == (2,)
    check_eta(QETA.generator())
    for value in (QETA.one(), QETA.zero()):
        with pytest.raises(DataInconsistency, match="eta must avoid 0 and 1"):
            check_eta(value)


def test_split_five_three():
    alg, dd = instantiate("FiveThree")
    dec = split_eigenspace(alg, dd.axis(0), dd.eta, dd.flip)
    assert dec.dims() == (1, 1, 1, 2)
    m3 = Subspace.from_vectors(
        alg.field, alg.dim, [_axis_diff(alg, dd, 1), _axis_diff(alg, dd, 2)]
    )
    assert dec.parts[3].rows == m3.rows
    assert not check_fusion(alg, dec)


def test_split_three_ev():
    alg, dd = instantiate("ThreeEv")
    dec = split_eigenspace(alg, dd.axis(0), dd.eta, dd.flip)
    assert dec.dims() == (1, 1, 1, 1)
    assert dec.parts[3].rows == Subspace.from_vectors(alg.field, alg.dim, [_axis_diff(alg, dd, 1)]).rows
    lam = lambda_coefficient(alg, dec, dd.axis(1))
    assert lam == parse_scalar("3*eta/4", alg.field)


def test_split_error_cases():
    alg, dd = instantiate("FiveThree")
    with pytest.raises(NotIdempotent):
        split_eigenspace(alg, dd.axis(0) + dd.axis(1), dd.eta, dd.flip)
    with pytest.raises(InvolutionMismatch):
        split_eigenspace(alg, dd.axis(0), dd.eta, dd.shift)  # shift moves the axis


def test_split_eliminates_twice(monkeypatch):
    # ker ad(a) and ker(ad(a) - eta), each n x n: the eta-eigenspace is split
    # by 1 +- tau, not eliminated again stacked on tau -+ 1
    alg, dd = instantiate("FiveThree")
    shapes = []

    def counted(m):
        shapes.append((m.nrows, m.ncols))
        return kernel(m)

    monkeypatch.setattr(axial, "kernel", counted)
    split_eigenspace(alg, dd.axis(0), dd.eta, dd.flip)
    assert shapes == [(alg.dim, alg.dim)] * 2


def _stacked_kernel(a, b):
    """ker a and ker b meet in the kernel of the n x n matrix a stacked on b."""
    return kernel(matrix(a.field, a.rows + b.rows, a.ncols))


@pytest.mark.parametrize("name", [*(entry.name for entry in catalog.list_entries()), "matsuo"])
def test_eta_parts_are_the_eta_space_met_with_the_flip_eigenspaces(Q, name, matsuo_s5, matsuo_flip):
    # M2 = K and ker(tau - 1), M3 = K and ker(tau + 1), K = ker(ad(a) - eta),
    # on every catalog entry at its default field and on M_1/4(S_5)
    if name == "matsuo":
        alg = matsuo_s5(Q, "1/4")
        a, eta, tau = alg.basis_vector(0), Q.from_fraction(Fraction(1, 4)), matsuo_flip(alg)
    else:
        alg, dd = instantiate(name)
        a, eta, tau = dd.axis(0), dd.eta, dd.flip
    dec = split_eigenspace(alg, a, eta, tau)
    ad_eta = adjoint_matrix(alg, a).sub_scalar_diag(eta)
    one = alg.field.one()
    assert [p.rows for p in dec.parts[2:]] == [_stacked_kernel(ad_eta, tau.matrix.sub_scalar_diag(s)).rows
                                               for s in (one, -one)]


def test_identity_involution_gives_trivial_negated_part():
    alg, dd = instantiate("FiveThree")
    ident = identity_map(alg)
    dec = split_eigenspace(alg, dd.axis(0), dd.eta, ident)
    assert dec.parts[3].dim == 0 and dec.parts[2].dim == 3
    assert miyamoto(alg, dec) == ident
    # ... but the fusion rule rejects the unsplit middle part
    assert check_fusion(alg, dec)


def test_miyamoto_matches_flip():
    for name in ("ThreeEv", "FiveThree"):
        alg, dd = instantiate(name)
        dec = split_eigenspace(alg, dd.axis(0), dd.eta, dd.flip)
        g = miyamoto(alg, dec)
        assert g == dd.flip
        assert g.matrix.matmul(g.matrix) == identity_map(alg).matrix


def test_check_dihedral_pass_and_fail():
    alg, dd = instantiate("FiveThree")
    assert not check_dihedral(alg, dd)
    broken = DihedralData(alg, dd.eta, dd.axis(0), dd.shift, identity_map(alg))
    violations = check_dihedral(alg, broken)
    assert any(v.condition == "D3" for v in violations)
    # an identity flip breaks the group relation flip o shift o flip = shift^-1
    assert ("D3", None, "flip o shift o flip is not shift^-1") in {
        (v.condition, v.index, v.detail) for v in violations
    }


TRANSPORT_CASES = [
    (name,) for name in (
        "ThreeEv", "ThreeEvX", "FourEv", "FourEvX", "BarFourTwo",
        "FiveThree", "SixThree", "Seven", "SevenX",
    )
] + [("SixThree", "q", "3"), ("Seven", "gf:7")]


@pytest.mark.parametrize("case", TRANSPORT_CASES, ids=lambda c: "_".join(c).replace("/", "_"))
def test_axes_follow_the_base_axis_through_the_shift(case):
    # check_dihedral decomposes only a_0; splitting every other axis directly
    # must give the a_0 parts moved by shift^i, the same fusion verdict, and
    # (where fusion holds) the conjugated flip as the Miyamoto involution
    alg, dd = instantiate(*case)
    base = dd.base_split
    base_violations = len(check_fusion(alg, base))
    for i in range(-1, alg.dim + 2):
        shift_i = power(dd.shift, i)
        dec = split_eigenspace(alg, dd.axis(i), dd.eta, involution_at(dd, i))
        moved = tuple(
            Subspace.from_vectors(alg.field, alg.dim, [shift_i.apply(v) for v in part.basis])
            for part in base.parts
        )
        assert [p.rows for p in dec.parts] == [p.rows for p in moved], (case, i)
        assert len(check_fusion(alg, dec)) == base_violations, (case, i)
        if not base_violations:
            assert miyamoto(alg, dec) == involution_at(dd, i), (case, i)


def _bar_four_two_quotient():
    # the two-dimensional ideal of BarFourTwo, as in the catalog's claim
    alg, dd = instantiate("BarFourTwo")
    span = Subspace.from_vectors(alg.field, alg.dim, [
        parse_vector("p20 + p1 + 2*(a2+a0) + a1 + am1", alg, dd.eta),
        parse_vector("p21 + p1 + a2 + a0 + 2*(a1+am1)", alg, dd.eta),
    ])
    qalg, proj = quotient(alg, span)
    return qalg, on_quotient(dd, span, qalg, proj)


ORBIT_CASES = TRANSPORT_CASES + [("BarFourTwo", "quotient")]


def _orbit_case(case):
    return _bar_four_two_quotient() if case[-1] == "quotient" else instantiate(*case)


@pytest.mark.parametrize("case", ORBIT_CASES, ids=lambda c: "_".join(c).replace("/", "_"))
def test_axes_are_the_shift_orbit_of_the_base_axis(case):
    alg, dd = _orbit_case(case)
    d = alg.dim
    for i in range(-(d + 2), d + 4):
        assert dd.axis(i) == power(dd.shift, i).apply(dd.axis(0)), (case, i)


@pytest.mark.parametrize("case", ORBIT_CASES, ids=lambda c: "_".join(c).replace("/", "_"))
def test_dihedral_generators_span_every_axis(case):
    # D1 generates from the window of the orbit search; a_-(2d+2) .. a_(2d+3)
    # span no more, and the window's one relation leaves it dimension hi - lo
    alg, dd = _orbit_case(case)
    d = alg.dim
    lo, hi = axis_orbit(alg, dd)
    wide = [dd.axis(i) for i in range(-(2 * d + 2), 2 * d + 4)]
    span = Subspace.from_vectors(alg.field, d, [dd.axis(i) for i in range(lo, hi + 1)])
    assert span.rows == Subspace.from_vectors(alg.field, d, wide).rows
    assert span.dim == hi - lo


@pytest.mark.parametrize("case", ORBIT_CASES, ids=lambda c: "_".join(c).replace("/", "_"))
def test_orbit_stops_at_its_first_relation(case):
    # the search makes a_-1 first, then a_0, a_1, a_-1, a_2, a_-2, ... and
    # asks for no axis past the first one in the span of those before it
    alg, dd = _orbit_case(case)
    asked = []
    window = axis_orbit(alg, SimpleNamespace(axis=lambda i: asked.append(i) or dd.axis(i)))
    order = [0] + [i for k in range(1, alg.dim + 1) for i in (k, -k)]
    span = Subspace.from_vectors(alg.field, alg.dim, [])
    for n, i in enumerate(order):
        if span.contains(dd.axis(i)):
            break
        span = Subspace.from_vectors(alg.field, alg.dim, [*span.basis, dd.axis(i)])
    assert asked == [-1] + order[: n + 1]
    assert window == (min(order[: n + 1]), max(order[: n + 1]))


@pytest.mark.parametrize("case", ORBIT_CASES, ids=lambda c: "_".join(c).replace("/", "_"))
def test_invariant_action_on_p_is_decided_at_shift_zero(case):
    # for each x that identity_suite tries, a basis vector of the shift- and
    # flip-fixed space with x*a_0 = s*a_0, x*p_{i,j} = s*p_{i,j} holds for
    # j = -1 and 1 exactly when it holds for j = 0
    alg, dd = _orbit_case(case)
    one = alg.field.one()
    fixed = kernel(dd.shift.matrix.sub_scalar_diag(one)).intersection(
        kernel(dd.flip.matrix.sub_scalar_diag(one)))
    for x in fixed.basis:
        sol = solve_in_span(multiply(alg, x, dd.axis(0)), [dd.axis(0)])
        if sol is None:
            continue
        for i in (1, 2, 3):
            verdicts = {
                j: multiply(alg, x, p_vector(alg, dd, i, j)) == p_vector(alg, dd, i, j).scale(sol[0])
                for j in (-1, 0, 1)
            }
            assert verdicts[-1] == verdicts[0] == verdicts[1], (case, i, verdicts)


def _check_dihedral_reference(alg, dd):
    """check_dihedral as it was before the shift and the flip were taken as
    multiplicative by construction, kept as the reference: it proves both
    maps multiplicative again, decides invertibility by the kernel and generates
    D1 from a_-d .. a_(d+1)."""
    violations = []
    ident = identity_matrix(alg.field, alg.dim)

    if not is_homomorphism(dd.shift):
        violations.append(DihedralViolation("D2", None, "shift is not multiplicative"))
    if dd.shift.matrix.nrows != dd.shift.matrix.ncols or kernel(dd.shift.matrix).basis:
        violations.append(DihedralViolation("D2", None, "shift is not invertible"))
    if not is_homomorphism(dd.flip):
        violations.append(DihedralViolation("D3", 0, "flip is not multiplicative"))
    if dd.flip.matrix.matmul(dd.flip.matrix) != ident:
        violations.append(DihedralViolation("D3", 0, "flip squared is not the identity"))
    if violations:
        return violations

    d = alg.dim
    span = generated_subalgebra(alg, [dd.axis(i) for i in range(-d, d + 2)])
    if span.dim != alg.dim:
        violations.append(
            DihedralViolation("D1", None, f"axes generate only dimension {span.dim}")
        )

    fsfs = dd.flip.matrix.matmul(dd.shift.matrix)
    if fsfs.matmul(fsfs) != ident:
        violations.append(DihedralViolation("D3", None, "flip o shift o flip is not shift^-1"))

    try:
        dec = dd.base_split
    except (NotIdempotent, NotSemisimple, InvolutionMismatch) as exc:
        violations.append(DihedralViolation("axis", 0, str(exc)))
        return violations
    for v in check_fusion(alg, dec):
        violations.append(
            DihedralViolation(
                "fusion", 0,
                f"product of parts ({v.part_i},{v.part_j}) escapes parts {v.allowed}",
            )
        )
    try:
        if miyamoto(alg, dec) != dd.flip:
            violations.append(
                DihedralViolation("D3", 0, "flip differs from the Miyamoto involution")
            )
    except MiyamotoNotAutomorphism as exc:
        violations.append(DihedralViolation("D3", 0, str(exc)))
    return violations


@pytest.mark.parametrize("case", ORBIT_CASES, ids=lambda c: "_".join(c).replace("/", "_"))
def test_check_dihedral_matches_the_reference(case):
    alg, dd = _orbit_case(case)
    assert check_dihedral(alg, dd) == _check_dihedral_reference(alg, dd)


def _add_z(dihedral, doc):
    doc["basis"].append("z")
    dihedral["shift_images"]["z"] = dihedral["flip_images"]["z"] = "z"


def _identity_flip(dihedral, doc):
    dihedral["flip_images"] = {label: label for label in dihedral["flip_images"]}


def _singular_shift(dihedral, doc):
    # as in test_cli.test_singular_shift_fails_the_dihedral_check
    dihedral.update(window=[0, 0], axes=["a0"])
    dihedral["shift_images"] = dict.fromkeys(dihedral["shift_images"], "0*a0")


# a mutation of the ThreeEvX file and the start of its dihedral row
FAILING_FILES = {
    "extra basis vector": (_add_z, "D1@None: axes generate only dimension 3"),
    "identity flip": (_identity_flip, "D3@None: flip o shift o flip is not shift^-1"),
    "singular shift": (_singular_shift, "D2@None: shift is not invertible"),
}


@pytest.mark.parametrize("name", FAILING_FILES)
def test_failing_files_match_the_reference(tmp_path, capsys, name):
    mutate, row = FAILING_FILES[name]
    doc = document_for(*instantiate("ThreeEvX"))
    mutate(doc["dihedral"], doc)
    violations = check_dihedral(*load_document(doc)[:2])
    assert violations == _check_dihedral_reference(*load_document(doc)[:2])
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["verify", str(path), "--json"]) == 1
    rows = {c["name"]: c for c in json.loads(capsys.readouterr().out)["canonical"]["checks"]}
    assert rows["dihedral"]["status"] == "fail"
    assert rows["dihedral"]["detail"].startswith(row)


def _flip_of_order_three(dihedral, doc):
    dihedral["flip_images"].update(am2="am2", a1="a2", a2="am1", am1="a1")


def _extra_basis(labels, squares, shift, flip):
    # extra basis vectors b with b*b = squares[b], the other products zero
    def mutate(dihedral, doc):
        doc["basis"] += labels
        doc["products"] += [{"left": b, "right": b, "value": {squares[b]: "1"}} for b in labels]
        dihedral["shift_images"].update(shift)
        dihedral["flip_images"].update(flip)
    return mutate


def _doubled_axes(dihedral, doc):
    for item in doc["products"]:
        if item["left"] == item["right"]:
            item["value"] = {item["left"]: "2"}


def _eta_two(dihedral, doc):
    dihedral["eta"] = "2"


# an entry instantiation, a mutation of its file and the fusion and dihedral rows
# of `verify --check fusion,dihedral` on the mutated file
FAILURE_ROWS = {
    "flip of order three": (
        ("FiveThree", "q", "-1/3"), _flip_of_order_three,
        "flip squared is not the identity", "D3@0: flip squared is not the identity",
    ),
    "flip swaps two idempotents": (
        ("ThreeEvX",),
        _extra_basis(["b", "c"], {"b": "b", "c": "c"}, {"b": "b", "c": "c"}, {"b": "c", "c": "b"}),
        "",
        "D1@None: axes generate only dimension 3; "
        "D3@0: flip differs from the Miyamoto involution",
    ),
    "axes are not idempotent": (
        ("ThreeEvX",), _doubled_axes,
        "axis candidate fails a*a = a", "axis@0: axis candidate fails a*a = a",
    ),
    "eta is not an eigenvalue": (
        ("ThreeEvX",), _eta_two,
        "parts of dimensions (0, 1, 0, 0) do not decompose the 3-dimensional algebra",
        "axis@0: parts of dimensions (0, 1, 0, 0) do not decompose the 3-dimensional algebra",
    ),
    # (b1 + b2)*(b1 - b2) = a1 - am1: a product of flip-even and flip-odd
    # 0-vectors with a part 3 component
    "sign map is not multiplicative": (
        ("ThreeEvX",),
        _extra_basis(
            ["b0", "b1", "b2"], {"b0": "a0", "b1": "a1", "b2": "am1"},
            {"b0": "b1", "b1": "b2", "b2": "b0"}, {"b0": "b0", "b1": "b2", "b2": "b1"},
        ),
        "; ".join(["parts (0,0) escape (0,)"] * 3),
        "; ".join(["D1@None: axes generate only dimension 3"]
                  + ["fusion@0: product of parts (0,0) escapes parts (0,)"] * 3
                  + ["D3@0: sign map of the decomposition is not multiplicative"]),
    ),
}


@pytest.mark.parametrize("name", FAILURE_ROWS)
def test_dihedral_failure_rows(tmp_path, capsys, name):
    source, mutate, fusion, dihedral = FAILURE_ROWS[name]
    doc = document_for(*instantiate(*source))
    mutate(doc["dihedral"], doc)
    violations = check_dihedral(*load_document(doc)[:2])
    assert violations == _check_dihedral_reference(*load_document(doc)[:2])
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["verify", str(path), "--check", "fusion,dihedral", "--json"]) == 1
    rows = {c["name"]: c for c in json.loads(capsys.readouterr().out)["canonical"]["checks"]}
    fusion_status = "fail" if fusion else "pass"
    assert rows["fusion"] == {"name": "fusion", "status": fusion_status, "detail": fusion}
    assert rows["dihedral"] == {"name": "dihedral", "status": "fail", "detail": dihedral}


def test_a_singular_shift_is_inverted_once(monkeypatch):
    # the inverse shift is kept, None for a singular shift, so the D2, relation
    # and identities passes do not each invert it again
    doc = document_for(*instantiate("ThreeEvX"))
    _singular_shift(doc["dihedral"], doc)
    alg, dd, _ = load_document(doc)
    calls = []
    original = algebra.invert
    monkeypatch.setattr(algebra, "invert", lambda m: calls.append(m) or original(m))
    rows = {c.name: c for c in catalog.verify("singular", alg, dd).checks}
    assert len(calls) == 1
    assert rows["dihedral"].detail == "D2@None: shift is not invertible"
    for name in ("relation", "identities"):
        assert rows[name].detail == "shift is not invertible, so a_-1 is undefined"


def test_involutions_of_a_singular_shift():
    doc = document_for(*instantiate("ThreeEvX"))
    _singular_shift(doc["dihedral"], doc)
    _, dd, _ = load_document(doc)
    assert involution_at(dd, 0) is dd.flip
    for j in (1, -1):
        with pytest.raises(DataInconsistency, match=f"tau_{j} is undefined"):
            involution_at(dd, j)


@pytest.mark.parametrize("name", [entry.name for entry in catalog.list_entries()])
def test_involutions_reflect_the_axes(name):
    # tau_j = shift^j o flip o shift^-j mirrors a_i to a_(2j-i)
    _, dd = instantiate(name)
    for j in range(-2, 3):
        tau = involution_at(dd, j)
        for i in range(-2, 3):
            assert tau.apply(dd.axis(i)) == dd.axis(2 * j - i), (name, i, j)


GOLDEN_EMIT = sorted((Path(__file__).resolve().parent / "golden" / "emit").glob("*.json"))


@pytest.mark.parametrize(
    "source", TRANSPORT_CASES + GOLDEN_EMIT,
    ids=lambda c: c.stem if isinstance(c, Path) else "_".join(c).replace("/", "_"),
)
def test_shift_and_flip_are_multiplicative_by_construction(source):
    # check_dihedral takes this from construction: the loader's extend_from_generators proves it
    _, dd, *_ = load_path(source) if isinstance(source, Path) else instantiate(*source)
    assert is_homomorphism(dd.shift) and is_homomorphism(dd.flip)


def _fusion_by_membership(alg, dec):
    # the direct check the product pass replaced: every product of part basis
    # vectors must lie in the sum of the allowed parts
    violations = []
    for i in range(4):
        for j in range(i, 4):
            parts = allowed(i, j)
            space = Subspace.from_vectors(
                alg.field, alg.dim, [v for k in parts for v in dec.parts[k].basis]
            )
            for x in dec.parts[i].basis:
                for y in dec.parts[j].basis:
                    prod = multiply(alg, x, y)
                    if not space.contains(prod):
                        violations.append(FusionViolation(i, j, x, y, prod, parts))
    return violations


def _sign_map(alg, dec):
    # fixes M0 + M1 + M2 and negates M3
    columns = [v for part in dec.parts for v in part.basis]
    signed = [-v if i == 3 else v for i, part in enumerate(dec.parts) for v in part.basis]
    basis = Matrix.from_columns(alg.field, columns, nrows=alg.dim)
    signs = Matrix.from_columns(alg.field, signed, nrows=alg.dim)
    return AlgebraMap(alg, alg, signs.matmul(invert(basis)))


def _assert_product_pass_matches_direct_checks(alg, dec):
    assert check_fusion(alg, dec) == _fusion_by_membership(alg, dec)
    sign_map = _sign_map(alg, dec)
    if is_homomorphism(sign_map):
        assert miyamoto(alg, dec) == sign_map
    else:
        with pytest.raises(MiyamotoNotAutomorphism):
            miyamoto(alg, dec)
    return sign_map


@pytest.mark.parametrize("case", TRANSPORT_CASES, ids=lambda c: "_".join(c).replace("/", "_"))
def test_product_pass_matches_direct_checks(case):
    alg, dd = instantiate(*case)
    _assert_product_pass_matches_direct_checks(alg, dd.base_split)
    # the identity involution leaves the eta part unsplit, which fusion
    # rejects on most entries
    unsplit = split_eigenspace(alg, dd.axis(0), dd.eta, identity_map(alg))
    _assert_product_pass_matches_direct_checks(alg, unsplit)


def _dense_product_pattern(dec):
    # the dense pass that the sparse kernel replaced: multiply, read the
    # product in eigen-coordinates with coordinates.apply, take the zero pattern
    basis = dec.eigenbasis()
    escapes, graded = {}, True
    for q, (j, y) in enumerate(basis):
        for p, (i, x) in enumerate(basis[: q + 1]):
            prod = multiply(dec.algebra, x, y)
            coords = dec.coordinates.apply(prod)
            support = {basis[k][0] for k, c in enumerate(coords) if not c.is_zero()}
            if not support <= set(allowed(i, j)):
                escapes[(p, q)] = prod
            odd = (i == 3) != (j == 3)
            graded = graded and all((k == 3) == odd for k in support)
    return escapes, graded


def _perfbench_matsuo():
    """perfbench/matsuo.py, the generator of the benchmark's Matsuo algebras."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "matsuo.py"
    spec = importlib.util.spec_from_file_location("perfbench_matsuo", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ETAS = _perfbench_matsuo().ETAS


def _matsuo_split(field, eta, n, scale=None, perturb=None):
    """The decomposition of M_eta(S_n) at the axis (1 2), along the flip that
    conjugates by (1 2), as in the matsuo_s5 fixture.  With scale, the basis
    is scale[k] times transposition k (scale[0] = 1 keeps the axis);
    perturb(table, index) may change the table of Fractions first."""
    trans = list(combinations(range(1, n + 1), 2))
    index = {t: k for k, t in enumerate(trans)}
    scale = scale or [Fraction(1)] * len(trans)
    half = Fraction(eta) / 2
    table = {(k, k): {k: scale[k]} for k in range(len(trans))}
    for s, t in combinations(trans, 2):
        if len(set(s) | set(t)) == 3:
            i, j, k = index[s], index[t], index[tuple(sorted(set(s) ^ set(t)))]
            f = scale[i] * scale[j] * half
            table[i, j] = {i: f / scale[i], j: f / scale[j], k: -f / scale[k]}
    if perturb:
        perturb(table, index)

    def vec(coeffs):
        return Vector.sparse(field, len(trans), {k: field.from_fraction(c).payload for k, c in coeffs.items() if c})

    alg = AlgebraDef(field, [f"{a}{b}" for a, b in trans], {key: vec(c) for key, c in table.items()})
    image = [index[tuple(sorted({1: 2, 2: 1}.get(x, x) for x in t))] for t in trans]
    flip = AlgebraMap(alg, alg, Matrix.from_columns(
        field, [vec({image[k]: scale[k] / scale[image[k]]}) for k in range(len(trans))]))
    return split_eigenspace(alg, alg.basis_vector(0), field.from_fraction(Fraction(eta)), flip), flip


def _perturbed(table, index):
    # (3 4)*(3 5) gains 3/7 of the axis: the product of two vectors of M0 leaves M0
    table[index[3, 4], index[3, 5]][index[1, 2]] = Fraction(3, 7)


def _rescaled(n, seed):
    """One rational with 6-9-digit numerator and denominator for each
    transposition of S_n but the axis (1 2)."""
    rng = random.Random(seed)
    return [Fraction(1)] + [Fraction(rng.randrange(10**5, 10**9), rng.randrange(10**5, 10**9))
                            for _ in range(n * (n - 1) // 2 - 1)]


@pytest.mark.parametrize("case", [
    *((entry.name,) for entry in catalog.list_entries()),
    ("SixThree", "q", "3"),
    ("matsuo", "q"),
    ("matsuo", "gf:7"),
    *(("matsuo", spec, eta) for spec in ("q", "gf:10007") for eta in ETAS),
    ("matsuo", "qeta"),
    ("matsuo", "nf:-1,2,1"),
    *(("perturbed", spec) for spec in ("q", "gf:10007", "qeta", "nf:-1,2,1")),
    ("rescaled", "q"),
], ids="_".join)
def test_product_pass_matches_the_dense_pass(case, matsuo_split):
    escaping = case == ("SixThree", "q", "3") or case[0] == "perturbed"
    if case[0] == "matsuo" and len(case) == 2:  # M_1/4(S_5)
        dec = matsuo_split(catalog.field_from_spec(case[1]), "1/4")
    elif case[0] == "matsuo":
        dec, _ = _matsuo_split(catalog.field_from_spec(case[1]), case[2], 5)
    elif case[0] == "perturbed":  # M_1/4(S_5), one product changed
        dec, _ = _matsuo_split(catalog.field_from_spec(case[1]), "1/4", 5, perturb=_perturbed)
    elif case[0] == "rescaled":  # M_2/5(S_6) in a rescaled basis has the verdicts of M_2/5(S_6)
        for dec, flip in (_matsuo_split(catalog.field_from_spec(case[1]), "2/5", 6, scale)
                          for scale in (None, _rescaled(6, 1))):
            assert dec.dims() == (10, 1, 0, 4) and dec.product_pattern == ({}, True)
            assert check_fusion(dec.algebra, dec) == [] and miyamoto(dec.algebra, dec) == flip
    else:
        dec = instantiate(*case)[1].base_split
    assert dec.product_pattern == _dense_product_pattern(dec)
    # SixThree at eta = 3 and the perturbed tables are the cases whose fusion fails
    assert bool(dec.product_pattern[0]) == escaping
    if case[0] == "perturbed":  # one pair escapes, and the sign map stays multiplicative
        assert len(dec.product_pattern[0]) == 1 and dec.product_pattern[1]
        witnesses = [v for prod in dec.product_pattern[0].values() for v in prod.terms.values()]
        if case[1] == "q":  # some witness entry is not an integer
            assert any(den != 1 for _, den in witnesses)


def _sparse_pass(dec):
    # the pass that the test on raw product sums replaced: every pair formed exactly,
    # settled, and read in every row of B^-1; the parts of each escape
    alg, field = dec.algebra, dec.algebra.field
    basis = dec.eigenbasis()
    parts, words = [i for i, _ in basis], [v.terms for _, v in basis]
    columns = [c.terms.items() for c in dec.coordinates.columns]
    escapes = {}
    for q, j in enumerate(parts):
        for p, i in enumerate(parts[: q + 1]):
            coords = {}
            for k, c in algebra.sparse_product(alg, words[p], words[q]).items():
                field.mac(coords, c, columns[k])
            support = {parts[r] for r in field.settle(coords)}
            if not support <= set(allowed(i, j)):
                escapes[p, q] = support
    return escapes


def test_product_pass_on_a_rescaled_basis_is_no_slower_than_the_sparse_pass():
    # the basis vectors of M_2/5(S_6) but the axis times 6-9-digit rationals:
    # the raw sums meet large unequal denominators, and the pass still costs
    # no more than forming every pair exactly (the min of 11 interleaved runs)
    dec, _ = _matsuo_split(FieldDescriptor.rationals(), "2/5", 6, _rescaled(6, 2))
    times = {"raw": [], "sparse": []}
    for _ in range(11):
        fresh = AxisDecomposition(dec.algebra, dec.axis, dec.parts)
        vars(fresh)["coordinates"] = dec.coordinates  # B^-1 as cached_property keeps it
        start = time.perf_counter()
        pattern = fresh.product_pattern
        times["raw"].append(time.perf_counter() - start)
        start = time.perf_counter()
        reference = _sparse_pass(dec)
        times["sparse"].append(time.perf_counter() - start)
    assert pattern == ({}, True) and reference == {}
    assert min(times["raw"]) <= min(times["sparse"]), times


def test_product_pass_forms_each_pair_once_in_the_kernel(monkeypatch, matsuo_split):
    # M_1/4(S_5) has dimension 10, so one pass takes the product_sums of
    # 10*11/2 pairs, each once, over every field kind; none escapes, so no
    # product is settled whole: no sparse_product, no dense multiply and no
    # Matrix.apply
    decs = {spec: matsuo_split(catalog.field_from_spec(spec), "1/4") for spec in ("q", "gf:10007", "nf:-1,2,1", "qeta")}
    tested, product_sums = [], algebra.product_sums

    def counted(alg, xs, ys):
        tested.append((xs, ys))
        return product_sums(alg, xs, ys)

    def refused(*args):
        raise AssertionError("the product pass formed an exact product")

    monkeypatch.setattr(axial, "product_sums", counted)
    monkeypatch.setattr(algebra, "sparse_product", refused)
    monkeypatch.setattr(axial, "multiply", refused)
    monkeypatch.setattr(algebra, "multiply", refused)
    monkeypatch.setattr(Matrix, "apply", refused)
    for spec, dec in decs.items():
        tested.clear()
        assert dec.product_pattern == ({}, True), spec
        index = {id(v.terms): k for k, (_, v) in enumerate(dec.eigenbasis())}
        pairs = [(index[id(xs)], index[id(ys)]) for xs, ys in tested]
        assert len(pairs) == 55 and set(pairs) == {(p, q) for q in range(10) for p in range(q + 1)}, spec


def _count_fractions(monkeypatch):
    """The argument tuples of every Fraction made from now on."""
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return made


def test_q_kernels_make_no_fraction(Q, monkeypatch, matsuo_s5, matsuo_flip):
    # Q payloads are int pairs: once the literals are parsed, splitting,
    # fusion, Miyamoto and the subalgebra closure construct no Fraction
    alg = matsuo_s5(Q, "1/4")
    flip, eta = matsuo_flip(alg), parse_scalar("1/4", Q)
    made = _count_fractions(monkeypatch)
    dec = split_eigenspace(alg, alg.basis_vector(0), eta, flip)
    assert dec.dims() == (6, 1, 0, 3)
    assert check_fusion(alg, dec) == []
    assert miyamoto(alg, dec).matrix == flip.matrix  # the Miyamoto involution of (1 2) is its conjugation
    gens = [alg.basis_vector(alg.label_index(label)) for label in ("12", "13", "45")]
    assert generated_subalgebra(alg, gens).dim == 4
    assert made == []
    Fraction(1, 4)
    assert made == [(1, 4)]  # the count sees a Fraction made


@pytest.mark.parametrize("name, spec", [("ThreeEv", "qeta"), ("SixThree", "nf:-1,2,1")])
def test_polynomial_kernels_make_no_fraction(name, spec, monkeypatch):
    # Q(eta) and Q[t]/(m) payloads are integer polynomials: the same kernels
    # construct no Fraction over those fields either
    alg, dd = instantiate(name, spec)
    made = _count_fractions(monkeypatch)
    dec = split_eigenspace(alg, dd.axis(0), dd.eta, dd.flip)
    assert check_fusion(alg, dec) == []
    assert miyamoto(alg, dec).matrix == dd.flip.matrix
    lo, hi = axis_orbit(alg, dd)
    assert generated_subalgebra(alg, [dd.axis(i) for i in range(lo, hi + 1)]).dim == alg.dim
    assert made == []


def _count_field_elements(monkeypatch):
    """The payload of every FieldElement made from now on."""
    made = []
    init = FieldElement.__init__

    def counted(self, field, payload):
        made.append(payload)
        init(self, field, payload)

    monkeypatch.setattr(FieldElement, "__init__", counted)
    return made


def test_kernels_make_no_field_element(Q, monkeypatch, matsuo_s5, matsuo_flip):
    # vectors and matrices hold payloads: products, matrix arithmetic,
    # elimination and the closure make a FieldElement only where one is read
    alg = matsuo_s5(Q, "1/4")
    flip = matsuo_flip(alg)
    x, y = alg.basis_vector(0), alg.basis_vector(4) - alg.basis_vector(9)
    made = _count_field_elements(monkeypatch)
    prod = multiply(alg, x, y)
    ad = adjoint_matrix(alg, x)
    assert ad.apply(y) == prod
    assert ad.matmul(flip.matrix).matmul(flip.matrix) == ad
    assert kernel(ad).dim == 6
    assert invert(flip.matrix) == flip.matrix
    assert generated_subalgebra(alg, [x, y]).dim == 4
    assert made == []
    assert prod[2] == Q.zero() and made == [Q.ZERO, Q.ZERO]  # reading entries makes them


def test_sign_map_that_is_not_an_automorphism(Q):
    # a*a = a, a*b = eta*b, b*b = b, and the flip negates b: then M3 = <b> and
    # b*b = b lands in the odd part, so fusion fails and the sign map (the
    # flip itself) does not respect the product
    eta = Q.from_fraction(Fraction(1, 2))
    a, b = Vector.unit(Q, 2, 0), Vector.unit(Q, 2, 1)
    alg = AlgebraDef(Q, ("a", "b"), {(0, 0): a, (0, 1): b.scale(eta), (1, 1): b})
    flip = AlgebraMap(alg, alg, Matrix.from_columns(Q, [a, -b], nrows=2))
    dec = split_eigenspace(alg, a, eta, flip)
    assert dec.dims() == (0, 1, 0, 1)
    assert _assert_product_pass_matches_direct_checks(alg, dec) == flip
    assert [(v.part_i, v.part_j, v.product) for v in check_fusion(alg, dec)] == [(3, 3, b)]
    assert not is_homomorphism(flip)
    with pytest.raises(MiyamotoNotAutomorphism, match="not multiplicative"):
        miyamoto(alg, dec)


def test_six_three_fusion_negative_control():
    alg, dd = instantiate("SixThree", "q", "3")
    dec = split_eigenspace(alg, dd.axis(0), dd.eta, dd.flip)
    violations = check_fusion(alg, dec)
    assert violations
    assert any((v.part_i, v.part_j) == (2, 2) for v in violations)
    nf_alg, nf_dd = instantiate("SixThree")
    nf_dec = split_eigenspace(nf_alg, nf_dd.axis(0), nf_dd.eta, nf_dd.flip)
    assert not check_fusion(nf_alg, nf_dec)


def test_axial_dimension_witnesses():
    expected = {
        "ThreeEv": (3, 4, "odd", ("0", "1")),
        "FourEv": (4, 1, "even", ("1", "1", "1")),
        "BarFourTwo": (4, 2, "odd", ("0", "1")),
        "FiveThree": (5, 4, "odd", ("0", "0", "1")),
        "SixThree": (6, 2, "odd", ("0", "0", "1")),
        "Seven": (7, 4, "odd", ("0", "1", "1", "1")),
    }
    for name, (adim, case, parity, coeffs) in expected.items():
        alg, dd = instantiate(name)
        w = axial_dimension(alg, dd)
        assert (w.adim, w.case, w.parity) == (adim, case, parity), name
        assert tuple(render(c) for c in w.coefficients) == coeffs, name
        assert _relation_vector(dd, w).is_zero()


def _shifted(dd):
    """Relabelled data with axis'(i) = axis(i+1); the flip becomes the next involution."""
    return DihedralData(dd.algebra, dd.eta, dd.axis(1), dd.shift, involution_at(dd, 1))


def test_axial_dimension_shift_invariance():
    for name in ("FiveThree", "ThreeEv"):
        alg, dd = instantiate(name)
        w = axial_dimension(alg, dd)
        w_shifted = axial_dimension(alg, _shifted(dd))
        assert (w.adim, w.case, w.parity) == (w_shifted.adim, w_shifted.case, w_shifted.parity)


def _two_branch_classification(rel_lo, rel_hi, coeffs):
    """The relation classifier written as one branch per window shape, kept
    as the reference for RelationWitness.classify."""
    by_index = {rel_lo + pos: coeffs[pos] for pos in range(len(coeffs))}
    if rel_hi == -rel_lo:
        k = rel_hi
        flipped = {i: by_index[-i] for i in by_index}
        symmetric = all(flipped[i] == by_index[i] for i in by_index)
        antisymmetric = all(flipped[i] == -by_index[i] for i in by_index)
        if symmetric == antisymmetric:
            raise DataInconsistency("minimal relation has mixed flip symmetry")
        lead = by_index[k]
        seq = tuple(by_index[i] / lead for i in range(0, k + 1))
        if symmetric:
            case, parity, alphas = 1, "even", seq
        else:
            case, parity, alphas = 2, "odd", seq[1:]
        adim = 2 * k
    elif rel_hi == -rel_lo + 1:
        k = -rel_lo
        flipped = {i: by_index[1 - i] for i in by_index}
        symmetric = all(flipped[i] == by_index[i] for i in by_index)
        antisymmetric = all(flipped[i] == -by_index[i] for i in by_index)
        if symmetric == antisymmetric:
            raise DataInconsistency("minimal relation has mixed flip symmetry")
        lead = by_index[k + 1]
        alphas = tuple(by_index[i + 1] / lead for i in range(0, k + 1))
        case, parity = (3, "even") if symmetric else (4, "odd")
        adim = 2 * k + 1
    else:
        raise DataInconsistency("minimal relation window has unexpected shape")
    return RelationWitness(parity, case, alphas, adim, (rel_lo, rel_hi))


def _outcome(classify, *args):
    try:
        return classify(*args)
    except DataInconsistency as exc:
        return str(exc)


# coordinates of the axes a_-3 .. a_4: {index: coordinates}, the rest
# taking the `other` coordinates; then the first relation window, the span
# dimension and the expected case, or the expected error
RELATION_CASES = {
    "case 1": ({-1: (2, -1), 0: (1, 0), 1: (0, 1)}, (1, 1), (-1, 1), 2, 1),
    "case 2": ({-1: (0, 1), 0: (1, 0), 1: (0, 1)}, (1, 1), (-1, 1), 2, 2),
    "case 3": ({i: (1 - 2 * (i % 2),) for i in range(-3, 5)}, None, (0, 1), 1, 3),
    "case 4": ({}, (1,), (0, 1), 1, 4),
    "mixed symmetry": ({-1: (1, 2), 0: (1, 0), 1: (0, 1)}, (1, 1), (-1, 1), 2,
                       "minimal relation has mixed flip symmetry"),
}


@pytest.mark.parametrize("name", RELATION_CASES)
def test_relation_cases_match_the_two_branch_classifier(Q, name):
    # axial_dimension only reads axes and their orbit, so an algebra without
    # products and an object that hands out the listed axes and their
    # axis_orbit will do
    axes, other, window, adim, expected = RELATION_CASES[name]
    coords = {i: axes.get(i, other) for i in range(-3, 5)}
    dim = len(coords[0])
    alg = AlgebraDef(Q, [f"e{k}" for k in range(dim)], {})
    vectors = {i: vector(Q, [Q.from_int(c) for c in v]) for i, v in coords.items()}
    dd = SimpleNamespace(axis=vectors.__getitem__)
    dd.orbit = axis_orbit(alg, dd)
    lo, hi = window
    columns = [vectors[i] for i in range(lo, hi + 1)]
    coeffs = kernel(Matrix.from_columns(Q, columns, nrows=dim)).basis[0]
    got = _outcome(axial_dimension, alg, dd)
    assert got == _outcome(_two_branch_classification, lo, hi, coeffs)
    if isinstance(expected, int):
        assert (got.case, got.adim, got.window) == (expected, adim, window)
    else:
        assert got == expected


def test_relation_window_of_unexpected_shape(Q):
    coeffs = tuple(Q.from_int(c) for c in (1, 1, 1, 1))
    message = "minimal relation window has unexpected shape"
    assert _outcome(RelationWitness.classify, -2, 1, coeffs) == message
    assert _outcome(_two_branch_classification, -2, 1, coeffs) == message


def test_theta_composition_law():
    alg, dd = instantiate("FiveThree")
    theta = compose(dd.shift, dd.flip)
    for i in range(-3, 4):
        assert theta.apply(dd.axis(i)) == dd.axis(1 - i)


def test_p_vector_examples():
    alg, dd = instantiate("ThreeEv")
    p1 = alg.basis_vector(alg.label_index("p1"))
    assert p_vector(alg, dd, 1, 0) == p1
    alg5, dd5 = instantiate("FiveThree")
    assert p_vector(alg5, dd5, 2, 0) == p_vector(alg5, dd5, 1, 0)
    alg6, dd6 = instantiate("SixThree")
    expected = (dd6.axis(0) + dd6.axis(3)).scale(-dd6.eta)
    assert p_vector(alg6, dd6, 3, 0) == expected


def test_lambda_examples():
    alg, dd = instantiate("SixThree")
    dec = split_eigenspace(alg, dd.axis(0), dd.eta, dd.flip)
    assert lambda_coefficient(alg, dec, dd.axis(0)).is_one()
    assert lambda_coefficient(alg, dec, dd.axis(3)).is_zero()


def test_identity_suite_three_ev():
    alg, dd = instantiate("ThreeEv")
    report = identity_suite(alg, dd)
    by_name = {c.name: c.status for c in report.checks}
    assert by_name["p10_scalar"] == "pass"
    assert by_name["p10_m2_part"] == "pass"
    assert by_name["mu_expansion"] == "pass"
    assert by_name["p1_square"] == "pass"
    # a0 * p1 really is -eta(3 eta + 1)/4 * a0 on both sides
    lhs = multiply(alg, dd.axis(0), p_vector(alg, dd, 1, 0))
    assert lhs == dd.axis(0).scale(parse_scalar("-eta*(3*eta+1)/4", alg.field))
    assert render(report.scalars["pi"]) == "-3/4*eta^2 - 1/4*eta"


def test_identity_suite_five_three_scalars():
    alg, dd = instantiate("FiveThree")
    report = identity_suite(alg, dd)
    assert render(report.scalars["lambda1"]) == "3/4*eta"
    assert render(report.scalars["mu"]) == "-3/4*eta^2 - 1/4*eta"
    assert render(report.scalars["nu"]) == "-5/2*eta^2"
    status = {c.name: c.status for c in report.checks}
    assert status["p2_shift_or_mu_zero"] == "pass"  # p_{2,1} equals p_{2,0} here


def test_identity_suite_skips():
    alg, dd = instantiate("BarFourTwo")
    report = identity_suite(alg, dd)
    status = {c.name: c.status for c in report.checks}
    assert status["p2_shift_or_mu_zero"] == "skipped"  # lambda_1 != 3*eta/4
    algx, ddx = instantiate("FourEvX")
    reportx = identity_suite(algx, ddx)
    statusx = {c.name: c.status for c in reportx.checks}
    assert statusx["two_generated_dim"] == "skipped"  # p vanishes in the quotient


@pytest.mark.parametrize("name", [entry.name for entry in catalog.list_entries()])
def test_identity_rows_match_the_hand_coded_suite(name):
    # the table of literal rows against the suite it replaced, at the
    # default field, at GF(7) and over Q(eta) wherever instantiate admits them
    for spec in (None, "gf:7", "qeta"):
        try:
            alg, dd = instantiate(name, spec)
        except ConstraintViolation:
            assert spec is not None, name
            continue
        want, got = identity_suite_reference(alg, dd), identity_suite(alg, dd)
        assert got.checks == want.checks, (name, spec)
        assert got.scalars == want.scalars, (name, spec)


@pytest.mark.parametrize("variable", ["mu", "a1", "p10", "lambda1"])
@pytest.mark.parametrize("case", ["Seven", "SixThree_q_3"])
def test_a_field_variable_named_like_a_row_name_changes_no_row(case, variable):
    # the rows read their own names before the field's variable; SixThree at
    # eta = 3 fails mu, so there a variable named mu must not stand in for it
    doc = json.loads((Path(__file__).resolve().parent / "golden" / "emit" / f"{case}.json").read_text())

    def rows(document):
        report = identity_suite(*load_document(document)[:2])
        return report.checks, {key: render(value) for key, value in report.scalars.items()}

    want = rows(doc)
    assert rows(dict(doc, field={"kind": "rational_functions", "variable": variable})) == want
    assert (("nu_expansion", "skipped", "mu unavailable") in want[0]) == (case == "SixThree_q_3")


def test_a_candidate_row_is_one_string(monkeypatch):
    # a changed sign in one literal fails that row and no other
    alg, dd = instantiate("FiveThree")
    before = identity_suite(alg, dd).checks
    rows = [(name, literal.replace("- mu*p20", "+ mu*p20"), test, key) if name == "rho_expansion"
            else (name, literal, test, key) for name, literal, test, key in _ROWS]
    assert rows != _ROWS
    monkeypatch.setattr("axialcheck.dihedral._ROWS", rows)
    after = identity_suite(alg, dd).checks
    assert [c.name for c in after if c not in before] == ["rho_expansion"]
    assert {c.name: c.status for c in after}["rho_expansion"] == "fail"


def test_relation_transform_spec_examples(Q):
    one = Q.one()
    c = Q.from_int(7)
    out = relation_transform((c,), "lemma_2_3_part2")
    assert out == (Q.zero(), c)
    out = relation_transform((one, one), "lemma_2_3_part2")
    assert tuple(render(x) for x in out) == ("0", "2", "1")
    a = tuple(Q.from_int(k) for k in (2, 5, 3))
    out = relation_transform(a, "lemma_2_4_part3")
    assert out == (a[0] - a[1], a[1] - a[2], a[2])


def test_relation_transform_vanishes_on_catalog():
    # case-(4) relations feed the first lemma's transforms
    for name in ("FiveThree", "Seven", "ThreeEv"):
        alg, dd = instantiate(name)
        w = axial_dimension(alg, dd)
        assert w.case == 4
        for mode in ("lemma_2_3_part1", "lemma_2_3_part2"):
            out = relation_transform(w.coefficients, mode)
            acc = Vector.zero(alg.field, alg.dim)
            for i, coeff in enumerate(out):
                acc = acc + (dd.axis(i) - dd.axis(-i)).scale(coeff)
            assert acc.is_zero(), (name, mode)
    # case-(1) relations feed the second lemma's transforms
    for name in ("FourEv", "FourEvX"):
        alg, dd = instantiate(name)
        w = axial_dimension(alg, dd)
        assert w.case == 1
        for mode in ("lemma_2_4_part1", "lemma_2_4_part2"):
            out = relation_transform(w.coefficients, mode)
            acc = Vector.zero(alg.field, alg.dim)
            for i, coeff in enumerate(out):
                acc = acc + (dd.axis(i) - dd.axis(-i)).scale(coeff)
            assert acc.is_zero(), (name, mode)
        out = relation_transform(w.coefficients[1:], "lemma_2_4_part3")
        acc = Vector.zero(alg.field, alg.dim)
        for i, coeff in enumerate(out, start=1):
            acc = acc + (dd.axis(i + 1) - dd.axis(-i)).scale(coeff)
        assert acc.is_zero(), name


# each mode's output on the first n of (2, 3, 5, 7, 11, 13), n = 1 .. 6,
# zero slots included
RELATION_TRANSFORMS = {
    "lemma_2_3_part1": (
        (0, 2, 2),
        (0, 8, 8, 3),
        (0, 13, 18, 13, 5),
        (0, 13, 25, 27, 19, 7),
        (0, 13, 25, 38, 41, 29, 11),
        (0, 13, 25, 38, 54, 55, 37, 13),
    ),
    "lemma_2_3_part2": (
        (0, 2),
        (0, 5, 3),
        (0, 5, 8, 5),
        (0, 5, 8, 12, 7),
        (0, 5, 8, 12, 18, 11),
        (0, 5, 8, 12, 18, 24, 13),
    ),
    "lemma_2_4_part1": (
        (0, 2, 2),
        (0, 5, 5, 3),
        (0, 0, 5, 8, 5),
        (0, -7, -2, 8, 12, 7),
        (0, -7, -13, -3, 12, 18, 11),
        (0, -7, -13, -16, -1, 18, 24, 13),
    ),
    "lemma_2_4_part2": (
        (0, 2),
        (0, 2, 3),
        (0, -3, 3, 5),
        (0, -3, -4, 5, 7),
        (0, -3, -4, -6, 7, 11),
        (0, -3, -4, -6, -6, 11, 13),
    ),
    "lemma_2_4_part3": (
        (2,),
        (-1, 3),
        (-1, -2, 5),
        (-1, -2, -2, 7),
        (-1, -2, -2, -4, 11),
        (-1, -2, -2, -4, -2, 13),
    ),
}


@pytest.mark.parametrize("mode", RELATION_TRANSFORMS)
def test_relation_transform_outputs(Q, mode):
    primes = [Q.from_int(c) for c in (2, 3, 5, 7, 11, 13)]
    for n, expected in enumerate(RELATION_TRANSFORMS[mode], start=1):
        assert relation_transform(primes[:n], mode) == tuple(map(Q.from_int, expected)), (mode, n)


def _reference_squares_to_identity(*factors):
    """The involution test that takes each unit vector through the factors
    twice and compares the result with the unit vector."""
    field, n = factors[0].field, factors[0].ncols
    for j in range(n):
        x = unit = Vector.unit(field, n, j)
        for m in reversed(factors * 2):
            x = m.apply(x)
        if x != unit:
            return False
    return True


def _plus_one_at(m, i, j):
    columns = list(m.columns)
    columns[j] = columns[j] + Vector.unit(m.field, m.nrows, i)
    return Matrix.from_columns(m.field, columns, m.nrows)


def _still_an_involution(tau, i, j):
    """Whether tau + E_ij is an involution, for an involution tau over a
    field of characteristic other than 2 and 3: its square is I + tau E_ij +
    E_ij tau + [i = j] E_ij, zero past I exactly when i != j, tau e_i = c e_i,
    e_j^T tau = d e_j^T and c + d = 0."""
    col, row = tau.columns[i], tau.rows[j]
    return (i != j and set(col.terms) <= {i} and all(e.is_zero() for k, e in enumerate(row) if k != j)
            and (col[i] + row[j]).is_zero())


@pytest.mark.parametrize("name", [entry.name for entry in catalog.list_entries()])
def test_the_involution_test_decides_each_one_entry_perturbation(name, matsuo_s5, matsuo_flip):
    # the flips and the Miyamoto maps of the catalog, and the flip of
    # M_1/4(S_5), with 1 added to one entry: an involution only where
    # _still_an_involution says (FourEv's flip fixes e_1 and negates e_3).
    # With the shift as a second factor, the test agrees with the reference.
    alg, dd = instantiate(name)
    involutions = [dd.flip.matrix, miyamoto(alg, dd.base_split).matrix]
    if name == "Seven":
        involutions.append(matsuo_flip(matsuo_s5(alg.field, "1/4")).matrix)
    for tau in involutions:
        assert axial._squares_to_identity(tau) and _reference_squares_to_identity(tau)
        for i in range(tau.nrows):
            for j in range(tau.ncols):
                bad = _plus_one_at(tau, i, j)
                expected = _still_an_involution(tau, i, j)
                assert axial._squares_to_identity(bad) == _reference_squares_to_identity(bad) == expected
    flip, shift = dd.flip.matrix, dd.shift.matrix
    expected = _reference_squares_to_identity(flip, shift)
    assert axial._squares_to_identity(flip, shift) == expected
    for i in range(shift.nrows):
        for j in range(shift.ncols):
            for pair in ((_plus_one_at(flip, i, j), shift), (flip, _plus_one_at(shift, i, j))):
                assert axial._squares_to_identity(*pair) == _reference_squares_to_identity(*pair)
