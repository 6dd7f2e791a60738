import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from axialcheck import algebra, catalog, cli
from axialcheck.algebra import (
    AlgebraDef,
    AlgebraMap,
    generated_subalgebra,
    is_homomorphism,
    multiply,
    quotient,
)
from axialcheck.algfile import document_for, load_document, load_path, parse_vector
from axialcheck.axial import (
    DihedralData,
    DihedralViolation,
    FusionViolation,
    RelationWitness,
    allowed,
    axial_dimension,
    axis_orbit,
    check_dihedral,
    check_eta,
    check_fusion,
    identity_suite,
    lambda_coefficient,
    miyamoto,
    p_vector,
    relation_transform,
    split_eigenspace,
)
from axialcheck.catalog import instantiate
from axialcheck.errors import (
    DataInconsistency,
    InvolutionMismatch,
    MiyamotoNotAutomorphism,
    NotIdempotent,
    NotSemisimple,
)
from axialcheck.fields import parse_scalar, render
from axialcheck.linalg import Matrix, Subspace, Vector, invert, kernel


def _axis_diff(alg, dd, i):
    return dd.axis(i) - dd.axis(-i)


def _relation_vector(dd, witness):
    """Evaluate the witnessed combination on the axes (must be zero)."""
    out = dd.algebra.zero_vector()
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
    assert dec.part(3) == m3
    assert not check_fusion(alg, dec)


def test_split_three_ev():
    alg, dd = instantiate("ThreeEv")
    dec = split_eigenspace(alg, dd.axis(0), dd.eta, dd.flip)
    assert dec.dims() == (1, 1, 1, 1)
    assert dec.part(3) == Subspace.from_vectors(alg.field, alg.dim, [_axis_diff(alg, dd, 1)])
    lam = lambda_coefficient(alg, dec, dd.axis(1))
    assert lam == parse_scalar("3*eta/4", alg.field)


def test_split_error_cases():
    alg, dd = instantiate("FiveThree")
    with pytest.raises(NotIdempotent):
        split_eigenspace(alg, dd.axis(0) + dd.axis(1), dd.eta, dd.flip)
    with pytest.raises(InvolutionMismatch):
        split_eigenspace(alg, dd.axis(0), dd.eta, dd.shift)  # shift moves the axis


def test_identity_involution_gives_trivial_negated_part():
    alg, dd = instantiate("FiveThree")
    ident = AlgebraMap.identity(alg)
    dec = split_eigenspace(alg, dd.axis(0), dd.eta, ident)
    assert dec.part(3).dim == 0 and dec.part(2).dim == 3
    assert miyamoto(alg, dec) == ident
    # ... but the fusion rule rejects the unsplit middle part
    assert check_fusion(alg, dec)


def test_miyamoto_matches_flip():
    for name in ("ThreeEv", "FiveThree"):
        alg, dd = instantiate(name)
        dec = split_eigenspace(alg, dd.axis(0), dd.eta, dd.flip)
        g = miyamoto(alg, dec)
        assert g == dd.flip
        assert g.matrix.matmul(g.matrix) == AlgebraMap.identity(alg).matrix


def test_check_dihedral_pass_and_fail():
    alg, dd = instantiate("FiveThree")
    assert not check_dihedral(alg, dd)
    broken = DihedralData(alg, dd.eta, dd.axis(0), dd.shift, AlgebraMap.identity(alg))
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
        shift_i = dd.shift.power(i)
        dec = split_eigenspace(alg, dd.axis(i), dd.eta, dd.involution_at(i))
        moved = tuple(
            Subspace.from_vectors(alg.field, alg.dim, [shift_i.apply(v) for v in part.basis])
            for part in base.parts
        )
        assert dec.parts == moved, (case, i)
        assert len(check_fusion(alg, dec)) == base_violations, (case, i)
        if not base_violations:
            assert miyamoto(alg, dec) == dd.involution_at(i), (case, i)


def _bar_four_two_quotient():
    # the two-dimensional ideal of BarFourTwo, as in the catalog's claim
    alg, dd = instantiate("BarFourTwo")
    span = Subspace.from_vectors(alg.field, alg.dim, [
        parse_vector("p20 + p1 + 2*(a2+a0) + a1 + am1", alg, dd.eta),
        parse_vector("p21 + p1 + a2 + a0 + 2*(a1+am1)", alg, dd.eta),
    ])
    qalg, proj = quotient(alg, span)
    return qalg, dd.on_quotient(span, qalg, proj)


ORBIT_CASES = TRANSPORT_CASES + [("BarFourTwo", "quotient")]


def _orbit_case(case):
    return _bar_four_two_quotient() if case[-1] == "quotient" else instantiate(*case)


@pytest.mark.parametrize("case", ORBIT_CASES, ids=lambda c: "_".join(c).replace("/", "_"))
def test_axes_are_the_shift_orbit_of_the_base_axis(case):
    alg, dd = _orbit_case(case)
    d = alg.dim
    for i in range(-(d + 2), d + 4):
        assert dd.axis(i) == dd.shift.power(i).apply(dd.axis(0)), (case, i)


@pytest.mark.parametrize("case", ORBIT_CASES, ids=lambda c: "_".join(c).replace("/", "_"))
def test_dihedral_generators_span_every_axis(case):
    # D1 generates from the window of the orbit search; a_-(2d+2) .. a_(2d+3)
    # span no more, and the search's rank is that span's dimension
    alg, dd = _orbit_case(case)
    d = alg.dim
    (lo, hi), _, rank = axis_orbit(alg, dd)
    wide = [dd.axis(i) for i in range(-(2 * d + 2), 2 * d + 4)]
    span = Subspace.from_vectors(alg.field, d, [dd.axis(i) for i in range(lo, hi + 1)])
    assert span == Subspace.from_vectors(alg.field, d, wide)
    assert span.dim == rank


def _check_dihedral_reference(alg, dd):
    """check_dihedral as it was before the shift and the flip were taken as
    multiplicative by construction, kept as the reference: it proves both
    maps multiplicative again, decides invertibility by rref and generates
    D1 from a_-d .. a_(d+1)."""
    violations = []
    ident = Matrix.identity(alg.field, alg.dim)

    if not is_homomorphism(dd.shift):
        violations.append(DihedralViolation("D2", None, "shift is not multiplicative"))
    if not dd.shift.is_bijective():
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
    assert dd.involution_at(0) is dd.flip
    for j in (1, -1):
        with pytest.raises(DataInconsistency, match=f"tau_{j} is undefined"):
            dd.involution_at(j)


@pytest.mark.parametrize("name", [entry.name for entry in catalog.list_entries()])
def test_involutions_reflect_the_axes(name):
    # tau_j = shift^j o flip o shift^-j mirrors a_i to a_(2j-i)
    _, dd = instantiate(name)
    for j in range(-2, 3):
        tau = dd.involution_at(j)
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
                alg.field, alg.dim, [v for k in parts for v in dec.part(k).basis]
            )
            for x in dec.part(i).basis:
                for y in dec.part(j).basis:
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
    unsplit = split_eigenspace(alg, dd.axis(0), dd.eta, AlgebraMap.identity(alg))
    _assert_product_pass_matches_direct_checks(alg, unsplit)


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
    return DihedralData(dd.algebra, dd.eta, dd.axis(1), dd.shift, dd.involution_at(1))


def test_axial_dimension_shift_invariance():
    for name in ("FiveThree", "ThreeEv"):
        alg, dd = instantiate(name)
        w = axial_dimension(alg, dd)
        w_shifted = axial_dimension(alg, _shifted(dd))
        assert (w.adim, w.case, w.parity) == (w_shifted.adim, w_shifted.case, w_shifted.parity)


def _two_branch_classification(rel_lo, rel_hi, coeffs, adim):
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
        expected_adim = 2 * k
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
        expected_adim = 2 * k + 1
    else:
        raise DataInconsistency("minimal relation window has unexpected shape")

    if adim != expected_adim:
        raise DataInconsistency(
            f"axial dimension {adim} contradicts relation case {case} (expects {expected_adim})"
        )
    return RelationWitness(parity, case, alphas, adim, (rel_lo, rel_hi))


def _outcome(classify, *args):
    try:
        return classify(*args)
    except DataInconsistency as exc:
        return str(exc)


# coordinates of the axes a_-3 .. a_4: {index: coordinates}, the rest
# taking the `other` coordinates; then the first relation window, the final
# span dimension and the expected case, or the expected error
RELATION_CASES = {
    "case 1": ({-1: (2, -1), 0: (1, 0), 1: (0, 1)}, (1, 1), (-1, 1), 2, 1),
    "case 2": ({-1: (0, 1), 0: (1, 0), 1: (0, 1)}, (1, 1), (-1, 1), 2, 2),
    "case 3": ({i: (1 - 2 * (i % 2),) for i in range(-3, 5)}, None, (0, 1), 1, 3),
    "case 4": ({}, (1,), (0, 1), 1, 4),
    "mixed symmetry": ({-1: (1, 2), 0: (1, 0), 1: (0, 1)}, (1, 1), (-1, 1), 2,
                       "minimal relation has mixed flip symmetry"),
    "adim mismatch": ({i: (1, 0) if i >= 0 else (0, 1) for i in range(-3, 5)}, None, (0, 1), 2,
                      "axial dimension 2 contradicts relation case 4 (expects 1)"),
}


@pytest.mark.parametrize("name", RELATION_CASES)
def test_relation_cases_match_the_two_branch_classifier(Q, name):
    # axial_dimension only reads axes, so an algebra without products and an
    # object that hands out the listed axes will do
    axes, other, window, adim, expected = RELATION_CASES[name]
    coords = {i: axes.get(i, other) for i in range(-3, 5)}
    dim = len(coords[0])
    alg = AlgebraDef(Q, [f"e{k}" for k in range(dim)], {})
    vectors = {i: Vector(Q, [Q.from_int(c) for c in v]) for i, v in coords.items()}
    dd = SimpleNamespace(axis=vectors.__getitem__)
    lo, hi = window
    columns = [vectors[i] for i in range(lo, hi + 1)]
    coeffs = kernel(Matrix.from_columns(Q, columns, nrows=dim)).basis[0]
    got = _outcome(axial_dimension, alg, dd)
    assert got == _outcome(_two_branch_classification, lo, hi, coeffs, adim)
    if isinstance(expected, int):
        assert (got.case, got.adim, got.window) == (expected, adim, window)
    else:
        assert got == expected


def test_relation_window_of_unexpected_shape(Q):
    coeffs = tuple(Q.from_int(c) for c in (1, 1, 1, 1))
    message = "minimal relation window has unexpected shape"
    assert _outcome(RelationWitness.classify, -2, 1, coeffs, 3) == message
    assert _outcome(_two_branch_classification, -2, 1, coeffs, 3) == message


def test_theta_composition_law():
    alg, dd = instantiate("FiveThree")
    theta = dd.shift.compose(dd.flip)
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
            acc = alg.zero_vector()
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
            acc = alg.zero_vector()
            for i, coeff in enumerate(out):
                acc = acc + (dd.axis(i) - dd.axis(-i)).scale(coeff)
            assert acc.is_zero(), (name, mode)
        out = relation_transform(w.coefficients[1:], "lemma_2_4_part3")
        acc = alg.zero_vector()
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
