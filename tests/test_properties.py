"""Cross-cutting invariants that tie the modules together."""

import random

import pytest

from axialcheck import catalog, cli
from axialcheck.derive import quotient, rref
from axialcheck.dihedral import DihedralData
from axialcheck.errors import DataInconsistency
from axialcheck.linalg import Subspace, Vector, solve_in_span
from values import identity_matrix, vector


def test_solve_matches_containment(Q, GF7):
    rng = random.Random(31)
    for field in (Q, GF7):
        for _ in range(80):
            dim = rng.randint(2, 5)
            spanners = [
                vector(field, [field.from_int(rng.randint(-3, 3)) for _ in range(dim)])
                for _ in range(rng.randint(1, 3))
            ]
            target = vector(field, [field.from_int(rng.randint(-3, 3)) for _ in range(dim)])
            span = Subspace.from_vectors(field, dim, spanners)
            coeffs = solve_in_span(target, spanners)
            assert (coeffs is not None) == span.contains(target)
            if coeffs is not None:
                acc = Vector.zero(field, dim)
                for c, s in zip(coeffs, spanners):
                    acc = acc + s.scale(c)
                assert acc == target


def test_quotient_projection_is_surjective():
    alg, dd = catalog.instantiate("FiveThree", "q", "-1/3")
    sigma = Vector.zero(alg.field, alg.dim)
    for i in range(-2, 3):
        sigma = sigma + dd.axis(i)
    span = Subspace.from_vectors(alg.field, alg.dim, [sigma])
    qalg, proj = quotient(alg, span)
    assert rref(proj.matrix)[1] == qalg.dim


def test_dihedral_data_rejects_broken_seeds():
    alg, dd = catalog.instantiate("FiveThree")
    with pytest.raises(DataInconsistency):
        DihedralData.build(
            alg,
            {-1: dd.axis(-1), 0: dd.axis(0), 1: dd.axis(2)},  # wrong successor
            dd.shift,
            dd.flip,
            dd.eta,
        )
    with pytest.raises(DataInconsistency):
        DihedralData.build(
            alg, {0: dd.axis(1)}, dd.shift, dd.flip, dd.eta
        )  # flip does not fix the claimed base axis


def test_matrix_identity_shortcut(Q):
    m = identity_matrix(Q, 4)
    reduced, rank, pivots = rref(m)
    assert rank == 4 and reduced == m


def test_cli_rejects_unknown_check(capsys):
    code = cli.main(["verify", "FiveThree", "--check", "sorcery"])
    assert code == 2
    assert "unknown check" in capsys.readouterr().err


def test_cli_unknown_source(capsys):
    code = cli.main(["verify", "/no/such/file.json"])
    assert code == 2


def test_fuse_pair_zero_one_is_forced_zero():
    # products of the zero-eigenvalue part with the axis line vanish exactly
    from axialcheck.algebra import multiply
    from axialcheck.axial import split_eigenspace

    alg, dd = catalog.instantiate("SixThree")
    dec = split_eigenspace(alg, dd.axis(0), dd.eta, dd.flip)
    for x in dec.parts[0].basis:
        for y in dec.parts[1].basis:
            assert multiply(alg, x, y).is_zero()


def test_verify_entry_reports_carry_scalars():
    rep = catalog.verify_entry("Seven")
    for key in ("lambda1", "lambda2", "lambda3", "mu", "nu", "pi"):
        assert key in rep.scalars
    canonical = rep.canonical()
    assert canonical["relation"]["coefficients"] == ["0", "1", "1", "1"]
    assert canonical["dimensions"]["ambient"] == 8
