"""The forgetful fibre square and the Frobenius-twisted fibre sequence."""

import pytest

from conftest import oracle_q_rank, qmat_rows, rand_filtered_phi
from gaugeworks.beilinson import (corners, corrupt_drop_corner_b, fm_fibre,
                                  verify_cartesian)
from gaugeworks.errors import LawViolation
from gaugeworks.exactlinalg import QMat, qmat
from gaugeworks.filphi import (FilteredPhiModule, FilteredSpace, rhom_mfphi,
                               tate)
from test_acceptance import _tate_oracle


def test_corner_dims_for_unit_twist():
    s = corners(tate(0, 3))
    assert s.corner_dims() == {"A": (1, 1), "B": (1, 0), "C": (1, 1), "D": (1, 0)}


def test_corner_dims_for_first_twist():
    s = corners(tate(1, 3))
    assert s.corner_dims() == {"A": (0, 1), "B": (0, 0), "C": (0, 0), "D": (1, 0)}


def test_corner_dims_zero_module():
    fs = FilteredSpace(0, 0, (0,), ())
    z = FilteredPhiModule(3, fs, QMat.zeros(0, 0))
    s = corners(z)
    assert s.corner_dims() == {"A": (0, 0), "B": (0, 0), "C": (0, 0), "D": (0, 0)}
    assert verify_cartesian(s).is_zero()


def test_cartesian_for_twists():
    for n in (-1, 0, 1):
        assert verify_cartesian(corners(tate(n, 3))).is_zero()


@pytest.mark.parametrize("trial", range(60))
def test_cartesian_randomized(rng, trial):
    d = rand_filtered_phi(rng, rng.choice([3, 5]))
    assert verify_cartesian(corners(d)).is_zero()


def test_corrupted_corner_b_fails():
    s = corners(tate(0, 3))
    res = verify_cartesian(corrupt_drop_corner_b(s))
    assert not res.is_zero()


@pytest.mark.parametrize("trial", range(20))
def test_corrupted_corner_b_fails_randomized(rng, trial):
    d = rand_filtered_phi(rng, 3)
    s = corners(d)
    if s.b_dim == 0:
        return
    assert not verify_cartesian(corrupt_drop_corner_b(s)).is_zero()


def test_square_commutativity_is_checked_eagerly():
    s = corners(tate(0, 3))
    with pytest.raises(LawViolation):
        type(s)(prime=s.prime, under_dim=s.under_dim, a0_dim=s.a0_dim,
                b_dim=s.b_dim, d_a=s.d_a, d_c=s.d_c, f_ab=s.f_ab,
                f_ac=s.f_ac.scale(2), f_bd=s.f_bd)


# ---------------------------------------------------------------------------
# the twisted fibre sequence vs the derived Hom
# ---------------------------------------------------------------------------


def test_fm_fibre_on_twists():
    assert fm_fibre(tate(0, 3)).dims == (1, 1)
    assert fm_fibre(tate(1, 3)).dims == (0, 1)


def test_fm_fibre_with_empty_fil0():
    # Fil^0 = 0 forces (0, dim of the underlying space)
    d = tate(2, 5)
    assert d.fil0_dim() == 0
    assert fm_fibre(d).dims == (0, 1)


@pytest.mark.parametrize("trial", range(60))
def test_fm_fibre_agrees_with_rhom(rng, trial):
    d = rand_filtered_phi(rng, rng.choice([3, 5]))
    fm = fm_fibre(d)
    r = rhom_mfphi(d)
    assert fm.dims == r.dims
    # H0 subspaces of the underlying space coincide
    joint = fm.h0_in_underlying.hstack(r.h0_in_underlying)
    assert oracle_q_rank(qmat_rows(joint)) == \
        oracle_q_rank(qmat_rows(fm.h0_in_underlying)) == \
        oracle_q_rank(qmat_rows(r.h0_in_underlying))


def test_fm_fibre_runs_no_qmat_elimination(rng, monkeypatch):
    modules = [rand_filtered_phi(rng, rng.choice([3, 5])) for _ in range(40)]
    modules += [tate(n, 3) for n in (-1, 0, 1)]

    def refuse(*args):
        raise AssertionError("QMat elimination called")
    for name in ("rref", "kernel", "solve", "_pivots"):
        monkeypatch.setattr(QMat, name, refuse)
    monkeypatch.setattr(qmat, "_sweep", refuse)
    for d in modules:
        assert fm_fibre(d).dims == _tate_oracle(d)


@pytest.mark.parametrize("n", range(-3, 4))
def test_no_cohomology_above_degree_one(n, rng):
    # all complexes here have amplitude [0, 1]; the residual adds a guard in
    # degree 2 which must also vanish on valid squares
    res = verify_cartesian(corners(tate(n, 3)))
    assert res.h[2] == 0 and res.is_zero()
    r = rhom_mfphi(tate(n, 3))
    assert r.dims == (r.h0, r.h1)  # nothing beyond degrees 0 and 1 exists


@pytest.mark.parametrize("pair", [(0, 1), (-2, 3), (1, 1), (-1, 0)])
def test_split_rank_two_family_degree_guard(pair):
    # admissible split rank-two objects: direct sums of two twists
    d = tate(pair[0], 3).direct_sum(tate(pair[1], 3))
    res = verify_cartesian(corners(d))
    assert res.h[2] == 0 and res.is_zero()
    r = rhom_mfphi(d)
    assert r.h0 >= 0 and r.h1 >= 0
    assert fm_fibre(d).dims == r.dims
