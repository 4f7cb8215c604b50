"""The forgetful fibre square and the Frobenius-twisted fibre sequence."""

from fractions import Fraction

import pytest

from conftest import (oracle_cartesian_residual, oracle_q_det, oracle_q_rank, oracle_q_rref,
                      qmat_rows, rand_filtered_phi, rand_rational, twist_sum_square)
from gaugeworks import beilinson
from gaugeworks.beilinson import (_rank_and_kernel, corners, corrupt_drop_corner_b, fm_fibre,
                                  verify_cartesian)
from gaugeworks.cli import build_filphi, run_job
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


def assert_residual_matches_oracle(s):
    res, want = verify_cartesian(s), oracle_cartesian_residual(s)
    assert want.rank_d1 == 2 * s.under_dim
    assert (res.h, res.chain_defect) == (want.h, want.chain_defect)
    return res


def random_squares(rng):
    """Squares of random filtered phi-modules and of conjugated twist sums."""
    squares = [corners(rand_filtered_phi(rng, rng.choice([3, 5]))) for _ in range(4)]
    for honest in (True, False):
        p = rng.choice([3, 5, 7])
        payload, _ = twist_sum_square(rng, p, rng.randint(2, 9), honest)
        squares.append(corners(build_filphi(p, payload)))
    return squares


@pytest.mark.parametrize("trial", range(15))
def test_cartesian_residual_matches_the_full_total_complex(rng, trial):
    for s in random_squares(rng):
        assert assert_residual_matches_oracle(s).is_zero()
        if s.b_dim:
            assert not assert_residual_matches_oracle(corrupt_drop_corner_b(s)).is_zero()


@pytest.mark.parametrize("honest", [True, False], ids=["honest", "junk"])
@pytest.mark.parametrize("n", range(2, 10))
def test_square_job_of_a_conjugated_twist_sum(rng, n, honest):
    payload, want = twist_sum_square(rng, 5, n, honest)
    doc = {"format": 1, "prime": 5, "kind": "square", "payload": payload}
    assert run_job(doc, None)[1]["results"] == want


def test_residual_of_a_square_that_does_not_commute():
    s = corners(tate(0, 3))
    bad = type(s)(prime=s.prime, under_dim=s.under_dim, a0_dim=s.a0_dim,
                  b_dim=s.b_dim, d_a=s.d_a, d_c=s.d_c, f_ab=s.f_ab,
                  f_ac=s.f_ac.scale(2), f_bd=s.f_bd, corrupted=True)
    assert bad.f_bd @ bad.f_ab != bad.f_ac
    assert assert_residual_matches_oracle(bad).chain_defect == 1


@pytest.mark.parametrize("trial", range(20))
def test_residual_of_random_squares_that_break_both_laws(rng, trial):
    # scaling iota by 2 breaks f_bd f_ab = f_ac, and d_a = d_c f_ac wherever
    # d_c iota != 0, so both blocks of d1 d0 enter the defect
    s = corners(rand_filtered_phi(rng, 5))
    if s.a0_dim == 0:
        return
    bad = type(s)(prime=s.prime, under_dim=s.under_dim, a0_dim=s.a0_dim,
                  b_dim=s.b_dim, d_a=s.d_a, d_c=s.d_c, f_ab=s.f_ab,
                  f_ac=s.f_ac.scale(2), f_bd=s.f_bd, corrupted=True)
    assert assert_residual_matches_oracle(bad).chain_defect > 0


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


# ---------------------------------------------------------------------------
# fm_fibre's own elimination vs the oracle's Fraction Gauss-Jordan
# ---------------------------------------------------------------------------


BIG_PRIME = 2 ** 61 - 1


def elimination_case(rng, trial: int):
    """Rows and a width, of the kind picked by ``trial``."""
    kind = trial % 8
    m, n = rng.randint(0, 10), rng.randint(0, 10)
    entry = lambda: rand_rational(rng, 3) if rng.random() < 0.7 else Fraction(0)
    if kind == 1:  # no rows or no columns
        m, n = rng.choice([(0, n), (m, 0)])
    if kind == 2:  # zero
        return [[Fraction(0)] * n for _ in range(m)], n
    if kind == 3:  # rank-deficient product A B
        k = rng.randint(0, min(m, n))
        a = [[entry() for _ in range(k)] for _ in range(m)]
        b = [[entry() for _ in range(n)] for _ in range(k)]
        return [[sum((x * b[t][j] for t, x in enumerate(r)), Fraction(0)) for j in range(n)]
                for r in a], n
    m, n = max(m, 2), max(n, 2)
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if kind == 4:  # a pivotless column before a pivot
        c = rng.randrange(n - 1)
        for r in rows:
            r[c] = Fraction(0)
        rows[0][c + 1] = Fraction(rng.choice([-3, 1, 2]))
    elif kind == 5:  # the first pivot sits in a later row: a swap
        rows[0][0] = Fraction(0)
        rows[-1][0] = Fraction(rng.choice([-3, 1, 2]))
    elif kind == 6:  # one row over a large prime denominator
        i = rng.randrange(m)
        rows[i] = [Fraction(rng.randint(-BIG_PRIME, BIG_PRIME), BIG_PRIME) for _ in range(n)]
    elif kind == 7:  # ints, the form fm_fibre passes
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    return rows, n


@pytest.mark.parametrize("trial", range(320))
def test_rank_and_kernel_match_the_oracle_rref(rng, trial):
    rows, n = elimination_case(rng, trial)
    rank, kernel = _rank_and_kernel(tuple(map(tuple, rows)), n)
    rref, pivots = oracle_q_rref(rows, n)
    want = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(n)]
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][f]
        want.append(v)
    assert rank == len(pivots)
    assert kernel == want  # the RREF is unique, so its kernel basis is too
    assert all(type(x) is Fraction for v in kernel for x in v)


@pytest.mark.parametrize("trial", range(40))
def test_rank_and_kernel_read_the_kernel_over_the_pivot_minor(rng, trial, monkeypatch):
    # full row rank integer rows: every pivot row ends with the last pivot,
    # which is the determinant of the pivot columns up to sign
    m = rng.randint(2, 7)
    while True:
        rows = [[rng.randint(-9, 9) for _ in range(m + 2)] for _ in range(m)]
        _, pivots = oracle_q_rref(rows, m + 2)
        if len(pivots) == m:
            break
    det = abs(oracle_q_det([[r[c] for c in pivots] for r in rows]))
    denominators = []

    def recording(*args):
        if len(args) == 2:
            denominators.append(abs(args[1]))
        return Fraction(*args)
    monkeypatch.setattr(beilinson, "Fraction", recording)
    _rank_and_kernel(tuple(map(tuple, rows)), m + 2)
    assert denominators and set(denominators) == {det}
