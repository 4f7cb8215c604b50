"""Acceptance gate: every criterion at its stated tolerance, exactly.

Each test prints one ``criterion N ...: PASS`` line (visible under
``pytest -s``); a failure shows up as an ordinary pytest failure instead.
All checks are exact integer/rational equalities; there are no numerical
tolerances anywhere.
"""

import io
import pathlib
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb

from conftest import (oracle_component_euler, oracle_euler, oracle_q_rank,
                      oracle_q_two_term, oracle_saturated, oracle_snf_weights, qmat_rows,
                      rand_fcrystal, rand_filtered_phi, rand_glued, rand_higgs)
from gaugeworks.beilinson import (corners, corrupt_drop_corner_b, fm_fibre,
                                  verify_cartesian)
from gaugeworks.exactlinalg import QMat
from gaugeworks.fgauge import (FCrystalPoint, filtration_basis,
                               gauge_from_fcrystal, hodge_tate_weights,
                               rational_realization,
                               syntomic_cohomology, twist_gauge)
from gaugeworks.filphi import rhom_mfphi, rhom_phi, tate
from gaugeworks.higgs import (GradedHiggsModule, hodge_cohomology,
                              koszul_differential)
from gaugeworks.redlocus import bk_reduced, reduced_syntomic_cohomology
from test_redlocus import oracle_reduced


def _tate_oracle(d):
    """Independent brute-force kernel/cokernel of the defining two-term map."""
    iota = d.fil0_iota
    phi = d.frobenius
    rows = [[iota[i, j] - sum(phi[i, k] * iota[k, j] for k in range(d.dim))
             for j in range(iota.ncols)] for i in range(d.dim)]
    return oracle_q_two_term(rows, d.dim, iota.ncols)


def test_criterion_1_cartesian_square(rng):
    for _ in range(500):
        d = rand_filtered_phi(rng, rng.choice([3, 5]), max_dim=6,
                              window=(-5, 5))
        assert verify_cartesian(corners(d)).is_zero()
    control = corners(tate(0, 3))
    assert not verify_cartesian(corrupt_drop_corner_b(control)).is_zero()
    print("criterion 1 (cartesian square, 500 runs + negative control): PASS")


def test_criterion_2_two_formula_agreement(rng):
    for _ in range(500):
        d = rand_filtered_phi(rng, rng.choice([3, 5]), max_dim=6,
                              window=(-5, 5))
        via_fibre = rhom_mfphi(d)          # total complex of the derived fibre
        via_twisted = fm_fibre(d)          # the 1 - tau fibre sequence
        assert via_fibre.dims == via_twisted.dims
        a, b = via_fibre.h0_in_underlying, via_twisted.h0_in_underlying
        joint = a.hstack(b)
        assert oracle_q_rank(qmat_rows(joint)) == \
            oracle_q_rank(qmat_rows(a)) == oracle_q_rank(qmat_rows(b))
    print("criterion 2 (two-formula agreement, 500 runs, exact): PASS")


def test_criterion_3_degree_concentration_and_euler(rng):
    for _ in range(500):
        d = rand_filtered_phi(rng, rng.choice([3, 5]), max_dim=6,
                              window=(-5, 5))
        r = rhom_mfphi(d)
        assert r.h0 >= 0 and r.h1 >= 0        # nothing outside degrees 0, 1
        assert r.h0 - r.h1 == d.fil0_dim() - d.dim
    print("criterion 3 (degrees 0..1 and Euler characteristic, exact): PASS")


def test_criterion_4_twist_table():
    for p in (3, 5):
        for n in range(-5, 6):
            expected = (1, 1) if n == 0 else ((0, 1) if n > 0 else (0, 0))
            t = tate(n, p)
            assert _tate_oracle(t) == expected
            assert rhom_mfphi(t).dims == expected
    print("criterion 4 (twist table with brute-force oracle, exact): PASS")


def test_criterion_5_gauge_laws_and_rational_comparison(rng):
    for _ in range(200):
        p = rng.choice([3, 5])
        c = rand_fcrystal(rng, p, max_rank=4, exp_lo=-3, exp_hi=3)
        g = gauge_from_fcrystal(c)
        h0, h1 = syntomic_cohomology(g)
        r = rhom_phi(rational_realization(g))
        assert (h0.free_rank, h1.free_rank) == r.dims
        # mod-p injectivity: the lattice oracle on the library's filtration
        a, b = g.window
        fil = {i: filtration_basis(c, i) for i in range(a - 1, b + 2)}
        assert oracle_saturated(fil, p, range(a, b + 2))
    print("criterion 5 (rational comparison + mod-p injectivity, 200 runs): PASS")


def test_criterion_6_hodge_tate_weights(rng):
    for n in range(-5, 6):
        assert hodge_tate_weights(twist_gauge(n, 3)) == {-n: 1}
    for _ in range(40):
        p = rng.choice([3, 5])
        r = rng.randint(1, 4)
        twists = [rng.randint(-3, 3) for _ in range(r)]
        diag = QMat.diagonal([Fraction(p) ** (-n) for n in twists])
        c = FCrystalPoint(p, r, diag)
        expected: dict = {}
        for n in twists:
            expected[-n] = expected.get(-n, 0) + 1
        assert hodge_tate_weights(gauge_from_fcrystal(c)) == expected
        assert oracle_snf_weights(c) == expected
    print("criterion 6 (weights: single twist and diagonal families): PASS")


def test_criterion_7_reduced_gluing(rng):
    for p in (3, 5):
        for n in range(-p, p + 1):
            g = bk_reduced(n, p)
            assert reduced_syntomic_cohomology(g).h == oracle_reduced(g)
    for _ in range(200):
        p = rng.choice([3, 5])
        g = rand_glued(rng, p)
        r = reduced_syntomic_cohomology(g)
        assert oracle_euler(r) == oracle_component_euler(r)
    print("criterion 7 (reduced gluing vs brute force + Euler, exact): PASS")


def test_criterion_8_higgs_koszul(rng):
    for _ in range(60):
        d = rng.randint(1, 3)
        m = rand_higgs(rng, rng.choice([3, 5]), d, max_total=12)
        assert m.total_dim() <= 12
        lo, hi = min(m.dims), max(m.dims)
        for i in range(lo, hi + d + 1):
            for k in range(d - 1):
                prod = koszul_differential(m, i, k + 1) @ koszul_differential(m, i, k)
                assert prod.is_zero()
            hs = hodge_cohomology(m, i)
            chi = sum((-1) ** k * h for k, h in hs)
            assert chi == sum((-1) ** k * comb(d, k) * m.dim_at(i - k)
                              for k in range(d + 1))
        zero = GradedHiggsModule(m.prime, d, m.dims, {})
        for i in range(lo, hi + d + 1):
            assert hodge_cohomology(zero, i) == \
                [(k, comb(d, k) * zero.dim_at(i - k)) for k in range(d + 1)]
    print("criterion 8 (d^2 = 0, binomial formula, Euler identity): PASS")


def test_criterion_9_cli_determinism():
    from gaugeworks.cli import main
    fixtures = pathlib.Path(__file__).parent / "fixtures"
    jobs = sorted(str(j) for j in (fixtures / "jobs").glob("*.json"))

    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["compute"] + jobs)
        return code, buf.getvalue().encode("utf-8")

    first, second = run(), run()
    assert first == second and first[0] == 0
    expected_codes = {"bad_row.json": 1, "bad_ut.json": 2, "bad_prime.json": 1}
    for name, want in expected_codes.items():
        proc = subprocess.run(
            [sys.executable, "-m", "gaugeworks", "compute",
             str(fixtures / "malformed" / name)],
            capture_output=True)
        assert proc.returncode == want, (name, proc.returncode, proc.stderr)
    print("criterion 9 (byte-deterministic CLI + exit-code contract): PASS")
