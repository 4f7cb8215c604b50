"""Gauges over F_p: laws, syntomic cohomology, filtrations, weights."""

import json
import pathlib
import sys
from fractions import Fraction
from unittest import mock

import pytest

from conftest import (compose, constant_gauge, equals_as_map, is_p_unimodular,
                      level_transport, oracle_filtration_basis, oracle_lattice_contains,
                      oracle_q_det, oracle_saturated, oracle_snf, oracle_snf_weights,
                      oracle_t_at, oracle_u_at, qmat_rows, rand_fcrystal, raw_gauge,
                      relation_matrix, scalar)
from gaugeworks import cli, fgauge
from gaugeworks.cli import build_fgauge, run_job
from gaugeworks.errors import LawViolation
from gaugeworks.exactlinalg import (SNF, FGModule, ModuleMap, QMat, cokernel,
                                    homology_two_term, kernel_over_zp,
                                    smith_normal_form, vp, zero_module)
from gaugeworks.fgauge import (FCrystalPoint, FpGauge, direct_sum,
                               extend_window, filtration_basis,
                               filtration_saturation_holds,
                               gauge_from_fcrystal, hodge_tate_weights,
                               rational_realization,
                               syntomic_cohomology, twist_gauge, validate)
from gaugeworks.exactlinalg.modules import composite
from gaugeworks.exactlinalg.snf import _eliminate
from gaugeworks.filphi import rhom_phi
from test_bitsize import old_t_composite, old_u_composite


def cyclic(p, e=1):
    return FGModule(p, 0, (e,))


def torsion_gauge(p):
    """All levels Z/p, t = 1, u = 0, tau = 1, window ending at 0."""
    t = cyclic(p)
    return FpGauge(p, (-1, 0), (t, t),
                   (ModuleMap(t, t, QMat([[1]])),),
                   (ModuleMap(t, t, QMat([[0]])),),
                   ModuleMap(t, t, QMat([[1]])))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_free_rank_one_gauge_is_valid():
    p = 3
    m = FGModule(p, 1)
    g = FpGauge(p, (-1, 0), (m, m),
                (ModuleMap(m, m, QMat([[p]])),),
                (ModuleMap(m, m, QMat([[1]])),),
                ModuleMap(m, m, QMat([[1]])))
    validate(g)


def test_ut_equal_one_is_invalid():
    p = 3
    m = FGModule(p, 1)
    one = ModuleMap(m, m, QMat([[1]]))
    with pytest.raises(LawViolation) as err:
        FpGauge(p, (-1, 0), (m, m), (one,), (one,), one)
    assert str(err.value) == "ut = tu = p failed at index 0 (ut != p)"


def test_torsion_gauge_is_valid():
    # ut = 0 = p on a module killed by p
    validate(torsion_gauge(3))


def test_non_isomorphism_tau_is_flagged():
    p = 3
    m = FGModule(p, 1)
    with pytest.raises(LawViolation) as err:
        FpGauge(p, (0, 0), (m,), (), (), ModuleMap(m, m, QMat([[p]])))
    assert str(err.value) == "tau must be an isomorphism M^b -> M^a"


# ---------------------------------------------------------------------------
# syntomic cohomology
# ---------------------------------------------------------------------------


def test_syntomic_of_unit_twist():
    h0, h1 = syntomic_cohomology(twist_gauge(0, 3))
    assert h0 == FGModule(3, 1) and h1 == FGModule(3, 1)


def test_syntomic_of_first_twist():
    # differential is p - 1 = 2, a unit at 3; the normal form of [2] is [1]
    h0, h1 = syntomic_cohomology(twist_gauge(1, 3))
    assert h0 == zero_module(3) and h1 == zero_module(3)


def test_syntomic_of_torsion_gauge():
    h0, h1 = syntomic_cohomology(torsion_gauge(3))
    assert h0 == cyclic(3) and h1 == cyclic(3)


def torsion_constant_gauge(rng, p: int, window) -> FpGauge:
    """Z_(p)^f + (+)_j Z/p^{e_j} at every level, with t and u diagonal (each
    generator has t = 1, u = p or t = p, u = 1) and tau p-unit upper
    unitriangular up to units, with the entries a map of the module allows."""
    free = rng.randint(0, 1)
    module = FGModule(p, free, tuple(sorted(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))))
    n = module.ngens
    ts = [rng.choice((1, p)) for _ in range(n)]
    units = [x for x in (1, -1, 2, 1 + p) if x % p]
    tau = [[0] * n for _ in range(n)]
    for i in range(n):
        tau[i][i] = rng.choice(units)
        for j in range(i + 1, n):
            # a free row takes nothing from a torsion generator
            tau[i][j] = 0 if i < free <= j else rng.randint(-p, p)
    diag = lambda xs: [[xs[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return constant_gauge(p, module, window, diag(ts), diag([p // x for x in ts]), tau)


def far_window_gauges(rng) -> list[FpGauge]:
    """Lawful gauges whose windows start 1 to 4 above 0 or end 1 to 4 below it."""
    gauges = []
    for d in range(1, 5):
        for _ in range(26):
            p = rng.choice([2, 3, 5])
            for lo, hi in ((d, d + rng.randint(0, 2)), (-d - rng.randint(0, 2), -d)):
                gauges.append(gauge_from_fcrystal(rand_fcrystal(rng, p, exp_lo=lo,
                                                                exp_hi=hi)))
                gauges.append(torsion_constant_gauge(rng, p, (lo, hi)))
    return gauges


def test_far_window_cohomology_vanishes_as_the_explicit_composites_say(rng):
    # 1 - p^a X (a >= 1) and -tau (1 - p^(-b) tau^{-1} T) (b <= -1) are
    # automorphisms; the shortcut builds neither, the composites here do
    gauges = far_window_gauges(rng)
    assert len(gauges) >= 400 and all(g.a >= 1 or g.b <= -1 for g in gauges)
    assert any(g.modules[0].torsion for g in gauges)
    for g in gauges:
        down = g.t_composite(0, min(g.a, 0))
        up = compose(g.tau, g.u_composite(0, max(g.b, 0)))
        explicit = homology_two_term(down - up)
        zero = (zero_module(g.prime), zero_module(g.prime))
        assert explicit == zero
        assert syntomic_cohomology(g) == zero


def test_window_need_not_contain_zero():
    p = 3
    m = FGModule(p, 1)
    shifted = FpGauge(p, (1, 2), (m, m),
                      (ModuleMap(m, m, QMat([[p]])),),
                      (ModuleMap(m, m, QMat([[1]])),),
                      ModuleMap(m, m, QMat([[1]])))
    h = syntomic_cohomology(shifted)
    assert h == syntomic_cohomology(extend_window(shifted, 0, 2))
    assert h == syntomic_cohomology(extend_window(shifted, -2, 3))


@pytest.mark.parametrize("trial", range(20))
def test_window_enlargement_is_invisible(rng, trial):
    # windows across 0, above it and below it; every trial draws its own crystal
    lo, hi = [(-3, 3), (1, 4), (-4, -1)][trial % 3]
    c = rand_fcrystal(rng, 3, exp_lo=lo, exp_hi=hi)
    g = gauge_from_fcrystal(c)
    for wide in (extend_window(g, g.a - 2, g.b + 3),
                 extend_window(g, min(g.a, 0), max(g.b, 0))):
        assert syntomic_cohomology(wide) == syntomic_cohomology(g)
        assert hodge_tate_weights(wide) == hodge_tate_weights(g)
        assert rational_realization(wide) == rational_realization(g)


# ---------------------------------------------------------------------------
# rational realization
# ---------------------------------------------------------------------------


def test_realization_of_twist_gauge():
    for n in range(-3, 4):
        phi = rational_realization(twist_gauge(n, 3))
        assert phi.dim == 1
        assert phi.frobenius == QMat([[Fraction(3) ** (-n)]])


def test_realization_kills_torsion():
    assert rational_realization(torsion_gauge(3)).dim == 0


@pytest.mark.parametrize("trial", range(25))
def test_realization_roundtrip_up_to_base_change(rng, trial):
    c = rand_fcrystal(rng, 3)
    phi = rational_realization(gauge_from_fcrystal(c)).frobenius
    # equal to tau_crys after the change of basis B of the gauge, which
    # agrees with the oracle's exact V modulo p^N
    s, o = smith_normal_form(c.tau_crys, c.prime), oracle_snf(c.tau_crys, c.prime)
    n = max(s.exponents) - min(s.exponents) + 1
    _, basis = s.integral_basis(n)
    assert phi == basis.inverse() @ c.tau_crys @ basis
    assert all(vp(x, c.prime) >= n for r in (basis - o.v).rows for x in r)


def test_gauge_tau_equals_the_oracle_transform(rng):
    # tau of the gauge is W tau_crys B D^{-1}; carried to the oracle's basis
    # V by M_i = D_i^{-1} (V^{-1} B) D_i, p-unimodular at every level, it is
    # the oracle's V^{-1} U^{-1} for U tau_crys V = D
    job = pathlib.Path(__file__).parent / "fixtures" / "jobs" / "fcrystal.json"
    doc = json.loads(job.read_text(encoding="utf-8"))
    fc = doc["payload"]["fcrystal"]
    tau = QMat([[Fraction(x) for x in row] for row in fc["tau"]])
    crystals = [FCrystalPoint(doc["prime"], fc["rank"], tau)]
    crystals += [rand_fcrystal(rng, rng.choice([2, 3, 5, 7])) for _ in range(40)]
    for c in crystals:
        p, o = c.prime, oracle_snf(c.tau_crys, c.prime)
        a, b = min(o.exponents), max(o.exponents)
        w, basis = smith_normal_form(c.tau_crys, p).integral_basis(b - a + 1)
        got = gauge_from_fcrystal(c).tau.matrix
        unscale = QMat.diagonal([Fraction(p) ** -d for d in o.exponents])
        assert got == w @ c.tau_crys @ basis @ unscale
        m = o.v.inverse() @ basis
        iso = [level_transport(m, o.exponents, p, i) for i in range(a, b + 1)]
        assert all(is_p_unimodular(x, p) for x in iso)
        assert o.v.inverse() @ o.u.inverse() @ iso[-1] == iso[0] @ got


@pytest.mark.parametrize("trial", range(30))
def test_rational_comparison_with_derived_invariants(rng, trial):
    p = rng.choice([3, 5])
    c = rand_fcrystal(rng, p)
    g = gauge_from_fcrystal(c)
    h0, h1 = syntomic_cohomology(g)
    r = rhom_phi(rational_realization(g))
    assert (h0.free_rank, h1.free_rank) == r.dims


def rand_isogeny(rng, p: int, n: int) -> QMat:
    """An integer n x n matrix with entries in [-7, 7] whose determinant is a
    nonzero multiple of p."""
    while True:
        h = QMat([[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)])
        d = oracle_q_det(qmat_rows(h))
        if d and d.numerator % p == 0:
            return h


def char_values(a: QMat) -> list[Fraction]:
    """det(x I - a) at x = 0, ..., n: the characteristic polynomial, by values."""
    n = a.nrows
    return [oracle_q_det([[x * (i == j) - a[i, j] for j in range(n)] for i in range(n)])
            for x in range(n + 1)]


def composites_match_the_oracle(g: FpGauge) -> None:
    """t_composite, u_composite and the syntomic map against the Fraction
    ``compose`` oracle, with the syntomic homology read off the oracle's map."""
    lo, hi = min(g.a, 0), max(g.b, 0)
    down, up = old_t_composite(g, 0, lo), old_u_composite(g, 0, hi)
    assert g.t_composite(0, lo) == down and g.u_composite(0, hi) == up
    assert g.t_composite(g.b, g.a) == old_t_composite(g, g.b, g.a)
    want = ModuleMap(down.source, down.target, down.matrix - compose(g.tau, up).matrix)
    got = g.t_composite(0, lo) - composite(up.source, g.tau.target, (g.u_composite(0, hi),
                                                                       g.tau))
    assert got == want
    assert syntomic_cohomology(g) == homology_two_term(want)


@pytest.mark.parametrize("trial", range(4))
def test_isogenous_crystals_agree_after_inverting_p(rng, trial):
    # tau' = h^-1 tau h with p | det h is another lattice in the same
    # isocrystal, so the two gauges are isogenous: their rational
    # realizations are similar, and their syntomic cohomology has the same
    # free ranks while the torsion may differ
    torsion_differs = 0
    for _ in range(50):
        p = rng.choice([3, 5])
        c = rand_fcrystal(rng, p)
        h = rand_isogeny(rng, p, c.rank)
        c2 = FCrystalPoint(p, c.rank, h.inverse() @ c.tau_crys @ h)
        g, g2 = gauge_from_fcrystal(c), gauge_from_fcrystal(c2)
        phi, phi2 = (qmat_rows(rational_realization(x).frobenius) for x in (g, g2))
        assert oracle_q_det(phi) == oracle_q_det(phi2)
        assert sum(r[i] for i, r in enumerate(phi)) == sum(r[i] for i, r in enumerate(phi2))
        assert char_values(QMat(phi)) == char_values(QMat(phi2))
        h_c, h_c2 = syntomic_cohomology(g), syntomic_cohomology(g2)
        assert [x.free_rank for x in h_c] == [x.free_rank for x in h_c2]
        torsion_differs += [x.torsion for x in h_c] != [x.torsion for x in h_c2]
        for x in (g, g2):
            composites_match_the_oracle(x)
    assert torsion_differs >= 5


# ---------------------------------------------------------------------------
# saturated filtrations
# ---------------------------------------------------------------------------


def test_filtration_rank_one_unit():
    c = FCrystalPoint(3, 1, QMat([[1]]))
    for i in range(-2, 4):
        basis = filtration_basis(c, i)
        assert basis.ncols == 1
        assert vp(basis[0, 0], 3) == max(i, 0)  # elementwise valuation check


@pytest.mark.parametrize("n", range(-3, 4))
def test_filtration_rank_one_twist(n):
    c = FCrystalPoint(3, 1, QMat([[Fraction(3) ** (-n)]]))
    for i in range(-4, 5):
        basis = filtration_basis(c, i)
        assert vp(basis[0, 0], 3) == max(i + n, 0)


def test_filtration_rank_two_diagonal():
    c = FCrystalPoint(3, 2, QMat([[1, 0], [0, Fraction(1, 3)]]))
    for i in range(-3, 4):
        basis = filtration_basis(c, i)
        vals = sorted(vp(x, 3) for x in
                      [basis[r, j] for j in range(2) for r in range(2)]
                      if x != 0)
        assert vals == sorted([max(i, 0), max(i + 1, 0)])


@pytest.mark.parametrize("trial", range(30))
def test_filtration_membership_oracle(rng, trial):
    # Fil^i = preimage of p^i M under tau: check both inclusions elementwise
    p = 3
    c = rand_fcrystal(rng, p, max_rank=3)
    for i in range(-3, 4):
        basis = filtration_basis(c, i)
        image = c.tau_crys @ basis
        for col in range(image.ncols):
            for row in range(image.nrows):
                assert vp(image[row, col], p) >= i  # tau(Fil^i) in p^i M


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_filtration_basis_spans_the_oracle_lattice(rng, p):
    # 50 crystals per prime, 200 in all: B diag(p^max(i - d_j, 0)) and the
    # oracle's V diag(p^max(i - d_j, 0)) span one lattice at every index of
    # the window and two beyond it on each side
    for _ in range(50):
        c = rand_fcrystal(rng, p, max_rank=5)
        o = oracle_snf(c.tau_crys, p)
        a, b = min(o.exponents), max(o.exponents)
        for i in range(a - 2, b + 3):
            got, want = filtration_basis(c, i), oracle_filtration_basis(o, i)
            assert got.shape == want.shape == (c.rank, c.rank)
            assert oracle_lattice_contains(got, want, p)
            assert oracle_lattice_contains(want, got, p)


@pytest.mark.parametrize("trial", range(25))
def test_mod_p_filtration_injectivity(rng, trial):
    # saturation: p M intersect Fil^i = p Fil^{i-1}, equivalently the maps
    # Fil^i / p Fil^{i-1} -> Fil^{i-1} / p Fil^{i-2} are injective; the
    # lattice oracle reads the oracle's V-based filtration
    c = rand_fcrystal(rng, rng.choice([3, 5]))
    o = oracle_snf(c.tau_crys, c.prime)
    a, b = min(o.exponents), max(o.exponents)
    fil = {i: oracle_filtration_basis(o, i) for i in range(a - 1, b + 2)}
    assert filtration_saturation_holds(c) == oracle_saturated(fil, c.prime, range(a, b + 2))
    assert filtration_saturation_holds(c)


def test_saturation_check_refuses_a_basis_that_does_not_span_m(monkeypatch):
    # in the coordinates of a B with det B = p, the exponent lists still
    # agree; the determinant check is what fails
    c = FCrystalPoint(3, 2, QMat([[3, 3], [0, 27]]))
    assert filtration_saturation_holds(c)
    integral_basis = SNF.integral_basis

    def scaled(s, n):
        w, basis = integral_basis(s, n)
        return w, basis @ QMat.diagonal([1, 3])
    monkeypatch.setattr(SNF, "integral_basis", scaled)
    assert not filtration_saturation_holds(c)


def test_saturation_check_takes_one_smith_form_of_tau(monkeypatch):
    # exponents (1, 3): every Fil^i at the five window indices is read off
    # one Smith form of tau
    c = FCrystalPoint(3, 2, QMat([[3, 3], [0, 27]]))
    assert smith_normal_form(c.tau_crys, 3).exponents == (1, 3)
    of_tau = []

    def counting(m, p):
        if m is c.tau_crys:
            of_tau.append(m)
        return smith_normal_form(m, p)

    monkeypatch.setattr(fgauge, "smith_normal_form", counting)
    assert filtration_saturation_holds(c)
    assert len(of_tau) == 1


def test_saturation_fails_for_an_unsaturated_filtration():
    # the doubled filtration p^{2 max(i,0)} M is Nygaardian but not saturated;
    # the lattice oracle distinguishes it, and it passes the single-step
    # filtration p^{max(i,0)} M
    p = 3
    fil = {i: QMat([[Fraction(p) ** (2 * max(i, 0))]]) for i in range(-1, 4)}
    assert not oracle_saturated(fil, p, range(0, 3))
    assert oracle_saturated({i: QMat([[Fraction(p) ** max(i, 0)]]) for i in range(-1, 4)},
                            p, range(0, 3))


# ---------------------------------------------------------------------------
# Hodge--Tate weights
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(-5, 6))
def test_weights_of_rank_one_twists(n):
    # the n-th twist gauge has the single weight -n
    assert hodge_tate_weights(twist_gauge(n, 3)) == {-n: 1}


def test_weights_additive_in_direct_sums():
    g = direct_sum(twist_gauge(1, 3), twist_gauge(-2, 3))
    assert hodge_tate_weights(g) == {-1: 1, 2: 1}


def test_direct_sum_with_torsion_summand():
    # exercises the generator reordering when torsion exponents merge
    g = direct_sum(torsion_gauge(3), twist_gauge(1, 3))
    assert hodge_tate_weights(g) == {-1: 1, 0: 1}
    h0, h1 = syntomic_cohomology(g)
    assert h0 == cyclic(3) and h1 == cyclic(3)  # the free part cancels


def test_direct_sum_with_interleaved_torsion_and_nonscalar_tau():
    # torsion exponents (1, 3) and (2,) merge to (1, 2, 3), so the second
    # summand's torsion generator lands between the first summand's two
    p = 3
    m1 = FGModule(p, 1, (1, 3))
    g1 = constant_gauge(p, m1, (-1, 0), [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                        [[p, 0, 0], [0, p, 0], [0, 0, p]],
                        [[1, 0, 0], [1, 1, 1], [0, p * p, 1]])
    m2 = FGModule(p, 1, (2,))
    g2 = constant_gauge(p, m2, (0, 1), [[p, 0], [0, 1]], [[1, 0], [0, p]],
                        [[1, 0], [1, 1]])
    for first, second in ((g1, g2), (g2, g1)):
        g = direct_sum(first, second)
        assert g.modules[0] == FGModule(p, 2, (1, 2, 3))
        h_sum = syntomic_cohomology(g)
        h_first, h_second = syntomic_cohomology(first), syntomic_cohomology(second)
        assert h_sum == tuple(x.direct_sum(y) for x, y in zip(h_first, h_second))
        want = dict(hodge_tate_weights(first))
        for k, v in hodge_tate_weights(second).items():
            want[k] = want.get(k, 0) + v
        assert hodge_tate_weights(g) == want


def test_weights_of_zero_gauge():
    c = FCrystalPoint(3, 0, QMat.zeros(0, 0))
    assert hodge_tate_weights(gauge_from_fcrystal(c)) == {}


def test_weights_of_diagonal_cases_match_snf_exponents():
    for twists in [(0, 1), (-2, 0, 3), (1, 1)]:
        p = 3
        diag = QMat.diagonal([Fraction(p) ** (-n) for n in twists])
        c = FCrystalPoint(p, len(twists), diag)
        expected = {}
        for n in twists:
            expected[-n] = expected.get(-n, 0) + 1
        assert hodge_tate_weights(gauge_from_fcrystal(c)) == expected
        assert oracle_snf_weights(c) == expected


@pytest.mark.parametrize("trial", range(25))
def test_weights_match_snf_multiset_randomized(rng, trial):
    c = rand_fcrystal(rng, rng.choice([3, 5]))
    g = gauge_from_fcrystal(c)
    assert hodge_tate_weights(g) == oracle_snf_weights(c)


def four_block_weights(g):
    """The former weight formula, kept as an oracle: unit invariant factors

    of the Smith form of [p I | u_i | t_{i+1} | relations] at every level.
    """
    a, b = g.window
    out = {}
    for i in range(a, b + 1):
        m = g.module_at(i)
        stacked = (QMat.scalar(m.ngens, g.prime).hstack(oracle_u_at(g, i).matrix)
                   .hstack(oracle_t_at(g, i + 1).matrix).hstack(relation_matrix(m)))
        units = sum(1 for e in smith_normal_form(stacked, g.prime).exponents if e == 0)
        if m.ngens - units:
            out[i] = m.ngens - units
    return out


def gauge_corpus(rng) -> list:
    """Every fixture gauge, torsion and constant gauges, lawless ones and
    random crystals, as raw fields (:func:`conftest.raw_gauge`) where the
    data may be lawless."""
    fixtures = pathlib.Path(__file__).parent / "fixtures"
    gauges = []
    for job in sorted(fixtures.glob("*/*.json")):
        doc = json.loads(job.read_text(encoding="utf-8"))
        if doc.get("kind") == "fgauge":
            try:
                # the CLI's own parser, with the law check left to the test
                with mock.patch.object(cli, "FpGauge", raw_gauge):
                    gauges.append(build_fgauge(doc["prime"], doc["payload"]))
            except ValueError:  # the malformed fixtures that do not build
                pass
    p = 3
    m = FGModule(p, 1)
    one = ModuleMap(m, m, QMat([[1]]))
    # ut = tu = 1; tau = p; ut = p on Z but tu != p on Z^2
    m2 = FGModule(p, 2)
    gauges += [raw_gauge(p, (-1, 0), (m, m), (one,), (one,), one),
               raw_gauge(p, (0, 0), (m,), (), (), ModuleMap(m, m, QMat([[p]]))),
               raw_gauge(p, (0, 1), (m2, m), (ModuleMap(m, m2, QMat([[1], [0]])),),
                         (ModuleMap(m2, m, QMat([[p, 0]])),),
                         ModuleMap(m, m2, QMat([[1], [0]]))),
               torsion_gauge(p)]
    g1 = constant_gauge(p, FGModule(p, 1, (1, 3)), (-1, 0),
                        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                        [[p, 0, 0], [0, p, 0], [0, 0, p]],
                        [[1, 0, 0], [1, 1, 1], [0, p * p, 1]])
    g2 = constant_gauge(p, FGModule(p, 1, (2,)), (0, 1), [[p, 0], [0, 1]],
                        [[1, 0], [0, p]], [[1, 0], [1, 1]])
    # Z/p, Z/p^2, Z/p: adjacent modules differ inside the window
    c1, c2 = cyclic(p), cyclic(p, 2)
    bump = FpGauge(p, (0, 2), (c1, c2, c1),
                   (ModuleMap(c2, c1, QMat([[1]])), ModuleMap(c1, c2, QMat([[p]]))),
                   (ModuleMap(c1, c2, QMat([[p]])), ModuleMap(c2, c1, QMat([[1]]))),
                   ModuleMap(c1, c1, QMat([[1]])))
    gauges += [g1, g2, direct_sum(g1, g2), bump, direct_sum(bump, twist_gauge(-1, p)),
               direct_sum(torsion_gauge(p), twist_gauge(1, p))]
    # the integer law check's boundaries: ut - p of valuation exactly f - 1
    # (lawless) and exactly f (lawful) in a torsion row, on and off the
    # diagonal; a free row off by p^40; p-unit denominators in t and u
    mixed = FGModule(p, 1, (3,))
    eye = [[1, 0], [0, 1]]
    for off in (p ** 2, p ** 3):
        gauges += [constant_gauge(p, mixed, (0, 1), eye, [[p, 0], [0, p + off]], eye,
                                  make=raw_gauge),
                   constant_gauge(p, mixed, (-1, 0), eye, [[p, 0], [off, p]], eye,
                                  make=raw_gauge)]
    half, unit = Fraction(1, 2), Fraction(1, 1 + p)
    gauges += [constant_gauge(p, m, (0, 1), [[1]], [[p + p ** 40]], [[1]], make=raw_gauge),
               constant_gauge(p, m, (-1, 1), [[half]], [[2 * p]], [[1]]),
               constant_gauge(p, m, (0, 2), [[unit]], [[p * (1 + p)]], [[half]]),
               constant_gauge(p, cyclic(p, 2), (0, 1), [[half]],
                              [[2 * p + Fraction(p ** 2, 1 + p)]], [[unit]]),
               constant_gauge(p, cyclic(p, 2), (0, 1), [[unit]],
                              [[p * (1 + p) + Fraction(p, 2)]], [[1]], make=raw_gauge)]
    # 0-generator modules: everywhere, and at one level of a torsion gauge,
    # where tu = 0 is p on Z/p but tau: 0 -> Z/p is not onto
    zero = FGModule(p, 0)
    gauges += [constant_gauge(p, zero, (-1, 0), [], [], []),
               raw_gauge(p, (0, 1), (c1, zero),
                       (ModuleMap(zero, c1, QMat.zeros(1, 0)),),
                       (ModuleMap(c1, zero, QMat.zeros(0, 1)),),
                       ModuleMap(zero, c1, QMat.zeros(1, 0)))]
    gauges += [gauge_from_fcrystal(rand_fcrystal(rng, rng.choice([2, 3, 5])))
               for _ in range(20)]
    return gauges


def gauge_of(g) -> FpGauge:
    """The constructor on the fields of ``g``, a gauge or :func:`raw_gauge` data."""
    return FpGauge(g.prime, g.window, g.modules, g.t, g.u, g.tau)


def test_weights_match_the_four_block_formula(rng):
    for g in gauge_corpus(rng):
        if not old_validate(g):
            g = gauge_of(g)
            assert hodge_tate_weights(g) == four_block_weights(g)


def test_realization_is_the_former_inverse_formula(rng):
    # p^b tau (t-composite)^{-1} on the free blocks, over Fractions, on
    # every lawful gauge of the corpus: torsion, p-unit denominators, sums
    for raw in gauge_corpus(rng):
        if old_validate(raw):
            continue
        g = gauge_of(raw)
        free = list(range(g.modules[0].free_rank))
        t = old_t_composite(g, g.b, g.a).matrix.take_rows(free).take_cols(free)
        tau = g.tau.matrix.take_rows(free).take_cols(free)
        want = tau.scale(Fraction(g.prime) ** g.b) @ t.inverse() if free else tau
        assert rational_realization(g).frobenius == want


def _count_calls(monkeypatch, fn, calls):
    """Wrap ``fn`` at every gaugeworks module that binds it; calls go to ``calls``."""
    def wrapper(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    for name, mod in list(sys.modules.items()):
        if name == "gaugeworks" or name.startswith("gaugeworks."):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, wrapper)


def test_weights_and_cokernels_read_exponents_only(monkeypatch):
    # hodge_tate_weights and cokernel read no transform, so they take Smith
    # exponents only and build neither V nor a kernel basis
    job = pathlib.Path(__file__).parent / "fixtures" / "jobs" / "gauge_torsion.json"
    doc = json.loads(job.read_text(encoding="utf-8"))
    g = build_fgauge(doc["prime"], doc["payload"])
    calls = []
    for fn in (smith_normal_form, kernel_over_zp):
        _count_calls(monkeypatch, fn, calls)
    weights = hodge_tate_weights(g)
    cokernels = [cokernel(d) for d in g.t + g.u + (g.tau,)]
    assert calls == []
    assert weights and len(cokernels) == 2 * len(g.t) + 1
    gauge_from_fcrystal(FCrystalPoint(3, 1, QMat([[3]])))  # the counter does count
    assert calls == ["smith_normal_form"]


def test_homology_out_of_a_torsion_source_runs_two_exponent_sweeps(monkeypatch):
    # H1 from the exponents of [N | R_T] and H0 from those of [R_S ; -N']:
    # two eliminations, no V and no kernel basis
    job = pathlib.Path(__file__).parent / "fixtures" / "jobs" / "gauge_torsion.json"
    doc = json.loads(job.read_text(encoding="utf-8"))
    g = build_fgauge(doc["prime"], doc["payload"])
    maps = [d for d in g.t + g.u + (g.tau,) if d.source.torsion]
    calls = []
    for fn in (_eliminate, smith_normal_form, kernel_over_zp):
        _count_calls(monkeypatch, fn, calls)
    for d in maps:
        homology_two_term(d)
        assert calls == ["_eliminate", "_eliminate"]
        calls.clear()
    assert maps
    syntomic_cohomology(g)
    assert calls == ["_eliminate", "_eliminate"]


@pytest.mark.parametrize("name", ["fcrystal", "gauge_torsion"])
def test_a_gauge_job_checks_its_laws_once(monkeypatch, name):
    # the constructor checks the laws; the validate output only records that
    job = pathlib.Path(__file__).parent / "fixtures" / "jobs" / f"{name}.json"
    doc = json.loads(job.read_text(encoding="utf-8"))
    calls = []
    _count_calls(monkeypatch, validate, calls)
    _, report = run_job(doc, None)
    assert report["results"]["valid"] is True
    assert calls == ["validate"]


def test_direct_sum_checks_the_gauge_laws_once(monkeypatch):
    # the windows are aligned without two intermediate gauges, so the sum's
    # own constructor is its only law check
    g1, g2 = twist_gauge(2, 3), twist_gauge(-2, 3)
    calls = []
    _count_calls(monkeypatch, validate, calls)
    g = direct_sum(g1, g2)
    assert calls == ["validate"]
    assert g.window == (-2, 2) and hodge_tate_weights(g) == {-2: 1, 2: 1}


# ---------------------------------------------------------------------------
# the window readers against the per-index readers they replaced
# ---------------------------------------------------------------------------


def old_validate(g) -> tuple[str, ...]:
    """The former list of every violated gauge law, reading t_i and u_i one
    index at a time; ``g`` needs only the fields of an :class:`FpGauge`."""
    a, b = g.window
    bad = []
    for i in range(a + 1, b + 1):
        t, u = oracle_t_at(g, i), oracle_u_at(g, i)
        if not equals_as_map(compose(u, t), scalar(g.modules[i - a], g.prime)):
            bad.append(f"ut = tu = p failed at index {i} (ut != p)")
        if not equals_as_map(compose(t, u), scalar(g.modules[i - 1 - a], g.prime)):
            bad.append(f"ut = tu = p failed at index {i} (tu != p)")
    if not g.tau.is_isomorphism():
        bad.append("tau must be an isomorphism M^b -> M^a")
    return tuple(bad)


def old_extend_window(g: FpGauge, a_new: int, b_new: int) -> FpGauge:
    """The former window enlargement, reading the new outer maps per index."""
    idx = range(a_new + 1, b_new + 1)
    return FpGauge(g.prime, (a_new, b_new),
                   tuple(g.module_at(i) for i in range(a_new, b_new + 1)),
                   tuple(oracle_t_at(g, i) for i in idx),
                   tuple(oracle_u_at(g, i) for i in idx), g.tau)


def test_window_readers_match_the_per_index_readers(rng):
    # the constructor raises the first law the former list names, and builds
    # exactly when that list is empty
    gauges = gauge_corpus(rng)
    assert len(gauges) > 25 and sum(1 for g in gauges if old_validate(g)) >= 9
    for raw in gauges:
        want = old_validate(raw)
        if want:
            with pytest.raises(LawViolation) as err:
                gauge_of(raw)
            assert str(err.value) == want[0]
            continue
        g = gauge_of(raw)
        for da, db in ((0, 0), (2, 0), (0, 3), (1, 2)):
            a_new, b_new = g.a - da, g.b + db
            assert extend_window(g, a_new, b_new) == old_extend_window(g, a_new, b_new)
