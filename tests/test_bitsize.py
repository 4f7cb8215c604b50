"""Cost grows with the bit size of the input, not with its numeric value.

Each probe runs at full size under a generous alarm, a guard against hangs
and not a timing.  The composites whose cost once grew with the distance of
a window from 0 are compared with the per-index loops they replaced, which
are kept here as oracles.
"""

from fractions import Fraction

import pytest

from conftest import (HangGuard, compose, constant_gauge, oracle_t_at, oracle_u_at,
                      rand_fcrystal, rand_filtered_phi, rand_glued, scalar)
from gaugeworks.cli import run_job
from gaugeworks.errors import LawViolation
from gaugeworks.exactlinalg import (FGModule, ModuleMap, QMat,
                                    smith_normal_form, zero_module)
from gaugeworks.exactlinalg import modules
from gaugeworks.fgauge import (FpGauge, direct_sum, extend_window,
                               gauge_from_fcrystal, hodge_tate_weights,
                               syntomic_cohomology, twist_gauge)
from gaugeworks.filphi import FilteredSpace
from gaugeworks.redlocus import dual_reduced, reduced_syntomic_cohomology, tensor_reduced

BIG = 10 ** 6


def results(kind: str, payload: dict, outputs=None, p: int = 3) -> dict:
    doc = {"format": 1, "prime": p, "kind": kind, "payload": payload}
    if outputs is not None:
        doc["outputs"] = outputs
    with HangGuard(60):
        return run_job(doc, None)[1]["results"]


# ---------------------------------------------------------------------------
# probes at full size
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [BIG, -BIG])
@pytest.mark.parametrize("module", [{"free": 1}, {"free": 1, "torsion": [2]},
                                    {"free": 0, "torsion": [1, 3]}],
                         ids=["free", "mixed", "torsion"])
def test_fgauge_job_with_a_far_window(n, module):
    # tau = 1, so the differential is 1 - p^|n| (a unit) on every generator,
    # and every generator has weight n
    k = module["free"] + len(module.get("torsion", ()))
    tau = [["1" if i == j else "0" for j in range(k)] for i in range(k)]
    payload = {"window": [n, n], "modules": [module], "t": [], "u": [], "tau": tau}
    zero = {"free": 0, "torsion": []}
    assert results("fgauge", payload, ["cohomology", "weights"]) == \
        {"h0": zero, "h1": zero, "weights": {str(n): k}}


@pytest.mark.parametrize("n", [10 ** 5, -10 ** 5])
def test_twist_gauge_far_from_zero(n):
    with HangGuard(60):
        g = twist_gauge(n, 3)
        assert g.window == (-n, -n)
        assert hodge_tate_weights(g) == {-n: 1}
        assert syntomic_cohomology(g) == (zero_module(3), zero_module(3))


@pytest.mark.parametrize("n", [10 ** 5, -10 ** 5])
def test_tate_far_from_zero(n):
    assert results("filphi", {"tate": n}, ["cohomology", "newton", "hodge"]) == \
        {"h0": 0, "h1": int(n > 0), "newton": -n, "hodge": -n}


@pytest.mark.parametrize("n", [60, 500])
def test_tate_with_default_outputs(n):
    assert results("filphi", {"tate": n}) == \
        {"h0": 0, "h1": 1, "newton": -n, "hodge": -n, "admissible": "true"}


@pytest.mark.parametrize("n", [1, -1])
def test_bk_twist_at_a_large_prime(n):
    # p divides neither twist, so the values are those at p = 7
    assert results("reduced", {"bk": n}, p=10 ** 7 + 19) == \
        results("reduced", {"bk": n}, p=7)


def test_tensor_and_dual_of_glued_data_at_a_large_prime(rng):
    # rank-2 sums of twists on windows of width p, so the tensor's window has
    # width 2p - 1; its levels are summed over the two jumps of the first
    # factor and solved once per run of equal flags
    p = 1009
    with HangGuard(60):
        g1 = rand_glued(rng, p, twists=[0, p - 1], perturb=False)
        g2 = rand_glued(rng, p, twists=[1, p - 2], perturb=False)
        # twists 1, p - 2, p and 2p - 3; then 0 and 1 - p
        assert reduced_syntomic_cohomology(tensor_reduced(g1, g2)).h == (0, 2, 0)
        assert reduced_syntomic_cohomology(dual_reduced(g1)).h == (1, 1, 0)


def test_higgs_check_with_many_directions_and_no_fields():
    # only directions with a field are paired in the commutator check
    assert results("higgs", {"directions": 4000, "pieces": {"0": 1}}, ["check"]) == \
        {"valid": True, "violations": []}


def test_twist_cohomology_composes_as_often_near_and_far(monkeypatch):
    # counted, not timed: a twist n != 0 has its one-level window at -n, off
    # 0, so its cohomology vanishes without an integer product near or far
    factors = []
    product = modules._int_product

    def counting(start, maps, c=1):
        factors.append(len(maps))
        return product(start, maps, c)

    monkeypatch.setattr(modules, "_int_product", counting)
    for n in (3, -3, 10 ** 5, -10 ** 5):
        assert syntomic_cohomology(twist_gauge(n, 3)) == (zero_module(3), zero_module(3))
    assert factors == []
    syntomic_cohomology(twist_gauge(0, 3))  # a window at 0 composes: the counter counts
    assert factors


@pytest.mark.parametrize("n", [10 ** 4299, -10 ** 4299])
def test_fgauge_job_with_a_window_at_the_digit_limit(n):
    # the window index has the 4300 digits a JSON integer may have
    payload = {"window": [n, n], "modules": [{"free": 1}], "t": [], "u": [],
               "tau": [["1"]]}
    zero = {"free": 0, "torsion": []}
    assert results("fgauge", payload, ["validate", "weights", "cohomology"]) == \
        {"valid": True, "violations": [], "h0": zero, "h1": zero, "weights": {str(n): 1}}


def test_torsion_law_fails_without_building_the_power_of_p():
    # an entry of 1 bit cannot have valuation 10^60 - 1: the law fails
    # without building p^(10^60 - 1)
    with HangGuard(60), pytest.raises(LawViolation) as err:
        ModuleMap(FGModule(3, 0, (1,)), FGModule(3, 0, (10 ** 60,)), QMat([[1]]))
    assert str(err.value) == ("matrix must respect torsion orders "
                              f"[entry (0,0) = 1 needs valuation >= {10 ** 60 - 1}]")


def test_gauge_laws_and_cohomology_at_a_large_torsion_exponent():
    # exponent 5000 and 2000-digit p-unit denominators: the law check builds
    # p^f once per row and divides once per entry
    p, e = 3, 5000
    q, r = 10 ** 2000 + 1, 10 ** 2000 + 3
    assert q % p and r % p
    m = FGModule(p, 1, (e,))
    t = [[Fraction(1, q), 0], [Fraction(p ** (e - 1), r), Fraction(1, q)]]
    for off, ok in ((p ** e, True), (p ** (e - 1), False)):
        # u t = p + off / q^2 in the torsion row's diagonal entry
        u = [[p * q, 0], [-p * q * q * t[1][0], p * q + Fraction(off, q)]]
        with HangGuard(60):
            if not ok:
                with pytest.raises(LawViolation, match=r"failed at index 0 \(ut != p\)"):
                    constant_gauge(p, m, (-1, 0), t, u, t)
                continue
            g = constant_gauge(p, m, (-1, 0), t, u, t)  # lawful: it constructs
            # the differential t - tau is 0
            assert syntomic_cohomology(g) == (m, m)


# ---------------------------------------------------------------------------
# the composites against the per-index loops they replaced
# ---------------------------------------------------------------------------


def old_t_composite(g: FpGauge, top: int, bottom: int) -> ModuleMap:
    acc = scalar(g.module_at(bottom), 1)
    for i in range(bottom + 1, top + 1):
        acc = compose(acc, oracle_t_at(g, i))
    return acc


def old_u_composite(g: FpGauge, bottom: int, top: int) -> ModuleMap:
    acc = scalar(g.module_at(bottom), 1)
    for i in range(bottom + 1, top + 1):
        acc = compose(oracle_u_at(g, i), acc)
    return acc


def old_iota(fs: FilteredSpace, i: int) -> QMat:
    acc = QMat.identity(fs.dim_at(i))
    for j in range(i - 1, fs.lo - 1, -1):
        acc = fs.transition(j) @ acc
    return acc


def torsion_gauge(p: int, a: int) -> FpGauge:
    """Z/p on the window [a, a + 1] with t = 1, u = 0 and tau = 1."""
    m = FGModule(p, 0, (1,))
    return FpGauge(p, (a, a + 1), (m, m), (ModuleMap(m, m, QMat([[1]])),),
                   (ModuleMap(m, m, QMat([[0]])),), ModuleMap(m, m, QMat([[1]])))


def random_gauges(rng) -> list[FpGauge]:
    """Windows across 0, above it and below it, with and without torsion."""
    gauges = []
    for lo, hi in [(-3, 3), (1, 4), (-4, -1)]:
        for _ in range(3):
            p = rng.choice([2, 3, 5])
            gauges.append(gauge_from_fcrystal(rand_fcrystal(rng, p, exp_lo=lo, exp_hi=hi)))
    for a in (-5, -1, 0, 3):
        gauges.append(torsion_gauge(3, a))
        gauges.append(direct_sum(torsion_gauge(3, a), twist_gauge(rng.randint(-4, 4), 3)))
    # p-unit denominators, and one-level windows (every composite is the
    # bare scalar) on a free, a torsion and a 0-generator module
    p, half, unit = 3, Fraction(1, 2), Fraction(1, 4)
    free, cyc = FGModule(p, 1), FGModule(p, 0, (2,))
    gauges += [constant_gauge(p, free, (-1, 1), [[half]], [[2 * p]], [[1]]),
               constant_gauge(p, free, (0, 2), [[unit]], [[4 * p]], [[half]]),
               constant_gauge(p, cyc, (-2, 0), [[half]], [[2 * p + Fraction(p ** 2, 4)]],
                              [[unit]]),
               constant_gauge(p, FGModule(p, 1, (1, 3)), (1, 2),
                              [[half, 0, 0], [0, 1, 0], [0, p * p * half, unit]],
                              [[2 * p, 0, 0], [0, p, 0], [0, -2 * p ** 3, 4 * p]],
                              [[1, 0, 0], [half, 1, 0], [0, 0, 1]])]
    for a in (-2, 2):
        gauges += [constant_gauge(p, free, (a, a), [[1]], [[p]], [[half]]),
                   constant_gauge(p, cyc, (a, a), [[1]], [[p]], [[unit]]),
                   constant_gauge(p, FGModule(p, 0), (a, a), [], [], [])]
    return gauges


def test_composites_equal_the_per_index_loops(rng):
    for g in random_gauges(rng):
        for bottom in range(g.a - 3, g.b + 4):
            for top in range(bottom, g.b + 4):
                assert g.t_composite(top, bottom) == old_t_composite(g, top, bottom)
                assert g.u_composite(bottom, top) == old_u_composite(g, bottom, top)


def test_iota_equals_the_per_index_loop(rng):
    spaces = [rand_filtered_phi(rng, 3).filtration for _ in range(40)]
    for fs in spaces:
        for i in range(fs.lo - 3, fs.hi + 4):
            assert fs.iota(i) == old_iota(fs, i)


def widened_gauge_from_fcrystal(c):
    """The former gauge of a crystal, kept as an oracle: its window is the
    Smith exponent range widened to contain 0."""
    p = c.prime
    s = smith_normal_form(c.tau_crys, p)
    exps = s.exponents
    a, b = min(min(exps), 0), max(max(exps), 0)
    free = FGModule(p, c.rank)
    modules = tuple(free for _ in range(a, b + 1))
    ts, us = [], []
    for i in range(a + 1, b + 1):
        tdiag = [Fraction(p) ** (max(i - d, 0) - max(i - 1 - d, 0)) for d in exps]
        udiag = [Fraction(p) / x for x in tdiag]
        ts.append(ModuleMap(free, free, QMat.diagonal(tdiag)))
        us.append(ModuleMap(free, free, QMat.diagonal(udiag)))
    unscale = QMat.diagonal([Fraction(p) ** -d for d in exps])
    tau = ModuleMap(free, free, s.v.inverse() @ c.tau_crys @ s.v @ unscale)
    return FpGauge(p, (a, b), modules, tuple(ts), tuple(us), tau)


def test_crystal_gauge_extends_to_the_former_widened_gauge(rng):
    for lo, hi in [(-3, 3), (1, 4), (-4, -1), (0, 0)]:
        for _ in range(10):
            c = rand_fcrystal(rng, rng.choice([2, 3, 5]), exp_lo=lo, exp_hi=hi)
            g = gauge_from_fcrystal(c)
            exps = smith_normal_form(c.tau_crys, c.prime).exponents
            assert g.window == (min(exps), max(exps))
            assert extend_window(g, min(g.a, 0), max(g.b, 0)) == \
                widened_gauge_from_fcrystal(c)
