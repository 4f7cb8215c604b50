"""Cost grows with the bit size of the input, not with its numeric value.

Each probe runs at full size under a generous alarm, a guard against hangs
and not a timing.  The composites whose cost once grew with the distance of
a window from 0 are compared with the per-index loops they replaced, which
are kept here as oracles.  The probes of a QMat's one denominator run where
that form costs most: every entry with a prime denominator of its own.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb, isqrt

import pytest

from conftest import (HangGuard, compose, conjugated_twist_sum, constant_gauge,
                      exact_v_inv, is_p_unimodular, job_strings, level_transport,
                      oracle_q_det, oracle_snf, oracle_t_at, oracle_u_at, rand_fcrystal,
                      rand_filtered_phi, rand_glued, rand_unimodular, scalar,
                      twist_sum_square)
from gaugeworks.cli import main, run_job
from gaugeworks.errors import LawViolation
from gaugeworks.exactlinalg import (FGModule, ModuleMap, QMat, kernel_over_zp,
                                    smith_normal_form, vp, zero_module)
from gaugeworks.exactlinalg import modules
from gaugeworks.fgauge import (FCrystalPoint, FpGauge, direct_sum,
                               extend_window, gauge_from_fcrystal, hodge_tate_weights,
                               rational_realization, syntomic_cohomology, twist_gauge)
from gaugeworks import higgs
from gaugeworks.filphi import FilteredSpace, rhom_phi
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


def test_fgauge_job_at_a_torsion_exponent_of_10_to_the_60(tmp_path):
    # tau's law and the weights are read mod p, where the relations p^e
    # vanish, so p^(10^60) is never built
    m = {"free": 0, "torsion": [10 ** 60]}
    doc = {"format": 1, "prime": 3, "kind": "fgauge",
           "payload": {"window": [-1, 0], "modules": [m, m], "t": [[["1"]]],
                       "u": [[["3"]]], "tau": [["1"]]},
           "outputs": ["validate", "weights"]}
    path = tmp_path / "torsion.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with HangGuard(60), redirect_stdout(out):
        code = main(["compute", str(path)])
    assert code == 0
    assert out.getvalue().splitlines()[-2:] == ["valid: true", "hodge-tate weights: 0:1"]


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


@pytest.mark.parametrize("d, weight", [(24, 0), (24, 12), (1600, 0), (1600, 800)])
def test_higgs_job_with_many_directions_and_no_field(monkeypatch, d, weight):
    # every differential has a zero piece at one end, so none is built and
    # h^k = C(d, k) dim V_{i-k}; building one would list C(d, k) subsets,
    # which at d = 1600 fills memory before the alarm, so it fails at once
    def refused(*args):
        raise AssertionError("built a Koszul differential out of or into a zero piece")

    monkeypatch.setattr(higgs, "koszul_differential", refused)
    got = results("higgs", {"directions": d, "pieces": {"0": 2}, "weights": [weight]},
                  ["cohomology"])
    assert got == {"cohomology": {str(weight): [2 * comb(d, k) if k == weight else 0
                                                for k in range(d + 1)]}}


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
    Smith exponent range widened to contain 0, and its basis the exact V of
    the Fraction Smith form."""
    p = c.prime
    o = oracle_snf(c.tau_crys, p)
    exps = o.exponents
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
    tau = ModuleMap(free, free, o.v.inverse() @ c.tau_crys @ o.v @ unscale)
    return FpGauge(p, (a, b), modules, tuple(ts), tuple(us), tau)


def test_crystal_gauge_extends_to_the_former_widened_gauge(rng):
    # the widened gauge is the former one up to the gauge isomorphism
    # M_i = D_i^{-1} (V^{-1} B) D_i: p-unimodular at every level, and
    # commuting with every t, every u and tau
    for lo, hi in [(-3, 3), (1, 4), (-4, -1), (0, 0)]:
        for _ in range(10):
            c = rand_fcrystal(rng, rng.choice([2, 3, 5]), exp_lo=lo, exp_hi=hi)
            p, g = c.prime, gauge_from_fcrystal(c)
            s = smith_normal_form(c.tau_crys, p)
            exps = s.exponents
            assert g.window == (min(exps), max(exps))
            wide, old = extend_window(g, min(g.a, 0), max(g.b, 0)), widened_gauge_from_fcrystal(c)
            assert (wide.window, wide.modules) == (old.window, old.modules)
            m = exact_v_inv(s) @ s.integral_basis(g.b - g.a + 1)[1]
            iso = [level_transport(m, exps, p, i) for i in range(wide.a, wide.b + 1)]
            assert all(is_p_unimodular(x, p) for x in iso)
            for k, (t, u) in enumerate(zip(wide.t, wide.u)):
                assert old.t[k].matrix @ iso[k + 1] == iso[k] @ t.matrix
                assert old.u[k].matrix @ iso[k] == iso[k + 1] @ u.matrix
            assert old.tau.matrix @ iso[-1] == iso[0] @ wide.tau.matrix


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("kind", ["conjugated", "general", "perturbed"])
def test_crystal_gauge_agrees_with_the_exact_v_gauge(rng, kind, p):
    # 17 crystals of ranks 1-12 per case, 204 in all: the gauge in the basis
    # B = W^{-1}, W = V^{-1} mod p^N, against the gauge in the exact basis V
    for _ in range(17):
        c = rand_fcrystal(rng, p, max_rank=12, kind=kind)
        g, old = gauge_from_fcrystal(c), widened_gauge_from_fcrystal(c)
        s, o = smith_normal_form(c.tau_crys, p), oracle_snf(c.tau_crys, p)
        assert g.window == (min(s.exponents), max(s.exponents))
        assert old.window == (min(g.a, 0), max(g.b, 0))
        assert syntomic_cohomology(g) == syntomic_cohomology(old)
        assert hodge_tate_weights(g) == hodge_tate_weights(old)
        phi, phi_old = rational_realization(g), rational_realization(old)
        assert rhom_phi(phi).dims == rhom_phi(phi_old).dims
        n = g.b - g.a + 1
        w, basis = s.integral_basis(n)
        assert w.det() in (1, -1)
        assert basis @ w == QMat.identity(c.rank)
        assert all(vp(x, p) >= n for r in (w @ o.v - QMat.identity(c.rank)).rows for x in r)
        # the two realizations are conjugate by V^{-1} B
        m = exact_v_inv(s) @ basis
        assert phi_old.frobenius @ m == m @ phi.frobenius


def test_crystal_gauge_builds_no_exact_v(monkeypatch):
    # the gauge reads V^{-1} mod p^N only: no inverse and no solve is built
    def refuse(*args):
        raise AssertionError("the F-crystal path built an exact V or an inverse")
    c = FCrystalPoint(5, 3, QMat([[2, 5, 0], [1, 0, "1/25"], [0, 3, 5]]))
    s = smith_normal_form(c.tau_crys, 5)
    assert s.exponents == (-2, 0, 0) and exact_v_inv(s) != QMat.identity(3)
    assert not hasattr(s, "v")
    monkeypatch.setattr(QMat, "inverse", refuse)
    monkeypatch.setattr(QMat, "solve", refuse)
    assert gauge_from_fcrystal(c).window == (-2, 0)


def test_kernel_over_zp_of_a_32_by_64_matrix(rng):
    # entries of up to 64 bits with p in numerators and denominators: one
    # solve against the 32 pivot columns, and a basis that is the identity
    # on the labels that never pivoted, so every p-integral kernel vector is
    # the combination of its own entries there
    p = 5
    m = QMat([[Fraction(rng.randint(-2 ** 64, 2 ** 64) * p ** rng.randint(0, 2),
                        rng.choice([1, 2, 3, 4, 6]) * p ** rng.randint(0, 2))
               for _ in range(64)] for _ in range(32)])
    with HangGuard(60):
        k = kernel_over_zp(m, p)
        s = smith_normal_form(m, p)
    assert s.rank == 32 and k.shape == (64, 32)
    assert (m @ k).is_zero()
    assert k.take_rows(list(s.order[32:])) == QMat.identity(32)
    assert all(vp(x, p) >= 0 for r in k.rows for x in r)


# ---------------------------------------------------------------------------
# one denominator per QMat
# ---------------------------------------------------------------------------


def primes_above(start: int, k: int) -> list[int]:
    """The k smallest primes above ``start`` (at most about 10^6), by trial division."""
    small = [q for q in range(2, 1100) if all(q % d for d in range(2, isqrt(q) + 1))]
    out, x = [], start
    while len(out) < k:
        x += 1
        if all(x % q for q in small if q * q <= x):
            out.append(x)
    return out


def distinct_denominators(rng, n: int) -> tuple[QMat, QMat]:
    """Two n x n matrices whose 2n^2 entries have distinct prime denominators near 10^6."""
    ps = primes_above(BIG, 2 * n * n)

    def mat(first):
        return QMat([[Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), ps[first + i * n + j])
                      for j in range(n)] for i in range(n)])
    return mat(0), mat(n * n)


@pytest.mark.parametrize("n", [16, 32])
def test_one_denominator_with_a_prime_per_entry(rng, n):
    # each numerator entry carries the n^2 - 1 primes of the other entries,
    # so @ multiplies integers about n times longer than per-row clearing did
    a, b = distinct_denominators(rng, n)
    with HangGuard({16: 60, 32: 600}[n]):
        product = a @ b
        # in entry (i, j) the n terms have coprime denominators, so all stay
        assert product.den == a.den * b.den
        assert a.rank() == b.rank() == n
        assert a.det() != 0
        assert product.rank() == n


@pytest.mark.parametrize("n", [48, 64])
def test_newton_of_a_conjugated_twist_sum_at_the_north_star_sizes(rng, monkeypatch, n):
    frob, _, twists = conjugated_twist_sum(rng, 5, n)
    dets = []
    det = QMat.det
    monkeypatch.setattr(QMat, "det", lambda m: dets.append(m) or det(m))
    payload = {"dim": n, "frobenius": job_strings(frob.rows),
               "filtration": {"window": [0, 0], "dims": [n]}}
    with HangGuard(60):
        assert results("filphi", payload, ["newton"], p=5) == {"newton": -sum(twists)}
    assert dets == []  # every exponent is below k: no exact determinant


@pytest.mark.parametrize("honest", [True, False], ids=["honest", "junk"])
@pytest.mark.parametrize("n", [48, 64])
def test_square_of_a_conjugated_twist_sum_at_the_north_star_sizes(rng, tmp_path, n, honest):
    payload, want = twist_sum_square(rng, 5, n, honest)
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"format": 1, "prime": 5, "kind": "square", "payload": payload}),
                    encoding="utf-8")
    out = io.StringIO()
    with HangGuard(60), redirect_stdout(out):
        code = main(["compute", str(path)])
    assert code == 0
    assert out.getvalue().splitlines()[1:] == [
        "kind: square", "prime: 5",
        *(f"corner {k} h0 h1: {h0} {h1}" for k, (h0, h1) in sorted(want["corners"].items())),
        "cartesian residual: 0 0 0 defect 0",
        f"twisted fibre h0 h1: {want['fm_h0']} {want['fm_h1']}"]


@pytest.mark.parametrize("p, n", [pytest.param(5, 32, id="32"), pytest.param(5, 48, id="48"),
                                  pytest.param(5, 64, id="64"),
                                  pytest.param(2, 64, id="64-at-p-2")])
def test_fcrystal_job_at_the_north_star_sizes(rng, tmp_path, p, n):
    # tau = U diag(p^e) U^-1 splits into twists: syntomic H0 = H1 = free of
    # rank #{e = 0}, and e has weight #{e}; at p = 2 a least absolute
    # residue of W may be p^n / 2 itself
    exps = [i % 7 - 3 for i in range(n)]
    rng.shuffle(exps)
    # two draws of 2n shears each fill U about as densely as the bench's crystals
    u = rand_unimodular(rng, p, n) @ rand_unimodular(rng, p, n)
    tau = u @ QMat.diagonal([Fraction(p) ** e for e in exps]) @ u.inverse()
    path = tmp_path / "fcrystal.json"
    path.write_text(json.dumps({"format": 1, "prime": p, "kind": "fgauge", "payload": {
        "fcrystal": {"rank": n, "tau": job_strings(tau.rows)}}}), encoding="utf-8")
    out = io.StringIO()
    with HangGuard(20), redirect_stdout(out):
        code = main(["compute", str(path)])
    assert code == 0
    free = f"Z({p})^{exps.count(0)}"
    weights = ", ".join(f"{e}:{exps.count(e)}" for e in sorted(set(exps)))
    assert out.getvalue().splitlines()[1:] == [
        "kind: fgauge", f"prime: {p}", "valid: true", f"syntomic h0: {free}",
        f"syntomic h1: {free}", f"hodge-tate weights: {weights}",
        f"rational realization dim: {n}"]


def test_qmat_products_sweeps_and_sums_build_no_fraction(rng, monkeypatch):
    from gaugeworks.exactlinalg import qmat
    a, b = distinct_denominators(rng, 5)

    def refuse(num, den):
        raise AssertionError("a QMat built its Fraction rows")
    monkeypatch.setattr(qmat, "_fraction_rows", refuse)
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(
        lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw)))
    rank = (a @ b).rank()
    diff, wide = a - b, a.hstack(b)
    assert built == []
    det = a.det()
    assert len(built) == 1  # the determinant itself
    monkeypatch.undo()
    assert rank == 5 and det == oracle_q_det(a.rows)
    assert diff.rows == tuple(tuple(x - y for x, y in zip(r1, r2))
                              for r1, r2 in zip(a.rows, b.rows))
    assert wide.rows == tuple(r1 + r2 for r1, r2 in zip(a.rows, b.rows))
