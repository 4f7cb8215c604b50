"""Reduced-locus component categories, restrictions, gluing and twists."""

from types import SimpleNamespace

import pytest

from conftest import (count_calls, fpmat_rows, oracle_a1_violations,
                      oracle_component_euler, oracle_convolved_flags,
                      oracle_euler, oracle_flag_tensor_bases, oracle_fp_matmul,
                      oracle_fp_rank, oracle_fp_two_term, oracle_gauge_violations,
                      rand_fpmat, rand_glued, same_span)
from gaugeworks.errors import LawViolation, PrimeMismatchError
from gaugeworks.exactlinalg import FpMat
from gaugeworks.redlocus import bk, components, gluing
from gaugeworks.redlocus import (A1Flag, A1Module, FilThetaModule,
                                 GradedThetaModule, ReducedFGauge,
                                 ThetaModule, bk_filtheta, bk_flag,
                                 bk_reduced, coh_dR, coh_dRplus, coh_Hod,
                                 coh_HTc, dual_reduced,
                                 reduced_syntomic_cohomology,
                                 restrict_dRplus_to_dR,
                                 restrict_dRplus_to_Hod, restrict_HTc_to_dR,
                                 restrict_HTc_to_Hod, tensor_reduced)

P = 3


# ---------------------------------------------------------------------------
# component categories and their cohomology
# ---------------------------------------------------------------------------


def test_coh_dr_zero_operator():
    assert coh_dR(ThetaModule(P, FpMat.zeros(P, 1, 1))) == (1, 1)


def test_coh_dr_unit_scalar():
    for n in (1, 2, 4, 5):
        assert coh_dR(ThetaModule(P, FpMat.scalar(P, 1, n))) == (0, 0)


def test_theta_module_frobenius_nilpotence_law():
    # eigenvalues in F_p make Theta^p - Theta nilpotent; eigenvalues in a
    # quadratic extension (x^2 + 1 is irreducible mod 3) do not
    ThetaModule(P, FpMat(P, [[0, 1], [0, 1]]))
    with pytest.raises(LawViolation):
        ThetaModule(P, FpMat(P, [[0, 1], [-1, 0]]))


def test_coh_hod_twist_positions():
    # weight-0 data: one line in degree 0; weight-p data: one line in degree -p
    assert coh_Hod(GradedThetaModule(P, {0: 1}, {})) == (1, 0)
    assert coh_Hod(GradedThetaModule(P, {-P: 1}, {})) == (0, 1)
    for n in (1, 2, -1, 4):
        assert coh_Hod(GradedThetaModule(P, {-n: 1}, {})) == (0, 0)


def test_coh_htc_twist_family():
    # fibre of D: Fil_0 -> Fil_{-1}; on the n-th twist module D out of level
    # i is forced to be multiplication by i + n by the algebra relation, so
    # the value at n >= 1 is (0, 0) unless p divides n, where it is (1, 1);
    # frozen from the brute-force oracle below
    expected = {0: (1, 0), -1: (0, 0), 1: (0, 0), 2: (0, 0), P: (1, 1)}
    for n, want in expected.items():
        m = bk_flag(n, P).to_module()
        d0 = m.d_at(0)
        assert oracle_fp_two_term(P, fpmat_rows(d0), d0.nrows, d0.ncols) == want
        assert coh_HTc(m) == want


def test_coh_drplus_twist_family():
    assert coh_dRplus(bk_filtheta(0, P)) == (1, 1)
    assert coh_dRplus(bk_filtheta(1, P)) == (0, 1)
    assert coh_dRplus(bk_filtheta(-1, P)) == (0, 0)


# ---------------------------------------------------------------------------
# the algebra relation
# ---------------------------------------------------------------------------


def test_a1_relation_holds_on_twist_modules():
    for n in range(-4, 5):
        bk_flag(n, P).to_module().check_relation()


def test_a1_relation_negative_control():
    # same shapes as the unit twist but D forced to zero out of level 1: the
    # module refuses to be built
    xs, ds = (FpMat(P, [[1]]),), (FpMat(P, [[0]]),)
    with pytest.raises(LawViolation, match="Dx - xD = 1 failed on Fil_0"):
        A1Module(P, 0, 1, (1, 1), xs, ds)


def test_a1_module_dimensions_are_not_negative():
    # a one-level window has no x or D map whose shape would refuse it
    with pytest.raises(ValueError, match="piece dimensions must be >= 0"):
        A1Module(P, 0, 0, (-2,), (), ())
    with pytest.raises(ValueError, match="piece dimensions must be >= 0"):
        GradedThetaModule(P, {0: -1}, {})


def unchecked_a1(*args) -> A1Module:
    """``A1Module(*args)`` built without its relation check, so that the oracle
    can list every level of lawless data; :func:`rebuilt` builds it checked."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(A1Module, "check_relation", lambda m: None)
        return A1Module(*args)


def rebuilt(m: A1Module) -> A1Module:
    """``m``'s data built again through the checked constructor."""
    return A1Module(m.prime, m.lo, m.hi, m.dims, m.x, m.d)


def _constant_flag_module(p: int, lo: int, hi: int, bad=()) -> A1Module:
    """Rank one on [lo, hi]: x = 1 and D_i = i - lo, so Dx - xD = 1 on every level;
    each k in ``bad`` adds 1 to D_{lo+k+1}, which breaks the relation first at
    level lo + k (the module is then built unchecked)."""
    w = hi - lo
    xs = (FpMat(p, [[1]]),) * w
    ds = tuple(FpMat(p, [[k + 1 + (k in bad)]]) for k in range(w))
    return unchecked_a1(p, lo, hi, (1,) * (w + 1), xs, ds)


@pytest.mark.parametrize("p", [3, 7])
def test_relation_check_builds_no_matrix_and_stops_at_the_first_bad_level(
        rng, monkeypatch, p):
    lo, hi = -2, 4
    # (levels broken, first failing level): at lo, at hi - 1, inside, and several
    cases = [((), None), ((0,), lo), ((hi - lo - 1,), hi - 1), ((2,), lo + 2),
             ((3, 1, 5), lo + 1), ((0, hi - lo - 1), lo)]
    modules = [(_constant_flag_module(p, lo, hi, bad), level) for bad, level in cases]
    modules += [(rand_glued(rng, p).htc, None) for _ in range(4)]
    for m, level in modules:
        assert oracle_a1_violations(m)[:1] == ([] if level is None else
                                               [f"Dx - xD = 1 failed on Fil_{level}"])
    # the constructor checks the relation on the stored rows: it builds no FpMat
    built = []
    made = FpMat._made
    monkeypatch.setattr(FpMat, "_made", staticmethod(lambda *a: built.append(a) or made(*a)))
    monkeypatch.setattr(FpMat, "__init__", lambda *a, **k: built.append(a))
    for m, level in modules:
        if level is None:
            rebuilt(m)
        else:
            with pytest.raises(LawViolation, match=f"Dx - xD = 1 failed on Fil_{level}$"):
                rebuilt(m)
    assert built == []


def test_a1_module_maps_live_over_its_prime():
    # the relation multiplies stored rows mod the module's prime, so a map
    # over another prime is refused when the module is built
    for xs, ds in [((FpMat(5, [[1]]),), (FpMat(3, [[1]]),)),
                   ((FpMat(3, [[1]]),), (FpMat(5, [[1]]),))]:
        with pytest.raises(PrimeMismatchError):
            A1Module(3, 0, 1, (1, 1), xs, ds)


@pytest.mark.parametrize("p", [3, 7])
def test_d_composite_builds_only_the_composite(rng, monkeypatch, p):
    modules = [_constant_flag_module(p, -2, 4)] + [rand_glued(rng, p).htc for _ in range(4)]
    for m in modules:
        for top in range(m.lo + 1, m.hi + 1):
            for bottom in range(m.lo, top):
                want = m.d_at(top)
                for i in range(top - 1, bottom, -1):
                    want = m.d_at(i) @ want
                built = []
                made = FpMat._made
                with monkeypatch.context() as patch:
                    patch.setattr(FpMat, "_made",
                                  staticmethod(lambda *a: built.append(a) or made(*a)))
                    got = m.d_composite(top, bottom)
                assert got == want and len(built) == 1


def test_torsion_a1_module():
    # F_p[x]/(x^p) with D = d/dx: valid, with a vanishing stable tail
    dims = (1,) * P + (0,)
    xs = tuple(FpMat(P, [[1]]) if k < P - 1 else FpMat.zeros(P, 0, 1)
               for k in range(P))
    ds = tuple(FpMat(P, [[(k + 1) % P]]) if k < P - 1 else FpMat.zeros(P, 1, 0)
               for k in range(P))
    m = A1Module(P, 0, P, dims, xs, ds)
    m.check_relation()
    assert coh_HTc(m) == (1, 0)  # Fil_{-1} = 0


def test_d_power_p_commutes_with_x():
    # corollary of the relation: D^p commutes with x, so the Hodge
    # restriction's operator is well defined on the graded pieces
    m = bk_flag(2, P).to_module()
    top = m.stable_level() + P
    lhs = m.d_composite(top + 1, top + 1 - P) @ m.x_at(top)
    rhs = m.x_at(top - P) @ m.d_composite(top, top - P)
    assert lhs == rhs


@pytest.mark.parametrize("p", [3, 5])
def test_a1_relation_holds_above_the_window(rng, p):
    # d_at sums the upward recursion in closed form; the relation
    # D_{i+1} x_i - x_{i-1} D_i = 1 must still hold level by level
    modules = ([bk_flag(n, p).to_module() for n in range(-p - 1, p + 2)]
               + [rand_glued(rng, p).htc for _ in range(8)])
    for m in modules:
        for i in range(m.lo, m.hi + 2 * p + 1):
            lhs = m.d_at(i + 1) @ m.x_at(i) - m.x_at(i - 1) @ m.d_at(i)
            assert lhs == FpMat.identity(p, m.dim_at(i)), (m.lo, m.hi, i)


@pytest.mark.parametrize("p", [3, 5])
def test_relation_at_the_window_top_is_the_recursion(rng, p):
    # at hi both sides are x_{hi-1} D_hi + 1, so checking lo..hi-1 reports
    # the first failure of the full range, lawless modules included; the
    # constructor raises it
    modules = [rand_glued(rng, p).htc for _ in range(20)]
    for _ in range(200):
        lo = rng.randint(-4, 2)
        dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
        xs = [rand_fpmat(rng, p, dims[k + 1], dims[k]) for k in range(len(dims) - 1)]
        ds = [rand_fpmat(rng, p, dims[k], dims[k + 1]) for k in range(len(dims) - 1)]
        modules.append(unchecked_a1(p, lo, lo + len(dims) - 1, tuple(dims), tuple(xs),
                                    tuple(ds)))
    lawless = 0
    for m in modules:
        full = oracle_a1_violations(m)
        assert f"Dx - xD = 1 failed on Fil_{m.hi}" not in full
        if full:
            with pytest.raises(LawViolation) as err:
                rebuilt(m)
            assert str(err.value) == full[0]
        else:
            rebuilt(m)
        lawless += bool(full)
    assert 0 < lawless < len(modules)


# ---------------------------------------------------------------------------
# restrictions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(-4, 5))
def test_htc_restrictions_of_twists(n):
    m = bk_flag(n, P).to_module()
    dr = restrict_HTc_to_dR(m)
    assert dr.theta == FpMat.scalar(P, 1, n % P)
    hod = restrict_HTc_to_Hod(m)
    assert hod.support() == [-n]
    assert hod.theta_at(-n).is_zero()


@pytest.mark.parametrize("n", range(-4, 5))
def test_drplus_restrictions_of_twists(n):
    d = bk_filtheta(n, P)
    assert restrict_dRplus_to_dR(d).theta == FpMat.scalar(P, 1, n % P)
    hod = restrict_dRplus_to_Hod(d)
    assert hod.support() == [-n]


def test_restriction_of_zero_module():
    m = A1Module(P, 0, 0, (0,), (), ())
    assert restrict_HTc_to_dR(m).dim == 0
    assert restrict_HTc_to_Hod(m).support() == []


# ---------------------------------------------------------------------------
# brute-force oracle for the glued total complex
# ---------------------------------------------------------------------------


class _Raw:
    """Shape-explicit list-of-rows matrix for the brute-force oracle."""

    def __init__(self, rows, nrows, ncols, p):
        self.rows = [[x % p for x in r] for r in rows]
        self.nrows, self.ncols, self.p = nrows, ncols, p
        assert len(self.rows) == nrows
        assert all(len(r) == ncols for r in self.rows)

    @classmethod
    def of(cls, m, p):
        return cls(fpmat_rows(m), m.nrows, m.ncols, p)

    @classmethod
    def eye(cls, n, p):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)],
                   n, n, p)

    @classmethod
    def zero(cls, nr, nc, p):
        return cls([[0] * nc for _ in range(nr)], nr, nc, p)

    def mul(self, other):
        assert self.ncols == other.nrows
        p = self.p
        rows = [[sum(self.rows[r][k] * other.rows[k][c]
                     for k in range(self.ncols)) % p
                 for c in range(other.ncols)] for r in range(self.nrows)]
        return _Raw(rows, self.nrows, other.ncols, p)

    def add_eye(self):
        rows = [[(x + (1 if r == c else 0)) % self.p
                 for c, x in enumerate(row)] for r, row in enumerate(self.rows)]
        return _Raw(rows, self.nrows, self.ncols, self.p)

    def neg(self):
        return _Raw([[-x % self.p for x in r] for r in self.rows],
                    self.nrows, self.ncols, self.p)

    def solve(self, target):
        """X with self @ X = target, by test-local elimination (must exist)."""
        p = self.p
        assert self.nrows == target.nrows
        aug = [list(self.rows[r]) + list(target.rows[r])
               for r in range(self.nrows)]
        pivots, rr = [], 0
        for c in range(self.ncols):
            piv = next((i for i in range(rr, self.nrows) if aug[i][c] % p), None)
            if piv is None:
                continue
            aug[rr], aug[piv] = aug[piv], aug[rr]
            inv = pow(aug[rr][c], -1, p)
            aug[rr] = [(inv * x) % p for x in aug[rr]]
            for i in range(self.nrows):
                if i != rr and aug[i][c] % p:
                    f = aug[i][c]
                    aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[rr])]
            pivots.append(c)
            rr += 1
        out = [[0] * target.ncols for _ in range(self.ncols)]
        for r, pc in enumerate(pivots):
            for t in range(target.ncols):
                out[pc][t] = aug[r][self.ncols + t]
        return _Raw(out, self.ncols, target.ncols, p)

    def quotient_projection(self):
        """pi with ker pi = column span of self, plus a section of pi.

        Mirrors the canonical echelon construction so gr coordinates agree
        with the library's without sharing its code.
        """
        p, amb = self.p, self.nrows
        basis, pivots = [], []
        for c in range(self.ncols):
            v = [self.rows[r][c] for r in range(amb)]
            for bvec, piv in zip(basis, pivots):
                if v[piv] % p:
                    f = v[piv]
                    v = [(x - f * y) % p for x, y in zip(v, bvec)]
            lead = next((i for i, x in enumerate(v) if x % p), None)
            if lead is None:
                continue
            inv = pow(v[lead], -1, p)
            v = [(inv * x) % p for x in v]
            for b, bvec in enumerate(basis):
                if bvec[lead] % p:
                    f = bvec[lead]
                    basis[b] = [(x - f * y) % p for x, y in zip(bvec, v)]
            basis.append(v)
            pivots.append(lead)
        free = [i for i in range(amb) if i not in pivots]
        proj = []
        for fcoord in free:
            row = [0] * amb
            row[fcoord] = 1
            for bvec, piv in zip(basis, pivots):
                row[piv] = (-bvec[fcoord]) % p
            proj.append(row)
        pi = _Raw(proj, len(free), amb, p)
        sigma = _Raw([[1 if (c < len(free) and free[c] == r) else 0
                       for c in range(len(free))] for r in range(amb)],
                     amb, len(free), p)
        return pi, sigma


def oracle_reduced(g: ReducedFGauge) -> tuple[int, int, int]:
    """Brute-force rank computation of the glued total complex.

    Reassembles every map from the raw component data (with its own upward
    recursion for D and its own echelon bookkeeping for the graded pieces)
    and row-reduces with the test-local elimination only.
    """
    p = g.prime
    htc, drp = g.htc, g.drp

    def hdim(i):
        if i < htc.lo:
            return 0
        if i > htc.hi:
            return htc.dims[-1]
        return htc.dims[i - htc.lo]

    def xmat(i):
        if i < htc.lo:
            return _Raw.zero(hdim(i + 1), 0, p)
        if i >= htc.hi:
            return _Raw.eye(hdim(i), p)
        return _Raw.of(htc.x[i - htc.lo], p)

    def dmat(i):
        if i <= htc.lo:
            return _Raw.zero(hdim(i - 1), hdim(i), p)
        if i <= htc.hi:
            return _Raw.of(htc.d[i - htc.lo - 1], p)
        return xmat(i - 2).mul(dmat(i - 1)).add_eye()

    def xcomp(bottom, top):
        acc = _Raw.eye(hdim(bottom), p)
        for i in range(bottom, top):
            acc = xmat(i).mul(acc)
        return acc

    def dcomp(top, bottom):
        acc = _Raw.eye(hdim(top), p)
        for i in range(top, bottom, -1):
            acc = dmat(i).mul(acc)
        return acc

    def flag(i):
        return _Raw.of(drp.flag_at(i), p)

    n_level = htc.stable_level()
    nv = drp.dim
    f0d, fpd = flag(0).ncols, flag(-p).ncols
    f0h, f1h = hdim(0), hdim(-1)
    theta = _Raw.of(drp.theta, p)

    d_drp = flag(-p).solve(theta.mul(flag(0)))
    d_htc = dmat(0)
    pi0, sec0 = flag(0).solve(flag(1)).quotient_projection()
    pip, _ = flag(-p).solve(flag(-p + 1)).quotient_projection()
    g0, gp = pi0.nrows, pip.nrows
    d_hod = pip.mul(flag(-p).solve(theta.mul(flag(0).mul(sec0))))

    alpha = _Raw.of(g.alpha_dr, p)
    b0_dr = alpha.mul(xcomp(0, n_level))
    b1_dr = alpha.mul(xcomp(-1, n_level))
    pih0, _ = xmat(-1).quotient_projection()
    pihp, _ = xmat(-p - 1).quotient_projection()
    if 0 in g.alpha_hod:
        b0_hod = _Raw.of(g.alpha_hod[0], p).mul(pih0)
    else:
        b0_hod = _Raw.zero(g0, f0h, p)
    if -p in g.alpha_hod:
        b1_hod = _Raw.of(g.alpha_hod[-p], p).mul(pihp.mul(dcomp(-1, -p)))
    else:
        b1_hod = _Raw.zero(gp, f1h, p)

    def hcat(blocks):
        nr = blocks[0].nrows
        rows = [[] for _ in range(nr)]
        for b in blocks:
            assert b.nrows == nr
            for r in range(nr):
                rows[r].extend(b.rows[r])
        return rows

    d0_rows = (
        hcat([d_drp, _Raw.zero(fpd, f0h, p)]) +
        hcat([_Raw.zero(f1h, f0d, p), d_htc]) +
        hcat([flag(0), b0_dr.neg()]) +
        hcat([pi0, b0_hod.neg()])
    )
    d1_rows = (
        hcat([flag(-p), b1_dr.neg(), theta.neg(), _Raw.zero(nv, g0, p)]) +
        hcat([pip, b1_hod.neg(), _Raw.zero(gp, nv, p), d_hod.neg()])
    )
    dims = (f0d + f0h, fpd + f1h + nv + g0, nv + gp)
    r0 = oracle_fp_rank(p, d0_rows) if d0_rows else 0
    r1 = oracle_fp_rank(p, d1_rows) if d1_rows else 0
    return (dims[0] - r0, dims[1] - r1 - r0, dims[2] - r1)


# ---------------------------------------------------------------------------
# glued objects
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_reduced_twist_table_matches_bruteforce(p):
    for n in range(-p, p + 1):
        g = bk_reduced(n, p)
        assert reduced_syntomic_cohomology(g).h == oracle_reduced(g)


def test_reduced_twist_values_at_p3():
    # frozen from the oracle above
    table = {n: oracle_reduced(bk_reduced(n, 3)) for n in range(-3, 4)}
    assert table == {-3: (0, 0, 0), -2: (0, 0, 0), -1: (0, 0, 0),
                     0: (1, 1, 0), 1: (0, 1, 0), 2: (0, 1, 0), 3: (0, 0, 0)}


def test_zero_glued_object():
    htc = A1Module(P, 0, 0, (0,), (), ())
    drp = FilThetaModule(P, 0, 0, 0, (FpMat.zeros(P, 0, 0),), FpMat.zeros(P, 0, 0))
    g = ReducedFGauge(htc=htc, drp=drp, alpha_dr=FpMat.zeros(P, 0, 0),
                      alpha_hod={})
    assert reduced_syntomic_cohomology(g).h == (0, 0, 0)


@pytest.mark.parametrize("trial", range(40))
def test_random_glued_euler_relation(rng, trial):
    p = rng.choice([3, 5])
    g = rand_glued(rng, p)
    r = reduced_syntomic_cohomology(g)
    assert oracle_euler(r) == oracle_component_euler(r)
    assert r.h == oracle_reduced(g)


def pairwise_stack(blocks):
    """The block matrix by one ``hstack`` per block and one ``vstack`` per block row."""
    out = None
    for row in blocks:
        acc = None
        for blk in row:
            acc = blk if acc is None else acc.hstack(blk)
        out = acc if out is None else out.vstack(acc)
    return out


@pytest.mark.parametrize("trial", range(20))
def test_stack_rows_builds_one_matrix_equal_to_the_pairwise_stacks(rng, trial):
    p = rng.choice([2, 3, 5])
    heights = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
    widths = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
    blocks = [[rand_fpmat(rng, p, h, w) for w in widths] for h in heights]
    want = pairwise_stack(blocks)
    with count_calls(FpMat, "_made") as made:
        got = gluing._stack_rows(p, blocks)
    assert len(made) == 1 and got == want and got.shape == (sum(heights), sum(widths))


def test_stack_rows_refuses_blocks_that_do_not_fit():
    z = FpMat.zeros
    with pytest.raises(ValueError):  # block rows of widths 2 and 3
        gluing._stack_rows(P, [[z(P, 1, 2)], [z(P, 1, 3)]])
    with pytest.raises(ValueError):  # blocks of heights 1 and 2 in one block row
        gluing._stack_rows(P, [[z(P, 1, 1), z(P, 2, 1)]])


def test_glued_complex_is_the_pairwise_stacks_of_its_blocks(monkeypatch, rng):
    one_pass, complexes = gluing._stack_rows, []

    def compared(p, blocks):
        got = one_pass(p, blocks)
        assert got == pairwise_stack(blocks)
        complexes.append(got)
        return got

    monkeypatch.setattr(gluing, "_stack_rows", compared)
    gauges = [rand_glued(rng, rng.choice([3, 5])) for _ in range(15)]
    gauges += [bk_reduced(n, p) for p in (2, 3, 5) for n in range(-p - 1, p + 2)]
    for g in gauges:
        reduced_syntomic_cohomology(g)
    assert len(complexes) == 2 * len(gauges)


def test_glued_differentials_compose_to_zero(monkeypatch, rng):
    # the cohomology does not check d1 d0 = 0: its docstring proves it from
    # the constructor laws; here the product is taken by the defining sum
    one_pass, stacks = gluing._stack_rows, []
    monkeypatch.setattr(gluing, "_stack_rows",
                        lambda p, blocks: stacks.append(one_pass(p, blocks)) or stacks[-1])
    gauges = []
    for p in (2, 3, 5, 7):
        gauges += [bk_reduced(n, p) for n in range(-p - 1, p + 2)]
        gauges += [rand_glued(rng, p) for _ in range(40)]
        pairs = [(rand_glued(rng, p, max_rank=2), rand_glued(rng, p, max_rank=2))
                 for _ in range(20)]
        gauges += [tensor_reduced(g1, g2) for g1, g2 in pairs]
        gauges += [dual_reduced(g1) for g1, _ in pairs]
    assert len(gauges) >= 300
    for g in gauges:
        stacks.clear()
        reduced_syntomic_cohomology(g)
        d0, d1 = stacks
        assert d1.ncols == d0.nrows
        product = oracle_fp_matmul(g.prime, fpmat_rows(d1), fpmat_rows(d0), d0.ncols)
        assert all(x == 0 for row in product for x in row)


def test_graded_pieces_lift_to_a_basis(rng):
    # gr_i = coker(x_{i-1}) and gr^i = Fil^i / Fil^{i+1}; over the window the
    # lifted pieces of each half together form a basis of its stable space
    for _ in range(10):
        g = rand_glued(rng, rng.choice([3, 5]))
        p = g.prime
        for m, below in ((g.htc, lambda i: g.htc.x_at(i - 1)),
                         (g.drp, lambda i: g.drp.flag_at(i).solve(g.drp.flag_at(i + 1)))):
            lifts = []
            for i in range(m.lo, m.hi + 1):
                pi, sigma = m.gr(i)
                assert (pi @ below(i)).is_zero()
                assert pi @ sigma == FpMat.identity(p, pi.nrows)
                lifts.append(m.lift(i))
            stacked = lifts[0]
            for lift in lifts[1:]:
                stacked = stacked.hstack(lift)
            assert stacked.nrows == stacked.ncols == stacked.rank()


def test_cohomology_trusts_a_constructed_gauge(monkeypatch, rng):
    # the gluing laws and Theta^p - Theta nilpotence were checked when each
    # value was built; computing its cohomology checks neither again
    gauges = [bk_reduced(n, p) for p in (3, 5) for n in range(-p, p + 1)]
    gauges += [rand_glued(rng, rng.choice([3, 5])) for _ in range(10)]
    calls = []
    laws = gluing._check_gluing
    post = ThetaModule.__post_init__
    monkeypatch.setattr(gluing, "_check_gluing",
                        lambda g: calls.append("laws") or laws(g))
    monkeypatch.setattr(ThetaModule, "__post_init__",
                        lambda m: calls.append("theta") or post(m))
    for g in gauges:
        reduced_syntomic_cohomology(g)
    assert calls == []
    g = bk_reduced(1, P)  # a construction checks the laws, so the counters work
    restrict_HTc_to_dR(g.htc)
    assert calls == ["laws", "theta"]


def test_gluing_reads_the_de_rham_operator_without_a_theta_module(monkeypatch, rng):
    # Theta = xD cannot break its law once Dx - xD = 1 holds, so building a
    # glued gauge makes no ThetaModule; the restriction and the flag read the
    # same operator
    built = []
    post = ThetaModule.__post_init__
    monkeypatch.setattr(ThetaModule, "__post_init__", lambda m: built.append(m) or post(m))
    gauges = [bk_reduced(n, p) for p in (3, 5) for n in range(-p, p + 1)]
    gauges += [rand_glued(rng, rng.choice([3, 5])) for _ in range(10)]
    assert built == []
    for g in gauges:
        n = g.htc.stable_level()
        theta = restrict_HTc_to_dR(g.htc).theta
        assert g.htc.de_rham_theta == theta == g.htc.x_at(n - 1) @ g.htc.d_at(n)
        assert A1Flag.from_module(g.htc).operator == theta
    assert len(built) == len(gauges)


def test_drplus_hodge_restriction_is_built_once_per_module(monkeypatch, rng):
    # a FilThetaModule builds its associated graded on first use; the gluing
    # laws and the cohomology reuse that same value
    built = []
    graded = components._associated_graded
    monkeypatch.setattr(components, "_associated_graded",
                        lambda m, theta_at: built.append(m) or graded(m, theta_at))
    for _ in range(20):
        reduced_syntomic_cohomology(rand_glued(rng, rng.choice([3, 5])))
    drps = [m for m in built if isinstance(m, FilThetaModule)]
    assert len(drps) == 20 and len({id(m) for m in drps}) == 20


def _graded_theta_cases(rng):
    """de Rham+ data whose windows hold 0 and -p, or not, with gr^0 and gr^{-p}
    zero or not, each with the glued gauge it came from, if any."""
    cases = []
    for p in (3, 5):
        one = FpMat.identity(p, 1)
        # one flag step at hi: gr^hi = V and every other piece is 0
        for lo, hi in [(-p, 0), (-p, -p), (0, 0), (1, 2), (-p - 2, -p - 1), (-2 * p, p)]:
            for c in (0, 1):
                cases.append((FilThetaModule(p, 1, lo, hi, (one,) * (hi - lo + 1),
                                             FpMat.scalar(p, 1, c)), None))
        for n in range(-p - 1, p + 2):
            g = bk_reduced(n, p)
            cases.append((g.drp, g))
        g = ReducedFGauge(**_wide_gluing(p, 1, p - 1))  # support {-p, 0}, Theta != 0
        cases.append((g.drp, g))
        for twists in ([-1, 1], [1, p], [0, 2], [0, 0, 1]):
            g = rand_glued(rng, p, twists=twists)
            cases.append((g.drp, g))
    for _ in range(30):
        g = rand_glued(rng, rng.choice([3, 5]))
        cases.append((g.drp, g))
    return cases


def test_hodge_differential_is_the_graded_theta_at_zero(rng):
    # the cohomology reads gr^0 -> gr^{-p} off the associated graded that the
    # gluing check built; it equals proj_{-p} Theta sigma_0 in flag coordinates
    nonzero = 0
    for drp, g in _graded_theta_cases(rng):
        p = drp.prime
        former = drp.gr(-p)[0] @ drp.theta_in_flag(0) @ drp.gr(0)[1]
        assert drp.hodge.theta_at(0) == former
        nonzero += not former.is_zero()
        if g is not None:
            hod = reduced_syntomic_cohomology(g).components["Hod"]
            assert hod == oracle_fp_two_term(p, fpmat_rows(former), *former.shape)
    assert nonzero


def _bump(rng, mat: FpMat) -> FpMat:
    """``mat`` with one entry moved by a nonzero amount mod p."""
    rows = [list(r) for r in mat.rows]
    rows[rng.randrange(mat.nrows)][rng.randrange(mat.ncols)] += rng.randrange(1, mat.p)
    return FpMat(mat.p, rows, ncols=mat.ncols)


def _mutated_gluing(rng, g: ReducedFGauge) -> dict:
    """The fields of ``g`` with one datum changed: an entry of alpha_dR, of an
    alpha_Hod block or of an x or D map bumped, or an alpha_Hod degree dropped.
    A bumped Hodge--Tate half is built unchecked; :func:`_glue` checks it."""
    fields = {"htc": g.htc, "drp": g.drp, "alpha_dr": g.alpha_dr,
              "alpha_hod": dict(g.alpha_hod)}
    kind = rng.choice(["alpha_dr", "alpha_hod", "drop", "x", "d"])
    if kind in ("alpha_hod", "drop"):
        i = rng.choice(sorted(fields["alpha_hod"]))
        if kind == "drop":
            del fields["alpha_hod"][i]
        else:
            fields["alpha_hod"][i] = _bump(rng, fields["alpha_hod"][i])
        return fields
    m = g.htc
    maps = [k for k, a in enumerate(getattr(m, kind, ())) if a.nrows and a.ncols]
    if maps:  # an x or D map with entries; otherwise alpha_dR
        new = list(getattr(m, kind))
        k = rng.choice(maps)
        new[k] = _bump(rng, new[k])
        x, d = (new, m.d) if kind == "x" else (m.x, new)
        fields["htc"] = unchecked_a1(m.prime, m.lo, m.hi, m.dims, tuple(x), tuple(d))
    else:
        fields["alpha_dr"] = _bump(rng, g.alpha_dr)
    return fields


def _glue(fields: dict) -> ReducedFGauge:
    """The glued gauge of ``fields``, its Hodge--Tate half built first and checked."""
    return ReducedFGauge(**dict(fields, htc=rebuilt(fields["htc"])))


def test_gluing_raises_the_first_law_of_the_full_list(rng):
    # the constructors raise the first entry of the former full list of
    # violated gluing laws, a bumped x or D map when its module is built, and
    # build exactly when that list is empty
    lawless = 0
    for trial in range(300):
        p = rng.choice([3, 5])
        g = rand_glued(rng, p)
        if trial % 3 == 0:  # wider windows and larger graded pieces
            g = tensor_reduced(g, rand_glued(rng, p, max_rank=2))
        for _ in range(5):
            fields = _mutated_gluing(rng, g)
            want = oracle_gauge_violations(SimpleNamespace(prime=g.prime, **fields))
            if want:
                lawless += 1
                with pytest.raises(LawViolation) as err:
                    _glue(fields)
                assert str(err.value) == want[0]
            else:
                _glue(fields)
    assert 0 < lawless < 1500


@pytest.mark.parametrize("p", [3, 5])
def test_alpha_hod_is_checked_in_every_degree_it_is_given(rng, p):
    # outside the Hodge support gr is 0 on both sides: a 0 x 0 block glues
    # and changes nothing, any other block is refused as mis-shaped (degrees
    # 0 and -p, which the cohomology reads, once crashed it)
    gauges = [bk_reduced(n, p) for n in range(-p - 1, p + 2)]
    gauges += [rand_glued(rng, p) for _ in range(10)]
    refused = 0
    for g in gauges:
        support = restrict_HTc_to_Hod(g.htc).support()
        others = [d for d in range(min(support) - p - 1, max(support) + p + 2)
                  if d not in support]
        for d in {0, -p, rng.choice(others)} - set(support):
            for shape in [(0, 0), (1, 1), (1, 2), (0, 1), (2, 0)]:
                fields = {"htc": g.htc, "drp": g.drp, "alpha_dr": g.alpha_dr,
                          "alpha_hod": {**g.alpha_hod, d: rand_fpmat(rng, p, *shape)}}
                want = oracle_gauge_violations(SimpleNamespace(prime=p, **fields))
                if shape == (0, 0):
                    assert want == []
                    glued = ReducedFGauge(**fields)
                    assert (reduced_syntomic_cohomology(glued)
                            == reduced_syntomic_cohomology(g))
                    continue
                assert want == [f"alpha_Hod missing or mis-shaped in degree {d}"]
                with pytest.raises(LawViolation) as err:
                    ReducedFGauge(**fields)
                assert str(err.value) == want[0]
                refused += 1
    assert refused


def _wide_gluing(p: int, a: int, b: int) -> dict:
    """Rank-two data with Hodge support {-p, 0}, where the Hodge restrictions'
    Theta is nonzero: D^p acts as (p-1)! = -1 on the Hodge--Tate half and
    Theta as 1 on the de Rham+ half, so alpha_Hod = (a, b) is lawful iff b = -a."""
    e1, e2, one = FpMat(p, [[1], [0]]), FpMat(p, [[0], [1]]), FpMat.identity(p, 2)
    e = FpMat(p, [[0, 1], [0, 0]])
    return {"htc": A1Flag(p, 2, -p, 0, (e1,) * p + (one,), e).to_module(),
            "drp": FilThetaModule(p, 2, -p, 0, (one,) + (e2,) * p, e),
            "alpha_dr": one, "alpha_hod": {-p: FpMat(p, [[a]]), 0: FpMat(p, [[b]])}}


@pytest.mark.parametrize("p", [3, 5])
def test_alpha_hod_must_commute_with_the_hodge_theta(p):
    for a in range(1, p):
        for b in range(1, p):
            fields = _wide_gluing(p, a, b)
            want = oracle_gauge_violations(SimpleNamespace(prime=p, **fields))
            if (a + b) % p:
                assert want == ["alpha_Hod must commute with Theta (degree 0)"]
                with pytest.raises(LawViolation) as err:
                    ReducedFGauge(**fields)
                assert str(err.value) == want[0]
            else:
                assert want == []
                ReducedFGauge(**fields)


def test_alphas_must_commute_with_theta():
    g = bk_reduced(1, P)
    with pytest.raises(LawViolation):
        ReducedFGauge(htc=g.htc, drp=bk_filtheta(2, P),
                      alpha_dr=FpMat.identity(P, 1),
                      alpha_hod={-1: FpMat.identity(P, 1)})


def test_two_hodge_routes_agree_after_alphas(rng):
    # the coherence is the Theta-equivariance of alpha_hod, asserted as a
    # plain equality of matrices on random glued data
    for _ in range(10):
        g = rand_glued(rng, 3)
        htc_hod = restrict_HTc_to_Hod(g.htc)
        drp_hod = restrict_dRplus_to_Hod(g.drp)
        for i in htc_hod.support():
            j = i - g.prime
            if htc_hod.dim_at(j) == 0:
                continue
            lhs = g.alpha_hod[j] @ htc_hod.theta_at(i)
            rhs = drp_hod.theta_at(i) @ g.alpha_hod[i]
            assert lhs == rhs


# ---------------------------------------------------------------------------
# twist group law and duality
# ---------------------------------------------------------------------------


def old_to_module(flag: A1Flag) -> A1Module:
    """The former ``A1Flag.to_module``, kept as an oracle: it solves for
    the x and D maps afresh."""
    p = flag.prime
    dims, xs, ds = [], [], []
    for i in range(flag.lo, flag.hi + 1):
        dims.append(flag.basis_at(i).ncols)
    for i in range(flag.lo, flag.hi):
        xs.append(flag.basis_at(i + 1).solve(flag.basis_at(i)))
    for i in range(flag.lo + 1, flag.hi + 1):
        shifted = flag.operator + FpMat.scalar(p, flag.dim, i)
        ds.append(flag.basis_at(i - 1).solve(shifted @ flag.basis_at(i)))
    return A1Module(p, flag.lo, flag.hi, tuple(dims), tuple(xs), tuple(ds))


def test_flag_module_is_the_one_its_law_checks_solve_for(rng):
    flags = [bk_flag(n, p) for p in (3, 5) for n in range(-4, 5)]
    for _ in range(8):
        f1 = A1Flag.from_module(rand_glued(rng, 3, max_rank=2).htc)
        f2 = A1Flag.from_module(rand_glued(rng, 3, max_rank=2).htc)
        flags += [f1, f1.dual(), f1.tensor(f2)]
    for flag in flags:
        assert flag.to_module() == old_to_module(flag)


def test_tensor_and_dual_build_and_check_one_module_each(monkeypatch, rng):
    # the flags that from_module makes are read for their bases and operator
    # only; the output's Hodge--Tate half is the one module built, and its
    # relation is checked once, when it is built
    built = []
    post = A1Module.__post_init__
    monkeypatch.setattr(A1Module, "__post_init__", lambda m: built.append(m) or post(m))
    for p in (3, 5):
        gauges = [bk_reduced(n, p) for n in range(-p, p + 1)]
        gauges += [rand_glued(rng, p, max_rank=2) for _ in range(6)]
        for g1, g2 in zip(gauges, gauges[1:] + gauges[:1]):
            for op, args in ((tensor_reduced, (g1, g2)), (dual_reduced, (g1,))):
                built.clear()
                with count_calls(A1Module, "check_relation") as checks:
                    out = op(*args)
                assert len(built) == len(checks) == 1 and built[0] is out.htc


@pytest.mark.parametrize("p", [3, 5])
def test_flag_round_trip_and_de_rham_restriction_are_exact(rng, p):
    # tensor and dual read the Hodge--Tate half itself in place of its flag
    # round trip, and the gluing check does not guard the de Rham restriction
    gauges = [bk_reduced(n, p) for n in range(-p - 1, p + 2)]
    gauges += [rand_glued(rng, p) for _ in range(20)]
    gauges += [ReducedFGauge(**_wide_gluing(p, 1, -1))]
    gauges += [tensor_reduced(gauges[-1], gauges[-2]), dual_reduced(gauges[-1]),
               dual_reduced(gauges[-3])]
    for g in gauges:
        assert A1Flag.from_module(g.htc).to_module() == g.htc
        restrict_HTc_to_dR(g.htc)


def test_dual_glues_in_each_degree_of_the_hodge_support(rng):
    for _ in range(10):
        d = dual_reduced(rand_glued(rng, rng.choice([3, 5])))
        assert sorted(d.alpha_hod) == restrict_HTc_to_Hod(d.htc).support()


def test_flag_laws_are_checked_in_order():
    p = 3
    e1, e2, ident = FpMat(p, [[1], [0]]), FpMat(p, [[0], [1]]), FpMat.identity(p, 2)
    good = FpMat(p, [[0, 1], [0, 2]])  # E e1 = 0 and (E + 1) V inside <e1>
    A1Flag(p, 2, 0, 1, (e1, ident), good)
    with pytest.raises(LawViolation, match="the flag must be increasing"):
        A1Flag(p, 2, 0, 2, (e1, e2, ident), FpMat.identity(p, 3))
    with pytest.raises(ValueError, match="operator must act on V"):
        A1Flag(p, 2, 0, 1, (e1, ident), FpMat.identity(p, 3))
    with pytest.raises(LawViolation) as err:
        A1Flag(p, 2, 0, 1, (e1, ident), ident)
    assert str(err.value) == "(E + i) must carry G_i into G_{i-1} [failed at i = 0]"
    with pytest.raises(LawViolation) as err:
        A1Flag(p, 2, 0, 1, (e1, ident), FpMat(p, [[0, 1], [0, 0]]))
    assert str(err.value) == "(E + i) must carry G_i into G_{i-1} [failed at i = 1]"


@pytest.mark.parametrize("p", [3, 5])
def test_bk_identity_object(p):
    g = bk_reduced(0, p)
    assert reduced_syntomic_cohomology(g).h == (1, 1, 0)


@pytest.mark.parametrize("p", [3, 5])
def test_bk_group_law(p):
    for n in range(-p, p + 1):
        for m in range(-p, p + 1):
            t = tensor_reduced(bk_reduced(n, p), bk_reduced(m, p))
            ref = bk_reduced(n + m, p)
            assert t.htc == ref.htc and t.drp == ref.drp
            assert t.alpha_dr == ref.alpha_dr and t.alpha_hod == ref.alpha_hod
            assert (reduced_syntomic_cohomology(t).h
                    == reduced_syntomic_cohomology(ref).h)


def test_bk_inverse_cancels():
    for n in range(-P, P + 1):
        t = tensor_reduced(bk_reduced(n, P), bk_reduced(-n, P))
        assert t.htc == bk_reduced(0, P).htc
        assert reduced_syntomic_cohomology(t).h == (1, 1, 0)


@pytest.mark.parametrize("p", [3, 5])
def test_bk_dual(p):
    for n in range(-p, p + 1):
        d = dual_reduced(bk_reduced(n, p))
        ref = bk_reduced(-n, p)
        assert d.htc == ref.htc and d.drp == ref.drp
        assert d.alpha_dr == ref.alpha_dr and d.alpha_hod == ref.alpha_hod


@pytest.mark.parametrize("p, twists", [
    (3, (-2, 0, 0)), (3, (-1, 0, 0)), (3, (1, 1)),
    (5, (0, 0, 1)), (5, (-2, 0, 0)), (5, (-1, -1, 2, 2)),
])
def test_dual_of_twist_sum_with_repeated_twist(rng, p, twists):
    # a repeated twist gives a graded piece of dimension >= 2, where the
    # duality pairings are matrices rather than scalars
    want = [0, 0, 0]
    for t in twists:
        for k, h in enumerate(reduced_syntomic_cohomology(bk_reduced(-t, p)).h):
            want[k] += h
    for _ in range(6):
        g = rand_glued(rng, p, twists=twists, perturb=False)
        assert reduced_syntomic_cohomology(dual_reduced(g)).h == tuple(want)


@pytest.mark.parametrize("trial", range(10))
def test_tensor_and_dual_on_random_glued(rng, trial):
    g1 = rand_glued(rng, 3, max_rank=2)
    g2 = rand_glued(rng, 3, max_rank=2)
    t = tensor_reduced(g1, g2)
    r = reduced_syntomic_cohomology(t)
    assert oracle_euler(r) == oracle_component_euler(r)
    d = dual_reduced(g1)
    rd = reduced_syntomic_cohomology(d)
    assert oracle_euler(rd) == oracle_component_euler(rd)


# ---------------------------------------------------------------------------
# flag jumps: convolutions over the jumps, work once per run of equal inputs
# ---------------------------------------------------------------------------


def _assert_convolutions_match(f1, f2, d1, d2):
    """Both halves' convolutions against the sums over every window index.

    A dropped term of the increasing flag comes after the term that holds
    it, so the tensor's bases are the very matrices; the decreasing
    filtration's dropped term comes before, so only the spans agree.
    """
    ft = f1.tensor(f2)
    assert list(ft.bases) == oracle_flag_tensor_bases(f1, f2)
    assert ft.to_module() == old_to_module(ft)
    conv = bk._convolve_flags(d1, d2)
    want = oracle_convolved_flags(d1, d2)
    assert len(conv.flags) == len(want)
    assert all(same_span(a, b) for a, b in zip(conv.flags, want))
    full = FilThetaModule(conv.prime, conv.dim, conv.lo, conv.hi, tuple(want), conv.theta)
    assert full.hodge.dims == conv.hodge.dims


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5, 7, 13, 31])
def test_convolutions_over_the_jumps_match_the_full_window(rng, p, rank):
    for _ in range(3):
        gs = []
        for _ in range(2):
            base = rng.randint(-2, 2)
            twists = [rng.randint(base, base + p - 1) for _ in range(rank)]
            gs.append(rand_glued(rng, p, twists=twists, perturb=rng.random() < 0.5))
        f1, f2 = (A1Flag.from_module(g.htc) for g in gs)
        _assert_convolutions_match(f1, f2, gs[0].drp, gs[1].drp)


def _one_jump(p: int, dim: int, lo: int, hi: int, jump: int):
    """``dim`` copies of the twist -jump on the window [lo, hi]: the flag
    and the filtration each jump at ``jump`` only."""
    zero, ident = FpMat.zeros(p, dim, 0), FpMat.identity(p, dim)
    e = FpMat.scalar(p, dim, -jump)
    flag = A1Flag(p, dim, lo, hi, tuple(ident if i >= jump else zero
                                        for i in range(lo, hi + 1)), e)
    fil = FilThetaModule(p, dim, lo, hi, tuple(ident if i <= jump else zero
                                               for i in range(lo, hi + 1)), e)
    return flag, fil


@pytest.mark.parametrize("p", [3, 5, 7])
def test_convolutions_of_flags_that_jump_at_an_end(p):
    # jumps at lo (all flags V: all equal) or at hi (all filtration steps V),
    # and one-level windows
    windows = [(0, 0), (2, 2), (-1, 1), (-3, 0), (1, 4)]
    halves = [_one_jump(p, dim, lo, hi, jump) for lo, hi in windows
              for jump in sorted({lo, hi}) for dim in (1, 2)]
    for f1, d1 in halves:
        for f2, d2 in halves:
            _assert_convolutions_match(f1, f2, d1, d2)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_dual_then_tensor_matches_the_full_window(rng, p):
    for _ in range(4):
        g1 = rand_glued(rng, p, max_rank=2)
        g2 = rand_glued(rng, p, max_rank=2)
        f1 = A1Flag.from_module(g1.htc)
        fd = f1.dual()
        assert list(fd.bases) == [f1.basis_at(-i - 1).transpose().kernel()
                                  for i in range(fd.lo, fd.hi + 1)]
        dual = dual_reduced(g1)
        assert list(dual.drp.flags) == [g1.drp.flag_at(1 - i).transpose().kernel()
                                        for i in range(dual.drp.lo, dual.drp.hi + 1)]
        _assert_convolutions_match(fd, A1Flag.from_module(g2.htc), dual.drp, g2.drp)
        t = tensor_reduced(dual, g2)
        assert reduced_syntomic_cohomology(t).h == oracle_reduced(t)


def test_filtration_work_does_not_grow_with_the_window(rng):
    # the inclusion solves, rank checks, Theta solves and graded pieces of a
    # filtration with two jumps are solved once per run of equal flags
    counts = []
    for p in (101, 211):
        d = rand_glued(rng, p, twists=[0, p - 1], perturb=False).drp
        with count_calls(FpMat, "rref") as calls:
            FilThetaModule(p, d.dim, d.lo, d.hi, d.flags, d.theta).hodge
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_flag_presentation_products_grow_linearly_with_the_window(rng):
    # the x composites to the stable level are built top-down once, so
    # from_module makes one product per index plus a constant
    counts = {}
    for p in (53, 101, 211):
        m = rand_glued(rng, p, twists=[0, p - 1], perturb=False).htc
        fresh = A1Module(p, m.lo, m.hi, m.dims, m.x, m.d)
        with count_calls(FpMat, "__matmul__") as calls:
            A1Flag.from_module(fresh)
        counts[p] = len(calls)
        assert counts[p] <= 2 * p
    assert (counts[211] - counts[101]) * (101 - 53) == (counts[101] - counts[53]) * (211 - 101)


def _count_bk_work(monkeypatch, cases):
    """Calls of D_i, x_i, ``@`` and ``power`` made by building each bk twist
    (n, p) in ``cases`` and computing its cohomology; the at most 2 log2(p)
    products inside one ``power`` (Theta^p) count as that one call.  The
    products that ``components`` reads as rows only (``product_rows``) count
    under ``@`` too."""
    counts = {}
    inside_power = []

    def counting(key, fn):
        def wrapper(*args):
            if not inside_power:
                counts[key] = counts.get(key, 0) + 1
            if key != "power":
                return fn(*args)
            inside_power.append(True)
            try:
                return fn(*args)
            finally:
                inside_power.pop()
        return wrapper

    monkeypatch.setattr(A1Module, "d_at", counting("d_at", A1Module.d_at))
    monkeypatch.setattr(A1Module, "x_at", counting("x_at", A1Module.x_at))
    monkeypatch.setattr(FpMat, "__matmul__", counting("@", FpMat.__matmul__))
    monkeypatch.setattr(components, "product_rows", counting("@", components.product_rows))
    monkeypatch.setattr(FpMat, "power", counting("power", FpMat.power))
    seen = []
    for n, p in cases:
        counts.clear()
        reduced_syntomic_cohomology(bk_reduced(n, p))
        seen.append(dict(counts))
    assert all(seen[0][key] for key in ("d_at", "x_at", "@", "power"))
    return seen


@pytest.mark.parametrize("n", [-3, -2, -1, 1, 2, 3])
def test_bk_work_does_not_grow_with_p(monkeypatch, n):
    # D composites that reach below the window are zero at once, so a bk
    # twist and its cohomology take as many steps at p = 10^6 + 3 as at 7
    # (counted, not timed)
    small, large = _count_bk_work(monkeypatch, [(n, 7), (n, 10 ** 6 + 3)])
    assert small == large


@pytest.mark.parametrize("sign", [-1, 1])
def test_bk_work_does_not_grow_with_the_twist(monkeypatch, sign):
    # x composites that start below the window are zero at once too
    small, large = _count_bk_work(monkeypatch, [(30 * sign, 7), (3000 * sign, 7)])
    assert small == large
