"""F-gauges at the arithmetic point: stabilized u/t diagrams of modules.

An :class:`FpGauge` is a finite window of finitely generated Z_(p)-modules
M^a ... M^b with downward maps t and upward maps u satisfying ut = tu = p,
plus an isomorphism tau: M^b -> M^a identifying the two stabilized ends
(Frobenius is the identity on the base, so tau is a plain isomorphism and
the Frobenius twist is bookkeeping only).  The constructor raises the first
law the diagram breaks, so every value is a lawful gauge.  Outside the
window the diagram is declared constant: t = p above b and the identity at
or below a, u = p at or below a and the identity above b, so the stabilized
ends stand in for the completed colimits.  The window need not contain 0.

Syntomic cohomology is the homology of the single map

    (composite of t's from M^0 down)  -  tau (composite of u's from M^0 up),

and inverting p collapses the whole diagram to the bottom module with the
automorphism induced by tau, the rational realization.

An :class:`FCrystalPoint` is the input datum (free module, invertible
rational tau); its gauge is cut out by the saturated filtration
Fil^i = preimage of p^i M under tau, computed once from the Smith normal
form of tau and then thresholded per index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import LawViolation, PrimeMismatchError
from .exactlinalg import (SNF, FGModule, ModuleMap, QMat, block_diag,
                          check_prime, homology_two_term, is_p_local,
                          kernel_over_zp, smith_exponents, smith_normal_form,
                          zero_module)
from .exactlinalg.modules import _composite, _int_product
from .filphi import PhiModule


@dataclass(frozen=True)
class FpGauge:
    """Windowed u/t diagram with Frobenius identification.

    ``t[k]`` is t_{a+1+k}: M^{a+1+k} -> M^{a+k} and ``u[k]`` is
    u_{a+1+k}: M^{a+k} -> M^{a+1+k}; ``tau``: M^b -> M^a.  The gauge laws
    are checked once, here, by :func:`validate`.
    """

    prime: int
    window: tuple[int, int]
    modules: tuple[FGModule, ...]
    t: tuple[ModuleMap, ...]
    u: tuple[ModuleMap, ...]
    tau: ModuleMap

    def __post_init__(self):
        check_prime(self.prime)
        a, b = self.window
        if a > b:
            raise ValueError("window must satisfy a <= b")
        if len(self.modules) != b - a + 1:
            raise ValueError("need one module per window index")
        if len(self.t) != b - a or len(self.u) != b - a:
            raise ValueError("need one t and one u per adjacent pair")
        for m in self.modules:
            if m.prime != self.prime:
                raise PrimeMismatchError(self.prime, m.prime)
        for k, tm in enumerate(self.t):
            if tm.source != self.modules[k + 1] or tm.target != self.modules[k]:
                raise ValueError(f"t[{k}] must map M^{a + 1 + k} to M^{a + k}")
        for k, um in enumerate(self.u):
            if um.source != self.modules[k] or um.target != self.modules[k + 1]:
                raise ValueError(f"u[{k}] must map M^{a + k} to M^{a + 1 + k}")
        if self.tau.source != self.modules[-1] or self.tau.target != self.modules[0]:
            raise ValueError("tau must map M^b to M^a")
        validate(self)

    @property
    def a(self) -> int:
        return self.window[0]

    @property
    def b(self) -> int:
        return self.window[1]

    def module_at(self, i: int) -> FGModule:
        a, b = self.window
        return self.modules[min(max(i, a), b) - a]

    def t_composite(self, top: int, bottom: int) -> ModuleMap:
        """Composite of t's from M^top down to M^bottom (top >= bottom).

        The t's above b are p, those at or below a the identity.
        """
        a, b = self.window
        maps = [self.t[i - a - 1] for i in range(min(top, b), max(bottom, a), -1)]
        return _composite(self.module_at(top), self.module_at(bottom), maps,
                          self.prime ** (max(top, b) - max(bottom, b)))

    def u_composite(self, bottom: int, top: int) -> ModuleMap:
        """Composite of u's from M^bottom up to M^top (bottom <= top).

        The u's at or below a are p, those above b the identity.
        """
        return _composite(self.module_at(bottom), self.module_at(top),
                          *self._u_chain(bottom, top))

    def _u_chain(self, bottom: int, top: int) -> tuple[list[ModuleMap], int]:
        """The window's u's from M^bottom up to M^top, first applied first,

        and the power of p that the constant u's at or below a contribute.
        """
        a, b = self.window
        return ([self.u[i - a - 1] for i in range(max(bottom, a) + 1, min(top, b) + 1)],
                self.prime ** (min(top, a) - min(bottom, a)))


def validate(g: FpGauge) -> None:
    """Raise the first violated gauge law: ut = tu = p index by index, then tau."""
    for k, (t, u) in enumerate(zip(g.t, g.u)):
        i = g.a + 1 + k
        if not _is_p(g.modules[k + 1], *_int_product(g.modules[k + 1], (t, u))):
            raise LawViolation(f"ut = tu = p failed at index {i} (ut != p)")
        if not _is_p(g.modules[k], *_int_product(g.modules[k], (u, t))):
            raise LawViolation(f"ut = tu = p failed at index {i} (tu != p)")
    if not g.tau.is_isomorphism():
        raise LawViolation("tau must be an isomorphism M^b -> M^a")


def _is_p(m: FGModule, rows: list[list[int]], den: int) -> bool:
    """``rows / den`` is multiplication by p on ``m``, as a map; consumes ``rows``.

    That is :meth:`ModuleMap.equals_as_map` against p: N - p D I is 0 in each
    free row and 0 mod p^f in each row of order p^f, since D is a p-unit.
    """
    p = m.prime
    for i, row in enumerate(rows):
        row[i] -= p * den
        xs = [x for x in row if x]
        if not xs:
            continue
        f = m.order_exponent(i)
        # a nonzero multiple of p^f has more than f bits, so p^f is built
        # only below the size of the entries
        if f is None or f >= min(x.bit_length() for x in xs):
            return False
        q = p ** f
        if any(x % q for x in xs):
            return False
    return True


def extend_window(g: FpGauge, a_new: int, b_new: int) -> FpGauge:
    """Enlarge the window by the declared-constant data; the gauge is unchanged."""
    a, b = g.window
    if a_new > a or b_new < b:
        raise ValueError("window can only grow")
    modules = [g.module_at(i) for i in range(a_new, b_new + 1)]
    below, above = range(a_new + 1, a + 1), range(b + 1, b_new + 1)
    # outside the window each one-step composite is the bare scalar
    ts = [g.t_composite(i, i - 1) for i in below] + list(g.t) + \
         [g.t_composite(i, i - 1) for i in above]
    us = [g.u_composite(i - 1, i) for i in below] + list(g.u) + \
         [g.u_composite(i - 1, i) for i in above]
    return FpGauge(g.prime, (a_new, b_new), tuple(modules), tuple(ts),
                   tuple(us), g.tau)


def syntomic_cohomology(g: FpGauge) -> tuple[FGModule, FGModule]:
    """(H0, H1) of  M^0 --(t-composite  -  tau u-composite)--> M^a.

    Any window works: M^0 is M^a below it and M^b above it, and the
    composites read the constant ends.  A window off 0 gives an
    automorphism, so both groups vanish: for a >= 1 the map is
    1 - p^a X, for b <= -1 it is -tau (1 - p^(-b) tau^{-1} T), and 1 - p Y
    is onto by Nakayama, hence bijective on a finitely generated module.
    """
    if g.a >= 1 or g.b <= -1:
        return zero_module(g.prime), zero_module(g.prime)
    down = g.t_composite(0, g.a)
    maps, c = g._u_chain(0, g.b)
    up = _composite(g.module_at(0), g.tau.target, maps + [g.tau], c)
    return homology_two_term(down - up)


def rational_realization(g: FpGauge) -> PhiModule:
    """Invert p: the bottom module with the tau-induced automorphism.

    In bottom coordinates every t becomes the identity and every u becomes
    multiplication by p, so the automorphism is p^b tau (t-composite)^{-1}
    read through the structural identifications; the result does not depend
    on the window (enlarging it multiplies and divides by the same power).
    """
    a, b = g.window
    if g.modules[0].free_rank == 0:
        return PhiModule(g.prime, QMat.zeros(0, 0))
    # ut = p makes every t invertible after inverting p
    inv = g.t_composite(b, a).rational_matrix().inverse()
    return PhiModule(g.prime, g.tau.rational_matrix().scale(Fraction(g.prime) ** b) @ inv)


def direct_sum(g1: FpGauge, g2: FpGauge) -> FpGauge:
    """Levelwise direct sum after aligning the windows."""
    if g1.prime != g2.prime:
        raise PrimeMismatchError(g1.prime, g2.prime)
    a = min(g1.a, g2.a)
    b = max(g1.b, g2.b)
    g1, g2 = extend_window(g1, a, b), extend_window(g2, a, b)

    def sum_map(m1: ModuleMap, m2: ModuleMap) -> ModuleMap:
        src = m1.source.direct_sum(m2.source)
        tgt = m1.target.direct_sum(m2.target)
        mat = block_diag(m1.matrix, m2.matrix)
        return ModuleMap._made(src, tgt, mat.take_rows(_sum_order(m1.target, m2.target))
                               .take_cols(_sum_order(m1.source, m2.source)))

    modules = tuple(x.direct_sum(y) for x, y in zip(g1.modules, g2.modules))
    ts = tuple(sum_map(x, y) for x, y in zip(g1.t, g2.t))
    us = tuple(sum_map(x, y) for x, y in zip(g1.u, g2.u))
    tau = sum_map(g1.tau, g2.tau)
    return FpGauge(g1.prime, (a, b), modules, ts, us, tau)


def _sum_order(m1: FGModule, m2: FGModule) -> list[int]:
    """Block positions of the generators of m1 (+) m2, in direct_sum order.

    Free generators come first, then torsion by exponent; the sort is
    stable, so ties keep m1's generators before m2's.
    """
    exps = (0,) * m1.free_rank + m1.torsion + (0,) * m2.free_rank + m2.torsion
    return sorted(range(len(exps)), key=exps.__getitem__)


# ---------------------------------------------------------------------------
# F-crystals at the point and their saturated filtration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FCrystalPoint:
    """A free module with an invertible rational Frobenius matrix."""

    prime: int
    rank: int
    tau_crys: QMat

    def __post_init__(self):
        check_prime(self.prime)
        if self.tau_crys.shape != (self.rank, self.rank):
            raise ValueError("tau_crys must be rank x rank")
        if self.rank > 0 and self.tau_crys.det() == 0:
            raise LawViolation("tau_crys must be invertible over the rationals")


def filtration_basis(c: FCrystalPoint, i: int) -> QMat:
    """Column basis of Fil^i = {m : tau(m) in p^i M} inside M = Z_(p)^rank.

    With U tau V = diag(p^{d_j}), the preimage is spanned by
    p^{max(i - d_j, 0)} (column j of V).
    """
    return _filtration_basis(smith_normal_form(c.tau_crys, c.prime), i)


def _filtration_basis(s: SNF, i: int) -> QMat:
    """:func:`filtration_basis` read off the Smith form ``s`` of tau."""
    n = s.v.nrows
    cols = []
    for j, d_j in enumerate(s.exponents):
        scale = Fraction(s.prime) ** max(i - d_j, 0)
        cols.append([scale * s.v[r, j] for r in range(n)])
    return QMat.from_cols(cols, n)


def gauge_from_fcrystal(c: FCrystalPoint) -> FpGauge:
    """Gauge of the saturated filtration Fil^i = preimage of p^i M under tau.

    t is the inclusion, u the unique map with ut = p, and the window is the
    exponent range of the Smith normal form of tau, outside which t and u
    are the declared constants.
    tau of the gauge sends m in Fil^b to tau_crys(m)/p^b, which lands in M
    and is an isomorphism there.
    """
    p = c.prime
    if c.rank == 0:
        m = zero_module(p)
        return FpGauge(p, (0, 0), (m,), (), (), ModuleMap.identity(m))
    s = smith_normal_form(c.tau_crys, p)
    exps = s.exponents  # tau is invertible, so all r exponents are present
    a, b = min(exps), max(exps)
    free = FGModule(p, c.rank)
    modules = tuple(free for _ in range(a, b + 1))
    ts, us = [], []
    for i in range(a + 1, b + 1):
        # t_i is p where d_j < i and 1 elsewhere, u_i = p / t_i: lawful as built
        ts.append(ModuleMap._made(free, free, QMat.diagonal([p if d < i else 1 for d in exps])))
        us.append(ModuleMap._made(free, free, QMat.diagonal([1 if d < i else p for d in exps])))
    # in the bases B_i = V diag(p^{max(i - d_j, 0)}), tau of the gauge is
    # B_a^{-1} (tau_crys B_b / p^b) = V^{-1} tau_crys V diag(p^{-d_j}), which
    # is V^{-1} U^{-1} for U tau_crys V = diag(p^{d_j}): unimodular (checked)
    unscale = QMat.diagonal([Fraction(p) ** -d for d in exps])
    tau = ModuleMap(free, free, s.v.solve(c.tau_crys @ s.v @ unscale))
    return FpGauge(p, (a, b), modules, tuple(ts), tuple(us), tau)


def twist_gauge(n: int, p: int) -> FpGauge:
    """The rank-one gauge with tau_crys = p^{-n} (the n-th twist)."""
    tau = QMat([[Fraction(1, p ** n) if n >= 0 else Fraction(p ** (-n))]])
    return gauge_from_fcrystal(FCrystalPoint(p, 1, tau))


def filtration_saturation_holds(c: FCrystalPoint) -> bool:
    """Exact check of  p M  intersect  Fil^i  =  p Fil^{i-1}  at every window index.

    This is the saturation property of the filtration; it is equivalent to
    injectivity of the induced maps Fil^i / p Fil^{i-1} -> Fil^{i-1} / p Fil^{i-2}
    and is what the mod-p injectivity of the filtration diagram means at the
    point, where the ideal cutting out the point is (p) itself.
    """
    if c.rank == 0:
        return True
    p = c.prime
    s = smith_normal_form(c.tau_crys, p)
    a, b = min(s.exponents), max(s.exponents)
    full = QMat.identity(c.rank)
    for i in range(a, b + 2):
        lhs = _lattice_intersection(full.scale(p), _filtration_basis(s, i), p)
        rhs = _filtration_basis(s, i - 1).scale(p)
        if not (_lattice_contains(lhs, rhs, p) and _lattice_contains(rhs, lhs, p)):
            return False
    return True


def _lattice_intersection(b1: QMat, b2: QMat, p: int) -> QMat:
    """Basis of the intersection of two full-rank lattices in Q^n."""
    ker = kernel_over_zp(b1.hstack(b2.scale(-1)), p)
    coeffs = ker.take_rows(list(range(b1.ncols)))
    vecs = b1 @ coeffs
    s = smith_normal_form(vecs, p)
    # a basis of the (full-rank) intersection: the first rank columns of
    # U^{-1} D, which is vecs V
    return vecs @ s.v.take_cols(list(range(s.rank)))


def _lattice_contains(outer: QMat, inner: QMat, p: int) -> bool:
    """Every column of ``inner`` lies in the Z_(p)-span of ``outer``."""
    sol = outer.solve(inner)
    if sol is None:
        return False
    return all(is_p_local(sol[i, j], p)
               for i in range(sol.nrows) for j in range(sol.ncols))


# ---------------------------------------------------------------------------
# Hodge--Tate weights
# ---------------------------------------------------------------------------


def hodge_tate_weights(g: FpGauge) -> dict[int, int]:
    """Weight multiset: i -> dim of M^i / (p M^i + image u_i + image t_{i+1}).

    Finite support is guaranteed by stabilization: outside the window one of
    u, t is an isomorphism and the quotient vanishes.
    """
    out: dict[int, int] = {}
    for k, m in enumerate(g.modules):
        # The quotient has dimension ngens minus the number of unit invariant
        # factors of [p I | u_i | t_{i+1} | relations].  The p I and relation
        # columns vanish mod p, so they never change that number: the Smith
        # exponents of [u_i | t_{i+1}] alone count the same units.  The end
        # maps u_a = p and t_{b+1} = p vanish mod p too, so only the window's
        # own maps are stacked: u_i for i > a and t_{i+1} for i < b.
        stacked = QMat.zeros(m.ngens, 0)
        for f in g.u[k - 1:k] + g.t[k:k + 1]:
            stacked = stacked.hstack(f.matrix)
        dim = m.ngens - smith_exponents(stacked, g.prime).count(0)
        if dim:
            out[g.a + k] = dim
    return out


def snf_weight_multiset(c: FCrystalPoint) -> dict[int, int]:
    """Valuations of the Smith diagonal of tau_crys, with multiplicity.

    For diag(p^{-n_1}, ..., p^{-n_r}) this is the multiset {-n_j}: the twist
    exponents negated; it must match :func:`hodge_tate_weights` of the gauge.
    """
    out: dict[int, int] = {}
    for e in smith_exponents(c.tau_crys, c.prime):
        out[e] = out.get(e, 0) + 1
    return out
