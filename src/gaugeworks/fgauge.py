"""F-gauges at the arithmetic point: stabilized u/t diagrams of modules.

An :class:`FpGauge` is a finite window of finitely generated Z_(p)-modules
M^a ... M^b with downward maps t and upward maps u satisfying ut = tu = p,
plus an isomorphism tau: M^b -> M^a identifying the two stabilized ends
(Frobenius is the identity on the base, so tau is a plain isomorphism and
the Frobenius twist is bookkeeping only).  The constructor raises the first
law the diagram breaks; the one gauge built without that check is an
F-crystal's, through the trusted :meth:`FpGauge._made`, whose laws the Lemma
of :func:`gauge_from_fcrystal` proves.  So every value is lawful.  Outside the
window the diagram is declared constant: t = p above b and the identity at
or below a, u = p at or below a and the identity above b, so the stabilized
ends stand in for the completed colimits.  The window need not contain 0.

Syntomic cohomology is the homology of the single map

    (composite of t's from M^0 down)  -  tau (composite of u's from M^0 up),

and inverting p collapses the whole diagram to the bottom module with the
automorphism induced by tau, the rational realization.

An :class:`FCrystalPoint` is the input datum (free module, invertible
rational tau); its gauge is cut out by the saturated filtration
Fil^i = preimage of p^i M under tau.  One Smith form of tau gives its
exponents d_j and an integer basis B of M, the inverse of V^{-1} mod p^N,
in which Fil^i is B diag(p^{max(i - d_j, 0)}) at every index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import LawViolation, PrimeMismatchError
from .exactlinalg import (FGModule, ModuleMap, QMat, check_prime, homology_two_term,
                          smith_normal_form, zero_module)
from .exactlinalg.modules import composite, reduced_cokernel_dim
from .filphi import PhiModule


@dataclass(frozen=True)
class FpGauge:
    """Windowed u/t diagram with Frobenius identification.

    ``t[k]`` is t_{a+1+k}: M^{a+1+k} -> M^{a+k} and ``u[k]`` is
    u_{a+1+k}: M^{a+k} -> M^{a+1+k}; ``tau``: M^b -> M^a.  The gauge laws
    are checked once, here, by :func:`validate`, except in :meth:`_made`.
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

    @classmethod
    def _made(cls, prime: int, window: tuple[int, int], modules: tuple, t: tuple, u: tuple,
              tau: ModuleMap) -> "FpGauge":
        """The trusted twin of ``FpGauge(prime, window, modules, t, u, tau)``, with no
        shape or law check, for gauges whose laws a proof covers."""
        new = object.__new__(cls)
        vars(new).update(prime=prime, window=window, modules=modules, t=t, u=u, tau=tau)
        return new

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
        return composite(self.module_at(top), self.module_at(bottom), maps,
                         self.prime ** (max(top, b) - max(bottom, b)))

    def u_composite(self, bottom: int, top: int) -> ModuleMap:
        """Composite of u's from M^bottom up to M^top (bottom <= top).

        The u's at or below a are p, those above b the identity.
        """
        return composite(self.module_at(bottom), self.module_at(top),
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
        if not composite(g.modules[k + 1], g.modules[k + 1], (t, u)).is_scalar(g.prime):
            raise LawViolation(f"ut = tu = p failed at index {i} (ut != p)")
        if not composite(g.modules[k], g.modules[k], (u, t)).is_scalar(g.prime):
            raise LawViolation(f"ut = tu = p failed at index {i} (tu != p)")
    if not g.tau.is_isomorphism():
        raise LawViolation("tau must be an isomorphism M^b -> M^a")


def _window_maps(g: FpGauge, a_new: int, b_new: int):
    """The modules, t's and u's of ``g`` on the larger window [a_new, b_new]."""
    a, b = g.window
    if a_new > a or b_new < b:
        raise ValueError("window can only grow")
    modules = tuple(g.module_at(i) for i in range(a_new, b_new + 1))
    below, above = range(a_new + 1, a + 1), range(b + 1, b_new + 1)
    # outside the window each one-step composite is the bare scalar
    ts = tuple(g.t_composite(i, i - 1) for i in below) + tuple(g.t) + \
        tuple(g.t_composite(i, i - 1) for i in above)
    us = tuple(g.u_composite(i - 1, i) for i in below) + tuple(g.u) + \
        tuple(g.u_composite(i - 1, i) for i in above)
    return modules, ts, us


def extend_window(g: FpGauge, a_new: int, b_new: int) -> FpGauge:
    """Enlarge the window by the declared-constant data; the gauge is unchanged."""
    return FpGauge(g.prime, (a_new, b_new), *_window_maps(g, a_new, b_new), g.tau)


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
    up = composite(g.module_at(0), g.tau.target, maps + [g.tau], c)
    return homology_two_term(down - up)


def rational_realization(g: FpGauge) -> PhiModule:
    """Invert p: the bottom module with the tau-induced automorphism.

    In bottom coordinates every t becomes the identity and every u becomes
    multiplication by p, so the automorphism is p^b tau (t-composite)^{-1}
    read through the structural identifications; the result does not depend
    on the window (enlarging it multiplies and divides by the same power).
    Since ut = p, the inverse of the t-composite M^b -> M^a is the
    u-composite M^a -> M^b over p^(b - a), so the automorphism is the free
    block of p^a tau (u-composite): one integer product, and no inverse.
    """
    maps, _ = g._u_chain(g.a, g.b)
    up = composite(g.modules[0], g.modules[0], maps + [g.tau])
    return PhiModule(g.prime, up.rational_matrix().scale(Fraction(g.prime) ** g.a))


def direct_sum(g1: FpGauge, g2: FpGauge) -> FpGauge:
    """Levelwise direct sum after aligning the windows."""
    if g1.prime != g2.prime:
        raise PrimeMismatchError(g1.prime, g2.prime)
    a = min(g1.a, g2.a)
    b = max(g1.b, g2.b)
    # the aligned maps are not checked as two gauges: the sum's own
    # constructor checks the laws once
    (m1, t1, u1), (m2, t2, u2) = _window_maps(g1, a, b), _window_maps(g2, a, b)
    return FpGauge(g1.prime, (a, b), tuple(x.direct_sum(y) for x, y in zip(m1, m2)),
                   tuple(x.direct_sum(y) for x, y in zip(t1, t2)),
                   tuple(x.direct_sum(y) for x, y in zip(u1, u2)),
                   g1.tau.direct_sum(g2.tau))


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
        if not self.tau_crys.is_invertible():
            raise LawViolation("tau_crys must be invertible over the rationals")


def _integral_smith(c: FCrystalPoint) -> tuple[tuple[int, ...], QMat, QMat]:
    """The Smith exponents d_j of tau, and W and B of :meth:`SNF.integral_basis`
    at N = b - a + 1, for [a, b] the range of the d_j."""
    s = smith_normal_form(c.tau_crys, c.prime)
    exps = s.exponents  # tau is invertible, so all rank exponents are present
    return (exps, *s.integral_basis(max(exps, default=0) - min(exps, default=0) + 1))


def filtration_basis(c: FCrystalPoint, i: int) -> QMat:
    """Column basis of Fil^i = {m : tau(m) in p^i M} inside M = Z_(p)^rank.

    It is B diag(p^{max(i - d_j, 0)}), with B and the d_j as in
    :func:`gauge_from_fcrystal`, whose Lemma (iii) proves it.  The
    filtration is saturated, p M intersect Fil^i = p Fil^{i-1}: in B's
    coordinates both are diagonal, with exponents max(1, i - d_j) and
    1 + max(i - 1 - d_j, 0), equal at every i and d_j.
    """
    exps, _, basis = _integral_smith(c)
    scale = [c.prime ** max(i - d, 0) for d in exps]
    return QMat._made(tuple([tuple(map(mul, r, scale)) for r in basis.num]), 1, c.rank)


def gauge_from_fcrystal(c: FCrystalPoint) -> FpGauge:
    """Gauge of the saturated filtration Fil^i = preimage of p^i M under tau.

    t is the inclusion, u the unique map with ut = p, and the window [a, b]
    is the exponent range of the Smith normal form of tau, outside which t
    and u are the declared constants.  tau of the gauge sends m in Fil^b to
    tau_crys(m)/p^b, which lands in M and is an isomorphism there.  The
    levels are written in the bases B_i = B diag(p^{max(i - d_j, 0)}), with B
    the integer matrix of :meth:`SNF.integral_basis` at N = b - a + 1,
    whose entries stay the size of p^N however large the exact V grows.

    Lemma.  Let U tau_crys V = diag(p^{d_j}) be the Smith form, with
    a <= d_j <= b, N = b - a + 1, W = V^{-1} reduced mod p^N and B = W^{-1}.
    Then B is a Smith transform of tau_crys with the same exponents: B_i is
    a basis of Fil^i, and tau of the gauge is W tau_crys B diag(p^{-d_j}).

    Proof.  (i) W = V^{-1} (mod p^N), and with its columns in pivot order W
    is unit upper triangular, as V^{-1} is (see :class:`SNF`).  So det W is
    +-1, B is an integer matrix of determinant +-1, and
    B - V = B (V^{-1} - W) V = 0 (mod p^N), since V is p-integral.
    (ii) p^{-a} tau_crys is p-integral, so
    p^{-a} tau_crys B = p^{-a} tau_crys V + p^{-a} tau_crys (B - V)
    = U^{-1} diag(p^{d_j - a}) + p^N X with X p-integral.  Since
    d_j - a < N, column j is divisible by p^{d_j - a}, and the quotient is
    U^{-1} (mod p), hence unimodular: tau_crys B = U'^{-1} diag(p^{d_j})
    with U' invertible over Z_(p).  (iii) So U' tau_crys B = diag(p^{d_j}),
    and m = B x lies in Fil^i exactly when p^{d_j} x_j lies in p^i Z_(p)
    for every j: B diag(p^{max(i - d_j, 0)}) is a basis of Fil^i.  In these
    bases t and u are diagonal, and tau of the gauge is
    B_a^{-1} (tau_crys B_b / p^b) = W tau_crys B diag(p^{-d_j}) = U'^{-1},
    unimodular, and p-integral as ``ModuleMap``'s constructor checks.
    (iv) The gauge is lawful, so it is built by the trusted
    :meth:`FpGauge._made`.  t_i is diagonal with p where d_j < i and 1
    elsewhere, and u_i with 1 where d_j < i and p elsewhere, so
    u_i t_i = t_i u_i = p at every index of the window; tau = U'^{-1} is
    unimodular by (ii) and (iii), an isomorphism of the free module.  At
    rank 0 the gauge is the zero module at [0, 0] with tau its identity.
    """
    p = c.prime
    if c.rank == 0:
        m = zero_module(p)
        return FpGauge._made(p, (0, 0), (m,), (), (), ModuleMap.diagonal(m, ()))
    exps, w, basis = _integral_smith(c)
    a, b = min(exps), max(exps)
    free = FGModule(p, c.rank)
    modules = tuple(free for _ in range(a, b + 1))
    ts, us = [], []
    for i in range(a + 1, b + 1):
        # t_i is p where d_j < i and 1 elsewhere, u_i = p / t_i: lawful as built
        ts.append(ModuleMap.diagonal(free, [p if d < i else 1 for d in exps]))
        us.append(ModuleMap.diagonal(free, [1 if d < i else p for d in exps]))
    # diag(p^{-d_j}) scales columns: column j of N / D becomes
    # N p^(top - d_j) / (D p^top)
    tv = w @ (c.tau_crys @ basis)
    top = max(b, 0)
    scale = [p ** (top - d) for d in exps]
    tau = ModuleMap(free, free, QMat._lowest([list(map(mul, r, scale)) for r in tv.num],
                                             tv.den * p ** top, c.rank))
    return FpGauge._made(p, (a, b), modules, tuple(ts), tuple(us), tau)


def twist_gauge(n: int, p: int) -> FpGauge:
    """The rank-one gauge with tau_crys = p^{-n} (the n-th twist)."""
    tau = QMat([[Fraction(1, p ** n) if n >= 0 else Fraction(p ** (-n))]])
    return gauge_from_fcrystal(FCrystalPoint(p, 1, tau))


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
        # The end maps u_a = p and t_{b+1} = p vanish mod p, so only the
        # window's own maps count: u_i for i > a and t_{i+1} for i < b.
        dim = reduced_cokernel_dim(m, g.u[k - 1:k] + g.t[k:k + 1])
        if dim:
            out[g.a + k] = dim
    return out
