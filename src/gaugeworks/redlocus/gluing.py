"""Glued coefficient objects on the reduced locus and their cohomology.

A :class:`ReducedFGauge` is a pair (conjugate-filtered Hodge--Tate datum,
Hodge-filtered de Rham datum) together with identifications of their two
common restrictions: an isomorphism alpha_dR of the de Rham restrictions
and a graded isomorphism alpha_Hod of the Hodge restrictions, both required
to commute with the respective operators.

Reduced syntomic cohomology is the fibre of

    (de Rham+ fibre) + (Hodge--Tate fibre) --(a - b)--> (de Rham fibre) + (Hodge fibre)

assembled as one explicit total complex over F_p of amplitude [0, 2].
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import LawViolation
from ..exactlinalg import FpMat, fp_homology_two_term
from .components import (A1Module, FilThetaModule, restrict_dRplus_to_Hod,
                         restrict_HTc_to_Hod)


@dataclass(frozen=True)
class ReducedFGauge:
    """Glued datum with explicit identifications along the common strata.

    ``alpha_dr`` maps the stable space of ``htc`` to the underlying space of
    ``drp``;  ``alpha_hod[i]`` maps gr_i of ``htc`` to gr^i of ``drp``.
    Every gluing law is checked once, here; the value is frozen, so the
    cohomology routine trusts it and only asserts that its total complex
    squares to zero.
    """

    htc: A1Module
    drp: FilThetaModule
    alpha_dr: FpMat
    alpha_hod: dict

    def __post_init__(self):
        if self.htc.prime != self.drp.prime:
            raise LawViolation("both halves must share one prime")
        object.__setattr__(self, "alpha_hod",
                           {int(k): v for k, v in self.alpha_hod.items()})
        _check_gluing(self)

    @property
    def prime(self) -> int:
        return self.htc.prime


def _check_gluing(g: ReducedFGauge) -> None:
    """Raise the first violated gluing law.  Once Dx - xD = 1 holds, Theta = xD
    needs no check of its own: (xD)^p - xD = x^p D^p, with x^p and D^p central,
    so its k-th power x^{pk} D^{pk} factors through a level below the window."""
    bad = g.htc.violations()
    if bad:
        raise LawViolation(bad[0])
    theta = g.htc.de_rham_theta
    if g.alpha_dr.shape != (g.drp.dim, theta.nrows):
        raise LawViolation("alpha_dR must map the Hodge--Tate de Rham restriction "
                           "to the de Rham restriction")
    if not g.alpha_dr.is_invertible():
        raise LawViolation("alpha_dR must be an isomorphism")
    if g.alpha_dr @ theta != g.drp.theta @ g.alpha_dr:
        raise LawViolation("alpha_dR must commute with Theta")
    hod_htc = restrict_HTc_to_Hod(g.htc)
    hod_drp = restrict_dRplus_to_Hod(g.drp)
    if hod_htc.support() != hod_drp.support():
        raise LawViolation("the two Hodge restrictions must have equal support")
    for i in hod_htc.support():
        a_i = g.alpha_hod.get(i)
        if a_i is None or a_i.shape != (hod_drp.dim_at(i), hod_htc.dim_at(i)):
            raise LawViolation(f"alpha_Hod missing or mis-shaped in degree {i}")
        if not a_i.is_invertible():
            raise LawViolation(f"alpha_Hod must be an isomorphism in degree {i}")
    p = g.prime
    for i in hod_htc.support():
        j = i - p
        if hod_htc.dim_at(j) == 0:
            continue
        a_i = g.alpha_hod[i]
        a_j = g.alpha_hod[j]
        if a_j @ hod_htc.theta_at(i) != hod_drp.theta_at(i) @ a_i:
            raise LawViolation(f"alpha_Hod must commute with Theta (degree {i})")


@dataclass(frozen=True)
class ReducedCohomology:
    """Cohomology of the glued total complex plus the component fibres."""

    h: tuple[int, int, int]
    components: dict  # "dRplus" / "HTc" / "dR" / "Hod" -> (h0, h1)


def reduced_syntomic_cohomology(g: ReducedFGauge) -> ReducedCohomology:
    """Total complex of the gluing fibre; amplitude [0, 2].

    Degree 0: Fil^0(drp) + Fil_0(htc).
    Degree 1: Fil^{-p}(drp) + Fil_{-1}(htc) + V_dR + gr^0.
    Degree 2: V_dR + gr^{-p}.
    The de Rham and Hodge targets are taken in the de Rham+ model; the
    Hodge--Tate side routes through the alphas.
    """
    p = g.prime
    htc, drp = g.htc, g.drp

    # chain-level components of the four corner complexes
    proj0, sigma0 = drp.gr(0)                 # Fil^0 -> gr^0 and a section
    proj_p = drp.gr(-p)[0]                    # Fil^{-p} -> gr^{-p}
    d_drp = drp.theta_in_flag(0)              # Fil^0 -> Fil^{-p}
    d_htc = htc.d_at(0)                       # Fil_0 -> Fil_{-1}
    theta_v = drp.theta                       # V -> V
    d_hod = proj_p @ d_drp @ sigma0           # gr^0 -> gr^{-p}

    # restriction chain maps (degree 0 and 1 components)
    incl0 = drp.flag_at(0)                    # Fil^0 -> V
    incl1 = drp.flag_at(-p)                   # Fil^{-p} -> V
    b0_dr = g.alpha_dr @ htc.to_stable(0)
    b1_dr = g.alpha_dr @ htc.to_stable(-1)
    n_v, g0, gp = drp.dim, proj0.nrows, proj_p.nrows
    a_hod0 = g.alpha_hod.get(0)
    a_hodp = g.alpha_hod.get(-p)
    b0_hod = (a_hod0 @ htc.gr(0)[0]) if a_hod0 is not None else \
        FpMat.zeros(p, g0, htc.dim_at(0))
    dcomp = htc.d_composite(-1, -p)           # D^{p-1}: Fil_{-1} -> Fil_{-p}
    b1_hod = (a_hodp @ htc.gr(-p)[0] @ dcomp) if a_hodp is not None else \
        FpMat.zeros(p, gp, htc.dim_at(-1))

    f0_drp, f0_htc = drp.fil_dim(0), htc.dim_at(0)
    f1_drp, f1_htc = drp.fil_dim(-p), htc.dim_at(-1)

    # d0: (s, t) |-> (d_drp s, d_htc t, incl0 s - b0_dr t, proj0 s - b0_hod t)
    z = FpMat.zeros
    d0 = _stack_rows(p, [
        [d_drp, z(p, f1_drp, f0_htc)],
        [z(p, f1_htc, f0_drp), d_htc],
        [incl0, -b0_dr],
        [proj0, -b0_hod],
    ])
    # d1: (s1, t1, v, w) |-> (incl1 s1 - b1_dr t1 - theta_v v,
    #                          proj_p s1 - b1_hod t1 - d_hod w)
    d1 = _stack_rows(p, [
        [incl1, -b1_dr, -theta_v, z(p, n_v, g0)],
        [proj_p, -b1_hod, z(p, gp, n_v), -d_hod],
    ])
    if not (d1 @ d0).is_zero():
        raise LawViolation("gluing data does not assemble into a complex",
                           "d1 d0 != 0; alphas fail Theta-equivariance")
    dims = (f0_drp + f0_htc, f1_drp + f1_htc + n_v + g0, n_v + gp)
    r0, r1 = d0.rank(), d1.rank()
    h = (dims[0] - r0, dims[1] - r1 - r0, dims[2] - r1)
    comps = {
        "dRplus": fp_homology_two_term(d_drp),
        "HTc": fp_homology_two_term(d_htc),
        "dR": fp_homology_two_term(theta_v),
        "Hod": fp_homology_two_term(d_hod),
    }
    return ReducedCohomology(h, comps)


def _stack_rows(p: int, blocks: list[list[FpMat]]) -> FpMat:
    out = None
    for row in blocks:
        acc = None
        for blk in row:
            acc = blk if acc is None else acc.hstack(blk)
        out = acc if out is None else out.vstack(acc)
    return out
