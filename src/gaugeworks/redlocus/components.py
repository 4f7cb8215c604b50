"""The four coefficient categories on the components of the reduced locus.

Over F_p the reduced locus is glued from four strata; quasi-coherent data on
them is plain linear algebra:

* de Rham stratum: a space V with an operator Theta, (Theta^p - Theta)
  nilpotent; cohomology is the fibre of Theta: V -> V.
* Hodge stratum: a graded space with Theta of degree -p, nilpotent;
  cohomology is the fibre of Theta: V_0 -> V_{-p}.
* conjugate-filtered Hodge--Tate stratum: a graded module over the mod-p
  Weyl algebra on x (degree +1) and D (degree -1) with Dx - xD = 1,
  bounded below and x eventually invertible; cohomology is the fibre of
  D: Fil_0 -> Fil_{-1}.
* Hodge-filtered de Rham stratum: an honestly filtered space with Theta
  lowering the filtration by p; cohomology is the fibre of
  Theta: Fil^0 -> Fil^{-p}.

Restriction functors: the Hodge--Tate stratum restricts to de Rham by
passing to the x-stable range in a degree divisible by p and taking
Theta = x D, and to Hodge by taking the associated graded with Theta = D^p
(which descends because D^p commutes with x mod p).  The filtered de Rham
stratum restricts by forgetting the filtration and by taking gr.

Cost per window.  A flag is constant between its jumps, and the inclusion
solves, rank checks and Theta solves of a filtration, and the graded
pieces of both filtered strata, read the bases or maps of one or two
neighbouring indices.  Each module computes them once per run of equal
inputs (:func:`per_index`, one ``==`` per index), so a window of width w
whose flag jumps j times costs O(j) eliminations and O(w) comparisons.
The x composites to the stable level take one product per index, built
once top-down; the relation Dx - xD = 1 is still checked level by level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import LawViolation
from ..exactlinalg import (FpMat, check_prime, fp_homology_two_term,
                           quotient_projection)


def per_index(inputs, compute):
    """Yield ``compute(*args)`` for each tuple ``args`` in ``inputs``.

    The value is computed again only when ``args`` differ from the previous
    index's, tested with one ``==``; otherwise the previous value is yielded.
    Lazy, so a caller that raises at a failed law stops the loop there.
    """
    last = value = None
    for args in inputs:
        if args != last:
            last, value = args, compute(*args)
        yield value


@dataclass(frozen=True)
class ThetaModule:
    """(V, Theta) with Theta^p - Theta nilpotent."""

    prime: int
    theta: FpMat

    def __post_init__(self):
        check_prime(self.prime)
        if self.theta.p != self.prime:
            raise LawViolation("matrix prime must match the module prime")
        if self.theta.nrows != self.theta.ncols:
            raise ValueError("theta must be square")
        frob = self.theta.power(self.prime) - self.theta
        if not frob.is_nilpotent():
            raise LawViolation("Theta^p - Theta must act nilpotently",
                               "checked by matrix power up to the dimension")

    @property
    def dim(self) -> int:
        return self.theta.nrows


@dataclass(frozen=True)
class GradedThetaModule:
    """Finitely supported graded pieces with theta_i: V_i -> V_{i-p}.

    Theta is nilpotent automatically: it lowers the degree by p, so each
    walk down from the finite support ends in a piece of dimension 0.
    """

    prime: int
    dims: dict  # degree -> dimension (only nonzero entries)
    thetas: dict  # degree i -> FpMat V_i -> V_{i-p}

    def __post_init__(self):
        check_prime(self.prime)
        object.__setattr__(self, "dims",
                           {int(k): int(v) for k, v in self.dims.items() if v})
        thetas = {}
        for i, m in self.thetas.items():
            i = int(i)
            expected = (self.dim_at(i - self.prime), self.dim_at(i))
            if m.shape != expected:
                raise ValueError(f"theta at degree {i} has shape {m.shape}, "
                                 f"expected {expected}")
            if not m.is_zero():
                thetas[i] = m
        object.__setattr__(self, "thetas", thetas)

    def dim_at(self, i: int) -> int:
        return self.dims.get(i, 0)

    def theta_at(self, i: int) -> FpMat:
        if i in self.thetas:
            return self.thetas[i]
        return FpMat.zeros(self.prime, self.dim_at(i - self.prime), self.dim_at(i))

    def support(self) -> list[int]:
        return sorted(self.dims)


@dataclass(frozen=True)
class A1Module:
    """Graded module over F_p{x, D}/(Dx - xD - 1), windowed and stabilized.

    ``dims[k]`` is the dimension of Fil_{lo+k}; ``x[k]``: Fil_{lo+k} ->
    Fil_{lo+k+1}; ``d[k]``: Fil_{lo+k+1} -> Fil_{lo+k}.  Below the window
    the pieces vanish; at and above the top the transition x is the
    identity, and D continues upward by the recursion forced by the algebra
    relation.  D is automatically locally nilpotent: the module is bounded
    below, so enough D steps land in zero.
    """

    prime: int
    lo: int
    hi: int
    dims: tuple[int, ...]
    x: tuple[FpMat, ...]
    d: tuple[FpMat, ...]

    def __post_init__(self):
        check_prime(self.prime)
        if self.lo > self.hi:
            raise ValueError("window must satisfy lo <= hi")
        object.__setattr__(self, "dims", tuple(int(v) for v in self.dims))
        if len(self.dims) != self.hi - self.lo + 1:
            raise ValueError("dims must cover the window")
        w = self.hi - self.lo
        if len(self.x) != w or len(self.d) != w:
            raise ValueError("need one x and one D per adjacent pair in the window")
        for k, m in enumerate(self.x):
            if m.shape != (self.dims[k + 1], self.dims[k]):
                raise ValueError(f"x[{k}] has shape {m.shape}")
        for k, m in enumerate(self.d):
            if m.shape != (self.dims[k], self.dims[k + 1]):
                raise ValueError(f"D[{k}] has shape {m.shape}")

    def dim_at(self, i: int) -> int:
        if i < self.lo:
            return 0
        if i > self.hi:
            return self.dims[-1]
        return self.dims[i - self.lo]

    def x_at(self, i: int) -> FpMat:
        """x_i: Fil_i -> Fil_{i+1}; identity at and above the window top."""
        if i < self.lo:
            return FpMat.zeros(self.prime, self.dim_at(i + 1), 0)
        if i >= self.hi:
            return FpMat.identity(self.prime, self.dims[-1])
        return self.x[i - self.lo]

    def d_at(self, i: int) -> FpMat:
        """D_i: Fil_i -> Fil_{i-1}; continued upward by D_{i+1} x_i = x_{i-1} D_i + 1.

        x is the identity from ``hi`` upward, so above the window the
        recursion sums to D_i = x_{hi-1} D_hi + (i - hi).
        """
        if i <= self.lo:
            return FpMat.zeros(self.prime, self.dim_at(i - 1), self.dim_at(i))
        if i <= self.hi:
            return self.d[i - self.lo - 1]
        return (self.x_at(self.hi - 1) @ self.d_at(self.hi)
                + FpMat.scalar(self.prime, self.dims[-1], i - self.hi))

    @cached_property
    def _composites(self) -> list[FpMat]:
        """Entry k is x_{hi-1} ... x_{hi-k}: Fil_{hi-k} -> Fil_hi, grown
        top-down by :meth:`to_stable`, one product per index."""
        return [FpMat.identity(self.prime, self.dims[-1])]

    def to_stable(self, i: int) -> FpMat:
        """The x composite Fil_i -> the stable space (x is the identity from
        ``hi`` upward): zero from below the window, the identity above it."""
        if i < self.lo:
            return FpMat.zeros(self.prime, self.dims[-1], 0)
        comps = self._composites
        while len(comps) <= self.hi - i:
            comps.append(comps[-1] @ self.x[self.hi - len(comps) - self.lo])
        return comps[max(self.hi - i, 0)]

    def d_composite(self, top: int, bottom: int) -> FpMat:
        """D_{bottom+1} ... D_top: Fil_top -> Fil_bottom; zero below the window."""
        if bottom < self.lo:
            return FpMat.zeros(self.prime, 0, self.dim_at(top))
        acc = FpMat.identity(self.prime, self.dim_at(top))
        for i in range(top, bottom, -1):
            acc = self.d_at(i) @ acc
        return acc

    def stable_level(self) -> int:
        """Least multiple of p that is >= max(hi, 0): the canonical x-stable

        degree at which the de Rham restriction is read off.  A multiple of
        p is required for x D to be transportable along x and for the
        restriction maps out of the cohomology fibre to be chain maps.
        """
        p = self.prime
        top = max(self.hi, 0)
        return p * ((top + p - 1) // p)

    @cached_property
    def de_rham_theta(self) -> FpMat:
        """Theta = x D on the stable space, read at :meth:`stable_level`."""
        n = self.stable_level()
        return self.x_at(n - 1) @ self.d_at(n)

    def violations(self) -> tuple[str, ...]:
        """Check the algebra relation on levels lo..hi-1; at hi both sides
        are x_{hi-1} D_hi + 1, the recursion that defines D_{hi+1}."""
        bad = []
        for i in range(self.lo, self.hi):
            lhs = self.d_at(i + 1) @ self.x_at(i)
            rhs = (self.x_at(i - 1) @ self.d_at(i)
                   + FpMat.identity(self.prime, self.dim_at(i)))
            if lhs != rhs:
                bad.append(f"Dx - xD = 1 failed on Fil_{i}")
        return tuple(bad)

    @cached_property
    def _graded(self) -> tuple[tuple[FpMat, FpMat], ...]:
        return tuple(per_index(((self.x_at(i - 1),) for i in range(self.lo, self.hi + 1)),
                               quotient_projection))

    def gr(self, i: int) -> tuple[FpMat, FpMat]:
        """Projection Fil_i -> gr_i = coker(x_{i-1}) and a section of it."""
        if self.lo <= i <= self.hi:
            return self._graded[i - self.lo]
        return quotient_projection(self.x_at(i - 1))

    def lift(self, i: int) -> FpMat:
        """A basis of gr_i lifted into the stable space (columns)."""
        return self.to_stable(i) @ self.gr(i)[1]


@dataclass(frozen=True)
class FilThetaModule:
    """Honest decreasing filtration on V with Theta: Fil^i -> Fil^{i-p}.

    ``flags[k]`` is a column basis of Fil^{lo+k} inside V; Fil^i = V for
    i <= lo and 0 for i > hi.  Theta^p - Theta is checked nilpotent on V at
    construction; the graded operator on gr is nilpotent automatically (it
    has degree -p on a finite support), and the associated graded
    :attr:`hodge` is built on first use.
    """

    prime: int
    dim: int
    lo: int
    hi: int
    flags: tuple[FpMat, ...]
    theta: FpMat

    def __post_init__(self):
        check_prime(self.prime)
        if self.lo > self.hi:
            raise ValueError("window must satisfy lo <= hi")
        if len(self.flags) != self.hi - self.lo + 1:
            raise ValueError("flags must cover the window")
        if self.flags[0].shape != (self.dim, self.dim) or \
                self.flags[0].rank() != self.dim:
            raise LawViolation("Fil^lo must be the whole space")
        # each system is solved once per run of equal flags: gr and
        # theta_in_flag read these
        inclusions = []
        pairs = zip(self.flags, self.flags[1:])
        for k, inc in enumerate(per_index(pairs, FpMat.solve)):
            if inc is None:
                raise LawViolation("the filtration must be decreasing",
                                   f"Fil^{self.lo + k + 1} not inside Fil^{self.lo + k}")
            inclusions.append(inc)
        inclusions.append(FpMat.zeros(self.prime, self.flags[-1].ncols, 0))  # Fil^{hi+1} = 0
        object.__setattr__(self, "_inclusions", tuple(inclusions))
        # Fil^lo is square of full rank already
        independent = per_index(((f,) for f in self.flags[1:]), lambda f: f.rank() == f.ncols)
        for k, ok in enumerate(independent, 1):
            if not ok:
                raise LawViolation("flag bases must be independent columns",
                                   f"index {self.lo + k}")
        if self.theta.shape != (self.dim, self.dim):
            raise ValueError("theta must act on V")
        frob = self.theta.power(self.prime) - self.theta
        if not frob.is_nilpotent():
            raise LawViolation("Theta^p - Theta must act nilpotently on the underlying space")
        thetas = []
        pairs = ((self.flag_at(i - self.prime), self.flag_at(i))
                 for i in range(self.lo, self.hi + 1))
        for i, sol in enumerate(per_index(pairs, self._solve_theta), self.lo):
            if sol is None:
                raise LawViolation("Theta must carry Fil^i into Fil^{i-p}",
                                   f"failed at i = {i}")
            thetas.append(sol)
        object.__setattr__(self, "_thetas", tuple(thetas))

    def flag_at(self, i: int) -> FpMat:
        if i < self.lo:
            return FpMat.identity(self.prime, self.dim)
        if i > self.hi:
            return FpMat.zeros(self.prime, self.dim, 0)
        return self.flags[i - self.lo]

    def fil_dim(self, i: int) -> int:
        return self.flag_at(i).ncols

    def _solve_theta(self, below: FpMat, fil: FpMat) -> FpMat | None:
        """Theta on the span of ``fil`` in the coordinates of ``below``."""
        return below.solve(self.theta @ fil)

    def theta_in_flag(self, i: int) -> FpMat:
        """Theta as a map Fil^i -> Fil^{i-p} in flag coordinates."""
        if self.lo <= i <= self.hi:
            return self._thetas[i - self.lo]
        # outside the window the solve is against the identity (i < lo) or
        # for a 0-column target (i > hi), so it always succeeds
        return self._solve_theta(self.flag_at(i - self.prime), self.flag_at(i))

    @cached_property
    def _graded(self) -> tuple[tuple[FpMat, FpMat], ...]:
        return tuple(per_index(((inc,) for inc in self._inclusions), quotient_projection))

    def gr(self, i: int) -> tuple[FpMat, FpMat]:
        """Projection Fil^i -> gr^i in flag coordinates and a section of it."""
        if self.lo <= i <= self.hi:
            return self._graded[i - self.lo]
        return quotient_projection(self.flag_at(i).solve(self.flag_at(i + 1)))

    def lift(self, i: int) -> FpMat:
        """A basis of gr^i lifted into V (columns)."""
        return self.flag_at(i) @ self.gr(i)[1]

    @cached_property
    def hodge(self) -> GradedThetaModule:
        """Associated graded of the flag with the induced Theta, built once."""
        return _associated_graded(self, self.theta_in_flag)


# ---------------------------------------------------------------------------
# cohomology of the four strata
# ---------------------------------------------------------------------------


def coh_dR(m: ThetaModule) -> tuple[int, int]:
    """Fibre of Theta: V -> V."""
    return fp_homology_two_term(m.theta)


def coh_Hod(m: GradedThetaModule) -> tuple[int, int]:
    """Fibre of Theta: V_0 -> V_{-p}."""
    return fp_homology_two_term(m.theta_at(0))


def coh_HTc(m: A1Module) -> tuple[int, int]:
    """Fibre of D: Fil_0 -> Fil_{-1}."""
    return fp_homology_two_term(m.d_at(0))


def coh_dRplus(m: FilThetaModule) -> tuple[int, int]:
    """Fibre of Theta: Fil^0 -> Fil^{-p}."""
    return fp_homology_two_term(m.theta_in_flag(0))


# ---------------------------------------------------------------------------
# restriction functors
# ---------------------------------------------------------------------------


def restrict_HTc_to_dR(m: A1Module) -> ThetaModule:
    """Stable space with Theta = x D, read at the canonical stable level."""
    return ThetaModule(m.prime, m.de_rham_theta)


def restrict_HTc_to_Hod(m: A1Module) -> GradedThetaModule:
    """Associated graded gr_i = coker(x_{i-1}) with Theta = D^p."""
    return _associated_graded(m, lambda i: m.d_composite(i, i - m.prime))


def restrict_dRplus_to_dR(m: FilThetaModule) -> ThetaModule:
    """Forget the filtration."""
    return ThetaModule(m.prime, m.theta)


def restrict_dRplus_to_Hod(m: FilThetaModule) -> GradedThetaModule:
    """Associated graded of the flag, with the induced Theta."""
    return m.hodge


def _associated_graded(m, theta_at) -> GradedThetaModule:
    """Associated graded of an :class:`A1Module` or a :class:`FilThetaModule`.

    The pieces are ``m.gr(i)`` over the window; Theta on piece i is induced
    by ``theta_at(i)``, a map from level i to level i - p.
    """
    p = m.prime
    gr = {i: m.gr(i) for i in range(m.lo, m.hi + 1)}
    dims = {i: pi.nrows for i, (pi, _) in gr.items() if pi.nrows}
    thetas = {i: gr[i - p][0] @ theta_at(i) @ gr[i][1]
              for i in dims if i - p in dims}
    return GradedThetaModule(p, dims, thetas)
