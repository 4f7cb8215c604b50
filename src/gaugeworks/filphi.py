"""Filtered Frobenius modules over Q_p and their homological algebra.

A PhiModule is a finite-dimensional rational vector space with an
automorphism phi (Frobenius acts trivially on the base field, so a
semilinear structure is just an automorphism).  A FilteredSpace is a finite
decreasing diagram of spaces with transition maps that are allowed to be
non-injective ("non-honest" filtrations keep the category abelian); a
FilteredPhiModule combines both structures on the common underlying space.

The derived Hom out of the unit object is concentrated in degrees 0 and 1
and is computed here two ways: ``rhom_phi`` for plain Frobenius modules
(kernel and cokernel of phi - 1) and ``rhom_mfphi`` for filtered ones, via
the total complex of the fibre of (derived phi-invariants) -> (underlying
space modulo Fil^0).  The equivalent two-term formula Fil^0 -> underlying
with differential (1 - phi) after the structural map is exposed separately
so the agreement of the two routes can be tested rather than assumed.

A FilteredPhiModule computes its Newton number v_p(det phi) once, when it is
built, from the Smith exponents of the integer rows N of phi = N / D swept
modulo a word-size p^k (:func:`~.exactlinalg.snf.exponents_mod_power`):
when all n exponents are found, each below k, they prove det N != 0 and
give v_p(det phi) = sum e_i - n v_p(D).  Otherwise (an exponent >= k, or phi
singular) the exact determinant decides.  A PhiModule checks invertibility
by rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm

from .errors import (LawViolation, NonHonestFiltrationError,
                     PrimeMismatchError)
from .exactlinalg import (QMat, block_diag, check_prime, intersect_spans,
                          kron, span_union, vp)
from .exactlinalg.rationals import exact_int, vp_int
from .exactlinalg.snf import exponents_mod_power


@dataclass(frozen=True)
class PhiModule:
    """A rational vector space with an invertible Frobenius matrix."""

    prime: int
    frobenius: QMat

    def __post_init__(self):
        check_prime(self.prime)
        if self.frobenius.nrows != self.frobenius.ncols:
            raise ValueError("frobenius must be square")
        if not self.frobenius.is_invertible():
            raise LawViolation("the Frobenius matrix must be invertible",
                               "determinant is zero")

    @property
    def dim(self) -> int:
        return self.frobenius.nrows


@dataclass(frozen=True)
class FilteredSpace:
    """A finite decreasing diagram of rational spaces.

    ``dims[k]`` is the dimension of the space at index lo+k and
    ``transitions[k]`` maps the space at lo+k+1 to the one at lo+k.
    Outside the window the diagram is constant: equal to the space at ``lo``
    below (identity transitions) and zero above ``hi``.  Transitions need
    not be injective.
    """

    lo: int
    hi: int
    dims: tuple[int, ...]
    transitions: tuple[QMat, ...] = ()

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("window must satisfy lo <= hi")
        object.__setattr__(self, "dims", tuple(map(exact_int, self.dims)))
        if len(self.dims) != self.hi - self.lo + 1:
            raise ValueError("dims must cover the window")
        if len(self.transitions) != self.hi - self.lo:
            raise ValueError("need one transition per adjacent pair in the window")
        for k, t in enumerate(self.transitions):
            if t.shape != (self.dims[k], self.dims[k + 1]):
                raise ValueError(f"transition {k} has shape {t.shape}, "
                                 f"expected {(self.dims[k], self.dims[k + 1])}")

    @property
    def underlying_dim(self) -> int:
        return self.dims[0]

    def dim_at(self, i: int) -> int:
        if i < self.lo:
            return self.dims[0]
        if i > self.hi:
            return 0
        return self.dims[i - self.lo]

    def transition(self, i: int) -> QMat:
        """The map space_{i+1} -> space_i, with the boundary conventions."""
        if i < self.lo:
            return QMat.identity(self.dims[0])
        if i >= self.hi:
            return QMat.zeros(self.dim_at(i), 0)
        return self.transitions[i - self.lo]

    def iota(self, i: int) -> QMat:
        """Composite structural map space_i -> space_lo (the underlying space)."""
        if i > self.hi:
            return QMat.zeros(self.dims[0], 0)
        if i <= self.lo:
            return QMat.identity(self.dims[0])
        ts = self.transitions[:i - self.lo]
        acc = ts[-1]
        for t in reversed(ts[:-1]):
            acc = t @ acc
        return acc

    def subspace(self, i: int) -> QMat:
        """Column basis of the image of space_i inside the underlying space."""
        return self.iota(i).column_space_basis()

    def is_honest(self) -> bool:
        """Whether every ``iota(i)`` is injective, i.e. every transition is."""
        return all(t.rank() == t.ncols for t in self.transitions)

    @classmethod
    def from_subspaces(cls, lo: int, hi: int, bases: list[QMat]) -> "FilteredSpace":
        """Honest filtration from a nested list of column bases.

        ``bases[0]`` must have full rank equal to the ambient dimension, and
        each later basis must span a subspace of the previous one.
        """
        if len(bases) != hi - lo + 1:
            raise ValueError("need one basis per window index")
        dims = tuple(b.ncols for b in bases)
        transitions = []
        for k in range(len(bases) - 1):
            sol = bases[k].solve(bases[k + 1])
            if sol is None:
                raise ValueError(f"basis at index {lo + k + 1} is not contained "
                                 f"in the span at index {lo + k}")
            transitions.append(sol)
        return cls(lo, hi, dims, tuple(transitions))


def _newton(phi: QMat, p: int) -> int:
    """v_p(det phi) for a square ``phi``; raises ``LawViolation`` if phi is singular."""
    n = phi.nrows
    exps = exponents_mod_power(phi.num, p)
    if len(exps) == n:
        return sum(exps) - n * vp_int(phi.den, p)
    det = phi.det()
    if det == 0:
        raise LawViolation("the Frobenius matrix must be invertible",
                           "determinant is zero")
    return vp(det, p)


@dataclass(frozen=True)
class FilteredPhiModule:
    """A filtration diagram plus a Frobenius on the underlying space."""

    prime: int
    filtration: FilteredSpace
    frobenius: QMat
    newton: int = field(init=False, repr=False, compare=False)  # v_p(det phi)

    def __post_init__(self):
        check_prime(self.prime)
        if self.frobenius.shape != (self.dim, self.dim):
            raise ValueError("frobenius must act on the underlying space")
        object.__setattr__(self, "newton", _newton(self.frobenius, self.prime))

    @property
    def dim(self) -> int:
        return self.filtration.underlying_dim

    def fil0_dim(self) -> int:
        return self.filtration.dim_at(0)

    @cached_property
    def fil0_iota(self) -> QMat:
        """The structural map Fil^0 -> underlying, computed once."""
        return self.filtration.iota(0)

    def direct_sum(self, other: "FilteredPhiModule") -> "FilteredPhiModule":
        if self.prime != other.prime:
            raise PrimeMismatchError(self.prime, other.prime)
        lo = min(self.filtration.lo, other.filtration.lo)
        hi = max(self.filtration.hi, other.filtration.hi)
        dims, transitions = [], []
        for i in range(lo, hi + 1):
            dims.append(self.filtration.dim_at(i) + other.filtration.dim_at(i))
        for i in range(lo, hi):
            transitions.append(block_diag(self.filtration.transition(i),
                                          other.filtration.transition(i)))
        fs = FilteredSpace(lo, hi, tuple(dims), tuple(transitions))
        return FilteredPhiModule(self.prime, fs, block_diag(self.frobenius, other.frobenius))


# ---------------------------------------------------------------------------
# derived Hom out of the unit object
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RHom:
    """Cohomology of a complex in degrees 0 and 1, with explicit bases."""

    h0: int
    h1: int
    h0_basis: QMat        # columns: kernel vectors in the degree-0 space
    h0_in_underlying: QMat  # columns: images of the H0 basis downstairs

    @property
    def dims(self) -> tuple[int, int]:
        return (self.h0, self.h1)


def rhom_phi(m: PhiModule) -> RHom:
    """Derived phi-invariants: kernel and cokernel of (phi - 1)."""
    d = m.frobenius - QMat.identity(m.dim)
    ker = d.kernel()
    return RHom(h0=ker.ncols, h1=m.dim - d.rank(), h0_basis=ker,
                h0_in_underlying=ker)


def rhom_mfphi(d: FilteredPhiModule) -> RHom:
    """RHom out of the unit in filtered phi-modules.

    Computed as the total complex of the fibre of
    (derived phi-invariants of the underlying space) -> (underlying / Fil^0),
    where the quotient is derived, i.e. the cone of the structural map.
    The output is concentrated in degrees 0 and 1 by construction.
    """
    n = d.dim
    f0 = d.fil0_dim()
    iota = d.fil0_iota
    phi = d.frobenius
    one = QMat.identity(n)
    # degree 0: underlying + Fil^0, degree 1: underlying + underlying
    # map (x, f) |-> ((phi - 1) x, x - iota f)
    top = (phi - one).hstack(QMat.zeros(n, f0))
    bot = one.hstack(iota.scale(-1))
    # the rows of [1 | -iota] go first: their pivots are the identity block's,
    # so the elimination clears the first n columns with no search.  The
    # kernel depends only on the row space, and the RREF is unique.
    d0 = bot.vstack(top)
    ker = d0.kernel()
    h0 = ker.ncols
    h1 = (2 * n) - (n + f0 - h0)  # rank-nullity on the total complex
    # H0 lives on pairs (x, f) with x = iota f; report the Fil^0 part and
    # its image downstairs.
    h0_fil = ker.take_rows(list(range(n, n + f0)))
    h0_under = ker.take_rows(list(range(n)))
    return RHom(h0=h0, h1=h1, h0_basis=h0_fil, h0_in_underlying=h0_under)


def rhom_mfphi_two_term(d: FilteredPhiModule) -> RHom:
    """The equivalent two-term formula Fil^0 --(1 - phi) after iota--> underlying.

    Kept separate from :func:`rhom_mfphi` so tests can compare the two
    routes; do not merge the implementations.
    """
    n = d.dim
    iota = d.fil0_iota
    diff = iota - d.frobenius @ iota
    ker = diff.kernel()
    return RHom(h0=ker.ncols, h1=n - diff.rank(), h0_basis=ker,
                h0_in_underlying=iota @ ker)


# ---------------------------------------------------------------------------
# twists and numerical invariants
# ---------------------------------------------------------------------------


def tate(n: int, p: int) -> FilteredPhiModule:
    """The twist object with phi = p^(-n) and filtration jump at -n.

    Convention (fixed once, used everywhere): the weight of the n-th twist
    is -n, so Fil^i is everything for i <= -n and zero above.
    """
    check_prime(p)
    fs = FilteredSpace(lo=-n, hi=-n, dims=(1,), transitions=())
    return FilteredPhiModule(p, fs, QMat([[Fraction(1, p ** n) if n >= 0
                                           else Fraction(p ** (-n))]]))


def newton_number(d: FilteredPhiModule) -> int:
    """p-adic valuation of det(phi), as computed when ``d`` was built."""
    return d.newton


def hodge_number(d: FilteredPhiModule) -> int:
    """Sum of i * dim gr^i; rejects non-honest filtrations."""
    f = d.filtration
    if not f.is_honest():
        raise NonHonestFiltrationError("hodge_number")
    total = 0
    for i in range(f.lo, f.hi + 1):
        total += i * (f.dim_at(i) - f.dim_at(i + 1))
    return total


# ---------------------------------------------------------------------------
# weak admissibility
# ---------------------------------------------------------------------------


class Admissibility(Enum):
    YES = "true"
    NO = "false"
    UNDECIDED = "undecided"


def _char_poly(a: QMat) -> list[Fraction]:
    """Coefficients [c_0, ..., c_n] of det(tI - A), c_n = 1 (Faddeev-LeVerrier), keeping
    only A M_k: one product per step, its trace read off ``num``."""
    n = a.nrows
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    am = QMat.zeros(n, n)
    for k in range(1, n + 1):
        am = a @ (am + QMat.scalar(n, coeffs[n - k + 1]))
        coeffs[n - k] = Fraction(-sum(am.num[i][i] for i in range(n)), am.den * k)
    return coeffs


def _rational_roots(coeffs: list[Fraction]) -> dict[Fraction, int]:
    """Rational roots with multiplicities; may miss irrational ones.

    A linear factor's root is read off; above degree 1 the candidates are
    the quotients of divisors of the end coefficients.
    """
    def poly_eval(cs, x):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    def divisors(m: int):
        m = abs(m)
        return sorted({d for k in range(1, isqrt(m) + 1) if m % k == 0
                       for d in (k, m // k)})

    def candidates(cs):
        den = lcm(*(c.denominator for c in cs))
        ics = [int(c * den) for c in cs]
        g = gcd(*ics)
        qdens = divisors(ics[-1] // g)
        for pnum in divisors(ics[0] // g):
            for qden in qdens:
                yield from (Fraction(pnum, qden), Fraction(-pnum, qden))

    roots: dict[Fraction, int] = {}
    cs = list(coeffs)
    while len(cs) > 1:
        if cs[0] == 0:
            found = Fraction(0)
        elif len(cs) == 2:
            found = -cs[0] / cs[1]
        else:
            found = next((x for x in candidates(cs) if poly_eval(cs, x) == 0), None)
            if found is None:
                break
        roots[found] = roots.get(found, 0) + 1
        # synthetic division by (x - found)
        out = [Fraction(0)] * (len(cs) - 1)
        acc = Fraction(0)
        for k in range(len(cs) - 1, 0, -1):
            acc = cs[k] + acc * found
            out[k - 1] = acc
        cs = out
    return roots


def is_weakly_admissible(d: FilteredPhiModule) -> Admissibility:
    """Newton = Hodge globally and Newton >= Hodge on phi-stable subspaces.

    The subspace enumeration runs over sums of eigenspaces, which is the
    complete list exactly when phi is semisimple with distinct rational
    eigenvalues.  With repeated eigenvalues a violation is still conclusive
    (the witness exists), but a clean pass is reported as UNDECIDED; the
    same applies when phi is not rational-semisimple.  Never guesses.
    """
    f = d.filtration
    if not f.is_honest():
        raise NonHonestFiltrationError("is_weakly_admissible")
    n = d.dim
    if n == 0:
        return Admissibility.YES
    if hodge_number(d) != newton_number(d):
        return Admissibility.NO
    roots = _rational_roots(_char_poly(d.frobenius))
    if sum(roots.values()) != n:
        return Admissibility.UNDECIDED
    # semisimplicity: the product of (phi - lambda) over distinct roots vanishes
    prod = QMat.identity(n)
    for lam in roots:
        prod = prod @ (d.frobenius - QMat.scalar(n, lam))
    if not prod.is_zero():
        return Admissibility.UNDECIDED
    eigen = {lam: (d.frobenius - QMat.scalar(n, lam)).kernel() for lam in roots}
    fil_bases = {i: f.subspace(i) for i in range(f.lo, f.hi + 1)}
    lams = sorted(eigen, key=lambda x: (x.numerator, x.denominator))

    def hodge_of(basis: QMat) -> int:
        # induced filtration: dims of (subspace intersect Fil^i), then jumps
        inter = {}
        for i in range(f.lo, f.hi + 1):
            inter[i] = intersect_spans(basis, fil_bases[i]).ncols
        inter[f.hi + 1] = 0
        return sum(i * (inter[i] - inter[i + 1]) for i in range(f.lo, f.hi + 1))

    for mask in range(1, 2 ** len(lams)):
        chosen = [lams[k] for k in range(len(lams)) if mask >> k & 1]
        basis = QMat.zeros(n, 0)
        for lam in chosen:
            basis = basis.hstack(eigen[lam])
        t_newton = sum(vp(lam, d.prime) * eigen[lam].ncols for lam in chosen)
        if hodge_of(basis) > t_newton:
            return Admissibility.NO
    if any(mult > 1 for mult in roots.values()):
        return Admissibility.UNDECIDED
    return Admissibility.YES


# ---------------------------------------------------------------------------
# tensor structure (honest filtrations only)
# ---------------------------------------------------------------------------


def _check_honest(d: FilteredPhiModule) -> None:
    if not d.filtration.is_honest():
        raise NonHonestFiltrationError("tensor structure")


def tensor(d1: FilteredPhiModule, d2: FilteredPhiModule) -> FilteredPhiModule:
    """Tensor product; filtrations convolve: Fil^k = sum of Fil^i (x) Fil^j."""
    if d1.prime != d2.prime:
        raise PrimeMismatchError(d1.prime, d2.prime)
    _check_honest(d1)
    _check_honest(d2)
    f1, f2 = d1.filtration, d2.filtration
    n = d1.dim * d2.dim
    lo, hi = f1.lo + f2.lo, f1.hi + f2.hi
    b1 = {i: f1.subspace(i) for i in range(f1.lo, f1.hi + 1)}
    b2 = {j: f2.subspace(j) for j in range(lo - f1.hi, hi - f1.lo + 1)}
    bases = [span_union(n, [kron(b1[i], b2[k - i]) for i in b1])
             for k in range(lo, hi + 1)]
    fs = FilteredSpace.from_subspaces(lo, hi, bases)
    return FilteredPhiModule(d1.prime, fs, kron(d1.frobenius, d2.frobenius))


def dual(d: FilteredPhiModule) -> FilteredPhiModule:
    """Dual object: phi inverts and transposes, Fil^i is the annihilator of Fil^{1-i}."""
    _check_honest(d)
    f = d.filtration
    lo, hi = -f.hi, -f.lo
    bases = [f.subspace(1 - i).transpose().kernel() for i in range(lo, hi + 1)]
    fs = FilteredSpace.from_subspaces(lo, hi, bases)
    return FilteredPhiModule(d.prime, fs, d.frobenius.inverse().transpose())


def internal_hom(d1: FilteredPhiModule, d2: FilteredPhiModule) -> FilteredPhiModule:
    return tensor(dual(d1), d2)
