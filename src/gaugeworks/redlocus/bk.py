"""Invertible glued objects and the flag presentation of the Hodge--Tate side.

Every glued datum whose de Rham+ filtration is honest forces the x maps of
its Hodge--Tate half to be injective (the graded dimensions must add up to
the stable dimension).  Such modules admit a normal form: a space V with an
increasing exhaustive flag G_i and one operator E satisfying

    (E + i)(G_i)  inside  G_{i-1}   for every i,

where V is the stable space, G_i the image of level i in it, and E the
transported operator x D read in a degree divisible by p (equal to the
de Rham restriction Theta).  The level-i component of D is then (E + i)
restricted to G_i, and the algebra relation holds identically.  Tensor
product and dual are flag convolution / flag annihilator with the Leibniz
and negated-transpose operators; this is the engine behind the group law
of the twist family and the randomized glued generators in the test suite.

Jump lemma.  Level k of a convolution is the sum over i of G_i (x) G'_{k-i}.
If G_i = G_{i-1} in an increasing flag, term i lies inside term i-1; if
Fil^i = Fil^{i+1} in a decreasing one, term i lies inside term i+1 (the
constant ends included: G_i = 0 below the window and V above it).  So only
the j jumps of the first factor contribute, and a level is summed again
only where the second factor's flags at those jumps change, at most
j j' + 1 times for j' jumps of the second factor.  A tensor of windows of
widths w and w' thus makes O(j^2 j') Kronecker products and O(j j')
eliminations, and compares O(j (w + w')) flag bases; the sum over every
index made (w + w') w products and w + w' eliminations of w blocks each.
Dual and the flag laws are solved once per run of equal bases.

The n-th twist object ``bk_reduced(n)``: one-dimensional everywhere, flag
jumping at -n, E = n on the Hodge--Tate side; filtration jumping at -n with
Theta = n on the de Rham+ side; identity gluing.  The operator on the
Hodge--Tate column at level i comes out as multiplication by (i + n): the
algebra relation pins it down from the single datum E = n, and it matches
the de Rham restriction Theta = n and the Hodge restriction (one line in
degree -n, Theta = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import LawViolation
from ..exactlinalg import (FpMat, block_diag, check_prime, fp_kron,
                           fp_span_union)
from .components import A1Module, FilThetaModule, per_index
from .gluing import ReducedFGauge


@dataclass(frozen=True)
class A1Flag:
    """Flag presentation (V, G_., E) of an x-injective stabilized module.

    ``bases[k]`` is a column basis of G_{lo+k} (independent columns, checked);
    G_{hi} must be all of V in the standard basis (the identity matrix),
    G_i = 0 below lo.
    """

    prime: int
    dim: int
    lo: int
    hi: int
    bases: tuple[FpMat, ...]
    operator: FpMat
    _x: tuple[FpMat, ...] = field(init=False, repr=False, compare=False)
    _d: tuple[FpMat, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_prime(self.prime)
        if self.lo > self.hi:
            raise ValueError("window must satisfy lo <= hi")
        if len(self.bases) != self.hi - self.lo + 1:
            raise ValueError("need one basis per window index")
        if self.bases[-1] != FpMat.identity(self.prime, self.dim):
            raise ValueError("the top flag must be the identity basis")
        # the law checks' solutions are the x and D maps of the module
        p = self.prime
        xs = []
        for x in per_index(zip(self.bases[1:], self.bases), FpMat.solve):
            if x is None:
                raise LawViolation("the flag must be increasing")
            xs.append(x)
        independent = per_index(((b,) for b in self.bases), lambda b: b.rank() == b.ncols)
        for i, ok in enumerate(independent, self.lo):
            if not ok:
                raise LawViolation("flag bases must be independent columns", f"index {i}")
        if self.operator.shape != (self.dim, self.dim):
            raise ValueError("operator must act on V")
        ds = []
        for i in range(self.lo, self.hi + 1):
            below, fil = self.basis_at(i - 1), self.basis_at(i)
            if i - 2 >= self.lo and self.bases[i - 2 - self.lo] == below == fil:
                # on a constant stretch G X = (E + i) G is the previous system
                # plus G X = G, whose solution is x_{i-1}; solve is linear in
                # its target, so this is the solve's own answer
                ds.append(ds[-1] + xs[i - 1 - self.lo])
                continue
            shifted = self.operator + FpMat.scalar(p, self.dim, i)
            ds.append(below.solve(shifted @ fil))
            if ds[-1] is None:
                raise LawViolation("(E + i) must carry G_i into G_{i-1}",
                                   f"failed at i = {i}")
        object.__setattr__(self, "_x", tuple(xs))
        object.__setattr__(self, "_d", tuple(ds[1:]))

    def basis_at(self, i: int) -> FpMat:
        if i < self.lo:
            return FpMat.zeros(self.prime, self.dim, 0)
        if i > self.hi:
            return FpMat.identity(self.prime, self.dim)
        return self.bases[i - self.lo]

    def to_module(self) -> A1Module:
        """Windowed presentation: x = flag inclusions, D_i = (E + i) on G_i.

        Built here, from the maps the flag laws solved for, so a flag read
        only for its bases and operator builds no module; the module checks
        its own relation, which holds identically on a lawful flag.
        """
        dims = tuple(b.ncols for b in self.bases)
        return A1Module(self.prime, self.lo, self.hi, dims, self._x, self._d)

    @classmethod
    def from_module(cls, m: A1Module) -> "A1Flag":
        """Inverse of :meth:`to_module`; requires all x maps injective, which
        the constructor checks as the independence of the flag bases."""
        # the bases are the x composites to the stable level, the identity at
        # i = hi; x D at the stable level is E + n_level, and n_level = 0 mod p
        bases = tuple(m.to_stable(i) for i in range(m.lo, m.hi + 1))
        return cls(m.prime, m.dims[-1], m.lo, m.hi, bases, m.de_rham_theta)

    def tensor(self, other: "A1Flag") -> "A1Flag":
        """Flag convolution with the Leibniz operator E (x) 1 + 1 (x) E."""
        if self.prime != other.prime:
            raise LawViolation("both factors must share one prime")
        p = self.prime
        dim = self.dim * other.dim
        lo, hi = self.lo + other.lo, self.hi + other.hi
        jumps = [i for i in range(self.lo, self.hi + 1)
                 if self.basis_at(i).ncols > self.basis_at(i - 1).ncols]
        bases = _convolve(p, dim, lo, hi, [self.basis_at(i) for i in jumps],
                          lambda k: tuple(other.basis_at(k - i) for i in jumps))
        bases[-1] = FpMat.identity(p, dim)
        op = (fp_kron(self.operator, FpMat.identity(p, other.dim))
              + fp_kron(FpMat.identity(p, self.dim), other.operator))
        return A1Flag(p, dim, lo, hi, tuple(bases), op)

    def dual(self) -> "A1Flag":
        """G_i of the dual is the annihilator of G_{-i-1}; E dualizes to -E^T."""
        p = self.prime
        lo, hi = -self.hi, -self.lo
        # at i = hi the kernel of the 0 x dim transpose is the identity
        bases = per_index(((self.basis_at(-i - 1),) for i in range(lo, hi + 1)), _annihilator)
        return A1Flag(p, self.dim, lo, hi, tuple(bases), -self.operator.transpose())


# ---------------------------------------------------------------------------
# the twist family
# ---------------------------------------------------------------------------


def bk_flag(n: int, p: int) -> A1Flag:
    """Rank-one flag with jump at -n and operator n."""
    return A1Flag(p, 1, -n, -n, (FpMat.identity(p, 1),),
                  FpMat.scalar(p, 1, n % p))


def bk_filtheta(n: int, p: int) -> FilThetaModule:
    """Rank-one de Rham+ datum: filtration jumping at -n, Theta = n."""
    return FilThetaModule(p, 1, -n, -n, (FpMat.identity(p, 1),),
                          FpMat.scalar(p, 1, n % p))


def bk_reduced(n: int, p: int) -> ReducedFGauge:
    """The n-th invertible glued object, with identity gluing maps."""
    check_prime(p)
    return ReducedFGauge(htc=bk_flag(n, p).to_module(), drp=bk_filtheta(n, p),
                         alpha_dr=FpMat.identity(p, 1),
                         alpha_hod={-n: FpMat.identity(p, 1)})


# ---------------------------------------------------------------------------
# tensor and dual of glued data
# ---------------------------------------------------------------------------


def _convolve(p: int, dim: int, lo: int, hi: int, firsts, seconds_at) -> list[FpMat]:
    """Levels lo..hi of a flag convolution: level k spans the products of
    ``firsts`` with the tuple ``seconds_at(k)``, summed again only where
    that tuple changes."""
    def level(*seconds):
        return fp_span_union(p, dim, [fp_kron(a, b) for a, b in zip(firsts, seconds)])
    return list(per_index((seconds_at(k) for k in range(lo, hi + 1)), level))


def _annihilator(basis: FpMat) -> FpMat:
    return basis.transpose().kernel()


def _convolve_flags(d1: FilThetaModule, d2: FilThetaModule) -> FilThetaModule:
    p = d1.prime
    dim = d1.dim * d2.dim
    lo, hi = d1.lo + d2.lo, d1.hi + d2.hi
    jumps = [i for i in range(d1.lo, d1.hi + 1) if d1.fil_dim(i) > d1.fil_dim(i + 1)]
    flags = _convolve(p, dim, lo, hi, [d1.flag_at(i) for i in jumps],
                      lambda k: tuple(d2.flag_at(k - i) for i in jumps))
    theta = (fp_kron(d1.theta, FpMat.identity(p, d2.dim))
             + fp_kron(FpMat.identity(p, d1.dim), d2.theta))
    return FilThetaModule(p, dim, lo, hi, tuple(flags), theta)


def _dual_filtheta(d: FilThetaModule) -> FilThetaModule:
    p = d.prime
    lo, hi = -d.hi, -d.lo
    flags = per_index(((d.flag_at(1 - i),) for i in range(lo, hi + 1)), _annihilator)
    return FilThetaModule(p, d.dim, lo, hi, tuple(flags), -d.theta.transpose())


def _block_iso(d1, d2, dt, basis_at):
    """Canonical isomorphisms  (+)_{i+j=k} gr_i (x) gr_j  ->  gr_k(tensor).

    ``d1``, ``d2`` and their tensor ``dt`` are all :class:`A1Module` or all
    :class:`FilThetaModule`.  Products of the lifted graded pieces live in
    V1 (x) V2 and are read in the tensor's own level bases ``basis_at(k)``,
    the coordinates of ``dt``.  Returns a map degree -> (iso matrix, list of
    (i, j)).
    """
    lifts1 = {i: d1.lift(i) for i in range(d1.lo, d1.hi + 1) if d1.gr(i)[0].nrows}
    lifts2 = {j: d2.lift(j) for j in range(d2.lo, d2.hi + 1) if d2.gr(j)[0].nrows}
    out = {}
    for k in range(dt.lo, dt.hi + 1):
        pi_k = dt.gr(k)[0]
        if pi_k.nrows == 0:
            continue
        cols = FpMat.zeros(dt.prime, pi_k.nrows, 0)
        layout = []
        for i in sorted(lifts1):
            lift1, lift2 = lifts1[i], lifts2.get(k - i)
            if lift2 is None:
                continue
            # the product of the lifts lies in level k of the tensor's flag
            coords = basis_at(k).solve(fp_kron(lift1, lift2))
            cols = cols.hstack(pi_k @ coords)
            layout.append((i, k - i))
        out[k] = (cols, layout)
    return out


def tensor_reduced(g1: ReducedFGauge, g2: ReducedFGauge) -> ReducedFGauge:
    """Tensor product of glued data, alphas included."""
    f1, f2 = A1Flag.from_module(g1.htc), A1Flag.from_module(g2.htc)
    ft = f1.tensor(f2)
    htc = ft.to_module()
    drp = _convolve_flags(g1.drp, g2.drp)
    alpha_dr = fp_kron(g1.alpha_dr, g2.alpha_dr)
    # assemble alpha_hod degreewise through the canonical block isomorphisms;
    # the halves share graded dimensions, so their degrees and layouts agree
    p = g1.prime
    htc_blocks = _block_iso(g1.htc, g2.htc, htc, ft.basis_at)
    drp_blocks = _block_iso(g1.drp, g2.drp, drp, drp.flag_at)
    alpha_hod = {}
    for k, (iso_htc, layout) in htc_blocks.items():
        iso_drp = drp_blocks[k][0]
        blocks = FpMat.zeros(p, 0, 0)
        for i, j in layout:
            piece = fp_kron(g1.alpha_hod[i], g2.alpha_hod[j])
            blocks = block_diag(blocks, piece)
        alpha_hod[k] = iso_drp @ blocks @ iso_htc.inverse()
    return ReducedFGauge(htc=htc, drp=drp, alpha_dr=alpha_dr, alpha_hod=alpha_hod)


def dual_reduced(g: ReducedFGauge) -> ReducedFGauge:
    """Dual glued object; on twist objects this negates the twist."""
    fd = A1Flag.from_module(g.htc).dual()
    htc = fd.to_module()
    drp = _dual_filtheta(g.drp)
    alpha_dr = g.alpha_dr.inverse().transpose()
    alpha_hod = {}
    for i in range(fd.lo, fd.hi + 1):
        if fd.basis_at(i).ncols > fd.basis_at(i - 1).ncols:  # gr_i is nonzero
            pair_g = _duality_pairing(g.htc, htc, i)
            pair_f = _duality_pairing(g.drp, drp, i)
            middle = g.alpha_hod[-i].inverse().transpose()
            alpha_hod[i] = pair_f.inverse() @ middle @ pair_g
    return ReducedFGauge(htc=htc, drp=drp, alpha_dr=alpha_dr, alpha_hod=alpha_hod)


def _duality_pairing(d, dd, i: int) -> FpMat:
    """Matrix of gr_i(dd) -> gr_{-i}(d)^* for the dual ``dd`` of ``d``.

    Entry (b, a) evaluates the lift of the a-th basis vector of gr_i(dd),
    inside V*, on the lift of the b-th basis vector of gr_{-i}(d), inside V.
    """
    return d.lift(-i).transpose() @ dd.lift(i)
