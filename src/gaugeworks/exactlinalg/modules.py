"""Finitely generated modules over Z_(p) and maps between them.

A module is stored in Smith normal form: a free rank plus a weakly
increasing list of torsion exponents e_i (the module is free^rank + sum of
cyclics of order p^{e_i}).  Equality of modules is equality of this data.
Maps carry a chosen presentation: a matrix in the standard generators, free
generators first, then torsion generators, stored in one form only: integer
rows N over one p-unit denominator D with D > 0 and gcd(N, D) = 1.  That is
the form a :class:`~.qmat.QMat` stores, so the canonical step, differences
and block sums are ``QMat``'s.  What is decided here reads N as it is:
chain products (a diagonal factor scales, a dense one multiplies), "c times
the identity as a map", the Smith exponents of ``homology_two_term``'s
two sweeps, and the ranks mod p behind ``is_isomorphism`` and
``reduced_cokernel_dim``; scaling by the p-unit D changes no exponent, no
kernel and no rank mod p.  The two questions about the reduction mod p need
no Smith form: relations vanish mod p, so M / pM is F_p^ngens and N mod p
is the map on it, and by Nakayama a map is onto exactly when it is onto mod
p.  The constructor reads N and D off the ``QMat`` it is given, and the
read-only ``matrix`` and ``rational_matrix`` hand them back without
building a Fraction.  Homology comes out in Smith normal form again, so it
does not depend on the presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul, sub
from typing import Sequence

from ..errors import LawViolation, PrimeMismatchError
from .dense import block_diag
from .fpmat import rank_mod
from .qmat import QMat, _canonical, _combined
from .rationals import check_prime, exact_int, format_rational
from .snf import _eliminate


@dataclass(frozen=True)
class FGModule:
    """free^free_rank + (+)_i Z/p^{e_i} with e_i weakly increasing."""

    prime: int
    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        check_prime(self.prime)
        object.__setattr__(self, "torsion", tuple(map(exact_int, self.torsion)))
        if exact_int(self.free_rank) < 0:
            raise ValueError("free_rank must be >= 0")
        if any(e <= 0 for e in self.torsion):
            raise ValueError("torsion exponents must be positive")
        if list(self.torsion) != sorted(self.torsion):
            raise ValueError("torsion exponents must be weakly increasing")

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion)

    def is_zero(self) -> bool:
        return self.ngens == 0

    def order_exponent(self, i: int):
        """Exponent of the i-th generator's order; None means free (infinite)."""
        if i < self.free_rank:
            return None
        return self.torsion[i - self.free_rank]

    def direct_sum(self, other: "FGModule") -> "FGModule":
        if self.prime != other.prime:
            raise PrimeMismatchError(self.prime, other.prime)
        return FGModule(self.prime, self.free_rank + other.free_rank,
                        tuple(sorted(self.torsion + other.torsion)))

    def __str__(self):
        p = self.prime
        parts = [f"Z({p})^{self.free_rank}"] if self.free_rank else []
        parts += [f"Z/{p}^{e}" for e in self.torsion]
        return " + ".join(parts) if parts else "0"


def zero_module(p: int) -> FGModule:
    return FGModule(p, 0, ())


@dataclass(frozen=True, init=False)
class ModuleMap:
    """A map of presented modules, as a matrix ``rows / den`` in the standard
    generators.

    The matrix must respect torsion: the image of a generator of order p^e
    has order dividing p^e in the target.
    """

    source: FGModule
    target: FGModule
    rows: tuple[tuple[int, ...], ...]
    den: int

    def __init__(self, source: FGModule, target: FGModule, matrix: QMat):
        if source.prime != target.prime:
            raise PrimeMismatchError(source.prime, target.prime)
        if matrix.shape != (target.ngens, source.ngens):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match "
                f"{target.ngens} target x {source.ngens} source generators")
        p, d = source.prime, matrix.den
        # the entries lie in Z_(p) exactly when their lcm denominator d does
        local = d % p != 0
        for i, row in enumerate(matrix.num):
            f = target.order_exponent(i)
            for j, n in enumerate(row):
                if not n:
                    continue
                if not local:
                    g = gcd(n, d)
                    if d // g % p == 0:
                        raise LawViolation(
                            "module map entries must lie in Z_(p)",
                            f"entry ({i},{j}) = {format_rational(matrix[i, j])}")
                    n //= g  # the entry's numerator in lowest terms
                e = source.order_exponent(j)
                if e is None:
                    continue
                if f is None:
                    raise LawViolation(
                        "image of a torsion generator must be torsion",
                        f"entry ({i},{j}) = {format_rational(matrix[i, j])} maps "
                        f"order p^{e} into a free factor")
                # n is the numerator times a p-unit, so vp(entry) >= f - e exactly
                # when p^(f - e) divides n; a nonzero multiple of p^k has more
                # than k bits, so p^k is built only below that size
                k = f - e
                if k > 0 and (k >= n.bit_length() or n % p ** k):
                    raise LawViolation(
                        "matrix must respect torsion orders",
                        f"entry ({i},{j}) = {format_rational(matrix[i, j])} needs "
                        f"valuation >= {k}")
        vars(self).update(source=source, target=target, rows=matrix.num, den=d)

    @classmethod
    def _made(cls, source: FGModule, target: FGModule, rows: tuple,
              den: int) -> "ModuleMap":
        """The trusted twin of ``ModuleMap(source, target, rows / den)``, with no
        law check, for lawful maps already in the stored form."""
        new = object.__new__(cls)
        vars(new).update(source=source, target=target, rows=rows, den=den)
        return new

    @classmethod
    def diagonal(cls, m: FGModule, entries: Sequence[int]) -> "ModuleMap":
        """The self-map of ``m`` with the integers ``entries`` on the diagonal, one
        per generator, each read by :func:`exact_int`."""
        n = m.ngens
        if len(entries) != n:
            raise ValueError(f"need {n} diagonal entries, got {len(entries)}")
        entries = list(map(exact_int, entries))
        return cls._made(m, m, tuple([tuple([entries[i] if i == j else 0 for j in range(n)])
                                      for i in range(n)]), 1)

    @property
    def prime(self) -> int:
        return self.source.prime

    @property
    def matrix(self) -> QMat:
        """The matrix ``rows / den`` as a QMat, which stores the same form."""
        return QMat._made(self.rows, self.den, self.source.ngens)

    def rational_matrix(self) -> QMat:
        """The induced map on (-) tensor Q: the free-by-free block."""
        nc = self.source.free_rank
        return QMat._lowest([r[:nc] for r in self.rows[:self.target.free_rank]], self.den, nc)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        if self.source != other.source or self.target != other.target:
            raise ValueError("can only subtract parallel maps")
        # both maps are p-integral, and valuations >= f - e survive subtraction
        return ModuleMap._made(self.source, self.target,
                               *_combined(self.rows, self.den, other.rows, other.den, sub))

    def direct_sum(self, other: "ModuleMap") -> "ModuleMap":
        """The block sum, with generators in the order of :meth:`FGModule.direct_sum`."""
        m = block_diag(self.matrix, other.matrix)
        rows, cols = m.num, _sum_order(self.source, other.source)
        # permuting rows and columns keeps the form canonical
        return ModuleMap._made(self.source.direct_sum(other.source),
                               self.target.direct_sum(other.target),
                               tuple([tuple([rows[i][j] for j in cols])
                                      for i in _sum_order(self.target, other.target)]), m.den)

    def is_scalar(self, c: int) -> bool:
        """``self`` is c times the identity as a map.

        N - c D I must be 0 in each free row and 0 mod p^f in each row of
        order p^f, since D is a p-unit.
        """
        if self.source != self.target:
            return False
        cd = c * self.den
        for i, row in enumerate(self.rows):
            xs = [x for x in row[:i] + (row[i] - cd,) + row[i + 1:] if x]
            if not xs:
                continue
            f = self.target.order_exponent(i)
            # a nonzero multiple of p^f has more than f bits, so p^f is built
            # only below the size of the entries
            if f is None or f >= min(x.bit_length() for x in xs):
                return False
            q = self.prime ** f
            if any(x % q for x in xs):
                return False
        return True

    def is_isomorphism(self) -> bool:
        # isomorphic modules have equal normal forms, and a surjective
        # endomorphism of a finitely generated module is injective
        # (Vasconcelos 1969); it is onto exactly when N mod p has full rank,
        # since its cokernel vanishes exactly when it does mod p (Nakayama)
        return self.source == self.target and \
            rank_mod(self.rows, self.prime) == self.source.ngens


def _sum_order(m1: FGModule, m2: FGModule) -> list[int]:
    """Block positions of the generators of m1 (+) m2, in direct_sum order.

    Free generators come first, then torsion by exponent; the sort is
    stable, so ties keep m1's generators before m2's.
    """
    exps = (0,) * m1.free_rank + m1.torsion + (0,) * m2.free_rank + m2.torsion
    return sorted(range(len(exps)), key=exps.__getitem__)


def _int_product(start: FGModule, maps: Sequence[ModuleMap],
                 c: int = 1) -> tuple[list[list[int]], int]:
    """Integer rows N and a denominator D with c maps[-1] o ... o maps[0] = N / D.

    ``maps[0]`` has source ``start``, and each map's target is the next one's
    source; an empty chain is c times the identity of ``start``.  The stored
    rows of the factors are multiplied over the integers, a diagonal factor
    by scaling each row, and D, the product of their denominators, is a
    p-unit.
    """
    n = start.ngens
    if not maps:
        return [[c if i == j else 0 for j in range(n)] for i in range(n)], 1
    cols, den = None, 1
    for f in maps:
        rows = f.rows
        den *= f.den
        if cols is None:  # the first factor, times c, as columns
            cols = [[c * r[j] for r in rows] for j in range(n)]
        elif (diag := _diagonal(rows)) is not None:
            cols = [list(map(mul, diag, col)) for col in cols]
        else:
            cols = [[sum(map(mul, r, col)) for r in rows] for col in cols]
    m = maps[-1].target.ngens
    return [[col[i] for col in cols] for i in range(m)], den


def _diagonal(rows: tuple) -> list[int] | None:
    """The diagonal of the square integer ``rows``, or None if an entry off it is nonzero."""
    n = len(rows)
    if n and len(rows[0]) != n:
        return None
    diag = [r[i] for i, r in enumerate(rows)]
    # no rows: the empty diagonal maps each column to (), as a product does
    off = n * n - n + diag.count(0) - sum(r.count(0) for r in rows)
    return None if off else diag


def composite(source: FGModule, target: FGModule, maps: Sequence[ModuleMap],
              c: int = 1) -> ModuleMap:
    """c maps[-1] o ... o maps[0]: source -> target, by one integer product.

    A product of torsion-respecting matrices respects torsion: the
    valuations of the factors add up along each path.
    """
    return ModuleMap._made(source, target, *_canonical(*_int_product(source, maps, c)))


def _module(p: int, n: int, exps) -> FGModule:
    """Z_(p)^n modulo a matrix with Smith exponents ``exps``."""
    return FGModule(p, n - len(exps), tuple(sorted(e for e in exps if e > 0)))


def _with_relations(rows: Sequence[Sequence[int]], m: FGModule) -> list[list[int]]:
    """``rows``, one per generator of ``m``, then the relation columns of ``m``:
    p^{e_k} times torsion basis vector k."""
    k = len(m.torsion)
    return [list(r) + [0] * k for r in rows[:m.free_rank]] + \
           [list(r) + [0] * j + [m.prime ** e] + [0] * (k - 1 - j)
            for j, (r, e) in enumerate(zip(rows[m.free_rank:], m.torsion))]


def cokernel(d: ModuleMap) -> FGModule:
    """coker(d) = target / (image of d + relations of target)."""
    exps = [e for e, *_ in _eliminate(_with_relations(d.rows, d.target), d.prime)]
    return _module(d.prime, d.target.ngens, exps)


def kernel(d: ModuleMap) -> FGModule:
    """ker(d) in Smith normal form, read off the sweeps of :func:`homology_two_term`."""
    return homology_two_term(d)[0]


def _relation_lifts(d: ModuleMap) -> list[list[int]]:
    """B = [R_S ; -N'] of :func:`homology_two_term`, less its zero rows at the
    source's free generators."""
    p, src, tgt = d.prime, d.source, d.target
    es = src.torsion
    b = [[p ** e if i == j else 0 for j in range(len(es))] for i, e in enumerate(es)]
    return b + [[-(n * p ** (e - f) if e >= f else n // p ** (f - e)) if n else 0
                 for n, e in zip(r[src.free_rank:], es)]
                for r, f in zip(d.rows[tgt.free_rank:], tgt.torsion)]


def homology_two_term(d: ModuleMap) -> tuple[FGModule, FGModule]:
    """(H0, H1) = (kernel, cokernel) of  source --d--> target  in degrees 0 -> 1.

    Two Smith sweeps, read for their exponents only.  With R_S, R_T the
    relation columns of source and target and N the stored rows of d, the
    exponents of A = [N | R_T] present H1 = coker A.  Projection to the
    source's coordinates maps ker A onto the lifts {x : N x in im R_T},
    injectively since R_T is injective.  As d respects torsion,
    N R_S = R_T N' with N' integral: its entry from a generator of order
    p^e to one of order p^f is N's times p^(e - f), and no torsion
    generator maps into a free one.  So B = [R_S ; -N'] has A B = 0 and
    projects onto im R_S, and ker d = ker A / im B.  ker A is saturated, a
    direct summand with a free complement of rank rank(A), so coker B is H0
    plus that complement (Cohen, GTM 138, 2.4): H0 is free of rank
    nullity(A) - rank(B), with the torsion of coker B.  Out of a
    torsion-free source B has no columns.

    >>> from .qmat import QMat
    >>> m = FGModule(3, 0, (2,))
    >>> [str(h) for h in homology_two_term(ModuleMap(m, m, QMat([[0]])))]
    ['Z/3^2', 'Z/3^2']
    >>> m = FGModule(3, 0, (3,))
    >>> [str(h) for h in homology_two_term(ModuleMap(m, m, QMat([[3]])))]
    ['Z/3^1', 'Z/3^1']
    """
    p, src, tgt = d.prime, d.source, d.target
    exps = [e for e, *_ in _eliminate(_with_relations(d.rows, tgt), p)]
    rels = [e for e, *_ in _eliminate(_relation_lifts(d), p)]
    nullity = src.ngens + len(tgt.torsion) - len(exps)
    return _module(p, nullity, rels), _module(p, tgt.ngens, exps)


def reduced_cokernel_dim(target: FGModule, maps: Sequence[ModuleMap]) -> int:
    """dim over F_p of target / (p target + the images of ``maps``): the number
    of generators less the rank mod p of the maps side by side (relations
    vanish mod p)."""
    rows = [[x for f in maps for x in f.rows[i]] for i in range(target.ngens)]
    return target.ngens - rank_mod(rows, target.prime)
