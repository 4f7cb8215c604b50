"""Finitely generated modules over Z_(p) and maps between them.

A module is stored in Smith normal form: a free rank plus a weakly
increasing list of torsion exponents e_i (the module is free^rank + sum of
cyclics of order p^{e_i}).  Equality of modules is equality of this data.
Maps carry a chosen presentation: a matrix in the standard generators, free
generators first, then torsion generators.

Throughout, ``homology_two_term`` computes kernels and cokernels of such
maps exactly; the results are again in Smith normal form, so dimensions and
exponents are independent of any choices made along the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Sequence

from ..errors import LawViolation, PrimeMismatchError
from .qmat import QMat
from .rationals import check_prime, format_rational, vp
from .snf import kernel_over_zp, smith_exponents


@dataclass(frozen=True)
class FGModule:
    """free^free_rank + (+)_i Z/p^{e_i} with e_i weakly increasing."""

    prime: int
    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        check_prime(self.prime)
        object.__setattr__(self, "torsion", tuple(int(e) for e in self.torsion))
        if self.free_rank < 0:
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

    def relation_matrix(self) -> QMat:
        """Presentation relations: columns p^{e_i} * (torsion basis vector)."""
        cols = []
        for k, e in enumerate(self.torsion):
            v = [Fraction(0)] * self.ngens
            v[self.free_rank + k] = Fraction(self.prime) ** e
            cols.append(v)
        return QMat.from_cols(cols, self.ngens)

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


@dataclass(frozen=True)
class ModuleMap:
    """A map of presented modules, as a matrix in the standard generators.

    The matrix must respect torsion: the image of a generator of order p^e
    has order dividing p^e in the target.
    """

    source: FGModule
    target: FGModule
    matrix: QMat

    def __post_init__(self):
        if self.source.prime != self.target.prime:
            raise PrimeMismatchError(self.source.prime, self.target.prime)
        if self.matrix.shape != (self.target.ngens, self.source.ngens):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"{self.target.ngens} target x {self.source.ngens} source generators")
        p = self.prime
        for i, row in enumerate(self.matrix.rows):
            f = self.target.order_exponent(i)
            for j, x in enumerate(row):
                if not x:
                    continue
                # QMat entries are Fractions in lowest terms
                if x.denominator % p == 0:
                    raise LawViolation(
                        "module map entries must lie in Z_(p)",
                        f"entry ({i},{j}) = {format_rational(x)}")
                e = self.source.order_exponent(j)
                if e is None:
                    continue
                if f is None:
                    raise LawViolation(
                        "image of a torsion generator must be torsion",
                        f"entry ({i},{j}) = {format_rational(x)} maps order p^{e} "
                        "into a free factor")
                # the denominator is a p-unit: vp(x) >= f - e exactly when
                # p^(f - e) divides the numerator, one division at any size
                if f > e and x.numerator % p ** (f - e):
                    raise LawViolation(
                        "matrix must respect torsion orders",
                        f"entry ({i},{j}) = {format_rational(x)} needs valuation "
                        f">= {f - e}")

    @property
    def prime(self) -> int:
        return self.source.prime

    @classmethod
    def _made(cls, source: FGModule, target: FGModule, matrix: QMat) -> "ModuleMap":
        """The trusted twin of ``ModuleMap(source, target, matrix)``: no law check.

        Only for maps lawful by construction: zero maps, diagonal self-maps
        over Z_(p), and composites, differences and block sums of lawful maps.
        """
        new = object.__new__(cls)
        object.__setattr__(new, "source", source)
        object.__setattr__(new, "target", target)
        object.__setattr__(new, "matrix", matrix)
        return new

    @classmethod
    def identity(cls, m: FGModule) -> "ModuleMap":
        return cls._made(m, m, QMat.identity(m.ngens))

    @classmethod
    def scalar(cls, m: FGModule, c) -> "ModuleMap":
        mat = QMat.scalar(m.ngens, c)
        if m.ngens and mat.rows[0][0].denominator % m.prime == 0:
            return cls(m, m, mat)  # raises the checked path's LawViolation
        return cls._made(m, m, mat)

    @classmethod
    def zero(cls, source: FGModule, target: FGModule) -> "ModuleMap":
        if source.prime != target.prime:
            raise PrimeMismatchError(source.prime, target.prime)
        return cls._made(source, target, QMat.zeros(target.ngens, source.ngens))

    def compose(self, first: "ModuleMap") -> "ModuleMap":
        """self after first."""
        if first.target != self.source:
            raise ValueError("composition mismatch")
        # a product of torsion-respecting matrices respects torsion: the
        # valuations of the two factors add up along each path
        return ModuleMap._made(first.source, self.target, self.matrix @ first.matrix)

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        if self.source != other.source or self.target != other.target:
            raise ValueError("can only subtract parallel maps")
        # both maps are p-integral, and valuations >= f - e survive subtraction
        return ModuleMap._made(self.source, self.target, self.matrix - other.matrix)

    def equals_as_map(self, other: "ModuleMap") -> bool:
        """Equality modulo the target's relations (entrywise mod p^f)."""
        if self.source != other.source or self.target != other.target:
            return False
        p = self.prime
        diff = self.matrix - other.matrix
        for i in range(self.target.ngens):
            f = self.target.order_exponent(i)
            for j in range(self.source.ngens):
                x = diff[i, j]
                if x == 0:
                    continue
                if f is None or vp(x, p) < f:
                    return False
        return True

    @cached_property
    def _cleared(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Integer rows N and the lcm D of the entries' denominators: matrix = N / D."""
        rows = self.matrix.rows
        d = lcm(*(x.denominator for r in rows for x in r))
        return tuple([tuple([x.numerator * (d // x.denominator) for x in r])
                      for r in rows]), d

    def is_isomorphism(self) -> bool:
        # isomorphic modules have equal normal forms, and a surjective
        # endomorphism of a finitely generated module is injective
        # (Vasconcelos 1969)
        return self.source == self.target and cokernel(self).is_zero()

    def rational_matrix(self) -> QMat:
        """The induced map on (-) tensor Q: the free-by-free block."""
        rows = list(range(self.target.free_rank))
        cols = list(range(self.source.free_rank))
        return self.matrix.take_rows(rows).take_cols(cols)


def _int_product(start: FGModule, maps: Sequence[ModuleMap],
                 c: int = 1) -> tuple[list[list[int]], int]:
    """Integer rows N and a denominator D with c maps[-1] o ... o maps[0] = N / D.

    ``maps[0]`` has source ``start``, and each map's target is the next one's
    source; an empty chain is c times the identity of ``start``.  Each factor
    is cleared once by the lcm of its denominators (a map keeps its cleared
    rows) and the product runs over the integers.  Every entry of a
    :class:`ModuleMap` lies in Z_(p), so D is a p-unit.
    :meth:`ModuleMap.compose` stays on the Fraction route, as the reference
    that the integer route is tested against.
    """
    n = start.ngens
    if not maps:
        return [[c if i == j else 0 for j in range(n)] for i in range(n)], 1
    cols, den = None, 1
    for f in maps:
        rows, d = f._cleared
        den *= d
        if cols is None:  # the first factor, times c, as columns
            cols = [[c * r[j] for r in rows] for j in range(n)]
        else:
            cols = [[sum(map(mul, r, col)) for r in rows] for col in cols]
    m = maps[-1].target.ngens
    return [[col[i] for col in cols] for i in range(m)], den


def _composite(source: FGModule, target: FGModule, maps: Sequence[ModuleMap],
               c: int = 1) -> ModuleMap:
    """c maps[-1] o ... o maps[0]: source -> target, by :func:`_int_product`."""
    rows, den = _int_product(source, maps, c)
    if den == 1:
        mat = tuple([tuple(map(Fraction, r)) for r in rows])
    else:
        mat = tuple([tuple([Fraction(x, den) for x in r]) for r in rows])
    # a composite of lawful maps is lawful (see ``compose``)
    return ModuleMap._made(source, target, QMat._made(mat, source.ngens))


def _module_from_exponents(p: int, ngens: int, exps: tuple[int, ...]) -> FGModule:
    """Cokernel of a relation matrix with the given Smith exponents."""
    return FGModule(p, ngens - len(exps), tuple(sorted(e for e in exps if e > 0)))


def cokernel(d: ModuleMap) -> FGModule:
    """coker(d) = target / (image of d + relations of target)."""
    p = d.prime
    rel = d.matrix.hstack(d.target.relation_matrix())
    return _module_from_exponents(p, d.target.ngens, smith_exponents(rel, p))


def kernel(d: ModuleMap) -> FGModule:
    """ker(d) in Smith normal form.

    Generators: lifts g with d(g) in the target's relation lattice, found as
    the projection of the free kernel of [matrix | -relations]; relations:
    coefficient vectors landing in the source's relation lattice.
    """
    p = d.prime
    a = d.matrix
    r_src = d.source.relation_matrix()
    r_tgt = d.target.relation_matrix()
    lifts = kernel_over_zp(a.hstack(r_tgt.scale(-1)), p)
    gens = lifts.take_rows(list(range(d.source.ngens)))
    if gens.ncols == 0:
        return zero_module(p)
    rels = kernel_over_zp(gens.hstack(r_src.scale(-1)), p)
    relations = rels.take_rows(list(range(gens.ncols)))
    return _module_from_exponents(p, gens.ncols, smith_exponents(relations, p))


def homology_two_term(d: ModuleMap) -> tuple[FGModule, FGModule]:
    """(H0, H1) = (kernel, cokernel) of  source --d--> target  in degrees 0 -> 1."""
    return kernel(d), cokernel(d)
