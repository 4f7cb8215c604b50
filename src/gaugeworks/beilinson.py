"""The fibre square of forgetful functors at the arithmetic point.

For a filtered phi-module D there is a commuting square of complexes

    A = RHom(unit, D)            ->  B = Fil^0 (degree 0)
    |                                 |
    C = derived phi-invariants   ->  D = underlying space (degree 0)

whose corners are assembled here from explicit matrices.  ``verify_cartesian``
forms the total complex of A -> B + C -> D and reports the dimensions of its
cohomology; the square is cartesian exactly when the report is all zero.
Everything has amplitude [0, 1], so exact rank arithmetic suffices and no
homotopy-limit machinery is needed.  Negative controls are part of the
contract: ``corrupt_drop_corner_b`` produces a broken square whose residual
must be nonzero.

``fm_fibre`` computes the fibre of Fil^0 --(1 - tau)--> underlying space,
the Frobenius-twisted de Rham fibre sequence at the point.  It must agree
with ``rhom_mfphi``.  It shares QMat's integer products with it (the
differential ``iota - phi @ iota`` and the H0 images ``iota @ K``) but no
elimination: its one elimination is its own fraction-free Gauss--Jordan,
never a QMat method.  The agreement is a theorem, and the tests treat it as one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import LawViolation
from .exactlinalg import QMat
from .filphi import FilteredPhiModule


@dataclass(frozen=True)
class SquareData:
    """Explicit chain-level data of the forgetful square for one module.

    Corners: A = [a0 -> under] with differential ``d_a``; B = b0 in degree
    0; C = [under -> under] with differential ``d_c = 1 - phi``; D = under
    in degree 0.  ``f_ab``, ``f_ac``, ``f_bd`` are the degree-0 components
    of the chain maps (the degree-1 components A -> C and C -> D are the
    identity and zero).  Commutativity of the square is a proof obligation
    checked eagerly unless the instance is an explicit negative control.
    """

    prime: int
    under_dim: int
    a0_dim: int
    b_dim: int
    d_a: QMat       # under x a0
    d_c: QMat       # under x under, equal to 1 - phi
    f_ab: QMat      # b0 x a0
    f_ac: QMat      # under x a0 (the structural map iota)
    f_bd: QMat      # under x b0
    corrupted: bool = False

    def __post_init__(self):
        for name, mat, shape in [
            ("d_a", self.d_a, (self.under_dim, self.a0_dim)),
            ("d_c", self.d_c, (self.under_dim, self.under_dim)),
            ("f_ab", self.f_ab, (self.b_dim, self.a0_dim)),
            ("f_ac", self.f_ac, (self.under_dim, self.a0_dim)),
            ("f_bd", self.f_bd, (self.under_dim, self.b_dim)),
        ]:
            if mat.shape != shape:
                raise ValueError(f"{name} has shape {mat.shape}, expected {shape}")
        if self.corrupted:
            return
        if self.f_bd @ self.f_ab != self.f_ac:
            raise LawViolation("the forgetful square must commute on the nose",
                               "(B -> D)(A -> B) != (C -> D)(A -> C)")
        if self.d_a != self.d_c @ self.f_ac:
            raise LawViolation("corner A must map to C as a chain map",
                               "d_a != (1 - phi) iota")

    def corner_dims(self) -> dict[str, tuple[int, int]]:
        """(h0, h1) of each corner complex."""
        r_a, r_c = self.d_a.rank(), self.d_c.rank()
        return {
            "A": (self.a0_dim - r_a, self.under_dim - r_a),
            "B": (self.b_dim, 0),
            "C": (self.under_dim - r_c, self.under_dim - r_c),
            "D": (self.under_dim, 0),
        }


def corners(d: FilteredPhiModule) -> SquareData:
    """Assemble the forgetful square for one filtered phi-module."""
    n = d.dim
    iota = d.fil0_iota
    f0 = d.fil0_dim()
    d_c = QMat.identity(n) - d.frobenius
    return SquareData(prime=d.prime, under_dim=n, a0_dim=f0, b_dim=f0,
                      d_a=d_c @ iota, d_c=d_c, f_ab=QMat.identity(f0),
                      f_ac=iota, f_bd=iota)


def corrupt_drop_corner_b(s: SquareData) -> SquareData:
    """Negative control: forget one dimension of corner B."""
    if s.b_dim == 0:
        raise ValueError("corner B is already zero; nothing to drop")
    keep = list(range(s.b_dim - 1))
    proj = QMat.identity(s.b_dim).take_rows(keep)
    return SquareData(prime=s.prime, under_dim=s.under_dim, a0_dim=s.a0_dim,
                      b_dim=s.b_dim - 1, d_a=s.d_a, d_c=s.d_c,
                      f_ab=proj @ s.f_ab, f_ac=s.f_ac,
                      f_bd=s.f_bd.take_cols(keep), corrupted=True)


@dataclass(frozen=True)
class CartesianResidual:
    """Residual of the total complex A -> B + C -> D.

    ``h`` holds the cohomology dimensions in degrees 0, 1, 2 and
    ``chain_defect`` the rank of d1 @ d0.  A commuting square always has
    defect zero, in which case the three numbers are genuine cohomology
    dimensions; a corrupted square may fail to be a complex at all, and the
    defect witnesses that.  The square is cartesian iff everything is zero.
    """

    h: tuple[int, int, int]
    chain_defect: int = 0

    def is_zero(self) -> bool:
        return self.h == (0, 0, 0) and self.chain_defect == 0


def verify_cartesian(s: SquareData) -> CartesianResidual:
    """Total complex of A -> (B + C) -> D; all-zero residual iff cartesian.

    Degree 0: A^0.  Degree 1: A^1 + B^0 + C^0.  Degree 2: C^1 + D^0, with
    d0 = [d_a ; f_ab ; f_ac] and d1 = [[1, 0, -d_c], [0, f_bd, -1]] (C's own
    differential enters with a sign so that d1 d0 = 0 on commuting input).
    Only rank d0 is computed:

    * rank d1 = 2n on every square: its first and last column blocks form
      [[1, -d_c], [0, -1]], of determinant (-1)^n.  So h1 = b0 - rank d0
      and h2 = 0.
    * d1 d0 = [d_a - d_c f_ac ; f_bd f_ab - f_ac], zero by the two laws
      ``SquareData`` checks on construction.  So the defect is 0 unless
      ``s.corrupted``, and for a negative control it is the rank of those
      two blocks stacked.
    """
    r0 = s.d_a.vstack(s.f_ab).vstack(s.f_ac).rank()
    defect = 0
    if s.corrupted:
        defect = (s.d_a - s.d_c @ s.f_ac).vstack(s.f_bd @ s.f_ab - s.f_ac).rank()
    return CartesianResidual((s.a0_dim - r0, s.b_dim - r0, 0), chain_defect=defect)


# ---------------------------------------------------------------------------
# the Frobenius-twisted fibre sequence, implemented independently
# ---------------------------------------------------------------------------


def _rank_and_kernel(rows, ncols: int):
    """Rank and kernel basis of rational ``rows``; deliberately not QMat.rref.

    Each row is scaled by the lcm of its own denominators, and then a
    one-step fraction-free Gauss--Jordan runs on the integer rows: at a pivot
    ``pv`` every other row becomes ``(pv*row_i - f*prow) // prev``, with f its
    entry in the pivot column and ``prev`` the pivot before (1 at first).
    The division is exact (Bareiss, Math. Comp. 22, 1968): after k pivots an
    entry of a later row is a (k+1)-minor of the scaled input and an entry
    of a pivot row a k-minor, so entries stay within Hadamard's bound, and
    every pivot row ends with the last pivot in its pivot column.  A kernel
    column's entries are the reduced row echelon form's, read as
    ``Fraction(-R[r][f], R[r][pc])``.
    """
    mat = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        mat.append([x.numerator * (scale // x.denominator) for x in row])
    nrows = len(mat)
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        hit = next((i for i in range(r, nrows) if mat[i][c]), None)
        if hit is None:
            continue
        mat[r], mat[hit] = mat[hit], mat[r]
        prow = mat[r]
        pv = prow[c]
        for i in range(nrows):
            if i != r:
                f = mat[i][c]
                mat[i] = [(pv * x - f * y) // prev for x, y in zip(mat[i], prow)]
        pivots.append(c)
        prev = pv
    kernel_cols = []
    free = [c for c in range(ncols) if c not in pivots]
    for fcol in free:
        v = [Fraction(0)] * ncols
        v[fcol] = Fraction(1)
        for rr, pc in enumerate(pivots):
            v[pc] = Fraction(-mat[rr][fcol], mat[rr][pc])
        kernel_cols.append(v)
    return len(pivots), kernel_cols


@dataclass(frozen=True)
class FMFibre:
    h0: int
    h1: int
    h0_in_underlying: QMat

    @property
    def dims(self) -> tuple[int, int]:
        return (self.h0, self.h1)


def fm_fibre(d: FilteredPhiModule) -> FMFibre:
    """Fibre of Fil^0 --(1 - tau)--> underlying, tau the crystalline Frobenius.

    Multiplies through QMat's integer ``@`` but eliminates only with
    ``_rank_and_kernel``, on the differential's integer rows ``num`` (a
    positive multiple of it, with the same rank and kernel): it shares no
    elimination code with :func:`gaugeworks.filphi.rhom_mfphi`, and the two
    are compared, not unified.
    """
    n = d.dim
    iota = d.fil0_iota
    diff = iota - d.frobenius @ iota
    rank, kernel_cols = _rank_and_kernel(diff.num, iota.ncols)
    images = iota @ QMat.from_cols(kernel_cols, iota.ncols)
    return FMFibre(h0=len(kernel_cols), h1=n - rank, h0_in_underlying=images)
