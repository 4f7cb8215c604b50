"""Smith normal form over the localization Z_(p).

Z_(p) is a discrete valuation ring, so the normal form of any matrix is
diag(p^e1, ..., p^er, 0, ..., 0) with e1 <= ... <= er: only the prime matters
and every p-unit is invertible.  The routine below is a total function on
rational matrices; for inputs with entries in Z_(p) the exponents are >= 0,
and for general rational inputs (used for Frobenius matrices of F-crystals)
they may be negative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qmat import QMat
from .rationals import check_prime, unit_part, vp


@dataclass(frozen=True)
class SNF:
    """U @ M @ V = D with U, V invertible over Z_(p).

    ``exponents`` lists the valuations of the nonzero diagonal entries of D,
    weakly increasing; the remaining diagonal of D is zero.
    """

    prime: int
    u: QMat
    d: QMat
    v: QMat
    exponents: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.exponents)


def smith_normal_form(m: QMat, p: int) -> SNF:
    """Diagonalize ``m`` by unimodular row and column operations over Z_(p).

    >>> from .qmat import QMat
    >>> smith_normal_form(QMat([[2, 3], [3, 9]]), 3).exponents
    (0, 2)
    """
    check_prime(p)
    a = [list(r) for r in m.rows]
    nr, nc = m.nrows, m.ncols
    u = [list(r) for r in QMat.identity(nr).rows]
    v = [list(r) for r in QMat.identity(nc).rows]

    def row_swap(mat, i, j):
        mat[i], mat[j] = mat[j], mat[i]

    def col_swap(mat, i, j):
        for row in mat:
            row[i], row[j] = row[j], row[i]

    def row_axpy(mat, dst, src, c):
        mat[dst] = [x + c * y for x, y in zip(mat[dst], mat[src])]

    def col_axpy(mat, dst, src, c):
        for row in mat:
            row[dst] = row[dst] + c * row[src]

    k = 0
    while k < min(nr, nc):
        # pick the entry of minimal valuation in the trailing block
        best = None
        for i in range(k, nr):
            for j in range(k, nc):
                if a[i][j] != 0:
                    val = vp(a[i][j], p)
                    if best is None or val < best[0]:
                        best = (val, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != k:
            row_swap(a, k, bi)
            row_swap(u, k, bi)
        if bj != k:
            col_swap(a, k, bj)
            col_swap(v, k, bj)
        # normalize the pivot to an exact power of p (unit scaling is unimodular)
        unit = unit_part(a[k][k], p)
        inv = 1 / unit
        a[k] = [inv * x for x in a[k]]
        u[k] = [inv * x for x in u[k]]
        pivot = a[k][k]
        for i in range(k + 1, nr):
            if a[i][k] != 0:
                f = -a[i][k] / pivot  # valuation >= 0 by pivot minimality
                row_axpy(a, i, k, f)
                row_axpy(u, i, k, f)
        for j in range(k + 1, nc):
            if a[k][j] != 0:
                f = -a[k][j] / pivot
                col_axpy(a, j, k, f)
                col_axpy(v, j, k, f)
        k += 1

    exps = []
    for i in range(min(nr, nc)):
        if a[i][i] != 0:
            exps.append(vp(a[i][i], p))
    return SNF(prime=p, u=QMat(u, ncols=nr), d=QMat(a, ncols=nc),
               v=QMat(v, ncols=nc), exponents=tuple(exps))


def kernel_over_zp(m: QMat, p: int) -> QMat:
    """Basis (columns) of the Z_(p)-kernel of ``m``.

    The kernel of a map of free modules is free and saturated, so the columns
    of V sitting over the zero diagonal of the normal form are a basis.
    """
    s = smith_normal_form(m, p)
    return s.v.take_cols(list(range(s.rank, m.ncols)))


__all__ = ["SNF", "smith_normal_form", "kernel_over_zp"]
