"""Dense matrices over the prime field F_p.

Entries are ints reduced to [0, p).  The kernels are plain mod-p code here,
reducing inside each row update: the forward sweep :func:`mod_pivots`
(hence ``rank``, ``column_space_basis`` and ``is_invertible``),
Gauss--Jordan ``rref`` (hence ``kernel``, ``solve`` and ``inverse``) and
``@``.  An ``FpMat`` has no ``det``: nothing in the package asks for one.
The sweep is a module function on integer rows, so it also answers
questions modulo a prime about matrices stored elsewhere: the ranks mod p
of module maps, and the first reading of a ``QMat``'s rank.  The
field-independent operations come from :class:`~.dense.DenseMat`, shared
with :class:`~.qmat.QMat`, so the same explicit-shape discipline applies and
empty matrices compose correctly.  This module also supplies the reduction
mod p, the prime-mismatch check and the F_p-only helpers.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Sequence

from ..errors import PrimeMismatchError
from . import dense
from .dense import DenseMat, rows_from_cols


class FpMat(DenseMat):
    __slots__ = ("p",)

    def __init__(self, p: int, rows: Sequence[Sequence[int]], ncols: int | None = None):
        _set_p(self, p)
        rows = tuple([tuple([int(x) % p for x in r]) for r in rows])
        self._store(rows, dense.width(rows, ncols))

    @classmethod
    def _made(cls, p: int, rows: tuple, ncols: int) -> "FpMat":
        """The trusted twin of ``FpMat(p, rows, ncols)``: rows stored as given."""
        new = object.__new__(cls)
        _set_p(new, p)
        return new._store(rows, ncols)

    def _like(self, rows: tuple, ncols: int) -> "FpMat":
        return FpMat._made(self.p, rows, ncols)

    def _reduced(self, rows, ncols: int) -> "FpMat":
        p = self.p
        return FpMat._made(p, tuple([tuple([x % p for x in r]) for r in rows]), ncols)

    def _key(self):
        return (self.p, self.shape, self.rows)

    def _check(self, other: "FpMat"):
        if self.p != other.p:
            raise PrimeMismatchError(self.p, other.p)

    def _entry(self, x) -> int:
        return int(x) % self.p

    # -- mod-p kernels -----------------------------------------------------

    def __matmul__(self, other: "FpMat") -> "FpMat":
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError(f"cannot compose {self.shape} @ {other.shape}")
        # an inner dimension of 0 leaves zip nothing to transpose
        p = self.p
        cols = list(zip(*other.rows)) or [()] * other.ncols
        return FpMat._made(p, tuple([tuple([sum(map(mul, row, col)) % p for col in cols])
                                     for row in self.rows]), other.ncols)

    def rref(self) -> tuple["FpMat", list[int]]:
        """Reduced row echelon form; returns (R, pivot_columns)."""
        p = self.p
        rows = [list(r) for r in self.rows]
        pivots = []
        r = 0
        for c in range(self.ncols):
            pivot = next((i for i in range(r, self.nrows) if rows[i][c]), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = pow(rows[r][c], -1, p)
            prow = rows[r] = [inv * x % p for x in rows[r]]
            for i, row in enumerate(rows):
                f = row[c]
                if f and i != r:
                    rows[i] = [(x - f * y) % p for x, y in zip(row, prow)]
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        return FpMat._made(p, tuple(map(tuple, rows)), self.ncols), pivots

    def _pivots(self) -> list[int]:
        """Pivot columns of the echelon form, read off the forward sweep."""
        return list(mod_pivots(self.rows, self.p))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, p: int, m: int, n: int) -> "FpMat":
        return cls._made(p, ((0,) * n,) * m, n)

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMat":
        return cls.scalar(p, n, 1)

    @classmethod
    def scalar(cls, p: int, n: int, c: int) -> "FpMat":
        c = int(c) % p
        return cls._made(p, tuple([tuple([c if i == j else 0 for j in range(n)])
                                   for i in range(n)]), n)

    @classmethod
    def from_cols(cls, p: int, cols: Iterable[Sequence[int]], nrows: int) -> "FpMat":
        rows, ncols = rows_from_cols(cols, nrows)
        return cls(p, rows, ncols=ncols)

    def __repr__(self):
        if self.nrows == 0 or self.ncols == 0:
            return f"FpMat(p={self.p}, zeros {self.nrows}x{self.ncols})"
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"FpMat(p={self.p})[{body}]"


_set_p = FpMat.p.__set__


def mod_pivots(rows: Iterable[Sequence[int]], q: int):
    """The forward sweep over F_q: the pivots of the integer ``rows`` mod the prime q.

    The rows are reduced mod q once.  At column c the first row at or
    below the pivot rows found so far with a nonzero entry ``pv`` there is
    swapped up to join them, and each row below it with a nonzero entry f
    in column c has ``f/pv`` times the pivot row subtracted from column
    c + 1 on.  There is no back-substitution.  Yields each pivot column c
    in turn.
    """
    rows = [[x % q for x in row] for row in rows]
    r, m = 0, len(rows)
    for c in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(r, m) if rows[i][c]), None)
        if i is None:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        rows[r] = prow
        pv, ptail = prow[c], prow[c + 1:]
        inv = pow(pv, -1, q)
        for row in rows[r + 1:]:
            f = row[c]
            if f:
                f = f * inv % q
                row[c + 1:] = [(x - f * y) % q for x, y in zip(row[c + 1:], ptail)]
        yield c
        r += 1
        if r == m:
            return


def rank_mod(rows: Iterable[Sequence[int]], q: int) -> int:
    """The rank of the integer ``rows`` mod the prime q."""
    return sum(1 for _ in mod_pivots(rows, q))


# fp_kron and fp_span_union stay distinct function objects from kron and
# span_union: bench/tracer.py rebinds module functions by identity.
def fp_kron(a: FpMat, b: FpMat) -> FpMat:
    """Kronecker product; basis e_i (x) f_j maps to index i*b.nrows + j."""
    return dense.kron(a, b)


def fp_span_union(p: int, nrows: int, mats: Iterable[FpMat]) -> FpMat:
    """Basis (as columns) of the sum of the column spans of ``mats``."""
    return dense.span_union(FpMat.zeros(p, nrows, 0), mats)


def fp_homology_two_term(d: FpMat) -> tuple[int, int]:
    """(dim H0, dim H1) of the two-term F_p complex ``source --d--> target``.

    H0 is the kernel (nullity), H1 the cokernel (corank).
    """
    r = d.rank()
    return (d.ncols - r, d.nrows - r)


def quotient_projection(basis: FpMat) -> tuple[FpMat, FpMat]:
    """Projection pi and section sigma for ``F_p^m / span(columns of basis)``.

    Returns (pi, sigma) with ``pi: F_p^m -> F_p^q`` of full row rank,
    ``ker pi = column span``, and ``pi @ sigma = identity``.
    """
    p, m = basis.p, basis.nrows
    red, pivots = basis.transpose().rref()
    # rows of `red` up to rank(basis) are an echelon basis of the span,
    # with leading ones in the pivot coordinates.
    echelon = [red.rows[r] for r in range(len(pivots))]
    free = [j for j in range(m) if j not in pivots]
    proj_rows = []
    for f in free:
        # functional reading off coordinate f after clearing pivot coords
        row = [0] * m
        row[f] = 1
        for r, pc in enumerate(pivots):
            row[pc] = (-echelon[r][f]) % p
        proj_rows.append(row)
    pi = FpMat._made(p, tuple(map(tuple, proj_rows)), m)
    sigma = FpMat._made(p, tuple([tuple([int(i == f) for f in free]) for i in range(m)]),
                        len(free))
    return pi, sigma
