"""Dense matrices over the prime field F_p.

An ``FpMat`` stores rows of ints in [0, p), and this module owns that form:
every method that reads or writes an entry is written here on ``self.p``
and ``FpMat._made``, and mixing two primes raises
:class:`~gaugeworks.errors.PrimeMismatchError`.  The kernels reduce inside
each row update: the forward sweep :func:`mod_pivots` (hence ``rank``,
``column_space_basis`` and ``is_invertible``), Gauss--Jordan ``rref``
(hence ``kernel`` and ``solve`` by the rule shared with ``QMat``,
``inverse`` and :func:`quotient_projection`) and ``@``.  There is no
``det``: nothing in the package asks for one.  The sweep is a module
function on integer rows, so it also gives the ranks mod p of module maps
and the first reading of a ``QMat``'s rank.
"""

from __future__ import annotations

from operator import add, mul, sub
from typing import Iterable, Sequence

from ..errors import PrimeMismatchError
from . import dense
from .dense import DenseMat, kernel_rows, rows_from_cols, solve_rows


class FpMat(DenseMat):
    __slots__ = ("p",)

    def __init__(self, p: int, rows: Sequence[Sequence[int]], ncols: int | None = None):
        rows = tuple([tuple([int(x) % p for x in r]) for r in rows])
        _fill(self, p, rows, dense.width(rows, ncols))

    @classmethod
    def _made(cls, p: int, rows: tuple, ncols: int) -> "FpMat":
        """The trusted twin of ``FpMat(p, rows, ncols)``: a tuple of int tuples in
        [0, p), each ``ncols`` long, stored as given."""
        return _fill(object.__new__(cls), p, rows, ncols)

    def _reduced(self, rows, ncols: int) -> "FpMat":
        """Integer ``rows`` reduced mod p, over the prime of ``self``."""
        p = self.p
        return FpMat._made(p, tuple([tuple([x % p for x in r]) for r in rows]), ncols)

    def _key(self):
        return (self.p, self.shape, self.rows)

    def _check(self, other: "FpMat"):
        if self.p != other.p:
            raise PrimeMismatchError(self.p, other.p)

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def transpose(self) -> "FpMat":
        # zip has no rows to read the width off when there are none
        return FpMat._made(self.p, tuple(zip(*self.rows)) if self.nrows else ((),) * self.ncols,
                           self.nrows)

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other: "FpMat", op) -> "FpMat":
        self._check(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return self._reduced([map(op, r1, r2) for r1, r2 in zip(self.rows, other.rows)],
                             self.ncols)

    def __add__(self, other: "FpMat") -> "FpMat":
        return self._combine(other, add)

    def __sub__(self, other: "FpMat") -> "FpMat":
        return self._combine(other, sub)

    def __neg__(self) -> "FpMat":
        return self._reduced([[-x for x in r] for r in self.rows], self.ncols)

    def scale(self, c) -> "FpMat":
        c = int(c) % self.p
        return self._reduced([[c * x for x in r] for r in self.rows], self.ncols)

    def hstack(self, other: "FpMat") -> "FpMat":
        self._check(other)
        if self.nrows != other.nrows:
            raise ValueError("hstack: row count mismatch")
        return FpMat._made(self.p, tuple([r1 + r2 for r1, r2 in zip(self.rows, other.rows)]),
                           self.ncols + other.ncols)

    def vstack(self, other: "FpMat") -> "FpMat":
        self._check(other)
        if self.ncols != other.ncols:
            raise ValueError("vstack: column count mismatch")
        return FpMat._made(self.p, self.rows + other.rows, self.ncols)

    def take_cols(self, idx: Sequence[int]) -> "FpMat":
        return FpMat._made(self.p, tuple([tuple([r[j] for j in idx]) for r in self.rows]),
                           len(idx))

    def take_rows(self, idx: Sequence[int]) -> "FpMat":
        rows = self.rows
        return FpMat._made(self.p, tuple([rows[i] for i in idx]), self.ncols)

    def _block_diag(self, other: "FpMat") -> "FpMat":
        self._check(other)
        right, left = (0,) * other.ncols, (0,) * self.ncols
        return FpMat._made(self.p, tuple([r + right for r in self.rows]
                                         + [left + r for r in other.rows]),
                           self.ncols + other.ncols)

    def _eye(self, n: int) -> "FpMat":
        return FpMat.identity(self.p, n)

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

    def kernel(self) -> "FpMat":
        """Basis of the right null space, as columns (ncols x nullity)."""
        red, pivots = self.rref()
        return self._reduced(*kernel_rows(red.rows, pivots, self.ncols, 1))

    def solve(self, target: "FpMat") -> "FpMat | None":
        """One solution X of ``self @ X = target``, or None if inconsistent."""
        self._check(target)
        if target.nrows != self.nrows:
            raise ValueError("solve: row count mismatch")
        red, pivots = self.hstack(target).rref()
        xrows = solve_rows(red.rows, pivots, self.ncols, target.ncols)
        # the rows of an RREF over F_p are reduced already
        return None if xrows is None else FpMat._made(self.p, tuple(xrows), target.ncols)

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


# ``__setattr__`` keeps matrices immutable; construction writes the slots
# through their descriptors
_set_p = FpMat.p.__set__
_set_rows, _set_nrows, _set_ncols = (DenseMat.rows.__set__, DenseMat.nrows.__set__,
                                     DenseMat.ncols.__set__)


def _fill(m: FpMat, p: int, rows: tuple, ncols: int) -> FpMat:
    _set_p(m, p)
    _set_rows(m, rows)
    _set_nrows(m, len(rows))
    _set_ncols(m, ncols)
    return m


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


def fp_kron(a: FpMat, b: FpMat) -> FpMat:
    """Kronecker product; basis e_i (x) f_j maps to index i*b.nrows + j."""
    a._check(b)
    return a._reduced([[x * y for x in ra for y in rb] for ra in a.rows for rb in b.rows],
                      a.ncols * b.ncols)


# fp_span_union stays a function object of its own, apart from qmat's
# span_union: bench/tracer.py rebinds module functions by identity.
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
    ``ker pi = column span``, and ``pi @ sigma = identity``.  pi is the
    transpose of the kernel of basis^T: its row k reads off the k-th
    non-pivot coordinate after clearing the pivot ones.  sigma keeps the
    kernel's rows at the non-pivot coordinates, the unit vectors, and is
    zero at the pivot ones.
    """
    p, m = basis.p, basis.nrows
    red, pivots = basis.transpose().rref()
    cols, q = kernel_rows(red.rows, pivots, m, 1)
    pi = FpMat._made(p, tuple([tuple([x % p for x in row]) for row in zip(*cols)]), m)
    zero = (0,) * q
    sigma = FpMat._made(p, tuple([zero if i in pivots else tuple(cols[i]) for i in range(m)]),
                        q)
    return pi, sigma
