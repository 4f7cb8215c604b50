"""Dense exact matrices over the rationals.

A :class:`QMat` is an immutable matrix with explicit shape (so zero-row and
zero-column matrices behave), stored in one form only: integer rows
``num`` over one denominator ``den``, with ``den > 0`` and
gcd(num, den) = 1, so a zero or empty matrix has ``den == 1``.  This module
owns that form: every method that reads or writes an entry is written here
on ``num`` and ``den``, and :func:`_canonical` is the one step that divides
gcd(num, den) out, for :class:`~.modules.ModuleMap` too, which stores the
same form.  Equality and hashing read (shape, num, den).  ``@`` is N1 N2
over D1 D2; sums, stacks and block sums first bring both numerators over
the lcm of the two denominators, and one gcd keeps a result canonical where
entries can share a factor with its denominator.  A
:class:`~fractions.Fraction` is built only when ``rows`` or ``m[i, j]`` is
read, once per matrix.  The constructor, ``diagonal``, ``scale`` and
``apply`` read entries by :func:`~.rationals.rational_entry` alone (an int,
a Fraction or a literal such as ``"-3/4"``), and the constructor keeps none
of them: it brings the rows over the lcm of the denominators.

There are two eliminations, both on the primitive rows of ``num`` (scaling
a row moves no pivot).  The forward sweep ``_sweep`` finds the pivots
without back-substitution; ``column_space_basis`` (hence the span helpers
below) and ``det``, which is det(num) / den^n, read it.  Gauss--Jordan
``rref`` serves where reduced rows are read: ``kernel`` and ``solve``, by
the rule shared with ``FpMat`` (:func:`~.dense.kernel_rows`,
:func:`~.dense.solve_rows`), and ``inverse``.  ``rank`` (hence
``is_invertible``) first reads the rank of ``num`` modulo the word prime
``RANK_PRIME``: that rank is never above the rank over Q, so when it is
full it is the answer, and only otherwise does ``rank`` run ``_sweep``.
The pivot columns modulo a prime can differ from those over Q even at equal
rank, so every routine that reads pivots keeps the exact sweeps.  What
reads no entry (shapes, ``power``, ``inverse``) comes from
:class:`~.dense.DenseMat`.  Everything is exact; nothing here ever touches
a float.

>>> a = QMat([[1, "1/2"], [0, "1/3"]])
>>> a.num, a.den
(((6, 3), (0, 2)), 6)
>>> (a @ a).num, (a @ a).den
(((9, 6), (0, 1)), 9)
>>> a.det(), (a - a).den
(Fraction(1, 3), 1)
>>> (a @ a)[0, 1]
Fraction(2, 3)
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, count
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Sequence

from . import dense
from .dense import DenseMat, kernel_rows, rows_from_cols, solve_rows
from .fpmat import rank_mod
from .rationals import rational_entry

# A prime below 2^30: the rank of ``num`` modulo it is a lower bound on the
# rank over Q, read with word-size residues
RANK_PRIME = 1073741789


def _primitive(xs: Sequence[int]) -> tuple[Sequence[int], int]:
    """``xs`` divided by the gcd g of its entries, and g (0 for a zero row)."""
    g = gcd(*xs)
    return ([x // g for x in xs] if g > 1 else xs), g


def _sweep(rows: list):
    """The integer forward sweep: the pivots of the echelon form, column by column.

    ``rows`` are primitive integer rows.  At pivot column c only the row
    tails from column c on are kept.  The first row with a nonzero head
    ``pv`` is swapped to the top.  Each row below with a nonzero head f
    becomes ``pv*tail - f*pivot_tail`` with its content g divided out
    (cf. Bareiss, Math. Comp. 22, 1968), and is dropped when that is zero.
    There is no back-substitution and no Fraction.  Yields, for each pivot
    column c in turn, ``(c, pv, swapped, contents, updated)``: ``contents``
    is the product of the g of the ``updated`` rows kept, which ``det``
    reads.
    """
    rows = [r for r in rows if any(r)]
    for c in count():
        if not rows:
            return
        i = next((i for i, row in enumerate(rows) if row[0]), None)
        if i is None:
            rows = [row[1:] for row in rows]
            continue
        prow = rows[i]
        rows[i] = rows[0]
        pv, ptail = prow[0], prow[1:]
        contents, updated, below = 1, 0, []
        for row in rows[1:]:
            f = row[0]
            if not f:
                below.append(row[1:])
                continue
            new, g = _primitive([pv * x - f * y for x, y in zip(row[1:], ptail)])
            if g:
                below.append(new)
                contents *= g
                updated += 1
        yield c, pv, i != 0, contents, updated
        rows = below


def _fraction_rows(num: tuple, den: int) -> tuple:
    """``num / den`` as rows of Fractions: the one place a QMat builds them."""
    frac = Fraction if den == 1 else lambda x: Fraction(x, den)
    return tuple([tuple(map(frac, r)) for r in num])


def _canonical(num, den: int) -> tuple[tuple, int]:
    """Rows of ints over ``den`` > 0 as int tuples, with gcd(num, den) divided out."""
    if den > 1:
        g = gcd(den, *chain.from_iterable(num))
        if g > 1:
            return tuple([tuple([x // g for x in r]) for r in num]), den // g
    return tuple(map(tuple, num)), den


def _scaled(num: tuple, s: int) -> tuple:
    return num if s == 1 else tuple([tuple([s * x for x in r]) for r in num])


def _aligned(a: tuple, da: int, b: tuple, db: int) -> tuple[tuple, tuple, int]:
    """The numerators of ``a / da`` and ``b / db`` over d = lcm(da, db), and d.

    Each keeps gcd 1 with d: a prime's full power in d comes from a
    denominator whose numerator has an entry that it does not divide.
    """
    d = lcm(da, db)
    return _scaled(a, d // da), _scaled(b, d // db), d


def _combined(a: tuple, da: int, b: tuple, db: int, op) -> tuple[tuple, int]:
    """``op`` entry by entry on ``a / da`` and ``b / db``, in the stored form:
    both over their lcm denominator, then one :func:`_canonical`."""
    a, b, d = _aligned(a, da, b, db)
    return _canonical([list(map(op, r1, r2)) for r1, r2 in zip(a, b)], d)


class QMat(DenseMat):
    __slots__ = ("num", "den")

    def __init__(self, rows: Sequence[Sequence], ncols: int | None = None):
        pairs = [list(map(rational_entry, r)) for r in rows]
        den = lcm(*{d for r in pairs for _, d in r})
        # lowest-terms entries over the lcm of their denominators: canonical
        num = tuple([tuple([n * (den // d) for n, d in r]) for r in pairs])
        ncols = dense.width(num, ncols)
        _set_num(self, num)
        _set_den(self, den)
        _set_nrows(self, len(num))
        _set_ncols(self, ncols)

    @classmethod
    def _made(cls, num: tuple, den: int, ncols: int) -> "QMat":
        """The trusted twin of ``QMat(rows, ncols)``: ``num / den`` stored as given.

        ``num`` must be a tuple of int tuples, each ``ncols`` long, and
        already canonical with ``den``.
        """
        new = object.__new__(cls)
        _set_num(new, num)
        _set_den(new, den)
        _set_nrows(new, len(num))
        _set_ncols(new, ncols)
        return new

    @classmethod
    def _lowest(cls, num, den: int, ncols: int) -> "QMat":
        """``num / den`` (den > 0, rows of ints) with gcd(num, den) divided out."""
        return cls._made(*_canonical(num, den), ncols)

    @property
    def rows(self) -> tuple:
        """The entries as Fractions, built on the first read."""
        try:
            return _get_rows(self)
        except AttributeError:
            rows = _fraction_rows(self.num, self.den)
            _set_rows(self, rows)
            return rows

    def _key(self):
        return (self.shape, self.num, self.den)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    # -- arithmetic on the numerators ----------------------------------------

    def _combine(self, other: "QMat", op) -> "QMat":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return QMat._made(*_combined(self.num, self.den, other.num, other.den, op), self.ncols)

    def __add__(self, other: "QMat") -> "QMat":
        return self._combine(other, add)

    def __sub__(self, other: "QMat") -> "QMat":
        return self._combine(other, sub)

    def __neg__(self) -> "QMat":
        return QMat._made(tuple([tuple([-x for x in r]) for r in self.num]), self.den,
                          self.ncols)

    def scale(self, c) -> "QMat":
        n, d = rational_entry(c)
        return QMat._lowest([[n * x for x in r] for r in self.num], self.den * d, self.ncols)

    def __matmul__(self, other: "QMat") -> "QMat":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot compose {self.shape} @ {other.shape}")
        # an inner dimension of 0 leaves zip nothing to transpose
        cols = list(zip(*other.num)) or [()] * other.ncols
        return QMat._lowest([[sum(map(mul, r, c)) for c in cols] for r in self.num],
                            self.den * other.den, other.ncols)

    def transpose(self) -> "QMat":
        # zip has no rows to read the width off when there are none
        return QMat._made(tuple(zip(*self.num)) if self.nrows else ((),) * self.ncols,
                          self.den, self.nrows)

    def hstack(self, other: "QMat") -> "QMat":
        if self.nrows != other.nrows:
            raise ValueError("hstack: row count mismatch")
        a, b, d = _aligned(self.num, self.den, other.num, other.den)
        return QMat._made(tuple([r1 + r2 for r1, r2 in zip(a, b)]), d,
                          self.ncols + other.ncols)

    def vstack(self, other: "QMat") -> "QMat":
        if self.ncols != other.ncols:
            raise ValueError("vstack: column count mismatch")
        a, b, d = _aligned(self.num, self.den, other.num, other.den)
        return QMat._made(a + b, d, self.ncols)

    def _block_diag(self, other: "QMat") -> "QMat":
        a, b, d = _aligned(self.num, self.den, other.num, other.den)
        right, left = (0,) * other.ncols, (0,) * self.ncols
        return QMat._made(tuple([r + right for r in a] + [left + r for r in b]), d,
                          self.ncols + other.ncols)

    def take_cols(self, idx: Sequence[int]) -> "QMat":
        return QMat._lowest([[r[j] for j in idx] for r in self.num], self.den, len(idx))

    def take_rows(self, idx: Sequence[int]) -> "QMat":
        num = self.num
        return QMat._lowest([num[i] for i in idx], self.den, self.ncols)

    def _eye(self, n: int) -> "QMat":
        return QMat.identity(n)

    # -- elimination on the numerators ---------------------------------------

    def rref(self) -> tuple["QMat", list[int]]:
        """Reduced row echelon form; returns (R, pivot_columns).

        Gauss--Jordan over Z on the primitive rows of ``num``: each update
        is ``pv*row_i - f*row_r`` with the row's content divided out, which
        keeps entries near the size of the minors (cf. Bareiss, Math. Comp.
        22, 1968).  Row r of R is the r-th integer row over its pivot, so R
        is those rows over the lcm of the pivots; the rows are primitive,
        hence R is canonical without a gcd.
        """
        rows = [_primitive(r)[0] for r in self.num]
        pivots = []
        r = 0
        for c in range(self.ncols):
            pivot = next((i for i in range(r, self.nrows) if rows[i][c]), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            prow = rows[r]
            pv = prow[c]
            for i, row in enumerate(rows):
                f = row[c]
                if f and i != r:
                    rows[i] = _primitive([pv * x - f * y for x, y in zip(row, prow)])[0]
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        # rows past the rank are zero
        d = lcm(*(row[c] for row, c in zip(rows, pivots)))
        red = [tuple([x * (d // row[c]) for x in row]) for row, c in zip(rows, pivots)]
        return QMat._made(tuple(red) + ((0,) * self.ncols,) * (self.nrows - r), d,
                          self.ncols), pivots

    def rank(self) -> int:
        """The rank over Q: full if it is full modulo ``RANK_PRIME``, else the exact sweep's.

        Reduction mod q is a ring map, so a nonzero r x r minor mod q is a
        nonzero minor over Q: the rank mod q is never above the rank over Q.
        """
        full = min(self.nrows, self.ncols)
        if rank_mod(self.num, RANK_PRIME) == full:
            return full
        return len(self._pivots())

    def _pivots(self) -> list[int]:
        """Pivot columns of the echelon form, read off the integer forward sweep."""
        return [c for c, *_ in _sweep([_primitive(r)[0] for r in self.num])]

    def det(self) -> Fraction:
        """det(num) / den^n, read off the integer forward sweep, reduced once per pivot column."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        # det(self) = det(rows) * num / den throughout; row i of self is
        # g/d times a primitive row, with g/d in lowest terms
        rows, num, den, d = [], 1, 1, self.den
        for r in self.num:
            xs, g = _primitive(r)
            h = gcd(g, d)
            rows.append(xs)
            num *= g // h
            den *= d // h
        found = 0
        for found, (_, pv, swapped, contents, updated) in enumerate(_sweep(rows), 1):
            # pv on the diagonal, and g / pv for each updated row
            num *= -contents * pv if swapped else contents * pv
            if updated:
                den *= pv ** updated
                g = gcd(num, den)
                num, den = num // g, den // g
        return Fraction(num, den) if found == self.nrows else Fraction(0)

    def kernel(self) -> "QMat":
        """Basis of the right null space, as columns (ncols x nullity)."""
        red, pivots = self.rref()
        rows, n = kernel_rows(red.num, pivots, self.ncols, red.den)
        return QMat._lowest(rows, red.den, n)

    def solve(self, target: "QMat") -> "QMat | None":
        """One solution X of ``self @ X = target``, or None if inconsistent."""
        if target.nrows != self.nrows:
            raise ValueError("solve: row count mismatch")
        red, pivots = self.hstack(target).rref()
        xrows = solve_rows(red.num, pivots, self.ncols, target.ncols)
        return None if xrows is None else QMat._lowest(xrows, red.den, target.ncols)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, m: int, n: int) -> "QMat":
        return cls._made(((0,) * n,) * m, 1, n)

    @classmethod
    def identity(cls, n: int) -> "QMat":
        return cls.scalar(n, 1)

    @classmethod
    def scalar(cls, n: int, c) -> "QMat":
        return cls.diagonal([c] * n)

    @classmethod
    def from_cols(cls, cols: Iterable[Sequence], nrows: int) -> "QMat":
        rows, ncols = rows_from_cols(cols, nrows)
        return cls(rows, ncols=ncols)

    @classmethod
    def diagonal(cls, entries: Iterable) -> "QMat":
        pairs = list(map(rational_entry, entries))
        n, d = len(pairs), lcm(*{den for _, den in pairs})
        rows = [[0] * n for _ in range(n)]
        for i, (x, den) in enumerate(pairs):
            rows[i][i] = x * (d // den)
        return cls._made(tuple(map(tuple, rows)), d, n)

    def __repr__(self):
        if self.nrows == 0 or self.ncols == 0:
            return f"QMat(zeros {self.nrows}x{self.ncols})"
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"QMat[{body}]"

    # -- rational-only helpers ---------------------------------------------

    def apply(self, vec: Sequence) -> tuple:
        vec = [Fraction(*rational_entry(x)) for x in vec]
        if len(vec) != self.ncols:
            raise ValueError("vector of wrong length")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def in_column_span(self, vec: Sequence) -> bool:
        target = QMat.from_cols([list(vec)], self.nrows)
        return self.solve(target) is not None


# ``__setattr__`` keeps matrices immutable; construction writes the slots
# through their descriptors.  The base class's ``rows`` slot holds the
# Fractions once they are read.
_set_num, _set_den = QMat.num.__set__, QMat.den.__set__
_get_rows, _set_rows = DenseMat.rows.__get__, DenseMat.rows.__set__
_set_nrows, _set_ncols = DenseMat.nrows.__set__, DenseMat.ncols.__set__


def kron(a: QMat, b: QMat) -> QMat:
    """Kronecker product; basis e_i (x) f_j maps to index i*b.nrows + j."""
    return QMat._lowest([[x * y for x in ra for y in rb] for ra in a.num for rb in b.num],
                        a.den * b.den, a.ncols * b.ncols)


# span_union stays a function object of its own, apart from fpmat's
# fp_span_union: bench/tracer.py rebinds module functions by identity.
def span_union(nrows: int, mats: Iterable[QMat]) -> QMat:
    """Basis (as columns) of the sum of the column spans of ``mats``."""
    mats = list(mats)
    if any(m.nrows != nrows for m in mats):
        raise ValueError("span_union: ambient dimension mismatch")
    return dense.span_union(QMat.zeros(nrows, 0), mats)


def intersect_spans(a: QMat, b: QMat) -> QMat:
    """Basis (as columns) of the intersection of two column spans."""
    if a.nrows != b.nrows:
        raise ValueError("intersect_spans: ambient dimension mismatch")
    if a.ncols == 0 or b.ncols == 0:
        return QMat.zeros(a.nrows, 0)
    ker = a.hstack(b.scale(-1)).kernel()
    vecs = a @ ker.take_rows(list(range(a.ncols)))
    return vecs.column_space_basis()
