"""Dense exact matrices over the rationals.

A :class:`QMat` is an immutable matrix of :class:`~fractions.Fraction`
entries with explicit shape (so zero-row and zero-column matrices behave).
Elimination and products run over the integers: each row (or column) is
scaled by the lcm of its denominators once, and Fractions are built only
for the result.  There are two eliminations.  The forward sweep
``_sweep`` finds the pivots without back-substitution or Fraction output;
``rank``, ``column_space_basis`` (hence ``is_invertible`` and the span
helpers below) and ``det`` read it.  Gauss--Jordan ``rref`` serves only
where reduced rows are read: ``kernel``, ``solve`` and ``inverse``.  Every
other dense operation comes from :class:`~.dense.DenseMat`, shared with
:class:`~.fpmat.FpMat`.  Everything is exact; nothing here ever touches a
float.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from . import dense
from .dense import DenseMat, rows_from_cols


def _cleared(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """``xs`` times the lcm ``d`` of its denominators, as ints, and ``d``."""
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def _primitive(xs: list[int]) -> tuple[list[int], int]:
    """``xs`` divided by the gcd g of its entries, and g (0 for a zero row)."""
    g = gcd(*xs)
    return ([x // g for x in xs] if g > 1 else xs), g


def _sweep(rows: list[list[int]]):
    """The integer forward sweep: the pivots of the echelon form, column by column.

    ``rows`` are cleared, primitive integer rows.  At pivot column c only
    the row tails from column c on are kept.  The first row with a nonzero
    head ``pv`` is swapped to the top.  Each row below with a nonzero head f
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


class QMat(DenseMat):
    __slots__ = ()

    def __init__(self, rows: Sequence[Sequence], ncols: int | None = None):
        self._set(tuple(tuple(x if isinstance(x, Fraction) else Fraction(x) for x in r)
                        for r in rows), ncols)

    @classmethod
    def _made(cls, rows: tuple, ncols: int) -> "QMat":
        """The trusted twin of ``QMat(rows, ncols)``: rows stored as given."""
        return object.__new__(cls)._store(rows, ncols)

    def _like(self, rows: tuple, ncols: int) -> "QMat":
        return QMat._made(rows, ncols)

    def _reduced(self, rows, ncols: int) -> "QMat":
        return QMat._made(tuple(map(tuple, rows)), ncols)

    def _key(self):
        return (self.shape, self.rows)

    _entry = staticmethod(Fraction)

    # -- integer kernels ---------------------------------------------------

    def __matmul__(self, other: "QMat") -> "QMat":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot compose {self.shape} @ {other.shape}")
        rows = [_cleared(r) for r in self.rows]
        cols = [_cleared([r[j] for r in other.rows]) for j in range(other.ncols)]
        return QMat._made(tuple([tuple([Fraction(sum(map(mul, xs, ys)), da * db)
                                        for ys, db in cols]) for xs, da in rows]),
                          other.ncols)

    def rref(self) -> tuple["QMat", list[int]]:
        """Reduced row echelon form; returns (R, pivot_columns).

        Gauss--Jordan over Z on rows with cleared denominators: each update
        is ``pv*row_i - f*row_r`` with the row's content divided out, which
        keeps entries near the size of the minors (cf. Bareiss, Math. Comp.
        22, 1968).  Row r of R is the r-th integer row over its pivot.
        """
        rows = [_primitive(_cleared(r)[0])[0] for r in self.rows]
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
        red = [tuple([Fraction(x, row[c]) for x in row]) for row, c in zip(rows, pivots)]
        zero_row = (Fraction(0),) * self.ncols
        return QMat._made(tuple(red) + (zero_row,) * (self.nrows - r), self.ncols), pivots

    def _pivots(self) -> list[int]:
        """Pivot columns of the echelon form, read off the integer forward sweep."""
        rows = [_primitive(_cleared(r)[0])[0] for r in self.rows]
        return [c for c, *_ in _sweep(rows)]

    def det(self) -> Fraction:
        """Determinant read off the integer forward sweep, reduced once per pivot column."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        # det(self) = det(rows) * num / den throughout
        rows, num, den = [], 1, 1
        for r in self.rows:
            xs, d = _cleared(r)
            xs, g = _primitive(xs)
            rows.append(xs)
            num *= g
            den *= d
        found = 0
        for found, (_, pv, swapped, contents, updated) in enumerate(_sweep(rows), 1):
            # pv on the diagonal, and g / pv for each updated row
            num *= -contents * pv if swapped else contents * pv
            if updated:
                den *= pv ** updated
                g = gcd(num, den)
                num, den = num // g, den // g
        return Fraction(num, den) if found == self.nrows else Fraction(0)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, m: int, n: int) -> "QMat":
        return cls.diagonal((), m, n)

    @classmethod
    def identity(cls, n: int) -> "QMat":
        return cls.scalar(n, 1)

    @classmethod
    def scalar(cls, n: int, c) -> "QMat":
        return cls.diagonal([Fraction(c)] * n)

    @classmethod
    def from_cols(cls, cols: Iterable[Sequence], nrows: int) -> "QMat":
        rows, ncols = rows_from_cols(cols, nrows)
        return cls(rows, ncols=ncols)

    @classmethod
    def diagonal(cls, entries: Sequence, m: int | None = None, n: int | None = None) -> "QMat":
        entries = list(entries)
        m = len(entries) if m is None else m
        n = len(entries) if n is None else n
        zero = Fraction(0)  # shared: no Fraction is built off the diagonal
        rows = [[zero] * n for _ in range(m)]
        for i in range(min(len(entries), m, n)):
            x = entries[i]
            rows[i][i] = x if isinstance(x, Fraction) else Fraction(x)
        return cls._made(tuple(map(tuple, rows)), n)

    def __repr__(self):
        if self.nrows == 0 or self.ncols == 0:
            return f"QMat(zeros {self.nrows}x{self.ncols})"
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"QMat[{body}]"

    # -- rational-only helpers ---------------------------------------------

    def apply(self, vec: Sequence) -> tuple:
        vec = [Fraction(x) for x in vec]
        if len(vec) != self.ncols:
            raise ValueError("vector of wrong length")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def in_column_span(self, vec: Sequence) -> bool:
        target = QMat.from_cols([list(vec)], self.nrows)
        return self.solve(target) is not None


# kron and span_union stay distinct function objects from fp_kron and
# fp_span_union: bench/tracer.py rebinds module functions by identity.
def kron(a: QMat, b: QMat) -> QMat:
    """Kronecker product; basis e_i (x) f_j maps to index i*b.nrows + j."""
    return dense.kron(a, b)


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
