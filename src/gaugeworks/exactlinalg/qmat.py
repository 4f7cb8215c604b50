"""Dense exact matrices over the rationals.

A :class:`QMat` is an immutable matrix of :class:`~fractions.Fraction`
entries with explicit shape (so zero-row and zero-column matrices behave).
Every dense operation comes from :class:`~.dense.DenseMat`, shared with
:class:`~.fpmat.FpMat`; this module supplies the rational entries, the
rational row operations and the rational-only helpers.  All eliminations are
fraction-exact; nothing here ever touches a float.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from . import dense
from .dense import DenseMat, rows_from_cols


class QMat(DenseMat):
    __slots__ = ()

    def __init__(self, rows: Sequence[Sequence], ncols: int | None = None):
        self._set(tuple(tuple(Fraction(x) for x in r) for r in rows), ncols)

    def _like(self, rows, ncols: int) -> "QMat":
        return QMat(rows, ncols)

    def _key(self):
        return (self.shape, self.rows)

    _entry = staticmethod(Fraction)

    @staticmethod
    def _inv(x: Fraction) -> Fraction:
        return 1 / x

    @staticmethod
    def _sub_mul(xs: list, f: Fraction, ys: list) -> list:
        return [x - f * y for x, y in zip(xs, ys)]

    @staticmethod
    def _mul_row(c: Fraction, xs: list) -> list:
        return [c * x for x in xs]

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, m: int, n: int) -> "QMat":
        return cls([[0] * n for _ in range(m)], ncols=n)

    @classmethod
    def identity(cls, n: int) -> "QMat":
        return cls.scalar(n, 1)

    @classmethod
    def scalar(cls, n: int, c) -> "QMat":
        return cls([[c if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def from_cols(cls, cols: Iterable[Sequence], nrows: int) -> "QMat":
        rows, ncols = rows_from_cols(cols, nrows)
        return cls(rows, ncols=ncols)

    @classmethod
    def diagonal(cls, entries: Sequence, m: int | None = None, n: int | None = None) -> "QMat":
        entries = [Fraction(e) for e in entries]
        m = len(entries) if m is None else m
        n = len(entries) if n is None else n
        return cls([[entries[i] if (i == j and i < len(entries)) else 0
                     for j in range(n)] for i in range(m)], ncols=n)

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
