"""Immutable dense matrices with explicit shape: the field-independent part.

:class:`~.qmat.QMat` and :class:`~.fpmat.FpMat` subclass :class:`DenseMat`.
Each field owns its kernels ``rref``, ``@`` and the pivot columns
``_pivots()`` of its forward sweep (``QMat`` also ``det`` and its own
``rank``).  What reads no entry is written here once for both: shapes,
equality and hashing through the field's ``_key``, ``power``, ``rank`` and
``column_space_basis`` read off ``_pivots()``, and ``inverse`` read off
``rref``.  The entry-level operations here
(``+``/``-``, ``scale``, stacking, ``take_*``, ``transpose``, block sums,
``kron``, and ``kernel``/``solve`` read off ``rref``) work on rows of
normalised entries, which is how ``FpMat`` stores a matrix: ints in
[0, p).  ``QMat`` stores integer rows over one denominator instead, and
overrides each of them to work on that form.

A matrix is built by one of two paths.  The public constructors,
``FpMat(p, rows, ncols)`` and ``QMat(rows, ncols, den=None)``, are checked:
they reject ragged rows and check ``ncols`` (:func:`width`), and bring every
entry to the stored form.  ``FpMat`` reduces it mod p.  ``QMat`` reads an
int or a ``Fraction`` as it is and anything else through ``Fraction``, over
the lcm of the denominators; given ``den``, it takes rows of ints over that
denominator.  Either way it divides out the one gcd that makes the form
canonical, and keeps none of the entries it was handed.  The private
``_made`` classmethod of each field is trusted and stores its arguments as
given: ``FpMat._made(p, rows, ncols)`` a tuple of row tuples of ints in
[0, p), each ``ncols`` long, and ``QMat._made(num, den, ncols)`` such a
tuple of ints over ``den`` with den > 0 and gcd(num, den) = 1 (``QMat._lowest``
divides that gcd out first).  Every result the library builds itself goes
through ``_made``; here through the hooks ``_like(rows, ncols)`` (``_made``
over the field of ``self``) and ``_reduced(rows, ncols)`` (entries reduced
mod p, then ``_made``), with ``_entry`` for scalars.
"""

from __future__ import annotations

from operator import add, sub
from typing import Iterable, Sequence


class DenseMat:
    __slots__ = ("rows", "nrows", "ncols")

    def __init_subclass__(cls, **kwargs):
        # bench/tracer.py patches each method in ``cls.__dict__`` of QMat and
        # FpMat separately, so the shared methods are bound on each field
        # class itself rather than only inherited from this one.
        super().__init_subclass__(**kwargs)
        for name, value in vars(DenseMat).items():
            if callable(value) and name not in vars(cls) and name != "__init_subclass__":
                setattr(cls, name, value)

    def _store(self, rows: tuple, ncols: int):
        """Store rows of the given width as they are."""
        _set_rows(self, rows)
        _set_nrows(self, len(rows))
        _set_ncols(self, ncols)
        return self

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _check(self, other: "DenseMat"):
        """Raise when ``other`` lives over a different field (F_p only)."""

    # -- basics ------------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, type(self)) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def transpose(self):
        # zip has no rows to read the width off when there are none
        return self._like(tuple(zip(*self.rows)) if self.nrows else ((),) * self.ncols,
                          self.nrows)

    # -- arithmetic --------------------------------------------------------

    def _paired_rows(self, other):
        self._check(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return zip(self.rows, other.rows)

    def __add__(self, other):
        return self._reduced([list(map(add, r1, r2)) for r1, r2 in self._paired_rows(other)],
                             self.ncols)

    def __sub__(self, other):
        return self._reduced([list(map(sub, r1, r2)) for r1, r2 in self._paired_rows(other)],
                             self.ncols)

    def __neg__(self):
        return self._reduced([[-a for a in r] for r in self.rows], self.ncols)

    def scale(self, c):
        c = self._entry(c)
        return self._reduced([[c * a for a in r] for r in self.rows], self.ncols)

    def power(self, k: int):
        """``self`` to the k-th power by repeated squaring (identity for k <= 0)."""
        if self.nrows != self.ncols:
            raise ValueError("power of non-square matrix")
        out, base = None, self
        while k > 0:
            if k & 1:
                out = base if out is None else out @ base
            k >>= 1
            if k:
                base = base @ base
        return self._eye(self.nrows) if out is None else out

    def is_nilpotent(self) -> bool:
        """Checked by raising to the dimension, never beyond."""
        return self.power(max(self.nrows, 1)).is_zero()

    def hstack(self, other):
        self._check(other)
        if self.nrows != other.nrows:
            raise ValueError("hstack: row count mismatch")
        return self._like(tuple([r1 + r2 for r1, r2 in zip(self.rows, other.rows)]),
                          self.ncols + other.ncols)

    def vstack(self, other):
        self._check(other)
        if self.ncols != other.ncols:
            raise ValueError("vstack: column count mismatch")
        return self._like(self.rows + other.rows, self.ncols)

    def take_cols(self, idx: Sequence[int]):
        return self._like(tuple([tuple([r[j] for j in idx]) for r in self.rows]), len(idx))

    def take_rows(self, idx: Sequence[int]):
        rows = self.rows
        return self._like(tuple([rows[i] for i in idx]), self.ncols)

    def _block_diag(self, other):
        zero = self._entry(0)
        right, left = (zero,) * other.ncols, (zero,) * self.ncols
        return self._like(tuple([r + right for r in self.rows] + [left + r for r in other.rows]),
                          self.ncols + other.ncols)

    def _eye(self, n: int):
        zero, one = self._entry(0), self._entry(1)
        return self._like(tuple([tuple([one if i == j else zero for j in range(n)])
                                 for i in range(n)]), n)

    # -- elimination -------------------------------------------------------

    def rank(self) -> int:
        return len(self._pivots())

    def kernel(self):
        """Basis of the right null space, as columns (ncols x nullity)."""
        red, pivots = self.rref()
        zero, one = self._entry(0), self._entry(1)
        free = [j for j in range(self.ncols) if j not in pivots]
        cols = []
        for f in free:
            v = [zero] * self.ncols
            v[f] = one
            for r, pc in enumerate(pivots):
                v[pc] = -red.rows[r][f]
            cols.append(v)
        return self._reduced(*rows_from_cols(cols, self.ncols))

    def solve(self, target):
        """One solution X of ``self @ X = target``, or None if inconsistent."""
        self._check(target)
        if target.nrows != self.nrows:
            raise ValueError("solve: row count mismatch")
        red, pivots = self.hstack(target).rref()
        n = self.ncols
        if pivots and pivots[-1] >= n:
            return None
        # row pc of X is the target part of the echelon row with pivot pc
        xrows = [(self._entry(0),) * target.ncols] * n
        for r, pc in enumerate(pivots):
            xrows[pc] = red.rows[r][n:]
        return self._like(tuple(xrows), target.ncols)

    def column_space_basis(self):
        return self.take_cols(self._pivots())

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        red, pivots = self.hstack(self._eye(self.nrows)).rref()
        if pivots != list(range(self.nrows)):
            raise ValueError("matrix is singular")
        return red.take_cols(list(range(self.nrows, 2 * self.nrows)))

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows


# ``__setattr__`` keeps matrices immutable; construction writes the slots
# through their descriptors
_set_rows, _set_nrows, _set_ncols = (DenseMat.rows.__set__, DenseMat.nrows.__set__,
                                     DenseMat.ncols.__set__)


def width(rows: Sequence[Sequence], ncols: int | None) -> int:
    """The common length of ``rows``, checked against ``ncols`` when given (0 if no rows)."""
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise ValueError("ragged rows")
    if not widths:
        return 0 if ncols is None else ncols
    n = widths.pop()
    if ncols is not None and ncols != n:
        raise ValueError(f"ncols={ncols} but rows have width {n}")
    return n


def rows_from_cols(cols: Iterable[Sequence], nrows: int) -> tuple[list, int]:
    """Rows of the matrix with the given columns, and its column count."""
    cols = [list(c) for c in cols]
    for c in cols:
        if len(c) != nrows:
            raise ValueError("column of wrong height")
    return [[c[i] for c in cols] for i in range(nrows)], len(cols)


def kron(a: DenseMat, b: DenseMat) -> DenseMat:
    """Kronecker product; basis e_i (x) f_j maps to index i*b.nrows + j."""
    a._check(b)
    rows = []
    for ra in a.rows:
        for rb in b.rows:
            rows.append([x * y for x in ra for y in rb])
    return a._reduced(rows, a.ncols * b.ncols)


def span_union(empty: DenseMat, mats: Iterable[DenseMat]) -> DenseMat:
    """Basis (as columns) of the sum of ``empty`` and the spans of ``mats``."""
    combined = empty
    for m in mats:
        combined = combined.hstack(m)
    return combined.column_space_basis()


def block_diag(a: DenseMat, b: DenseMat) -> DenseMat:
    """The block matrix [[a, 0], [0, b]]."""
    a._check(b)
    return a._block_diag(b)
