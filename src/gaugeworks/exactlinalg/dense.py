"""Immutable dense matrices with explicit shape: what reads no entry.

:class:`~.fpmat.FpMat` (rows of ints in [0, p)) and :class:`~.qmat.QMat`
(integer rows over one denominator) subclass :class:`DenseMat`, and each
owns its stored form: every method that reads or writes an entry, a checked
public constructor (rows checked by :func:`width`) and a trusted ``_made``
that stores its arguments as given, through which every result the library
builds goes.  Written here once for both is what reads no entry: shapes,
equality and hashing through the field's ``_key``, ``power``, ``rank`` and
``column_space_basis`` read off the field's ``_pivots()``, and ``inverse``
read off its ``rref``.  So is the one rule that reads a kernel or a
solution off a reduced row echelon form, :func:`kernel_rows` and
:func:`solve_rows`, on integer rows whose pivot entries all equal one
integer (1 over F_p, the stored denominator over Q); each field brings
their result to its own form.
"""

from __future__ import annotations

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

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

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

    def rank(self) -> int:
        return len(self._pivots())

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


def kernel_rows(red: Sequence[Sequence[int]], pivots: Sequence[int], ncols: int,
                one: int) -> tuple[list, int]:
    """Rows and column count of a right null space basis read off an RREF, over ``one``.

    Row r of ``red`` has ``one`` at column ``pivots[r]``.  The basis column
    of each free column f is ``one`` at f and ``-red[r][f]`` at ``pivots[r]``.
    """
    free = [j for j in range(ncols) if j not in pivots]
    rows = [None] * ncols
    for k, f in enumerate(free):
        rows[f] = row = [0] * len(free)
        row[k] = one
    for r, pc in enumerate(pivots):
        rows[pc] = [-red[r][f] for f in free]
    return rows, len(free)


def solve_rows(red: Sequence[Sequence[int]], pivots: Sequence[int], n: int,
               tcols: int) -> list | None:
    """The rows of X with A X = B, over the pivot entry of the RREF ``red`` of [A | B].

    A has ``n`` columns and B ``tcols``.  Row pc of X is the B part of the
    echelon row with pivot pc; a pivot in B means no X exists (None).
    """
    if pivots and pivots[-1] >= n:
        return None
    xrows = [(0,) * tcols] * n
    for r, pc in enumerate(pivots):
        xrows[pc] = red[r][n:]
    return xrows


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


def span_union(empty: DenseMat, mats: Iterable[DenseMat]) -> DenseMat:
    """Basis (as columns) of the sum of ``empty`` and the spans of ``mats``."""
    combined = empty
    for m in mats:
        combined = combined.hstack(m)
    return combined.column_space_basis()


def block_diag(a: DenseMat, b: DenseMat) -> DenseMat:
    """The block matrix [[a, 0], [0, b]]."""
    return a._block_diag(b)
