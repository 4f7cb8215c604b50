"""Immutable dense matrices with explicit shape: the field-independent part.

:class:`~.qmat.QMat` and :class:`~.fpmat.FpMat` subclass :class:`DenseMat`
and supply the field: entry reduction in ``__init__``, ``_like`` (same
field, new rows), ``_entry`` on scalars, ``_key`` for equality, the kernels
``rref``, ``det`` and ``@`` (over Z for ``QMat``, mod p for ``FpMat``) and,
over F_p, the prime check ``_check``.  Everything here (shapes, ``+``/``-``,
``scale``, stacking, ``power``, and ``rank``/``kernel``/``solve``/
``inverse``/``column_space_basis`` read off ``self.rref()``) is written once
for both fields.
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

    def _set(self, rows: tuple, ncols: int | None):
        """Store already-normalised rows, checking and fixing the shape."""
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols={ncols} but rows have width {width}")
            ncols = width
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

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
        return self._like([[self.rows[i][j] for i in range(self.nrows)]
                           for j in range(self.ncols)], self.nrows)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return self._like([[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)], self.ncols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like([[-a for a in r] for r in self.rows], self.ncols)

    def scale(self, c):
        c = self._entry(c)
        return self._like([[c * a for a in r] for r in self.rows], self.ncols)

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
        return self._like([r1 + r2 for r1, r2 in zip(self.rows, other.rows)],
                          self.ncols + other.ncols)

    def vstack(self, other):
        self._check(other)
        if self.ncols != other.ncols:
            raise ValueError("vstack: column count mismatch")
        return self._like(self.rows + other.rows, self.ncols)

    def take_cols(self, idx: Sequence[int]):
        return self._like([[r[j] for j in idx] for r in self.rows], len(idx))

    def take_rows(self, idx: Sequence[int]):
        return self._like([self.rows[i] for i in idx], self.ncols)

    def _eye(self, n: int):
        return self._like([[int(i == j) for j in range(n)] for i in range(n)], n)

    # -- elimination -------------------------------------------------------

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self):
        """Basis of the right null space, as columns (ncols x nullity)."""
        red, pivots = self.rref()
        free = [j for j in range(self.ncols) if j not in pivots]
        cols = []
        for f in free:
            v = [0] * self.ncols
            v[f] = 1
            for r, pc in enumerate(pivots):
                v[pc] = -red.rows[r][f]
            cols.append(v)
        return self._like(*rows_from_cols(cols, self.ncols))

    def solve(self, target):
        """One solution X of ``self @ X = target``, or None if inconsistent."""
        self._check(target)
        if target.nrows != self.nrows:
            raise ValueError("solve: row count mismatch")
        red, pivots = self.hstack(target).rref()
        pivots_in_self = [c for c in pivots if c < self.ncols]
        if len(pivots_in_self) != len(pivots):
            return None
        xcols = []
        for k in range(target.ncols):
            v = [0] * self.ncols
            for r, pc in enumerate(pivots_in_self):
                v[pc] = red.rows[r][self.ncols + k]
            xcols.append(v)
        return self._like(*rows_from_cols(xcols, self.ncols))

    def column_space_basis(self):
        red, pivots = self.rref()
        return self.take_cols(pivots)

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        red, pivots = self.hstack(self._eye(self.nrows)).rref()
        if pivots != list(range(self.nrows)):
            raise ValueError("matrix is singular")
        return red.take_cols(list(range(self.nrows, 2 * self.nrows)))

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows


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
    return a._like(rows, a.ncols * b.ncols)


def span_union(empty: DenseMat, mats: Iterable[DenseMat]) -> DenseMat:
    """Basis (as columns) of the sum of ``empty`` and the spans of ``mats``."""
    combined = empty
    for m in mats:
        combined = combined.hstack(m)
    return combined.column_space_basis()


def block_diag(a: DenseMat, b: DenseMat) -> DenseMat:
    """The block matrix [[a, 0], [0, b]]."""
    a._check(b)
    rows = ([list(r) + [0] * b.ncols for r in a.rows]
            + [[0] * a.ncols + list(r) for r in b.rows])
    return a._like(rows, a.ncols + b.ncols)
