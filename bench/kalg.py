"""Exact linear algebra the benchmark needs to build its inputs.

Every expected answer and every generated input is computed here, never by
gaugeworks, so a change to the library cannot change what the benchmark
feeds it or what it accepts.  Matrices are lists of rows.  Rational work
uses :class:`fractions.Fraction`; prime-field work takes entries in
``range(p)``.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n: int, one=1) -> list[list]:
    return [[one if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: list[list], b: list[list], p: int | None = None) -> list[list]:
    """Product of two matrices; reduced mod ``p`` when one is given."""
    ncols = len(b[0]) if b else 0
    bt = [[row[j] for row in b] for j in range(ncols)]
    if p is None:
        return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]
    return [[sum(x * y for x, y in zip(row, col)) % p for col in bt] for row in a]


def transpose(a: list[list], nrows: int) -> list[list]:
    ncols = len(a[0]) if a else 0
    return [[a[i][j] for i in range(nrows)] for j in range(ncols)]


def q_inverse(a: list[list]) -> list[list] | None:
    """Inverse of a square rational matrix, or None when it is singular."""
    n = len(a)
    rows = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(a)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [inv * x for x in rows[c]]
        for i in range(n):
            f = rows[i][c]
            if i != c and f != 0:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [r[n:] for r in rows]


def fp_rref(a: list[list[int]], ncols: int, p: int):
    """Reduced row echelon form mod p: (rows, pivot columns).  Canonical."""
    rows = [[x % p for x in r] for r in a]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(inv * x) % p for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def fp_inverse(a: list[list[int]], p: int) -> list[list[int]] | None:
    n = len(a)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    red, pivots = fp_rref(aug, 2 * n, p)
    if pivots != list(range(n)):
        return None
    return [r[n:] for r in red]


def fp_col_basis(a: list[list[int]], nrows: int, p: int) -> list[list[int]]:
    """The pivot columns of ``a``: a basis of its column span."""
    ncols = len(a[0]) if a else 0
    _, pivots = fp_rref(a, ncols, p)
    return [[a[i][j] % p for j in pivots] for i in range(nrows)]


def fp_solve(b: list[list[int]], c: list[list[int]], nrows: int, p: int):
    """X with B X = C for B of full column rank, or None if none exists."""
    nb = len(b[0]) if b else 0
    nc = len(c[0]) if c else 0
    aug = [list(b[i]) + list(c[i]) for i in range(nrows)]
    red, pivots = fp_rref(aug, nb + nc, p)
    if any(pc >= nb for pc in pivots):
        return None
    x = [[0] * nc for _ in range(nb)]
    for r, pc in enumerate(pivots):
        for k in range(nc):
            x[pc][k] = red[r][nb + k]
    return x


def fp_quotient_projection(basis: list[list[int]], nrows: int, p: int):
    """Projection F_p^m -> F_p^m / span(basis), read off the canonical echelon form.

    The projection depends only on the span: its rows read the non-pivot
    coordinates after clearing the pivot coordinates of the reduced echelon
    basis of the span.  This is the convention the job format fixes for the
    Hodge gluing maps.
    """
    width = len(basis[0]) if basis else 0
    red, pivots = fp_rref(transpose(basis, nrows), nrows, p) if width else ([], [])
    out = []
    for f in (j for j in range(nrows) if j not in pivots):
        row = [0] * nrows
        row[f] = 1
        for r, pc in enumerate(pivots):
            row[pc] = (-red[r][f]) % p
        out.append(row)
    return out
