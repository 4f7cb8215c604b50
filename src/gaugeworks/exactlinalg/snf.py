"""Smith normal form over the localization Z_(p).

Z_(p) is a discrete valuation ring, so the normal form of any matrix is
diag(p^e1, ..., p^er, 0, ..., 0) with e1 <= ... <= er: only the prime matters
and every p-unit is invertible.  The routines below are total functions on
rational matrices; for inputs with entries in Z_(p) the exponents are >= 0,
and for general rational inputs (used for Frobenius matrices of F-crystals)
they may be negative.

Elimination runs over the integers (cf. Cohen, GTM 138, 2.4).  A QMat is
stored as integer rows over one denominator p^K w (w a p-unit), so those
rows are p^K W M with W = w I a diagonal of units: valuations keep their
order and every exponent is an integer pivot's valuation minus K.  With
pivot p^e u, row i becomes ``u*row_i - (a_ik / p^e)*row_k`` and is then
divided by the p-unit part of its gcd (the content step of Bareiss, Math.
Comp. 22, 1968); both steps are unimodular over Z_(p).  The pivot is the
first entry of least valuation in row-major order of the trailing block,
exactly as in Fraction elimination, and is swapped to the front of the live
rows and columns, as there.

Every entry point reads that one elimination on integer rows, except
:func:`exponents_mod_power`: the same elimination on the rows reduced
modulo a word-size p^k, with no gcd, which proves its exponents when it
finds them all below k (see there).  Module ``kernel``, ``cokernel`` and
``homology_two_term`` in :mod:`.modules` run :func:`_eliminate` on integer
rows they build from a map's stored rows and relations, and read its
exponents only.  The
questions about the reduction mod p there, whether a map is an isomorphism
and the dimensions behind the Hodge--Tate weights, read a rank mod p and
never come here.  :func:`smith_exponents` takes the exponents alone; no
route in the package calls it, and it is kept as library API.
:func:`smith_normal_form` reads V^{-1} off the pivot rows, with no
inversion: row k of V^{-1} is the k-th pivot row over its pivot, each entry
at its column's original index, and the rows past the rank are unit rows at
the columns that never pivoted (proved at :class:`SNF`).  So V^{-1} is unit
upper triangular with its columns in pivot order.  Nothing here derives V
or U: :meth:`SNF.integral_basis` inverts V^{-1} modulo p^n only, on integer
rows, and :func:`kernel_over_zp` solves for the kernel vectors off the
pivot order alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .qmat import QMat
from .rationals import check_prime, vp_int


@dataclass(frozen=True)
class SNF:
    """U @ M @ V = D with U, V invertible over Z_(p), of which V^{-1} is kept.

    ``exponents`` lists the valuations of the nonzero diagonal entries of D,
    weakly increasing; the remaining diagonal of D is zero.  ``order`` lists
    the original indices of the columns in the order they pivoted, then
    those that never did.

    Lemma.  Row k < r of ``v_inv`` (r the rank) is the k-th pivot row of the
    sweep divided by its pivot, each live column's entry at that column's
    original index and 0 at the columns pivoted before; row r + i is the
    unit row at the original index of the i-th column that never pivoted.
    So row k has 1 at ``order[k]`` and 0 at ``order[:k]``: with its columns
    in ``order``, ``v_inv`` is unit upper triangular.

    Proof.  Label each live column by its original index; swaps move labels
    with the columns.  At step k the sweep's only column operations replace
    each later live column c by c - (a_kj / a_kk) c_k, where c_k is the
    pivot column, from then on V's column k.  So the column that carries
    label L before step k equals the one after it plus (a_kj / a_kk) times
    V's column k, and the pivot column itself is V's column k, with ratio 1.
    Starting from e_L and ending in V's column for L, this gives
    e_L = sum over k of (a_kj / a_kk) V e_k, one term per pivot row that met
    L live, plus V's column for L itself when L never pivoted.  Row k of
    the matrix named above holds exactly those coefficients, so V times it
    is the identity.  The sweep's row operations (swaps, unit scalings and
    content division of whole rows) leave every ratio within a row as it
    is, so the integer rows give the same ratios as M itself.
    """

    prime: int
    v_inv: QMat
    order: tuple[int, ...]
    exponents: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.exponents)

    def integral_basis(self, n: int) -> tuple[QMat, QMat]:
        """W = V^{-1} reduced entrywise mod p^n, and B = W^{-1}.

        The entries of V^{-1} are p-integral, so each has a residue mod p^n;
        the least absolute one is taken (p^n / 2 itself when p = 2).  Row k
        of W has 1 at ``order[k]`` and 0 at ``order[:k]``, as row k of
        V^{-1} has, so B comes from back substitution with no division, and
        both are integer matrices of determinant +-1.

        >>> from .qmat import QMat
        >>> w, b = smith_normal_form(QMat([[2, 3], [3, 9]]), 3).integral_basis(2)
        >>> w.num, b.num
        (((1, -3), (0, 1)), ((1, 3), (0, 1)))
        """
        pn = self.prime ** n
        # residues in [-h, pn - 1 - h]: 1 stays 1, even for pn = 2
        h, unit = (pn - 1) // 2, pow(self.v_inv.den, -1, pn)
        w = [[(y * unit + h) % pn - h for y in r] for r in self.v_inv.num]
        k = len(w)
        return (QMat._made(tuple(map(tuple, w)), 1, k),
                QMat._made(tuple(map(tuple, _unit_triangular_inverse(w, self.order))), 1, k))


def _integral_rows(m: QMat, p: int) -> tuple[list[list[int]], int]:
    """The rows of p^K W m as ints, and K: the stored numerator of ``m`` and
    the valuation of its denominator p^K w, so W = w I."""
    check_prime(p)
    return [list(r) for r in m.num], vp_int(m.den, p)


def _pivot(rows: list[list[int]], p: int):
    """(valuation, i, j) of the first entry of least valuation, row-major;
    None if every entry is zero."""
    best = bound = None
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            # x % p^e != 0 exactly when x has valuation below e
            if x and (bound is None or x % bound):
                e = vp_int(x, p)
                if e == 0:
                    return 0, i, j
                best, bound = (e, i, j), p ** e
    return best


def _combine(row: list[int], prow: list[int], unit: int, q: int, p: int) -> list[int]:
    """``unit*row - q*prow`` over the p-unit part of its gcd."""
    row = [unit * x - q * y for x, y in zip(row, prow)]
    g = gcd(*row)
    g = g // p ** vp_int(g, p) if g > 1 else 1
    return [x // g for x in row] if g > 1 else row


def _eliminate(rows: list[list[int]], p: int, pk: int | None = None):
    """Yield (e, j, pivot row, p^e, unit) for each pivot of the integer ``rows``.

    ``rows`` are consumed.  The live rows and columns are positions k, k+1,
    ... of the Fraction routine at step k.  ``j`` is the live column swapped
    to the front, and the pivot row is yielded in the swapped order, pivot
    p^e * unit first.  Given ``pk`` = p^k, the ``rows`` are residues mod p^k
    and each row update is reduced mod p^k instead of divided by its content.
    """
    while (best := _pivot(rows, p)) is not None:
        e, bi, bj = best
        rows[0], rows[bi] = rows[bi], rows[0]
        if bj:
            for row in rows:
                row[0], row[bj] = row[bj], row[0]
        prow = rows.pop(0)
        pe = p ** e
        unit = prow[0] // pe
        for i, row in enumerate(rows):
            q = row[0] // pe
            if q:
                row = (_combine(row, prow, unit, q, p) if pk is None
                       else [(unit * x - q * y) % pk for x, y in zip(row, prow)])
            rows[i] = row[1:]
        yield e, bj, prow, pe, unit


def smith_exponents(m: QMat, p: int) -> tuple[int, ...]:
    """The exponents of :func:`smith_normal_form` alone, without V.

    >>> from .qmat import QMat
    >>> smith_exponents(QMat([[2, 3], [3, 9]]), 3)
    (0, 2)
    """
    rows, shift = _integral_rows(m, p)
    return tuple(e - shift for e, *_ in _eliminate(rows, p))


def exponents_mod_power(rows, p: int) -> list[int]:
    """The pivot valuations of the integer ``rows`` swept mod p^k, k largest with p^k < 2^62.

    This is :func:`_eliminate` on the rows reduced mod p^k: the pivot is the
    first entry of least valuation in the trailing block, and with pivot
    p^e u (u prime to p) a row with head a becomes u*row - (a / p^e)*pivot
    row, reduced mod p^k, with no gcd and no inverse.  A zero residue has no
    valuation below k and is never a pivot.

    Lemma.  Let N be a square integer matrix of size n, with Smith exponents
    e_1 <= ... <= e_n over Z_(p) (e_i = oo for a zero diagonal entry).  If
    the sweep finds n pivots, of valuations f_1, ..., f_n (each below k, by
    the previous remark), then {e_i} = {f_i} as multisets; hence det N != 0
    and v_p(det N) = f_1 + ... + f_n.

    Proof.  Write N = U diag(p^e_i) V with U, V invertible over Z_(p).
    Reduced mod p^k, where Z_(p)/p^k = Z/p^k, this is
    N = U diag(p^min(e_i, k)) V, with U, V invertible over Z/p^k, so the
    cokernel of N on (Z/p^k)^n is the direct sum of the Z/p^min(e_i, k).
    The sweep's swaps and row updates (a unit times the row, minus a
    multiple of the pivot row) are invertible over Z/p^k too.  They
    end in an upper triangular matrix whose row i has diagonal entry p^f_i
    u_i and every other entry divisible by p^f_i, because the pivot has the
    least valuation of its block and the row updates keep that bound.
    Column operations over Z/p^k then clear each row right of its diagonal,
    and the units u_i scale away, so the same cokernel is the direct sum of
    the Z/p^f_i.  A finite abelian p-group determines the multiset of
    orders of its nonzero cyclic summands, and both lists have n terms, so
    {min(e_i, k)} = {f_i}.  Every f_i is below k, hence every e_i is, and
    e_i = min(e_i, k).  Then det N = det U * p^(e_1 + ... + e_n) * det V
    with det U, det V units of Z_(p).

    Fewer than n pivots means some e_i >= k, or N singular; the sweep
    decides nothing then, and a caller falls back to an exact route.

    >>> exponents_mod_power([[2, 3], [3, 9]], 3)
    [0, 2]
    >>> exponents_mod_power([[3 ** 39, 0], [0, 1]], 3)
    [0]
    """
    pk = 1
    while pk * p < 1 << 62:
        pk *= p
    return [e for e, *_ in _eliminate([[x % pk for x in r] for r in rows], p, pk)]


def _from_rows(rows, n: int) -> QMat:
    """The QMat whose rows, each ``n`` long, are the pairs (w, t) read as w / t."""
    d = lcm(*(t for _, t in rows))
    return QMat._lowest([[x * (d // t) for x in w] for w, t in rows], d, n)


def _unit_triangular_inverse(rows, order) -> list[list]:
    """The inverse of the square matrix ``rows`` whose row k has 1 at column
    ``order[k]`` and 0 at the columns ``order[:k]``.

    Taken with its columns in ``order``, the matrix is unit upper triangular,
    T = M P, so M^{-1} = P T^{-1}: row ``order[k]`` of M^{-1} is row k of
    T^{-1}, which back substitution gives as e_k minus the sum over c > k of
    T[k][c] times row c, and that row vanishes before position c.  There is
    no division, so integer rows give integer rows.
    """
    n = len(order)
    inv = [None] * n
    for k in range(n - 1, -1, -1):
        row, x = rows[k], [0] * n
        x[k] = 1
        for c in range(k + 1, n):
            a = row[order[c]]
            if a:
                y = inv[order[c]]
                for j in range(c, n):
                    x[j] -= a * y[j]
        inv[order[k]] = x
    return inv


def smith_normal_form(m: QMat, p: int) -> SNF:
    """Diagonalize ``m`` by unimodular row and column operations over Z_(p).

    >>> from .qmat import QMat
    >>> s = smith_normal_form(QMat([[2, 3], [3, 9]]), 3)
    >>> s.exponents, s.order
    ((0, 2), (0, 1))
    """
    rows, shift = _integral_rows(m, p)
    nc = m.ncols
    labels = list(range(nc))
    exps, order, v_inv = [], [], []
    for e, bj, prow, pe, unit in _eliminate(rows, p):
        labels[0], labels[bj] = labels[bj], labels[0]
        order.append(labels.pop(0))
        # row k of V^{-1}: the pivot row over its pivot, at the original indices
        inv = [0] * nc
        inv[order[-1]] = unit
        for label, a in zip(labels, prow[1:]):
            inv[label] = a // pe
        v_inv.append((inv, unit))
        exps.append(e - shift)
    v_inv += [([1 if i == j else 0 for i in range(nc)], 1) for j in labels]
    return SNF(p, _from_rows(v_inv, nc), tuple(order + labels), tuple(exps))


def kernel_over_zp(m: QMat, p: int) -> QMat:
    """Basis (columns) of the Z_(p)-kernel of ``m``: the columns of V past the rank r.

    Column i is 1 at ``order[r + i]``, 0 at the rest of ``order[r:]``, and
    at ``order[:r]`` the one solution y of m[:, order[:r]] y = -m[:, order[r + i]].
    Proof: for M x = 0 and y = V^{-1} x, U^{-1} D y = 0 gives y_k = 0 for
    k < r, and y_{r+i} is x at ``order[r + i]``, since the rows of V^{-1}
    past r are unit rows there (see :class:`SNF`).  So x is the sum of its
    entries at ``order[r:]`` times V's columns past r: those columns are a
    basis, each is the vector described, and a kernel vector is fixed by
    its entries at ``order[r:]``.

    >>> from .qmat import QMat
    >>> k = kernel_over_zp(QMat([[2, 3, 1]]), 3)
    >>> k.num, k.den
    (((-3, -1), (2, 0), (0, 2)), 2)
    """
    s = smith_normal_form(m, p)
    r, free = s.rank, s.order[s.rank:]
    y = m.take_cols(s.order[:r]).solve(-m.take_cols(free))
    rows = [None] * m.ncols
    for label, row in zip(s.order, y.num):
        rows[label] = row
    for i, label in enumerate(free):
        rows[label] = [y.den if j == i else 0 for j in range(len(free))]
    return QMat._lowest(rows, y.den, len(free))


__all__ = ["SNF", "smith_normal_form", "smith_exponents", "exponents_mod_power",
           "kernel_over_zp"]
