"""Shared fixtures: seeded randomness and independent brute-force oracles.

The random corpora are seeded from the GAUGEWORKS_SEED environment variable
(defaulting to a fixed constant) so runs are reproducible; the seed never
influences any computation inside the package itself.

The oracles below are deliberately self-contained re-implementations of
rank/kernel arithmetic: expected values in the tests are computed with
these, not with the code under test.
"""

from __future__ import annotations

import os
import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from math import comb, gcd
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from gaugeworks.exactlinalg import FGModule, FpMat, ModuleMap, QMat, fp_kron, fp_span_union
from gaugeworks.exactlinalg import fpmat
from gaugeworks.exactlinalg.rationals import check_prime, parse_rational
from gaugeworks.fgauge import FCrystalPoint, FpGauge
from gaugeworks.filphi import FilteredPhiModule, FilteredSpace
from gaugeworks.higgs import GradedHiggsModule, koszul_differential
from gaugeworks.errors import LawViolation
from gaugeworks.redlocus import (A1Flag, FilThetaModule, ReducedFGauge,
                                 restrict_dRplus_to_Hod, restrict_HTc_to_dR,
                                 restrict_HTc_to_Hod)
from gaugeworks.exactlinalg import quotient_projection


DEFAULT_SEED = 20260808


@pytest.fixture
def rng(request) -> random.Random:
    """A stream of its own for every test case, parametrized trials included."""
    seed = int(os.environ.get("GAUGEWORKS_SEED", DEFAULT_SEED))
    return random.Random(f"{seed}:{request.node.nodeid}")


class HangGuard:
    """SIGALRM after ``seconds``: a guard against hangs, not a timing."""

    def __init__(self, seconds: int):
        self.seconds = seconds

    def __enter__(self):
        def on_alarm(signum, frame):
            raise TimeoutError(f"still running after {self.seconds} s")
        self.previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(self.seconds)

    def __exit__(self, *exc):
        signal.alarm(0)
        signal.signal(signal.SIGALRM, self.previous)


# Test modules in which every trusted construction is rebuilt and compared.
RECHECKED_MODULES = {"test_exactlinalg", "test_redlocus", "test_higgs", "test_fgauge",
                     "test_beilinson", "test_filphi", "test_acceptance", "test_cli",
                     "test_cli_fuzz"}


def assert_same_matrix(made, rebuilt, entry_type):
    """``made`` (trusted path) equals ``rebuilt`` (checked path), entry types included."""
    assert type(made.rows) is tuple and all(type(r) is tuple for r in made.rows)
    assert made.shape == rebuilt.shape and made.rows == rebuilt.rows and made == rebuilt
    assert all(type(x) is entry_type for r in made.rows for x in r)


@pytest.fixture(autouse=True)
def recheck_trusted_constructions(request, monkeypatch):
    """Rebuild each ``_made`` result of ``FpMat``, ``QMat`` and ``ModuleMap`` publicly.

    The trusted path stores its arguments as given, so a kernel that hands
    it an unreduced entry, a ``QMat`` numerator that is not in lowest terms
    with its denominator, a list row or a wrong width, or a map that breaks
    a torsion law, fails the first test that builds one.  The rebuild calls the ``__init__`` captured here, so tests that
    count constructions see only their own.  The table of shared F_p
    constants is emptied first, so each constant a test uses is built again
    through the checked ``_made``.
    """
    fpmat._constant.cache_clear()
    if request.path.stem not in RECHECKED_MODULES:
        return
    fp_made, fp_init = FpMat._made, FpMat.__init__
    q_made, q_init = QMat._made, QMat.__init__
    map_made, map_init = ModuleMap._made, ModuleMap.__init__

    def fp_checked(p, rows, ncols):
        made = fp_made(p, rows, ncols)
        rebuilt = object.__new__(FpMat)
        fp_init(rebuilt, p, rows, ncols)
        assert_same_matrix(made, rebuilt, int)
        return made

    def q_checked(num, den, ncols):
        made = q_made(num, den, ncols)
        # the one stored form: int tuple rows, each ncols long, over den > 0, gcd 1
        assert type(num) is tuple and all(type(r) is tuple and len(r) == ncols for r in num)
        assert all(type(x) is int for r in num for x in r) and type(den) is int
        assert den > 0 and gcd(den, *(x for r in num for x in r)) == 1
        rebuilt = object.__new__(QMat)
        q_init(rebuilt, [[Fraction(x, den) for x in r] for r in num], ncols)
        assert made.shape == rebuilt.shape
        assert made.num == rebuilt.num and made.den == rebuilt.den and made == rebuilt
        return made

    def map_checked(source, target, rows, den):
        made = map_made(source, target, rows, den)
        # the one stored form: int tuple rows over a positive p-unit, gcd 1
        assert type(rows) is tuple and all(type(r) is tuple for r in rows)
        assert all(type(x) is int for r in rows for x in r) and type(den) is int
        assert den > 0 and den % source.prime and gcd(den, *(x for r in rows for x in r)) == 1
        rebuilt = object.__new__(ModuleMap)
        matrix = QMat([[Fraction(x, den) for x in r] for r in rows], ncols=source.ngens)
        map_init(rebuilt, source, target, matrix)  # raises on a broken law
        assert made == rebuilt
        return made

    monkeypatch.setattr(FpMat, "_made", staticmethod(fp_checked))
    monkeypatch.setattr(QMat, "_made", staticmethod(q_checked))
    monkeypatch.setattr(ModuleMap, "_made", staticmethod(map_checked))


# ---------------------------------------------------------------------------
# oracles (independent of the package's elimination code)
# ---------------------------------------------------------------------------


def oracle_q_rref(rows, ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (rows, pivot columns) by plain Fraction Gauss-Jordan."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
        if rank == len(mat):
            break
        piv = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = Fraction(1) / mat[rank][c]
        mat[rank] = [inv * x for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(c)
    return mat, pivots


def oracle_q_rank(rows) -> int:
    return len(oracle_q_rref(rows, len(rows[0]) if rows else 0)[1])


def oracle_q_det(rows) -> Fraction:
    """Determinant by plain Fraction forward elimination with row swaps."""
    mat = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(len(mat)):
        piv = next((i for i in range(c, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        for i in range(c + 1, len(mat)):
            f = mat[i][c] / mat[c][c]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return det


def oracle_q_matmul(a_rows, b_rows, ncols: int) -> list[list[Fraction]]:
    """Product of two row lists by the defining triple sum."""
    return [[sum((Fraction(a[t]) * Fraction(b_rows[t][j]) for t in range(len(a))),
                 Fraction(0)) for j in range(ncols)] for a in a_rows]


def oracle_q_two_term(rows, nrows: int, ncols: int) -> tuple[int, int]:
    """(kernel dim, cokernel dim) of a rational matrix, by brute elimination."""
    r = oracle_q_rank(rows) if rows else 0
    return (ncols - r, nrows - r)


class OracleResidual(NamedTuple):
    h: tuple[int, int, int]
    chain_defect: int
    rank_d1: int


def oracle_cartesian_residual(s) -> OracleResidual:
    """The total complex of a square built in full, ranked by the oracle.

    d0 = [d_a ; f_ab ; f_ac] and d1 = [[1, 0, -d_c], [0, f_bd, -1]] as
    Fraction rows; the defect is the rank of the product d1 d0.
    """
    n, a0, b0 = s.under_dim, s.a0_dim, s.b_dim
    d0 = qmat_rows(s.d_a) + qmat_rows(s.f_ab) + qmat_rows(s.f_ac)
    unit = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d1 = ([u + [Fraction(0)] * b0 + [-x for x in c] for u, c in zip(unit, qmat_rows(s.d_c))]
          + [[Fraction(0)] * n + f + [-x for x in u] for u, f in zip(unit, qmat_rows(s.f_bd))])
    r0, r1 = oracle_q_rank(d0), oracle_q_rank(d1)
    defect = oracle_q_rank(oracle_q_matmul(d1, d0, a0))
    return OracleResidual((a0 - r0, (n + b0 + n - r1) - r0, (n + n) - r1), defect, r1)


def oracle_fp_rref(p: int, rows, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p (rows, pivot columns) by plain int Gauss-Jordan."""
    mat = [[x % p for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
        if rank == len(mat):
            break
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], -1, p)
        mat[rank] = [(inv * x) % p for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        pivots.append(c)
    return mat, pivots


def oracle_fp_rank(p: int, rows) -> int:
    return len(oracle_fp_rref(p, rows, len(rows[0]) if rows else 0)[1])


def oracle_fp_det(p: int, rows) -> int:
    """Determinant mod p, in [0, p), by forward elimination with row swaps."""
    mat = [[x % p for x in r] for r in rows]
    det = 1
    for c in range(len(mat)):
        piv = next((i for i in range(c, len(mat)) if mat[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det = det * mat[c][c] % p
        inv = pow(mat[c][c], -1, p)
        for i in range(c + 1, len(mat)):
            f = mat[i][c] * inv
            mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[c])]
    return det % p


def oracle_fp_matmul(p: int, a_rows, b_rows, ncols: int) -> list[list[int]]:
    """Product mod p of two row lists by the defining triple sum."""
    return [[sum(a[t] * b_rows[t][j] for t in range(len(a))) % p for j in range(ncols)]
            for a in a_rows]


def oracle_fp_two_term(p: int, rows, nrows: int, ncols: int) -> tuple[int, int]:
    r = oracle_fp_rank(p, rows) if rows else 0
    return (ncols - r, nrows - r)


def oracle_vp(x, p: int) -> int:
    """p-adic valuation of a nonzero rational, by division one p at a time."""
    x = Fraction(x)
    assert x != 0
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


class OracleSNF(NamedTuple):
    """U @ M @ V = D, with U and V invertible over Z_(p)."""

    prime: int
    u: QMat
    d: QMat
    v: QMat
    exponents: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.exponents)


def oracle_snf(m: QMat, p: int) -> OracleSNF:
    """Smith normal form over Z_(p) by plain Fraction row and column operations.

    The former library routine, with its own valuation (:func:`oracle_vp`):
    the pivot is the first entry of least valuation in the trailing block
    (row-major), scaled to an exact power of p, and every U, D and V entry
    is a Fraction throughout.
    """
    check_prime(p)
    a = [list(r) for r in m.rows]
    nr, nc = m.nrows, m.ncols
    u = [list(r) for r in QMat.identity(nr).rows]
    v = [list(r) for r in QMat.identity(nc).rows]

    def row_swap(mat, i, j):
        mat[i], mat[j] = mat[j], mat[i]

    def col_swap(mat, i, j):
        for row in mat:
            row[i], row[j] = row[j], row[i]

    def row_axpy(mat, dst, src, c):
        mat[dst] = [x + c * y for x, y in zip(mat[dst], mat[src])]

    def col_axpy(mat, dst, src, c):
        for row in mat:
            row[dst] = row[dst] + c * row[src]

    k = 0
    while k < min(nr, nc):
        # pick the entry of minimal valuation in the trailing block
        best = None
        for i in range(k, nr):
            for j in range(k, nc):
                if a[i][j] != 0:
                    val = oracle_vp(a[i][j], p)
                    if best is None or val < best[0]:
                        best = (val, i, j)
        if best is None:
            break
        val, bi, bj = best
        if bi != k:
            row_swap(a, k, bi)
            row_swap(u, k, bi)
        if bj != k:
            col_swap(a, k, bj)
            col_swap(v, k, bj)
        # normalize the pivot to an exact power of p (unit scaling is unimodular)
        inv = Fraction(p) ** val / a[k][k]
        a[k] = [inv * x for x in a[k]]
        u[k] = [inv * x for x in u[k]]
        pivot = a[k][k]
        for i in range(k + 1, nr):
            if a[i][k] != 0:
                f = -a[i][k] / pivot  # valuation >= 0 by pivot minimality
                row_axpy(a, i, k, f)
                row_axpy(u, i, k, f)
        for j in range(k + 1, nc):
            if a[k][j] != 0:
                f = -a[k][j] / pivot
                col_axpy(a, j, k, f)
                col_axpy(v, j, k, f)
        k += 1

    exps = []
    for i in range(min(nr, nc)):
        if a[i][i] != 0:
            exps.append(oracle_vp(a[i][i], p))
    return OracleSNF(prime=p, u=QMat(u, ncols=nr), d=QMat(a, ncols=nc),
                     v=QMat(v, ncols=nc), exponents=tuple(exps))


def oracle_presentation_exponents(target: FGModule, maps) -> tuple[int, ...]:
    """The :func:`oracle_snf` exponents of [the maps' matrices side by side |
    relations of ``target``], which present target / (images of ``maps``)."""
    m = QMat.zeros(target.ngens, 0)
    for f in maps:
        m = m.hstack(f.matrix)
    return oracle_snf(m.hstack(relation_matrix(target)), target.prime).exponents


def exact_v_inv(s) -> QMat:
    """V^{-1} of a library Smith form as one exact matrix, built by the public
    constructor from its rows: row k is w_k / u_k for (w_k, u_k) in ``v_inv_rows``."""
    return QMat([[Fraction(x, u) for x in w] for w, u in s.v_inv_rows], ncols=len(s.order))


def oracle_is_isomorphism(m: ModuleMap) -> bool:
    """The former route of ``ModuleMap.is_isomorphism``: the full Smith form of
    the cokernel, against the rank mod p that the library reads.  The
    cokernel is zero when every generator meets a unit exponent."""
    return (m.source == m.target
            and oracle_presentation_exponents(m.target, [m]) == (0,) * m.target.ngens)


def oracle_module_kernel(d: ModuleMap) -> FGModule:
    """The former route of ``kernel``, with its second elimination always run.

    The lifts are the Z_(p)-kernel of [matrix | relations of the target],
    projected to the source's generators; the relations step then takes the
    kernel of [lifts | relations of the source] and presents the quotient.
    Every step is a Fraction Smith form (:func:`oracle_snf`), also out of a
    torsion-free source, where the library reads a free kernel off the lifts
    alone.
    """
    p, src, n = d.prime, d.source, d.source.ngens

    def kernel_cols(m: QMat, rows: int) -> QMat:
        o = oracle_snf(m, p)
        return o.v.take_cols(list(range(o.rank, m.ncols))).take_rows(list(range(rows)))

    lifts = kernel_cols(d.matrix.hstack(relation_matrix(d.target)), n)
    k = lifts.ncols
    rels = kernel_cols(lifts.hstack(relation_matrix(src)), k)
    exps = oracle_snf(rels, p).exponents
    return FGModule(p, k - len(exps), tuple(sorted(e for e in exps if e > 0)))


def oracle_reduced_cokernel_dim(target, maps) -> int:
    """The former route of ``reduced_cokernel_dim``: the number of generators of
    the Smith-form quotient of ``target`` by the images of ``maps``, one for
    each generator that meets no unit exponent."""
    return target.ngens - oracle_presentation_exponents(target, maps).count(0)


def oracle_snf_weights(c: FCrystalPoint) -> dict[int, int]:
    """Valuations of the Smith diagonal of tau_crys, with multiplicity.

    For diag(p^{-n_1}, ..., p^{-n_r}) this is the multiset {-n_j}: the twist
    exponents negated; it must match ``hodge_tate_weights`` of the gauge,
    which reads ranks mod p instead of a Smith form.
    """
    out: dict[int, int] = {}
    for e in oracle_snf(c.tau_crys, c.prime).exponents:
        out[e] = out.get(e, 0) + 1
    return out


def oracle_filtration_basis(o: OracleSNF, i: int) -> QMat:
    """Fil^i = {m : tau(m) in p^i M} in the oracle's basis V of the Smith form
    ``o`` of tau: the columns p^{max(i - d_j, 0)} V e_j."""
    scale = [Fraction(o.prime) ** max(i - d, 0) for d in o.exponents]
    return QMat([[x * c for x, c in zip(r, scale)] for r in o.v.rows], ncols=o.v.ncols)


def oracle_lattice_contains(outer: QMat, inner: QMat, p: int) -> bool:
    """Every column of ``inner`` lies in the Z_(p)-span of the columns of ``outer``."""
    sol = outer.solve(inner)
    return sol is not None and all(x.denominator % p for r in sol.rows for x in r)


def oracle_lattice_intersection(b1: QMat, b2: QMat, p: int) -> QMat:
    """Basis of the intersection of two full-rank lattices in Q^n, by Fraction Smith
    forms: the kernel of [b1 | -b2] read off V past the rank, then a basis of the
    span of its b1-images, the first rank columns of U^{-1} D = vecs V."""
    o = oracle_snf(b1.hstack(b2.scale(-1)), p)
    coeffs = o.v.take_cols(list(range(o.rank, o.v.ncols))).take_rows(list(range(b1.ncols)))
    vecs = b1 @ coeffs
    o = oracle_snf(vecs, p)
    return vecs @ o.v.take_cols(list(range(o.rank)))


def oracle_saturated(fil, p: int, indices) -> bool:
    """p M intersect Fil^i = p Fil^{i-1} at every i in ``indices``, with ``fil[i]``
    a column basis of Fil^i in M = Z_(p)^n: the lattice route of the former
    ``filtration_saturation_holds``."""
    for i in indices:
        lhs = oracle_lattice_intersection(QMat.scalar(fil[i].nrows, p), fil[i], p)
        rhs = fil[i - 1].scale(p)
        if not (oracle_lattice_contains(lhs, rhs, p) and oracle_lattice_contains(rhs, lhs, p)):
            return False
    return True


def raw_gauge(prime, window, modules, t, u, tau) -> SimpleNamespace:
    """The fields of an :class:`FpGauge` without its law check, so that lawless
    data can be held, checked by an oracle and then handed to the constructor."""
    return SimpleNamespace(prime=prime, window=window, modules=modules, t=t, u=u,
                           tau=tau)


def constant_gauge(p, module, window, t, u, tau, make=FpGauge):
    """One module at every level of the window, the same t, u and tau throughout;
    ``make=raw_gauge`` keeps the fields unchecked."""
    a, b = window
    n = b - a
    return make(p, window, (module,) * (n + 1),
                   (ModuleMap(module, module, QMat(t)),) * n,
                   (ModuleMap(module, module, QMat(u)),) * n,
                   ModuleMap(module, module, QMat(tau)))


def compose(second: ModuleMap, first: ModuleMap) -> ModuleMap:
    """``second`` after ``first``, by the Fraction triple sum and the checked
    constructor: the reference the integer composites are tested against."""
    if first.target != second.source:
        raise ValueError("composition mismatch")
    n = first.source.ngens
    rows = oracle_q_matmul(qmat_rows(second.matrix), qmat_rows(first.matrix), n)
    return ModuleMap(first.source, second.target, QMat(rows, ncols=n))


def scalar(m, c) -> ModuleMap:
    """c times the identity of ``m``, through the checked constructor."""
    return ModuleMap(m, m, QMat.scalar(m.ngens, c))


def equals_as_map(f: ModuleMap, g: ModuleMap) -> bool:
    """Equality modulo the target's relations (entrywise mod p^f), over Fractions."""
    if f.source != g.source or f.target != g.target:
        return False
    diff = f.matrix - g.matrix
    for i in range(f.target.ngens):
        e = f.target.order_exponent(i)
        for j in range(f.source.ngens):
            x = diff[i, j]
            if x != 0 and (e is None or oracle_vp(x, f.prime) < e):
                return False
    return True


def relation_matrix(m) -> QMat:
    """The presentation relations of ``m``: columns p^{e_i} (torsion basis vector)."""
    cols = []
    for k, e in enumerate(m.torsion):
        v = [Fraction(0)] * m.ngens
        v[m.free_rank + k] = Fraction(m.prime) ** e
        cols.append(v)
    return QMat.from_cols(cols, m.ngens)


def oracle_t_at(g, i: int) -> ModuleMap:
    """t_i: M^i -> M^{i-1} at one index: identity at or below a, p above b.

    ``g`` needs only the fields of an :class:`FpGauge`, as in :func:`raw_gauge`.
    """
    a, b = g.window
    if a < i <= b:
        return g.t[i - a - 1]
    if i <= a:
        return scalar(g.modules[0], 1)
    return scalar(g.modules[-1], g.prime)


def oracle_u_at(g, i: int) -> ModuleMap:
    """u_i: M^{i-1} -> M^i at one index: p at or below a, identity above b."""
    a, b = g.window
    if a < i <= b:
        return g.u[i - a - 1]
    if i <= a:
        return scalar(g.modules[0], g.prime)
    return scalar(g.modules[-1], 1)


def oracle_rational_roots(coeffs: list[Fraction]) -> dict[Fraction, int]:
    """Rational roots with multiplicities by the rational root theorem.

    The former library routine, kept verbatim: every candidate +-(divisor of
    the constant term)/(divisor of the leading term) is tried, so it takes
    time proportional to the square roots of the end coefficients.
    """
    from math import gcd

    def poly_eval(cs, x):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    def divisors(m: int):
        m = abs(m)
        out = set()
        k = 1
        while k * k <= m:
            if m % k == 0:
                out.add(k)
                out.add(m // k)
            k += 1
        return sorted(out)

    roots: dict[Fraction, int] = {}
    cs = list(coeffs)
    while len(cs) > 1:
        while len(cs) > 1 and cs[0] == 0:
            roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
            cs = cs[1:]
        if len(cs) == 1:
            break
        denlcm = 1
        for c in cs:
            denlcm = denlcm * c.denominator // gcd(denlcm, c.denominator)
        ics = [int(c * denlcm) for c in cs]
        g = 0
        for c in ics:
            g = gcd(g, c)
        if g:
            ics = [c // g for c in ics]
        found = None
        for pnum in divisors(ics[0]) or [0]:
            for qden in divisors(ics[-1]):
                for sign in (1, -1):
                    cand = Fraction(sign * pnum, qden)
                    if poly_eval(cs, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots[found] = roots.get(found, 0) + 1
        # synthetic division by (x - found)
        out = [Fraction(0)] * (len(cs) - 1)
        acc = Fraction(0)
        for k in range(len(cs) - 1, 0, -1):
            acc = cs[k] + acc * found
            out[k - 1] = acc
        cs = out
    return roots


def oracle_rational_matrix(data, ncols: int) -> QMat:
    """A job file's rational matrix by the former route: one Fraction per
    entry, through ``parse_rational`` for a string, then the constructor."""
    return QMat([[parse_rational(x) if isinstance(x, str) else Fraction(x) for x in r]
                 for r in data], ncols=ncols)


def oracle_a1_violations(m) -> list[str]:
    """The algebra relation of an ``A1Module`` on every level lo..hi, the top
    level included."""
    bad = []
    for i in range(m.lo, m.hi + 1):
        lhs = m.d_at(i + 1) @ m.x_at(i)
        rhs = m.x_at(i - 1) @ m.d_at(i) + FpMat.identity(m.prime, m.dim_at(i))
        if lhs != rhs:
            bad.append(f"Dx - xD = 1 failed on Fil_{i}")
    return bad


def oracle_gauge_violations(g) -> list[str]:
    """The former list of every violated gluing law, kept verbatim as an
    oracle except that the relation is checked by :func:`oracle_a1_violations`.

    ``g`` needs only the fields of a :class:`ReducedFGauge` and ``prime``, so
    lawless data can be checked without constructing one.
    """
    bad = oracle_a1_violations(g.htc)
    if bad:
        return bad
    try:
        dr_htc = restrict_HTc_to_dR(g.htc)
    except LawViolation as err:
        return [str(err)]
    if g.alpha_dr.shape != (g.drp.dim, dr_htc.dim):
        bad.append("alpha_dR must map the Hodge--Tate de Rham restriction "
                   "to the de Rham restriction")
        return bad
    if not g.alpha_dr.is_invertible():
        bad.append("alpha_dR must be an isomorphism")
    if g.alpha_dr @ dr_htc.theta != g.drp.theta @ g.alpha_dr:
        bad.append("alpha_dR must commute with Theta")
    hod_htc = restrict_HTc_to_Hod(g.htc)
    hod_drp = restrict_dRplus_to_Hod(g.drp)
    if hod_htc.support() != hod_drp.support():
        bad.append("the two Hodge restrictions must have equal support")
        return bad
    for i in hod_htc.support():
        a_i = g.alpha_hod.get(i)
        if a_i is None or a_i.shape != (hod_drp.dim_at(i), hod_htc.dim_at(i)):
            bad.append(f"alpha_Hod missing or mis-shaped in degree {i}")
            return bad
        if not a_i.is_invertible():
            bad.append(f"alpha_Hod must be an isomorphism in degree {i}")
    p = g.prime
    for i in hod_htc.support():
        j = i - p
        if hod_htc.dim_at(j) == 0:
            continue
        a_i = g.alpha_hod[i]
        a_j = g.alpha_hod[j]
        if a_j @ hod_htc.theta_at(i) != hod_drp.theta_at(i) @ a_i:
            bad.append(f"alpha_Hod must commute with Theta (degree {i})")
    return bad


def oracle_hodge_cohomology(m, i: int) -> list[tuple[int, int]]:
    """Koszul cohomology with every differential built and ranked, those out of
    or into a zero piece included: the routine before it skipped them."""
    d = m.directions
    diffs = [koszul_differential(m, i, k) for k in range(d)]
    out = []
    prev_rank = 0
    for k in range(d + 1):
        dim_term = comb(d, k) * m.dim_at(i - k)
        rank_out = diffs[k].rank() if k < d else 0
        out.append((k, dim_term - rank_out - prev_rank))
        prev_rank = rank_out
    return out


def oracle_euler(r) -> int:
    """Euler characteristic of a :class:`ReducedCohomology`'s glued total complex."""
    return r.h[0] - r.h[1] + r.h[2]


def oracle_component_euler(r) -> int:
    """The same Euler characteristic read off the four component fibres:
    dRplus + HTc - dR - Hod, each as h0 - h1."""
    c = r.components
    chi = lambda t: t[0] - t[1]
    return chi(c["dRplus"]) + chi(c["HTc"]) - chi(c["dR"]) - chi(c["Hod"])


def oracle_flag_tensor_bases(f1, f2) -> list[FpMat]:
    """Levels of ``A1Flag.tensor`` summed over every index of f1's window,
    the jumps and the indices between them alike."""
    p, dim = f1.prime, f1.dim * f2.dim
    bases = [fp_span_union(p, dim, [fp_kron(f1.basis_at(i), f2.basis_at(k - i))
                                    for i in range(f1.lo, f1.hi + 1)])
             for k in range(f1.lo + f2.lo, f1.hi + f2.hi + 1)]
    bases[-1] = FpMat.identity(p, dim)
    return bases


def oracle_convolved_flags(d1, d2) -> list[FpMat]:
    """Levels of the tensor filtration of two ``FilThetaModule``s, summed
    over every index of d1's window."""
    p, dim = d1.prime, d1.dim * d2.dim
    return [fp_span_union(p, dim, [fp_kron(d1.flag_at(i), d2.flag_at(k - i))
                                   for i in range(d1.lo, d1.hi + 1)])
            for k in range(d1.lo + d2.lo, d1.hi + d2.hi + 1)]


def same_span(a: FpMat, b: FpMat) -> bool:
    """Column spans equal, by the test-local rank of a, b and [a | b]."""
    ranks = [oracle_fp_rank(a.p, fpmat_rows(m)) for m in (a, b, a.hstack(b))]
    return ranks[0] == ranks[1] == ranks[2]


@contextmanager
def count_calls(owner, name: str):
    """Count the calls of ``owner.name`` made inside the block.

    Yields a list that gets one entry per call; the attribute is restored
    on exit.
    """
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    setattr(owner, name, counted)
    try:
        yield calls
    finally:
        setattr(owner, name, original)


def qmat_rows(m: QMat):
    return [list(r) for r in m.rows]


def fpmat_rows(m: FpMat):
    return [list(r) for r in m.rows]


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------


def rand_rational(rng: random.Random, p: int) -> Fraction:
    num = rng.randint(-6, 6)
    dens = [1, 2, 5, 7]
    den = rng.choice([d for d in dens if d % p != 0])
    return Fraction(num, den)


def rand_qmat(rng: random.Random, p: int, nrows: int, ncols: int) -> QMat:
    return QMat([[rand_rational(rng, p) for _ in range(ncols)]
                 for _ in range(nrows)], ncols=ncols)


def rand_invertible_q(rng: random.Random, p: int, n: int) -> QMat:
    while True:
        m = rand_qmat(rng, p, n, n)
        if n == 0 or m.det() != 0:
            return m


def rand_unimodular(rng: random.Random, p: int, n: int) -> QMat:
    """Random invertible matrix over Z_(p): integer shears and unit scalings."""
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.randint(-3, 3))
        for k in range(n):
            m[i][k] += c * m[j][k]
    units = [u for u in (1, -1, 2, 1 + p) if u % p != 0]
    i = rng.randrange(n) if n else 0
    if n:
        u = Fraction(rng.choice(units))
        m[i] = [u * x for x in m[i]]
    return QMat(m, ncols=n)


def rand_filtered_phi(rng: random.Random, p: int, max_dim: int = 6,
                      window: tuple[int, int] = (-5, 5),
                      honest: bool | None = None) -> FilteredPhiModule:
    """Random filtered Frobenius module; non-honest filtrations included."""
    n = rng.randint(0, max_dim)
    lo = rng.randint(window[0], window[1])
    hi = rng.randint(lo, window[1])
    if honest is None:
        honest = rng.random() < 0.5
    if honest:
        dims = [n]
        for _ in range(lo, hi):
            dims.append(rng.randint(0, dims[-1]))
        bases = [QMat.identity(n)]
        for k in range(1, len(dims)):
            prev = bases[-1]
            take = rng.sample(range(prev.ncols), dims[k]) if prev.ncols else []
            take.sort()
            mix = rand_unimodular(rng, p, prev.ncols)
            bases.append((prev @ mix).take_cols(take))
        fs = FilteredSpace.from_subspaces(lo, hi, bases)
    else:
        dims = [n] + [rng.randint(0, max_dim) for _ in range(lo, hi)]
        transitions = tuple(rand_qmat(rng, p, dims[k], dims[k + 1])
                            for k in range(len(dims) - 1))
        fs = FilteredSpace(lo, hi, tuple(dims), transitions)
    return FilteredPhiModule(p, fs, rand_invertible_q(rng, p, n))


def conjugated_twist_sum(rng: random.Random, p: int,
                         n: int) -> tuple[QMat, list[list[Fraction]], list[int]]:
    """A Frobenius A diag(p^-t_i) A^-1, the matrix A and the twists t_i.

    The twists cycle through -3..3.  A is a rational diagonal times 8n
    integer shears; A^-1 undoes the same steps in reverse, so nothing is
    inverted.
    """
    twists = [i % 7 - 3 for i in range(n)]
    rng.shuffle(twists)
    a = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    a_inv = [row[:] for row in a]
    for _ in range(8 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        for row in a:  # A <- A (1 + c e_ij): column j gains c times column i
            row[j] += c * row[i]
        a_inv[i] = [x - c * y for x, y in zip(a_inv[i], a_inv[j])]
    for i in range(n):  # A <- diag(s) A
        s = Fraction(rng.choice((1, 2, 5)), rng.choice((1, 7)))
        a[i] = [x * s for x in a[i]]
        for row in a_inv:
            row[i] /= s
    frob = QMat(a) @ QMat.diagonal([Fraction(p) ** -t for t in twists]) @ QMat(a_inv)
    return frob, a, twists


def job_strings(rows) -> list[list[str]]:
    return [[str(x) for x in row] for row in rows]


def twist_sum_square(rng: random.Random, p: int, n: int, honest: bool) -> tuple[dict, dict]:
    """A ``square`` job payload on a conjugated sum of n twists, and its results.

    Fil^i is spanned by the columns j of A with -t_j >= i.  A filtration
    that is not honest has its window raised by one at the top and one junk
    direction at each index above the bottom, which the transitions send to
    zero in the underlying space, so the junk at index 0 adds to h0 of
    corner A and of the twisted fibre.  The results add up the one-twist
    table: t = 0 gives (1, 1), t > 0 gives (0, 1) and t < 0 gives (0, 0).
    """
    frob, a, twists = conjugated_twist_sum(rng, p, n)
    lo, hi = min(-t for t in twists), max(-t for t in twists) + (not honest)
    levels = range(lo, hi + 1)
    cols = {i: [j for j in range(n) if -twists[j] >= i] for i in levels}
    junk = {i: int(not honest and i > lo) for i in levels}
    transitions = []
    for i in levels[:-1]:
        src, pad = cols[i + 1], [0] * junk[i + 1]
        if i == lo:
            rows = [[a[r][j] for j in src] + pad for r in range(n)]
        else:
            rows = [[int(r == c) for c in src] + pad for r in cols[i]]
            rows += [[0] * len(src) + [1]] * junk[i]
        transitions.append(job_strings(rows))
    payload = {"dim": n, "frobenius": job_strings(frob.rows),
               "filtration": {"window": [lo, hi], "dims": [len(cols[i]) + junk[i] for i in levels],
                              "transitions": transitions}}
    zero = twists.count(0)
    h0, h1 = zero + junk.get(0, 0), sum(t >= 0 for t in twists)
    f0 = n if 0 < lo else 0 if 0 > hi else len(cols[0]) + junk[0]
    want = {"corners": {"A": [h0, h1], "B": [f0, 0], "C": [zero, zero], "D": [n, 0]},
            "residual": [0, 0, 0, 0], "fm_h0": h0, "fm_h1": h1}
    return payload, want


def rand_fcrystal(rng: random.Random, p: int, max_rank: int = 4,
                  exp_lo: int = -3, exp_hi: int = 3, kind: str = "general") -> FCrystalPoint:
    """tau = U diag(p^e) V with U, V random over Z_(p) (``kind`` "general");
    V = U^{-1} ("conjugated"); or U diag(p^e) V + p^(exp_hi + 1) X for a
    random integer X ("perturbed"), which is D (1 + p Y) between U and V,
    so it keeps the exponents while V grows denominators."""
    r = rng.randint(1, max_rank)
    exps = sorted(rng.randint(exp_lo, exp_hi) for _ in range(r))
    diag = QMat.diagonal([Fraction(p) ** e for e in exps])
    u = rand_unimodular(rng, p, r)
    tau = u @ diag @ (u.inverse() if kind == "conjugated" else rand_unimodular(rng, p, r))
    if kind == "perturbed":
        x = QMat([[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)])
        tau = tau + x.scale(Fraction(p) ** (exp_hi + 1))
    return FCrystalPoint(p, r, tau)


def level_transport(m: QMat, exps, p: int, i: int) -> QMat:
    """D_i^{-1} m D_i with D_i = diag(p^max(i - d_j, 0)): a change of basis
    ``m`` between two Smith transforms of one crystal, read on Fil^i."""
    scale = QMat.diagonal([Fraction(p) ** max(i - d, 0) for d in exps])
    return scale.inverse() @ m @ scale


def is_p_unimodular(m: QMat, p: int) -> bool:
    """Square with p-integral entries and a p-unit determinant."""
    return (m.nrows == m.ncols and all(x.denominator % p for r in m.rows for x in r)
            and m.det() != 0 and oracle_vp(m.det(), p) == 0)


def rand_fpmat(rng: random.Random, p: int, nrows: int, ncols: int) -> FpMat:
    return FpMat(p, [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)],
                 ncols=ncols)


def rand_fp_invertible(rng: random.Random, p: int, n: int) -> FpMat:
    while True:
        m = FpMat(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        if n == 0 or m.is_invertible():
            return m


def rand_glued(rng: random.Random, p: int, max_rank: int = 3,
               twists=None, perturb: bool = True) -> ReducedFGauge:
    """Random glued datum: conjugated sums of twist blocks with a compatible

    nilpotent perturbation of the operator (strictly twist-increasing, so
    every flag law survives) and freshly computed gluing isomorphisms.
    Given ``twists`` (spanning a window of width below p) and no
    ``perturb``, the datum is a conjugated direct sum of those twists.
    """
    if twists is None:
        k = rng.randint(1, max_rank)
        base = rng.randint(-2, 2)
        twists = sorted(rng.randint(base, base + p - 1) for _ in range(k))
    twists = sorted(twists)
    k = len(twists)
    diag = FpMat(p, [[twists[i] % p if i == j else 0 for j in range(k)]
                     for i in range(k)])
    nil = [[0] * k for _ in range(k)]
    for l in range(k if perturb else 0):
        for j in range(k):
            if twists[l] >= twists[j] + 1 and rng.random() < 0.5:
                nil[l][j] = rng.randrange(p)
    e_model = diag + FpMat(p, nil)
    lo, hi = -max(twists), -min(twists)

    def unit_cols(pred):
        cols = [[1 if r == j else 0 for r in range(k)]
                for j in range(k) if pred(j)]
        return FpMat.from_cols(p, cols, k)

    g_model = [unit_cols(lambda j, i=i: i >= -twists[j]) for i in range(lo, hi + 1)]
    f_model = [unit_cols(lambda j, i=i: i <= -twists[j]) for i in range(lo, hi + 1)]
    pmat = rand_fp_invertible(rng, p, k)
    qmat = rand_fp_invertible(rng, p, k)
    htc_bases = [(pmat @ g).column_space_basis() for g in g_model]
    htc_bases[-1] = FpMat.identity(p, k)
    flag = A1Flag(p, k, lo, hi, tuple(htc_bases), pmat @ e_model @ pmat.inverse())
    htc = flag.to_module()
    drp_flags = [(qmat @ f).column_space_basis() for f in f_model]
    drp_flags[0] = FpMat.identity(p, k)
    drp = FilThetaModule(p, k, lo, hi, tuple(drp_flags),
                         qmat @ e_model @ qmat.inverse())
    alpha_hod = {}
    for i in range(lo, hi + 1):
        model_cols = [j for j in range(k) if twists[j] == -i]
        if not model_cols:
            continue
        sel = FpMat.from_cols(
            p, [[1 if r == j else 0 for r in range(k)] for j in model_cols], k)
        pi_h, _ = quotient_projection(htc.x_at(i - 1).column_space_basis())
        a_i = pi_h @ flag.basis_at(i).solve(pmat @ sel)
        inner = drp.flag_at(i).solve(drp.flag_at(i + 1))
        pi_d, _ = quotient_projection(inner)
        b_i = pi_d @ drp.flag_at(i).solve(qmat @ sel)
        alpha_hod[i] = b_i @ a_i.inverse()
    return ReducedFGauge(htc=htc, drp=drp, alpha_dr=qmat @ pmat.inverse(),
                         alpha_hod=alpha_hod)


def rand_higgs(rng: random.Random, p: int, directions: int,
               max_total: int = 12) -> GradedHiggsModule:
    """Random commuting family: coordinatewise shift operators on a random

    downward-closed staircase of lattice points, with coefficients that
    depend only on the stepped coordinate (hence commute), conjugated by
    random invertible matrices levelwise.
    """
    d = directions
    points = {(0,) * d}
    budget = rng.randint(1, max_total - 1)
    while len(points) <= budget:
        candidates = set()
        for m in points:
            for j in range(d):
                cand = tuple(c + (1 if idx == j else 0)
                             for idx, c in enumerate(m))
                if cand in points:
                    continue
                if all(cand[jj] == 0 or
                       tuple(c - (1 if idx == jj else 0)
                             for idx, c in enumerate(cand)) in points
                       for jj in range(d)):
                    candidates.add(cand)
        if not candidates:
            break
        points.add(rng.choice(sorted(candidates)))
    top = rng.randint(-2, 2)
    by_degree: dict[int, list[tuple]] = {}
    for m in sorted(points):
        deg = top - sum(m)
        by_degree.setdefault(deg, []).append(m)
    dims = {deg: len(ms) for deg, ms in by_degree.items()}
    coeff = {k: [rng.randrange(p) for _ in range(max_total + 2)]
             for k in range(1, d + 1)}
    index = {deg: {m: a for a, m in enumerate(ms)} for deg, ms in by_degree.items()}
    fields: dict = {}
    for k in range(1, d + 1):
        per = {}
        for deg, ms in by_degree.items():
            tgt = by_degree.get(deg - 1, [])
            if not tgt:
                continue
            rows = [[0] * len(ms) for _ in tgt]
            for a, m in enumerate(ms):
                if m[k - 1] == 0:
                    continue
                shifted = tuple(c - (1 if idx == k - 1 else 0)
                                for idx, c in enumerate(m))
                if shifted in index[deg - 1]:
                    rows[index[deg - 1][shifted]][a] = coeff[k][m[k - 1]]
            per[deg] = FpMat(p, rows, ncols=len(ms))
        fields[k] = per
    plain = GradedHiggsModule(p, d, dims, fields)
    # conjugate levelwise for generic-looking matrices
    mixers = {deg: rand_fp_invertible(rng, p, dim) for deg, dim in dims.items()}
    mixed_fields: dict = {}
    for k in range(1, d + 1):
        per = {}
        for deg in dims:
            mat = plain.phi(k, deg)
            lower = mixers.get(deg - 1)
            if lower is None or mat.nrows == 0:
                continue
            per[deg] = lower @ mat @ mixers[deg].inverse()
        mixed_fields[k] = per
    return GradedHiggsModule(p, d, dims, mixed_fields)
