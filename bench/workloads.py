"""The four job corpora, each operation with an answer known by construction.

An operation ("op") is one job file run through ``gaugeworks compute`` or
one chain of library calls.  Each ``build_*`` function returns the ops of
one cycle of its workload in a fixed interleaved order, so that any prefix
of the cycle holds every size class in about its share; the seed only
draws the entries.  Expected answers come from how the inputs were built, never from
gaugeworks:

* twist sums: ``rhom`` and the corners add up the one-twist table
  (n = 0 -> (1, 1), n > 0 -> (0, 1), n < 0 -> (0, 0)), newton = hodge =
  -sum(n), the cartesian residual is zero and the twisted fibre has the
  ``rhom`` dimensions;
* F-crystals: the Hodge--Tate weights are the exponents used to build tau;
* glued data: sums of twists have the summed cohomology of the twists,
  so do their tensor products, ``h(tensor(bk a, bk b)) = h(bk(a + b))`` and
  ``h(dual(bk n)) = h(bk(-n))``;
* Higgs modules: the Euler characteristic of each weight is fixed by the
  piece dimensions.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

from kalg import (fp_col_basis, fp_inverse, fp_quotient_projection, fp_solve,
                  identity, matmul, q_inverse)


@dataclass(frozen=True)
class Op:
    """One operation: ``run(api)`` calls gaugeworks, ``check`` judges the result."""

    label: str
    run: Callable
    check: Callable[[object], bool]
    path: Path | None = None      # the job file, for ops that run one


def _job_op(label: str, path: Path, doc: dict | None, expected_code: int,
            expected_out: str | Callable[[str], bool]) -> Op:
    if doc is not None:
        path.write_text(json.dumps(doc), encoding="utf-8")
    arg = str(path)

    def run(api):
        return api.compute(arg)

    if callable(expected_out):
        def check(result):
            code, out = result
            return code == expected_code and expected_out(out)
    else:
        want = (expected_code, expected_out if expected_code else f"== {arg}\n{expected_out}")

        def check(result):
            return result == want
    return Op(label, run, check, path)


def _interleave(groups: list[list[Op]]) -> list[Op]:
    """One cycle with each group's ops evenly spaced across it."""
    slots = []
    for g in groups:
        for k, op in enumerate(g):
            slots.append(((k + 0.5) / len(g), -len(g), op))
    slots.sort(key=lambda s: s[:2])
    return [s[2] for s in slots]


def _spread(rng: random.Random, n: int, values: tuple) -> list:
    """n values cycling through ``values``, in a random order.

    The multiset depends on n alone, so the seed moves an op's entries but
    hardly its cost.
    """
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _qstr(m) -> list[list[str]]:
    return [[str(Fraction(x)) for x in row] for row in m]


def _rand_q(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 5, 7)))


def _dense_invertible(rng: random.Random, n: int):
    while True:
        a = [[_rand_q(rng) for _ in range(n)] for _ in range(n)]
        inv = q_inverse(a)
        if inv is not None:
            return a, inv


def _module_str(p: int, free: int, torsion: list[int]) -> str:
    parts = [f"Z({p})^{free}"] if free else []
    parts += [f"Z/{p}^{e}" for e in sorted(torsion)]
    return " + ".join(parts) if parts else "0"


def _weights_str(weights: Counter) -> str:
    return ", ".join(f"{k}:{v}" for k, v in sorted(weights.items())) or "none"


# ---------------------------------------------------------------------------
# q-dense: twist sums over Q conjugated by a dense rational matrix
# ---------------------------------------------------------------------------


def twist_sum_job(rng: random.Random, p: int, n: int, kind: str, honest: bool,
                  rhom: bool = True):
    """A ``filphi``/``square`` job on a conjugated sum of n twists, and its answer.

    ``rhom=False`` leaves the cohomology out of a ``filphi`` job.

    The twists cycle through -3..3, so the window and the dimensions depend
    on n alone.  Non-honest filtrations carry one extra "junk" direction at
    each index above the bottom of the window, which the transitions send
    to zero on the way down; the junk at index 0 adds to h0 of ``rhom`` and
    of corner A.
    """
    twists = _spread(rng, n, tuple(range(-3, 4)))
    a, a_inv = _dense_invertible(rng, n)
    diag = [[Fraction(p) ** -twists[i] if i == j else 0 for j in range(n)]
            for i in range(n)]
    frob = matmul(matmul(a, diag), a_inv)
    lo, hi = min(-t for t in twists), max(-t for t in twists)
    if not honest:
        hi += 1
    levels = list(range(lo, hi + 1))
    honest_cols = {i: [j for j in range(n) if -twists[j] >= i] for i in levels}
    junk = {i: 0 if honest or i == lo else 1 for i in levels}
    dims = [len(honest_cols[i]) + junk[i] for i in levels]
    transitions = []
    for i in levels[:-1]:
        src, dst = honest_cols[i + 1], honest_cols[i]
        rows = []
        if i == lo:
            for r in range(n):
                rows.append([a[r][j] for j in src] + [0] * junk[i + 1])
        else:
            for r in dst:
                rows.append([int(r == c) for c in src] + [0] * junk[i + 1])
            for _ in range(junk[i]):
                rows.append([0] * len(src) + [_rand_q(rng) for _ in range(junk[i + 1])])
        transitions.append(_qstr(rows))
    doc = {"format": 1, "prime": p, "kind": kind,
           "payload": {"dim": n, "frobenius": _qstr(frob),
                       "filtration": {"window": [lo, hi], "dims": dims,
                                      "transitions": transitions}}}
    zero = sum(1 for t in twists if t == 0)
    h1 = sum(1 for t in twists if t >= 0)
    junk0 = junk[0] if lo < 0 <= hi else 0
    h0 = zero + junk0
    newton = -sum(twists)
    if kind == "filphi":
        doc["outputs"] = ((["cohomology"] if rhom else []) + ["newton"]
                          + (["hodge"] if honest else []))
        lines = [f"rhom h0 h1: {h0} {h1}"] if rhom else []
        lines.append(f"newton: {newton}")
        if honest:
            lines.append(f"hodge: {newton}")
    else:
        f0 = (n if 0 < lo else 0 if 0 > hi else len(honest_cols[0]) + junk0)
        lines = [f"corner A h0 h1: {h0} {h1}", f"corner B h0 h1: {f0} 0",
                 f"corner C h0 h1: {zero} {zero}", f"corner D h0 h1: {n} 0",
                 "cartesian residual: 0 0 0 defect 0",
                 f"twisted fibre h0 h1: {h0} {h1}"]
    text = "\n".join([f"kind: {kind}", f"prime: {p}"] + lines) + "\n"
    return doc, text


def build_q_dense(rng: random.Random, workdir: Path, small: bool) -> list[Op]:
    """99 ops a cycle: 90 at n = 4..8, a tail of nine at n = 16..32.

    Percentiles are read off clusters of like ops so they do not jump
    between two kinds of op: the median falls among the 33 honest n = 6
    ``filphi`` jobs, the 95th percentile among the six n = 16 ``square``
    jobs, which the three heaviest ops (``filphi`` at n = 16, ``square`` at
    24, newton and hodge at 32) sit above.  Above n = 16 the jobs skip the
    ``rhom`` path, whose cost grows like n^4.
    """
    if small:
        classes = [(2, "filphi", True, 2), (2, "square", False, 1), (3, "square", True, 1)]
    else:
        classes = [(n, kind, honest, 3) for n in (4, 5, 7, 8)
                   for kind in ("filphi", "square") for honest in (True, False)]
        classes += [(n, "square", True, 3) for n in (4, 5, 7)]
        classes += [(6, "filphi", True, 33), (16, "square", True, 6),
                    (16, "filphi", True, 1), (24, "square", False, 1),
                    (32, "newton", True, 1)]
    groups = []
    k = 0
    for n, kind, honest, count in classes:
        ops = []
        for _ in range(count):
            p = (3, 5, 7)[k % 3]
            k += 1
            if kind == "newton":
                doc, text = twist_sum_job(rng, p, n, "filphi", honest, rhom=False)
            else:
                doc, text = twist_sum_job(rng, p, n, kind, honest)
            ops.append(_job_op(f"{kind}-n{n}", workdir / f"q{k:03d}.json", doc, 0, text))
        groups.append(ops)
    return _interleave(groups)


# ---------------------------------------------------------------------------
# zp-gauge: F-crystals and explicit torsion diagrams over Z_(p)
# ---------------------------------------------------------------------------


def _unimodular(rng: random.Random, p: int, n: int):
    """Dense matrix invertible over Z_(p): integer shears and one unit scaling."""
    m = identity(n, Fraction(1))
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    u = rng.choice([x for x in (1, -1, 2, 1 + p) if x % p])
    i = rng.randrange(n)
    m[i] = [u * x for x in m[i]]
    return m


def fcrystal_job(rng: random.Random, p: int, r: int, conjugate: bool):
    """tau = U diag(p^e) V with U, V unimodular; V = U^-1 when ``conjugate``.

    Conjugated crystals split into twists, so their syntomic H0 and H1 are
    both free of rank #{e = 0}; for general V only the weights are known.
    """
    exps = _spread(rng, r, tuple(range(-3, 4)))
    u = _unimodular(rng, p, r)
    v = q_inverse(u) if conjugate else _unimodular(rng, p, r)
    diag = [[Fraction(p) ** exps[i] if i == j else 0 for j in range(r)] for i in range(r)]
    tau = matmul(matmul(u, diag), v)
    doc = {"format": 1, "prime": p, "kind": "fgauge",
           "payload": {"fcrystal": {"rank": r, "tau": _qstr(tau)}}}
    lines = ["valid: true"]
    if conjugate:
        h = _module_str(p, sum(1 for e in exps if e == 0), [])
        lines += [f"syntomic h0: {h}", f"syntomic h1: {h}"]
    else:
        doc["outputs"] = ["validate", "weights", "realization"]
    lines += [f"hodge-tate weights: {_weights_str(Counter(exps))}",
              f"rational realization dim: {r}"]
    return doc, "\n".join(["kind: fgauge", f"prime: {p}"] + lines) + "\n"


def _scalar_homology(p: int, x: Fraction, torsion: int | None):
    """(H0, H1) of multiplication by x on Z_(p) (torsion None) or Z/p^torsion.

    Each is (free rank, torsion exponents).
    """
    v = None
    if x != 0:
        num, v = x.numerator, 0
        while num % p == 0:
            num //= p
            v += 1
    if torsion is None:
        if v is None:
            return (1, []), (1, [])
        return (0, []), (0, [v] if v else [])
    e = torsion if v is None else min(v, torsion)
    part = (0, [e] if e else [])
    return part, part


def torsion_gauge_job(rng: random.Random, p: int, pieces: int):
    """A sum of rank-one gauges on Z_(p) or Z/p^k, conjugated levelwise.

    Piece j has t = 1, u = p at indices <= s_j and t = p, u = 1 above, and
    tau = c_j, a p-unit.  Its Hodge--Tate weight is s_j and its syntomic
    complex is multiplication by p^d - c_j p^e, with d (e) the number of
    t (u) steps equal to p between index 0 and the bottom (top).
    """
    lo, hi = -2, 2
    units = [x for x in (1, -1, 2, 1 + p, 1 + p * p) if x % p]
    spec = []
    for order in _spread(rng, pieces, (None, 1, 2, 3)):
        s = rng.randint(lo, hi)
        c = rng.choice((1, 1, 1 + p, 1 + p * p)) if s == 0 else rng.choice(units)
        spec.append((order, s, c))
    spec.sort(key=lambda t: (t[0] is not None, t[0] or 0))
    orders = [o for o, _, _ in spec]
    free = sum(1 for o in orders if o is None)
    torsion = [o for o in orders if o is not None]
    n = len(spec)

    def aut():
        m = identity(n, Fraction(1))
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j or (orders[j] is not None and orders[i] is None):
                continue
            shift = 0 if orders[j] is None else max(orders[i] - orders[j], 0)
            c = rng.choice((-2, -1, 1, 2)) * p ** shift
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        i, u = rng.randrange(n), rng.choice(units)
        m[i] = [u * x for x in m[i]]
        return m, q_inverse(m)

    levels = list(range(lo, hi + 1))
    auts = {i: aut() for i in levels}

    def diag(vals):
        return [[Fraction(vals[a]) if a == b else 0 for b in range(n)] for a in range(n)]

    ts, us = [], []
    for i in levels[1:]:
        t = diag([1 if i <= s else p for _, s, _ in spec])
        u = diag([p if i <= s else 1 for _, s, _ in spec])
        ts.append(_qstr(matmul(matmul(auts[i - 1][0], t), auts[i][1])))
        us.append(_qstr(matmul(matmul(auts[i][0], u), auts[i - 1][1])))
    tau = matmul(matmul(auts[lo][0], diag([c for _, _, c in spec])), auts[hi][1])
    module = {"free": free, "torsion": torsion}
    doc = {"format": 1, "prime": p, "kind": "fgauge",
           "payload": {"window": [lo, hi], "modules": [module] * len(levels),
                       "t": ts, "u": us, "tau": _qstr(tau)},
           "outputs": ["validate", "cohomology", "weights"]}
    h = [[0, []], [0, []]]
    for order, s, c in spec:
        d = sum(1 for i in range(lo + 1, 1) if i > s)
        e = sum(1 for i in range(1, hi + 1) if i <= s)
        x = Fraction(p) ** d - c * Fraction(p) ** e
        for k, (fr, tors) in enumerate(_scalar_homology(p, x, order)):
            h[k][0] += fr
            h[k][1] += tors
    lines = ["kind: fgauge", f"prime: {p}", "valid: true",
             f"syntomic h0: {_module_str(p, *h[0])}",
             f"syntomic h1: {_module_str(p, *h[1])}",
             f"hodge-tate weights: {_weights_str(Counter(s for _, s, _ in spec))}"]
    return doc, "\n".join(lines) + "\n"


def build_zp_gauge(rng: random.Random, workdir: Path, small: bool) -> list[Op]:
    """75 ops a cycle: F-crystals of rank 2..16 and torsion diagrams of 2..6 pieces.

    The median falls among the 18 rank-4 crystals, the 95th percentile
    among the six rank-8 ones, below the single ranks 12 and 16.
    """
    if small:
        classes = [("fcrystal", 2, 2), ("torsion", 2, 2)]
    else:
        classes = [("fcrystal", 2, 8), ("fcrystal", 3, 8), ("torsion", 2, 8),
                   ("torsion", 3, 8), ("fcrystal", 4, 18), ("torsion", 4, 8),
                   ("fcrystal", 6, 6), ("torsion", 6, 3), ("fcrystal", 8, 6),
                   ("fcrystal", 12, 1), ("fcrystal", 16, 1)]
    groups = []
    k = 0
    for kind, size, count in classes:
        ops = []
        for _ in range(count):
            p = (3, 5, 7)[k % 3]
            k += 1
            if kind == "fcrystal":
                doc, text = fcrystal_job(rng, p, size, conjugate=k % 2 == 0)
            else:
                doc, text = torsion_gauge_job(rng, p, size)
            ops.append(_job_op(f"{kind}-{size}", workdir / f"z{k:03d}.json", doc, 0, text))
        groups.append(ops)
    return _interleave(groups)


# ---------------------------------------------------------------------------
# fp-glued: reduced-locus data and Higgs modules over F_p
# ---------------------------------------------------------------------------


def bk_h(n: int, p: int) -> tuple[int, int, int]:
    """Reduced cohomology of the n-th twist: (1,1,0) at 0, (0,1,0) for 0 < n < p."""
    if n == 0:
        return (1, 1, 0)
    return (0, 1, 0) if 0 < n < p else (0, 0, 0)


def _sum_h(twists, p: int) -> tuple[int, int, int]:
    return tuple(sum(bk_h(t, p)[k] for t in twists) for k in range(3))


def _fp_invertible(rng: random.Random, p: int, n: int):
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        inv = fp_inverse(m, p)
        if inv is not None:
            return m, inv


def glued_data(rng: random.Random, p: int, rank: int, perturb: bool):
    """Raw matrices of a glued datum, following the randomized test recipe.

    Twist blocks spanning a window of width p - 1 (for rank > 1) are
    conjugated by random invertible matrices on both halves; with ``perturb`` the operator gets
    a nilpotent part that only raises the twist, which makes the datum an
    iterated extension of the twists instead of their sum.
    Returns (twists, htc, drp, alpha_dr, alpha_hod) with matrices as rows.
    """
    k = rank
    base = rng.randint(-2, 2)
    inner = [rng.randint(base, base + p - 1) for _ in range(max(k - 2, 0))]
    twists = sorted(inner + ([base, base + p - 1] if k > 1 else [base + rng.randrange(p)]))
    e_model = [[twists[i] % p if i == j else 0 for j in range(k)] for i in range(k)]
    if perturb:
        for l in range(k):
            for j in range(k):
                if twists[l] >= twists[j] + 1 and rng.random() < 0.5:
                    e_model[l][j] = rng.randrange(p)
    lo, hi = -max(twists), -min(twists)

    def unit_cols(cols):
        return [[int(r == j) for j in cols] for r in range(k)]

    levels = list(range(lo, hi + 1))
    pmat, pinv = _fp_invertible(rng, p, k)
    qmat, qinv = _fp_invertible(rng, p, k)
    g_bases = [fp_col_basis(matmul(pmat, unit_cols([j for j in range(k) if i >= -twists[j]]), p),
                            k, p) for i in levels]
    g_bases[-1] = identity(k)
    flags = [fp_col_basis(matmul(qmat, unit_cols([j for j in range(k) if i <= -twists[j]]), p),
                          k, p) for i in levels]
    flags[0] = identity(k)
    op_htc = matmul(matmul(pmat, e_model, p), pinv, p)
    theta = matmul(matmul(qmat, e_model, p), qinv, p)

    def g_at(i):
        return g_bases[i - lo] if i >= lo else [[] for _ in range(k)]

    def width(m):
        return len(m[0]) if m else 0

    dims = [width(g_at(i)) for i in levels]
    xs = [fp_solve(g_at(i + 1), g_at(i), k, p) for i in levels[:-1]]
    ds = []
    for i in levels[1:]:
        shifted = [[(op_htc[r][c] + (i if r == c else 0)) % p for c in range(k)] for r in range(k)]
        ds.append(fp_solve(g_at(i - 1), matmul(shifted, g_at(i), p), k, p))

    def flag_at(i):
        if i > hi:
            return [[] for _ in range(k)]
        return flags[i - lo]

    alpha_hod = {}
    for i in levels:
        model = [j for j in range(k) if twists[j] == -i]
        if not model:
            continue
        sel = unit_cols(model)
        dim_i = dims[i - lo]
        if i - 1 < lo:
            below = [[] for _ in range(dim_i)]
        else:
            below = fp_col_basis(xs[i - 1 - lo], dim_i, p)
        pi_h = fp_quotient_projection(below, dim_i, p)
        a_i = matmul(pi_h, fp_solve(g_at(i), matmul(pmat, sel, p), k, p), p)
        fi = width(flag_at(i))
        inner = fp_solve(flag_at(i), flag_at(i + 1), k, p)
        pi_d = fp_quotient_projection(inner, fi, p)
        b_i = matmul(pi_d, fp_solve(flag_at(i), matmul(qmat, sel, p), k, p), p)
        alpha_hod[i] = matmul(b_i, fp_inverse(a_i, p), p)
    htc = {"window": [lo, hi], "dims": dims, "x": xs, "d": ds}
    drp = {"dim": k, "window": [lo, hi], "flags": flags, "theta": theta}
    return twists, htc, drp, matmul(qmat, pinv, p), alpha_hod


def glued_job(rng: random.Random, p: int, rank: int, perturb: bool):
    """A ``reduced`` job on random glued data.

    A sum of twists has exactly the summed cohomology; an extension keeps
    the Euler characteristic of the sum, which is what is checked then.
    """
    twists, htc, drp, alpha_dr, alpha_hod = glued_data(rng, p, rank, perturb)
    doc = {"format": 1, "prime": p, "kind": "reduced",
           "payload": {"htc": htc, "drp": drp, "alpha_dr": alpha_dr,
                       "alpha_hod": {str(i): m for i, m in alpha_hod.items()}},
           "outputs": ["cohomology"]}
    want = _sum_h(twists, p)
    if not perturb:
        return doc, f"kind: reduced\nprime: {p}\nreduced h0 h1 h2: {want[0]} {want[1]} {want[2]}\n"
    euler = want[0] - want[1] + want[2]

    def check(out: str) -> bool:
        lines = out.splitlines()
        if lines[1:3] != ["kind: reduced", f"prime: {p}"] or len(lines) != 4 \
                or not lines[3].startswith("reduced h0 h1 h2: "):
            return False
        h = [int(x) for x in lines[3].split(": ")[1].split()]
        return len(h) == 3 and min(h) >= 0 and h[0] - h[1] + h[2] == euler
    return doc, check


def higgs_job(rng: random.Random, p: int, d: int, max_total: int):
    """Commuting shift operators on a staircase, conjugated levelwise.

    The check is the Euler characteristic of each weight,
    sum_k (-1)^k C(d, k) dim V_{i-k}, plus 0 <= h_k <= the term dimension.
    """
    points = {(0,) * d}
    budget = max_total - 1
    while len(points) <= budget:
        cands = set()
        for m in points:
            for j in range(d):
                cand = tuple(c + (idx == j) for idx, c in enumerate(m))
                if cand in points:
                    continue
                if all(cand[jj] == 0
                       or tuple(c - (idx == jj) for idx, c in enumerate(cand)) in points
                       for jj in range(d)):
                    cands.add(cand)
        if not cands:
            break
        points.add(rng.choice(sorted(cands)))
    top = rng.randint(-2, 2)
    by_deg: dict[int, list] = {}
    for m in sorted(points):
        by_deg.setdefault(top - sum(m), []).append(m)
    dims = {deg: len(ms) for deg, ms in by_deg.items()}
    coeff = {k: [rng.randrange(p) for _ in range(max_total + 2)] for k in range(1, d + 1)}
    index = {deg: {m: a for a, m in enumerate(ms)} for deg, ms in by_deg.items()}
    mixers = {deg: _fp_invertible(rng, p, dim) for deg, dim in dims.items()}
    fields = {}
    for k in range(1, d + 1):
        per = {}
        for deg, ms in by_deg.items():
            tgt = by_deg.get(deg - 1, [])
            if not tgt:
                continue
            rows = [[0] * len(ms) for _ in tgt]
            for a, m in enumerate(ms):
                if m[k - 1]:
                    shifted = tuple(c - (idx == k - 1) for idx, c in enumerate(m))
                    if shifted in index[deg - 1]:
                        rows[index[deg - 1][shifted]][a] = coeff[k][m[k - 1]]
            per[str(deg)] = matmul(matmul(mixers[deg - 1][0], rows, p), mixers[deg][1], p)
        fields[str(k)] = per
    support = sorted(dims)
    weights = list(range(support[0], support[-1] + d + 1))
    doc = {"format": 1, "prime": p, "kind": "higgs",
           "payload": {"directions": d, "pieces": {str(k): v for k, v in dims.items()},
                       "fields": fields, "weights": weights}}
    terms = {i: [comb(d, k) * dims.get(i - k, 0) for k in range(d + 1)] for i in weights}

    def check(out: str) -> bool:
        lines = out.splitlines()
        if lines[1:4] != ["kind: higgs", f"prime: {p}", "valid: true"] \
                or len(lines) != 4 + len(weights):
            return False
        for i, line in zip(weights, lines[4:]):
            head = f"weight {i} koszul h: "
            if not line.startswith(head):
                return False
            h = [int(x) for x in line[len(head):].split()]
            want = terms[i]
            if len(h) != d + 1 or any(not 0 <= x <= w for x, w in zip(h, want)):
                return False
            if sum((-1) ** k * (h[k] - want[k]) for k in range(d + 1)):
                return False
        return True
    return doc, check


def _build_glued(api, p: int, htc: dict, drp: dict, alpha_dr, alpha_hod):
    """ReducedFGauge from raw rows through the library constructors."""
    fp = api.FpMat
    rl = api.redlocus
    lo, hi = htc["window"]
    dims = htc["dims"]
    xs = tuple(fp(p, m, ncols=dims[k]) for k, m in enumerate(htc["x"]))
    ds = tuple(fp(p, m, ncols=dims[k + 1]) for k, m in enumerate(htc["d"]))
    a1 = rl.A1Module(p, lo, hi, tuple(dims), xs, ds)
    k = drp["dim"]
    flags = tuple(fp(p, m, ncols=len(m[0]) if m else 0) for m in drp["flags"])
    fil = rl.FilThetaModule(p, k, lo, hi, flags, fp(p, drp["theta"], ncols=k))
    hod = {i: fp(p, m, ncols=len(m[0])) for i, m in alpha_hod.items()}
    return rl.ReducedFGauge(htc=a1, drp=fil, alpha_dr=fp(p, alpha_dr, ncols=dims[-1]),
                            alpha_hod=hod)


def tensor_chain(rng: random.Random, p: int, rank: int) -> Op:
    """Build two sums of twists, tensor them and take reduced cohomology."""
    t1, *g1 = glued_data(rng, p, rank, perturb=False)
    t2, *g2 = glued_data(rng, p, rank, perturb=False)
    want = _sum_h([a + b for a in t1 for b in t2], p)

    def run(api):
        g = api.redlocus.tensor_reduced(_build_glued(api, p, *g1), _build_glued(api, p, *g2))
        return api.redlocus.reduced_syntomic_cohomology(g).h
    return Op(f"tensor-p{p}-r{rank}", run, lambda h: tuple(h) == want)


def bk_dual_chain(p: int, n: int) -> Op:
    want = bk_h(-n, p)

    def run(api):
        rl = api.redlocus
        return rl.reduced_syntomic_cohomology(rl.dual_reduced(rl.bk_reduced(n, p))).h
    return Op(f"bk-dual-p{p}", run, lambda h: tuple(h) == want)


def bk_tensor_chain(p: int, a: int, b: int) -> Op:
    want = bk_h(a + b, p)

    def run(api):
        rl = api.redlocus
        g = rl.tensor_reduced(rl.bk_reduced(a, p), rl.bk_reduced(b, p))
        return rl.reduced_syntomic_cohomology(g).h
    return Op(f"bk-tensor-p{p}", run, lambda h: tuple(h) == want)


def table_bk_op(p: int) -> Op:
    lines = [f"reduced twist cohomology at p = {p}", "   n  h0  h1  h2"]
    for n in range(-p, p + 1):
        h = bk_h(n, p)
        lines.append(f"{n:>4}  {h[0]:>2}  {h[1]:>2}  {h[2]:>2}")
    want = (0, "\n".join(lines) + "\n")
    return Op(f"table-bk-p{p}", lambda api: api.main(["table", "bk", "--prime", str(p)]),
              lambda r: r == want)


def build_fp_glued(rng: random.Random, workdir: Path, small: bool) -> list[Op]:
    """78 ops a cycle: glued jobs with p up to 211, bk and higgs jobs,
    tensor and dual chains and one ``table bk``.

    The median falls among the 20 rank-2 glued jobs at p = 13, the 95th
    percentile among the four at p = 211, below ``table bk`` and the
    p = 31 tensor chain.
    """
    glued = [(13, 10)] if small else [(3, 2), (5, 2), (7, 2), (13, 20), (17, 2), (23, 2),
                                      (31, 2), (43, 2), (61, 2), (101, 2), (211, 4)]
    bk_ps = [3] if small else [3, 5, 7, 11, 13, 29]
    higgs_specs = [(2, 6)] if small else [(2, 20), (2, 30), (3, 24), (3, 40), (4, 24), (4, 30)]
    tensor_specs = [(3, 1)] if small else [(3, 2), (7, 3), (13, 2), (31, 2)]
    groups = []
    k = 0
    for p, count in glued[:1] if small else glued:
        ops = []
        for c in range(count if not small else 1):
            k += 1
            rank = 1 if small else 2 if p in (13, 211) else 1 + c % 3
            doc, want = glued_job(rng, p, rank, perturb=c % 2 == 1)
            ops.append(_job_op(f"glued-p{p}", workdir / f"g{k:03d}.json", doc, 0, want))
        groups.append(ops)
    ops = []
    for p in bk_ps:
        for _ in range(2):
            n = rng.randint(-p - 2, p + 2)
            k += 1
            h = bk_h(n, p)
            text = f"kind: reduced\nprime: {p}\nreduced h0 h1 h2: {h[0]} {h[1]} {h[2]}\n"
            doc = {"format": 1, "prime": p, "kind": "reduced", "payload": {"bk": n},
                   "outputs": ["cohomology"]}
            ops.append(_job_op(f"bk-p{p}", workdir / f"g{k:03d}.json", doc, 0, text))
    groups.append(ops)
    ops = []
    for d, total in higgs_specs:
        for p in (3, 5):
            k += 1
            doc, check = higgs_job(rng, p, d, total)
            ops.append(_job_op(f"higgs-d{d}", workdir / f"g{k:03d}.json", doc, 0, check))
    groups.append(ops)
    groups.append([tensor_chain(rng, p, rank) for p, rank in tensor_specs])
    groups.append([bk_dual_chain(p, rng.randint(-p - 2, p + 2)) for p, _ in tensor_specs])
    groups.append([bk_tensor_chain(p, rng.randint(-p, p), rng.randint(-p, p))
                   for p in ((3,) if small else (3, 7, 13))])
    groups.append([table_bk_op(3 if small else 23)])
    return _interleave(groups)


# ---------------------------------------------------------------------------
# tiny-bigint: the fixture jobs, malformed jobs and bit-size probes
# ---------------------------------------------------------------------------

FIXTURE_JOBS = ("bk1", "fcrystal", "filphi_explicit", "gauge_torsion",
                "higgs_pair", "reduced_explicit", "square0", "tate1")
# Malformed jobs and their exit codes: 1 for a schema error, 2 for a broken law.
MALFORMED_JOBS = {"bad_prime": 1, "bad_row": 1, "bad_ut": 2}
# Primes just below 2^35: trial division to sqrt(p) costs ~185k steps per check.
BIG_PRIMES = (34359738337, 34359738319, 34359738307, 34359738299)
THETA_PRIMES = (1009, 1013, 1019, 1021)


def _golden_blocks(text: str) -> dict[str, str]:
    blocks: dict[str, str] = {}
    name = None
    for line in text.splitlines(keepends=True):
        if line.startswith("== "):
            name = line[3:].strip()
            blocks[name] = ""
        elif name is not None:
            blocks[name] += line
    return blocks


def _tate_text(p: int, n: int, admissible: bool) -> str:
    h = (1, 1) if n == 0 else (0, 1) if n > 0 else (0, 0)
    lines = ["kind: filphi", f"prime: {p}", f"rhom h0 h1: {h[0]} {h[1]}",
             f"newton: {-n}", f"hodge: {-n}"]
    if admissible:
        lines.append("weakly admissible: true")
    return "\n".join(lines) + "\n"


def theta_op(rng: random.Random, p: int, dim: int) -> Op:
    """ThetaModule on a diagonal matrix over F_p (Theta^p = Theta), then H(dR)."""
    diag = [rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(dim)]
    zeros = diag.count(0)
    rows = [[diag[i] if i == j else 0 for j in range(dim)] for i in range(dim)]

    def run(api):
        m = api.redlocus.ThetaModule(p, api.FpMat(p, rows, ncols=dim))
        return api.redlocus.coh_dR(m)
    return Op(f"theta-p{p}", run, lambda h: tuple(h) == (zeros, zeros))


def build_tiny_bigint(rng: random.Random, workdir: Path, small: bool,
                      fixtures: Path) -> list[Op]:
    """32 ops a cycle: the fixture jobs three times, the malformed ones once
    and five bit-size probes.

    The median falls among the ~2 ms fixture jobs (``gauge_torsion``,
    ``reduced_explicit``, ``bk1``), the 95th percentile among the probes.
    The probes are inputs whose cost grows with their numeric value rather
    than their bit size, sized so that each takes about 0.1 s and none
    times out: a 35-bit prime, ``tate`` 24 with ``admissible``, ``tate``
    ~6000, Theta at p ~ 1013 and a tensor product at p = 101.
    """
    golden = _golden_blocks((fixtures / "golden" / "compute_all.txt").read_text(encoding="utf-8"))
    tiny = []
    for _ in range(1 if small else 3):
        for name in FIXTURE_JOBS:
            tiny.append(_job_op(f"fixture-{name}", fixtures / "jobs" / f"{name}.json", None,
                                0, golden[f"jobs/{name}.json"]))
    for name, code in MALFORMED_JOBS.items():
        tiny.append(_job_op(f"malformed-{name}", fixtures / "malformed" / f"{name}.json",
                            None, code, ""))
    probes = []
    p_big = 10007 if small else rng.choice(BIG_PRIMES)
    doc = {"format": 1, "prime": p_big, "kind": "filphi", "payload": {"tate": 1}}
    probes.append(_job_op("probe-big-prime", workdir / "t1.json", doc, 0,
                          _tate_text(p_big, 1, True)))
    n_adm = 4 if small else 24
    doc = {"format": 1, "prime": 3, "kind": "filphi", "payload": {"tate": n_adm}}
    probes.append(_job_op("probe-tate-admissible", workdir / "t2.json", doc, 0,
                          _tate_text(3, n_adm, True)))
    n_big = 20 if small else rng.randint(6000, 6050)
    doc = {"format": 1, "prime": 3, "kind": "filphi", "payload": {"tate": n_big},
           "outputs": ["cohomology", "newton", "hodge"]}
    probes.append(_job_op("probe-tate-large", workdir / "t3.json", doc, 0,
                          _tate_text(3, n_big, False)))
    probes.append(theta_op(rng, 7 if small else rng.choice(THETA_PRIMES), 6))
    p_tensor = 7 if small else 101
    half = p_tensor // 2
    probes.append(bk_tensor_chain(p_tensor, half + rng.randint(-2, 2), -half + rng.randint(-2, 2)))
    return _interleave([tiny, probes])


WORKLOADS = {
    "q-dense": build_q_dense,
    "zp-gauge": build_zp_gauge,
    "fp-glued": build_fp_glued,
    "tiny-bigint": build_tiny_bigint,
}
