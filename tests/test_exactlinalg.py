"""Smith normal form, module homology, and dense matrices over Q and F_p."""

from dataclasses import fields
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

from conftest import (HangGuard, assert_same_matrix, exact_v_inv, oracle_fp_det,
                      oracle_fp_matmul, oracle_fp_rank, oracle_fp_rref,
                      oracle_fp_two_term, oracle_is_isomorphism, oracle_q_det,
                      oracle_module_kernel, oracle_q_matmul, oracle_q_rank,
                      oracle_q_rref, oracle_reduced_cokernel_dim, oracle_snf, qmat_rows,
                      compose, rand_fcrystal, rand_fp_invertible, rand_unimodular,
                      relation_matrix, scalar)
from gaugeworks.errors import LawViolation, PrimeMismatchError
from gaugeworks.exactlinalg import (INF, SNF, FGModule, FpMat, ModuleMap, QMat,
                                    check_prime, cokernel, format_rational,
                                    fp_homology_two_term, homology_two_term, kernel,
                                    is_p_local, kernel_over_zp, parse_rational,
                                    rational_pair, smith_normal_form, vp, zero_module)
from gaugeworks.exactlinalg import fpmat, qmat, rationals
from gaugeworks.exactlinalg.fpmat import rank_mod
from gaugeworks.exactlinalg.modules import (_diagonal, _relation_lifts, _with_relations,
                                            composite, reduced_cokernel_dim)
from gaugeworks.filphi import FilteredSpace
from gaugeworks.higgs import GradedHiggsModule
from gaugeworks.redlocus import A1Module, GradedThetaModule, ReducedFGauge, bk_reduced


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def test_valuations():
    assert vp(Fraction(18), 3) == 2
    assert vp(Fraction(5, 9), 3) == -2
    assert vp(0, 5) is INF
    assert INF > 10 ** 9 and not (INF < 5)
    assert is_p_local(Fraction(7, 10), 3)
    assert not is_p_local(Fraction(1, 3), 3)


def loop_vp(x, p):
    """The former valuation: divide by p one step at a time."""
    x = Fraction(x)
    if x == 0:
        return INF
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


@pytest.mark.parametrize("p", [2, 3, 5, 101, 2 ** 61 - 1])
def test_vp_matches_the_division_loop(rng, p):
    for _ in range(300):
        num = rng.choice([-1, 1]) * rng.randint(1, 10 ** 6) * p ** rng.randint(0, 70)
        den = rng.randint(1, 10 ** 6) * p ** rng.randint(0, 70)
        x = Fraction(num, den) if rng.random() < 0.9 else Fraction(0)
        assert vp(x, p) == loop_vp(x, p)
        if x:
            assert rationals.vp_int(x.numerator, p) == loop_vp(x.numerator, p)


def test_vp_of_a_large_power_descends_through_squares():
    with HangGuard(60):
        assert vp(3 ** 100000, 3) == 100000
        assert vp(Fraction(2, 3 ** 100000 * 5), 3) == -100000


def smallest_factor(n: int):
    """Smallest prime factor of n >= 2 by trial division; None for a prime."""
    return next((k for k in range(2, isqrt(n) + 1) if n % k == 0), None)


def test_check_prime_agrees_with_trial_division_below_10_5():
    for n in range(-2, 10 ** 5):
        k = smallest_factor(n) if n >= 2 else 0
        if k is None:
            assert check_prime(n) == n
            continue
        try:
            check_prime(n)
        except ValueError as err:
            # a composite names its smallest factor, as trial division did
            want = (f"p must be prime, got {n} = {k}*{n // k}" if k
                    else f"p must be a prime >= 2, got {n!r}")
            assert str(err) == want
        else:
            raise AssertionError(f"check_prime accepted {n}")


def test_check_prime_rejects_strong_pseudoprimes():
    # 3215031751 passes Miller-Rabin to bases 2, 3, 5 and 7; the other two
    # have no factor below 1000 and pass bases 2..31 and 2..37 respectively
    assert all(rationals._strong_probable_prime(3215031751, a) for a in (2, 3, 5, 7))
    assert not all(rationals._strong_probable_prime(3215031751, a)
                   for a in rationals._MR_BASES)
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError, match="must be prime"):
            check_prime(n)
    assert all(rationals._strong_probable_prime(318665857834031151167461, a)
               for a in rationals._MR_BASES[:12])


def test_check_prime_decides_large_primes_and_remembers_them():
    for p in (10 ** 6 + 3, 2 ** 61 - 1, 2 ** 64 - 59):
        assert check_prime(p) == p and p in rationals._KNOWN_PRIMES
        assert check_prime(p) == p
    with pytest.raises(ValueError, match="must be below"):
        check_prime(2 ** 89 - 1)  # prime, but past the exact range of the bases
    for bad in (True, 1.0, "7", None):
        with pytest.raises(ValueError, match="prime >= 2"):
            check_prime(bad)


def test_rational_parsing_is_exact():
    assert parse_rational("-4/6") == Fraction(-2, 3)
    assert rational_pair("-4/6") == (-2, 3) and rational_pair("007/014") == (1, 2)
    assert rational_pair("-0/7") == (0, 1) and rational_pair("007") == (7, 1)
    with pytest.raises(ValueError):
        parse_rational("1.5")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")
    # the whole string, in ASCII digits: no whitespace, trailing newline
    # included, and no other script's digits
    for bad in (" 1", "3\n", "1/2\n", "\u0663", "1/\u0663", "+1", "1_0", "1/-2", ""):
        with pytest.raises(ValueError, match="not a rational literal"):
            parse_rational(bad)
        with pytest.raises(ValueError, match="not a rational literal"):
            rational_pair(bad)


# ---------------------------------------------------------------------------
# smith normal form
# ---------------------------------------------------------------------------


def test_snf_identity_case():
    m = QMat.identity(2)
    s, o = smith_normal_form(m, 3), oracle_snf(m, 3)
    assert s.exponents == (0, 0)
    assert o.d == QMat.identity(2) and o.u == QMat.identity(2)
    assert exact_v_inv(s) == QMat.identity(2)
    assert m == o.u.inverse() @ o.d @ exact_v_inv(s)


def test_snf_permutes_diagonal():
    m = QMat([[3, 0], [0, 1]])
    s, o = smith_normal_form(m, 3), oracle_snf(m, 3)
    assert s.exponents == (0, 1)
    assert o.d == QMat([[1, 0], [0, 3]])
    assert m == o.u.inverse() @ o.d @ exact_v_inv(s)


def test_snf_unit_pivot_example():
    # [[2, p], [p, p^2]] at p = 3: 2 is a unit, one clearing pass leaves
    # determinant valuation 2 in the corner (value frozen from brute-force
    # row/column reduction)
    m = QMat([[2, 3], [3, 9]])
    s, o = smith_normal_form(m, 3), oracle_snf(m, 3)
    assert s.exponents == (0, 2)
    assert m == o.u.inverse() @ o.d @ exact_v_inv(s)


@pytest.mark.parametrize("trial", range(40))
def test_snf_roundtrip_randomized(rng, trial):
    # matrices up to 8x8 with entries of valuation at most 4
    p = rng.choice([2, 3, 5])
    nr, nc = rng.randint(0, 8), rng.randint(0, 8)
    units = [u for u in (-2, -1, 1, 2, p + 1, p - 1) if u % p != 0]

    def entry():
        if rng.random() < 0.2:
            return Fraction(0)
        return Fraction(rng.choice(units)) * p ** rng.randint(0, 4)

    m = QMat([[entry() for _ in range(nc)] for _ in range(nr)], ncols=nc)
    s, o = smith_normal_form(m, p), oracle_snf(m, p)
    assert m == o.u.inverse() @ o.d @ exact_v_inv(s)
    assert list(s.exponents) == sorted(s.exponents)
    assert vp(o.u.det(), p) == 0 and vp(exact_v_inv(s).det(), p) == 0
    for i in range(min(nr, nc)):
        for j in range(min(nr, nc)):
            if i != j:
                assert o.d[i, j] == 0


@pytest.mark.parametrize("trial", range(25))
def test_snf_exponent_multiset_is_unimodular_invariant(rng, trial):
    p = 3
    nr = rng.randint(1, 5)
    nc = rng.randint(1, 5)
    m = QMat([[Fraction(rng.randint(-4, 4)) * p ** rng.randint(0, 3)
               for _ in range(nc)] for _ in range(nr)], ncols=nc)
    left = rand_unimodular(rng, p, nr)
    right = rand_unimodular(rng, p, nc)
    assert (smith_normal_form(left @ m @ right, p).exponents
            == smith_normal_form(m, p).exponents)


def test_kernel_over_zp_is_saturated(rng):
    p = 3
    m = QMat([[1, 3, 0], [0, 0, 0]])
    k = kernel_over_zp(m, p)
    assert (m @ k).is_zero()
    assert k.ncols == 2
    # saturation: a vector in the rational kernel with p-local entries must
    # be a Z_(p)-combination of the basis
    sol = k.solve(QMat.from_cols([[Fraction(-3), Fraction(1), Fraction(0)]], 3))
    assert sol is not None and all(is_p_local(x, p) for r in sol.rows for x in r)


SNF_PRIMES = [2, 3, 101, 2 ** 61 - 1]


def _unit(rng, p):
    return rng.choice([u for u in (-3, -2, -1, 1, 2, 3, 4, 5, 7, p - 1, p + 1) if u % p])


def _snf_input(rng, p, family) -> QMat:
    nr, nc = rng.randint(0, 6), rng.randint(0, 6)

    def entry(lo=0, hi=3):
        if rng.random() < 0.2:
            return Fraction(0)
        return Fraction(_unit(rng, p) * p ** rng.randint(0, hi),
                        _unit(rng, p) * p ** rng.randint(0, -lo))

    if family == "fcrystal":
        return rand_fcrystal(rng, p, max_rank=6).tau_crys
    if family == "torsion":
        # [map | relations of the target], as cokernel and kernel stack them
        torsion = tuple(sorted(rng.randint(1, 3) for _ in range(rng.randint(0, 3))))
        target = FGModule(p, rng.randint(0, 3), torsion)
        image = QMat([[entry() for _ in range(nc)] for _ in range(target.ngens)],
                     ncols=nc)
        return image.hstack(relation_matrix(target).scale(rng.choice([1, -1])))
    if family == "negative":
        return QMat([[entry(-4, 2) for _ in range(nc)] for _ in range(nr)], ncols=nc)
    if family == "zero-lines":
        rows = [[entry() for _ in range(nc)] for _ in range(nr)]
        for i in rng.sample(range(nr), rng.randint(0, nr)):
            rows[i] = [Fraction(0)] * nc
        for j in rng.sample(range(nc), rng.randint(0, nc)):
            for row in rows:
                row[j] = Fraction(0)
        return QMat(rows, ncols=nc)
    if family == "empty":
        n = rng.randint(0, 4)
        nr, nc = rng.choice([(0, n), (n, 0), (0, 0)])
        return QMat([[0] * nc for _ in range(nr)], ncols=nc)
    assert family == "2000-bit"
    nr, nc = rng.randint(1, 4), rng.randint(1, 4)
    return QMat([[Fraction(rng.choice([-1, 1]) * rng.getrandbits(2000) * p ** rng.randint(0, 2),
                           (rng.getrandbits(2000) | 1) * p ** rng.randint(0, 2))
                  for _ in range(nc)] for _ in range(nr)], ncols=nc)


@pytest.mark.parametrize("p", SNF_PRIMES)
@pytest.mark.parametrize("family", ["fcrystal", "torsion", "negative", "zero-lines",
                                    "empty", "2000-bit"])
def test_snf_matches_fraction_oracle(rng, family, p):
    for _ in range(12 if family != "2000-bit" else 4):
        m = _snf_input(rng, p, family)
        s, o = smith_normal_form(m, p), oracle_snf(m, p)
        assert s.prime == o.prime == p
        assert exact_v_inv(s) @ o.v == QMat.identity(m.ncols)
        assert s.exponents == o.exponents
        assert m == o.u.inverse() @ o.d @ exact_v_inv(s)
        assert kernel_over_zp(m, p) == o.v.take_cols(list(range(o.rank, m.ncols)))


def _v_inv_input(rng, p, shape) -> QMat:
    """A matrix of the named shape whose entries carry p in numerators and denominators."""
    n = rng.randint(1, 6)

    def entry():
        if rng.random() < 0.25:
            return Fraction(0)
        return Fraction(_unit(rng, p) * p ** rng.randint(0, 3),
                        _unit(rng, p) * p ** rng.randint(0, 2))

    def mat(nr, nc):
        return [[entry() for _ in range(nc)] for _ in range(nr)]

    nr, nc = {"square": (n, n), "wide": (n, n + rng.randint(1, 3)),
              "tall": (n + rng.randint(1, 3), n), "0xk": (0, n), "kx0": (n, 0),
              "zero": (n, rng.randint(1, 6)), "deficient": (n + 1, rng.randint(2, 6))}[shape]
    if shape == "square":
        while oracle_q_det(rows := mat(n, n)) == 0:
            pass
    elif shape == "zero":
        rows = [[0] * nc for _ in range(nr)]
    elif shape == "deficient":  # a product through rank at most min(nr, nc) - 1
        k = rng.randint(0, min(nr, nc) - 1)
        rows = oracle_q_matmul(mat(nr, k), mat(k, nc), nc)
    else:
        rows = mat(nr, nc)
    return QMat(rows, ncols=nc)


V_INV_SHAPES = ["square", "wide", "tall", "deficient", "zero", "0xk", "kx0"]


def _oracle_v_inv(o) -> list[list[Fraction]]:
    """The inverse of the oracle's V, by Fraction Gauss--Jordan on [V | I]."""
    n = o.v.ncols
    red, pivots = oracle_q_rref([list(r) + [int(i == j) for j in range(n)]
                                 for i, r in enumerate(o.v.rows)], 2 * n)
    assert pivots == list(range(n))
    return [r[n:] for r in red]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("shape", V_INV_SHAPES)
def test_snf_v_inv_is_the_inverse_of_v(rng, shape, p):
    # V^{-1} read off the pivot rows against Fraction Gauss--Jordan on [V | I],
    # V the Fraction oracle's, and the kernel basis against V's columns past
    # the rank
    for _ in range(15):
        m = _v_inv_input(rng, p, shape)
        s, o = smith_normal_form(m, p), oracle_snf(m, p)
        n = m.ncols
        assert o.v.shape == exact_v_inv(s).shape == (n, n)
        assert exact_v_inv(s) == QMat(_oracle_v_inv(o), ncols=n)
        assert all(is_p_local(x, p) for r in exact_v_inv(s).rows for x in r)
        assert kernel_over_zp(m, p) == o.v.take_cols(list(range(o.rank, n)))
        # the stored rows: integers over a p-unit, that unit at order[k] and 0
        # at order[:k], and unit rows over 1 past the rank
        assert len(s.v_inv_rows) == n and sorted(s.order) == list(range(n))
        for k, (w, u) in enumerate(s.v_inv_rows):
            assert type(u) is int and u % p and len(w) == n
            assert all(type(x) is int for x in w)
            assert w[s.order[k]] == u and not any(w[j] for j in s.order[:k])
            if k >= s.rank:
                assert u == 1 and w == tuple(int(j == s.order[k]) for j in range(n))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("shape", V_INV_SHAPES + ["fcrystal"])
def test_integral_basis_is_the_oracle_v_inverse_mod_p_to_the_n(rng, shape, p):
    # 8 inputs per case, 256 in all: W = the least absolute residues of the
    # oracle's exact V^{-1} mod p^n (p^n / 2 itself for p = 2), at every n
    # from 1 to N + 2 with N the exponent range plus one, and B W = I
    for _ in range(8):
        m = (rand_fcrystal(rng, p, max_rank=8).tau_crys if shape == "fcrystal"
             else _v_inv_input(rng, p, shape))
        s, o = smith_normal_form(m, p), oracle_snf(m, p)
        exact = _oracle_v_inv(o)
        big = max(s.exponents, default=0) - min(s.exponents, default=0) + 1
        for n in range(1, big + 3):
            pn = p ** n
            residues = [[x.numerator * pow(x.denominator, -1, pn) % pn for x in r]
                        for r in exact]
            want = [[x if x <= pn // 2 else x - pn for x in r] for r in residues]
            w, b = s.integral_basis(n)
            assert w.num == tuple(map(tuple, want)) and w.den == 1
            assert b @ w == QMat.identity(m.ncols) and b.den == 1


def test_smith_exponents_of_an_empty_or_zero_matrix():
    assert smith_normal_form(QMat.zeros(0, 3), 3).exponents == ()
    assert smith_normal_form(QMat.zeros(3, 0), 3).exponents == ()
    assert smith_normal_form(QMat.zeros(2, 2), 3).exponents == ()
    assert smith_normal_form(QMat([[Fraction(1, 9), 0], [0, 6]]), 3).exponents == (-2, 1)


@pytest.mark.parametrize("p", [2, 3, 101])
def test_smith_normal_form_builds_no_qmat(rng, monkeypatch, p):
    # V^{-1} stays the sweep's integer rows over their units: no QMat is
    # made, by the checked constructor or by either trusted one
    families = ["fcrystal", "torsion", "negative", "zero-lines", "empty", "2000-bit"]
    ms = [_snf_input(rng, p, family) for family in families for _ in range(3)]

    def refuse(*args, **kwargs):
        raise AssertionError("smith_normal_form built a QMat")
    with monkeypatch.context() as patched:
        for name in ("__init__", "_made", "_lowest"):
            patched.setattr(QMat, name, refuse)
        forms = [smith_normal_form(m, p) for m in ms]
    for m, s in zip(ms, forms):
        assert not any(isinstance(getattr(s, f.name), QMat) for f in fields(SNF))
        o = oracle_snf(m, p)
        assert s.exponents == o.exponents
        assert exact_v_inv(s) @ o.v == QMat.identity(m.ncols)


# ---------------------------------------------------------------------------
# module homology
# ---------------------------------------------------------------------------


def test_homology_zero_map_returns_source_and_target_verbatim():
    p = 3
    m = FGModule(p, 1)
    n = FGModule(p, 2, (1, 2))
    h0, h1 = homology_two_term(ModuleMap(m, n, QMat.zeros(n.ngens, m.ngens)))
    assert h0 == m and h1 == n


def test_homology_multiplication_by_p():
    m = FGModule(3, 1)
    h0, h1 = homology_two_term(ModuleMap(m, m, QMat([[3]])))
    assert h0 == zero_module(3)
    assert h1 == FGModule(3, 0, (1,))


def test_homology_multiplication_by_unit():
    # p - 1 is a unit at p; verified independently via the normal form of [2]
    m = FGModule(3, 1)
    assert smith_normal_form(QMat([[2]]), 3).exponents == (0,)
    h0, h1 = homology_two_term(ModuleMap(m, m, QMat([[2]])))
    assert h0 == zero_module(3) and h1 == zero_module(3)


def test_homology_with_torsion_target():
    # Z --p--> Z/p^2: kernel p^2 Z (still free of rank 1), cokernel Z/p
    p = 3
    src = FGModule(p, 1)
    tgt = FGModule(p, 0, (2,))
    h0, h1 = homology_two_term(ModuleMap(src, tgt, QMat([[p]])))
    assert h0 == FGModule(p, 1)
    assert h1 == FGModule(p, 0, (1,))


def test_torsion_respect_is_enforced():
    p = 3
    src = FGModule(p, 0, (1,))
    tgt = FGModule(p, 0, (2,))
    with pytest.raises(LawViolation):
        ModuleMap(src, tgt, QMat([[1]]))  # order p generator to order p^2 image
    ModuleMap(src, tgt, QMat([[p]]))  # valuation 1 is enough
    with pytest.raises(LawViolation):
        ModuleMap(src, FGModule(p, 1), QMat([[1]]))  # torsion into free


def test_module_map_entries_must_be_p_local():
    m = FGModule(3, 1)
    with pytest.raises(LawViolation) as err:
        ModuleMap(m, m, QMat([[Fraction(1, 3)]]))
    assert err.value.law == "module map entries must lie in Z_(p)"
    assert str(err.value) == "module map entries must lie in Z_(p) [entry (0,0) = 1/3]"
    ModuleMap(m, m, QMat([[Fraction(1, 2)]]))  # 2 is a unit at 3


def test_law_details_quote_entries_past_the_digit_limit():
    # 3^10000 + 1 has 4772 digits, past the limit of str on ints
    p, big = 3, 3 ** 10000 + 1
    with pytest.raises(LawViolation) as err:
        ModuleMap(FGModule(p, 0, (2,)), FGModule(p, 0, (3,)), QMat([[big]]))
    assert err.value.law == "matrix must respect torsion orders"
    assert str(err.value).endswith("needs valuation >= 1]")
    digits = str(err.value).split(" = ")[1].split()[0]
    assert len(digits) == 4772 and int(Decimal(digits)) == big
    with pytest.raises(LawViolation) as err:
        ModuleMap(FGModule(p, 1), FGModule(p, 1), QMat([[Fraction(big, p)]]))
    assert str(err.value).endswith("/3]")


def test_format_rational_is_exact_at_any_size():
    for x in (Fraction(0), Fraction(-7), Fraction(-4, 6), Fraction(3 ** 300, 2 ** 200)):
        assert format_rational(x) == str(x)
        assert parse_rational(format_rational(x)) == x
    big = Fraction(-(3 ** 10000), 2 ** 20000)
    num, den = format_rational(big).split("/")
    assert Fraction(int(Decimal(num)), int(Decimal(den))) == big


def rand_module_map(rng, p, src: FGModule, tgt: FGModule) -> ModuleMap:
    """Random map that respects torsion: valuation >= f - e from order p^e
    to order p^f, and nothing from a torsion generator into a free one."""
    rows = []
    for i in range(tgt.ngens):
        f = tgt.order_exponent(i)
        row = []
        for j in range(src.ngens):
            e = src.order_exponent(j)
            if e is not None and f is None:
                row.append(0)
                continue
            shift = max(f - e, 0) if e is not None else 0
            row.append(Fraction(rng.choice([0, 1, -1, 2, p, p + 1])) * p ** shift)
        rows.append(row)
    return ModuleMap(src, tgt, QMat(rows, ncols=src.ngens))


def test_is_isomorphism_matches_the_homology_definition(rng):
    # the former definition: kernel and cokernel of the map both vanish
    p = 3
    modules = [FGModule(p, 0), FGModule(p, 1), FGModule(p, 2), FGModule(p, 0, (1,)),
               FGModule(p, 1, (1,)), FGModule(p, 0, (1, 2)), FGModule(p, 1, (2,))]
    seen = set()
    for _ in range(300):
        src = rng.choice(modules)
        tgt = src if rng.random() < 0.6 else rng.choice(modules)
        d = rand_module_map(rng, p, src, tgt)
        h0, h1 = homology_two_term(d)
        want = h0.is_zero() and h1.is_zero()
        assert d.is_isomorphism() == want
        seen.add((src == tgt, want, h1.is_zero()))
    # isomorphisms, non-surjective endomorphisms, and maps between unequal
    # modules both onto and not onto
    assert {(True, True, True), (True, False, False),
            (False, False, True), (False, False, False)} <= seen


MOD_P_MODULES = [(0, ()), (1, ()), (2, ()), (0, (1,)), (1, (1,)), (0, (1, 2)),
                 (1, (2,)), (2, (1, 1, 3))]


def rand_unit_map(rng, p, src: FGModule, tgt: FGModule) -> ModuleMap:
    """:func:`rand_module_map` with each entry times a p-unit fraction, so D != 1."""
    units = [Fraction(u, v) for u in (1, 2, -1) for v in (1, 2, 5, 7) if u % p and v % p]
    d = rand_module_map(rng, p, src, tgt)
    rows = [[x * rng.choice(units) for x in r] for r in d.matrix.rows]
    return ModuleMap(src, tgt, QMat(rows, ncols=src.ngens))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_mod_p_routes_match_the_smith_oracles(rng, p):
    # is_isomorphism and reduced_cokernel_dim read ranks mod p; the oracles
    # run the full Smith form over Z_(p)
    mods = [FGModule(p, r, t) for r, t in MOD_P_MODULES]
    seen = set()
    for _ in range(300):
        src = rng.choice(mods)
        tgt = src if rng.random() < 0.5 else rng.choice(mods)
        d = rand_unit_map(rng, p, src, tgt)
        want = oracle_is_isomorphism(d)
        assert d.is_isomorphism() == want
        other = rand_unit_map(rng, p, rng.choice(mods), tgt)
        for maps in ([], [d], [d, other]):
            assert reduced_cokernel_dim(tgt, maps) == oracle_reduced_cokernel_dim(tgt, maps)
        seen.add((src == tgt, want, d.den > 1, src.ngens != tgt.ngens,
                  src.is_zero() or tgt.is_zero()))
    # isomorphisms and not, with D = 1 and D != 1, maps of unequal shape and
    # maps from or to the zero module
    assert {(True, True, False), (True, True, True), (True, False, False),
            (True, False, True)} <= {k[:3] for k in seen}
    assert any(k[3] for k in seen) and any(k[4] for k in seen)


def test_rank_mod_reads_unreduced_integer_rows(rng):
    for p in (2, 3, 101, 2 ** 61 - 1):
        for _ in range(40):
            m, n = rng.randint(0, 6), rng.randint(0, 6)
            rows = [[rng.choice([0, 0, 1, -1, p, -p, rng.randint(-10 ** 30, 10 ** 30)])
                     for _ in range(n)] for _ in range(m)]
            assert rank_mod(rows, p) == oracle_fp_rank(p, [[x % p for x in r] for r in rows])


def chain_factor(rng, p, src: FGModule, tgt: FGModule) -> ModuleMap:
    """A dense map, or on a self-map sometimes a diagonal one, D != 1 at times."""
    if src != tgt or rng.random() < 0.4:
        return rand_unit_map(rng, p, src, tgt)
    entries = [Fraction(rng.choice([1, -1, 2, p, p + 1]), rng.choice([1, 2, 7]))
               for _ in range(src.ngens)]
    return ModuleMap(src, tgt, QMat.diagonal(entries))


def test_composite_matches_the_fraction_composition(rng):
    p = 3
    mods = [FGModule(p, r, t) for r, t in MOD_P_MODULES]
    kinds = set()
    for _ in range(200):
        chain = [rng.choice(mods)]
        for _ in range(rng.randint(0, 4)):
            chain.append(chain[-1] if rng.random() < 0.6 else rng.choice(mods))
        maps = [chain_factor(rng, p, s, t) for s, t in zip(chain, chain[1:])]
        c = rng.choice([1, p, -2])
        want = scalar(chain[0], c)
        for f in maps:
            want = compose(f, want)
        assert composite(chain[0], chain[-1], maps, c) == want
        for f in maps[1:]:
            diag = _diagonal(f.rows)
            kinds.add("diagonal" if diag is not None and f.source.ngens else
                      "empty" if not f.source.ngens or not f.target.ngens else
                      "square" if f.source.ngens == f.target.ngens else "non-square")
    assert kinds == {"diagonal", "square", "non-square", "empty"}


def test_diagonal_reads_only_square_rows_with_nothing_off_the_diagonal():
    assert _diagonal(((2, 0), (0, 0))) == [2, 0]
    assert _diagonal(((2, 0), (1, 3))) is None
    assert _diagonal(((2, 0, 0), (0, 3, 0))) is None
    assert _diagonal(()) == []


def test_qmat_is_invertible_matches_the_determinant(rng):
    for _ in range(200):
        n, k = rng.randint(0, 6), rng.randint(0, 6)
        rows = [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(k)]
                for _ in range(n)]
        if rng.random() < 0.5 and n:  # rank at most k
            right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            rows = oracle_q_matmul(rows, right, n)
        a = QMat(rows, ncols=len(rows[0]) if rows else k)
        assert a.is_invertible() == (a.nrows == a.ncols and oracle_q_det(rows) != 0)
    # wide entries: a dense unimodular conjugate of diag(1, 1, 2^61 - 1), and
    # a singular matrix whose rows differ from dependent ones by that much
    q = 2 ** 61 - 1
    left = QMat([[1, 0, 0], [2, 1, 0], [3, -4, 1]])
    right = QMat([[1, 5, -2], [0, 1, 7], [0, 0, 1]])
    for a in (QMat.diagonal([q, 1]), left @ QMat.diagonal([1, 1, q]) @ right,
              QMat([[1, 2, 3], [q, 2 * q, 3 * q + 1], [2, 4, 6]])):
        assert a.is_invertible() == (oracle_q_det(qmat_rows(a)) != 0)


@pytest.mark.parametrize("trial", range(30))
def test_rank_nullity_for_free_modules(rng, trial):
    p = 3
    a, b = rng.randint(0, 5), rng.randint(0, 5)
    src, tgt = FGModule(p, a), FGModule(p, b)
    mat = QMat([[Fraction(rng.randint(-3, 3)) * p ** rng.randint(0, 2)
                 for _ in range(a)] for _ in range(b)], ncols=a)
    h0, h1 = homology_two_term(ModuleMap(src, tgt, mat))
    assert h0.free_rank + oracle_q_rank(qmat_rows(mat)) == a
    assert h1.free_rank == b - oracle_q_rank(qmat_rows(mat))


@pytest.mark.parametrize("trial", range(20))
def test_homology_presentation_independence(rng, trial):
    # conjugating by automorphisms of source and target leaves (H0, H1) alone
    p = 3
    src = FGModule(p, rng.randint(0, 3))
    tgt = FGModule(p, rng.randint(0, 3))
    mat = QMat([[Fraction(rng.randint(-2, 2)) * p ** rng.randint(0, 2)
                 for _ in range(src.ngens)] for _ in range(tgt.ngens)],
               ncols=src.ngens)
    d = ModuleMap(src, tgt, mat)
    left = rand_unimodular(rng, p, tgt.ngens)
    right = rand_unimodular(rng, p, src.ngens)
    d2 = ModuleMap(src, tgt, left @ mat @ right)
    assert homology_two_term(d) == homology_two_term(d2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_one_sweep_homology_matches_kernel_cokernel_and_the_oracle(rng, p):
    # free, torsion and mixed modules, 0-generator ones included; (1, 4) and
    # (2, 5) straddle each other, so N' = R_T^{-1} N R_S both multiplies and
    # divides entries by powers of p
    modules = [FGModule(p, 0), FGModule(p, 1), FGModule(p, 3), FGModule(p, 0, (1,)),
               FGModule(p, 0, (1, 3)), FGModule(p, 1, (2,)), FGModule(p, 2, (1, 2)),
               FGModule(p, 1, (1, 1, 3)), FGModule(p, 0, (1, 4)), FGModule(p, 0, (2, 5))]
    seen, shifts = set(), set()
    for trial in range(300):
        src, tgt = rng.choice(modules), rng.choice(modules)
        d = (ModuleMap(src, tgt, QMat.zeros(tgt.ngens, src.ngens)) if trial % 10 == 0
             else rand_module_map(rng, p, src, tgt))
        h0, h1 = homology_two_term(d)
        assert (h0, h1) == (kernel(d), cokernel(d))
        # the oracle reads V's kernel columns and runs its relations step in
        # Fractions; the library reads the exponents of two integer sweeps
        assert h0 == oracle_module_kernel(d)
        # A = [N | R_T] kills B = [R_S ; -N'], whose source rows are R_S
        b = [[0] * len(src.torsion)] * src.free_rank + _relation_lifts(d)
        a = _with_relations(d.rows, tgt)
        assert all(not sum(x * r[j] for x, r in zip(row, b))
                   for row in a for j in range(len(src.torsion)))
        assert b[:src.ngens] == [list(r) for r in relation_matrix(src).num]
        seen.add((bool(src.torsion), bool(tgt.torsion), bool(h0.torsion), bool(h1.torsion)))
        for f, row in zip(tgt.torsion, d.rows[tgt.free_rank:]):
            for e, n in zip(src.torsion, row[src.free_rank:]):
                if n:
                    shifts.add((e > f) - (e < f))
    assert len(seen) >= 8
    assert {1, -1} <= shifts


def test_homology_of_small_maps_by_hand():
    p = 3

    def h(src, tgt, rows):
        return homology_two_term(ModuleMap(src, tgt, QMat(rows, ncols=src.ngens)))

    def cyc(*es):
        return FGModule(p, 0, es)

    zero, free = FGModule(p, 0), FGModule(p, 1)
    for e in range(1, 5):  # the zero map on Z/p^e
        assert h(cyc(e), cyc(e), [[0]]) == (cyc(e), cyc(e))
    assert h(cyc(3), cyc(3), [[p]]) == (cyc(1), cyc(1))
    assert h(free, cyc(2), [[1]]) == (free, zero)  # the kernel p^2 Z is free
    assert h(cyc(1), cyc(3), [[p ** 2]]) == (zero, cyc(2))  # e < f: injective
    assert h(cyc(3), cyc(1), [[1]]) == (cyc(2), zero)  # e > f: onto, kernel p Z/p^3
    # straddling orders: p maps Z/p^e into Z/p^(e+1) injectively, and the
    # reductions Z/p^(f+1) -> Z/p^f are onto with kernels p^f Z/p^(f+1)
    assert h(cyc(1, 4), cyc(2, 5), [[p, 0], [0, p]]) == (zero, cyc(1, 1))
    assert h(cyc(2, 5), cyc(1, 4), [[1, 0], [0, 1]]) == (cyc(1, 1), zero)
    # 0-generator modules on either side
    assert h(zero, zero, []) == (zero, zero)
    assert h(zero, cyc(2), [[]]) == (zero, cyc(2))
    assert h(cyc(2), zero, []) == (cyc(2), zero)
    assert h(FGModule(p, 2, (1,)), zero, []) == (FGModule(p, 2, (1,)), zero)
    assert h(zero, free, [[]]) == (zero, free)


# ---------------------------------------------------------------------------
# F_p homology
# ---------------------------------------------------------------------------


def test_fp_homology_examples():
    p = 5
    assert fp_homology_two_term(FpMat.zeros(p, 1, 1)) == (1, 1)
    assert fp_homology_two_term(FpMat.identity(p, 4)) == (0, 0)
    rank_one = FpMat(p, [[1, 2], [2, 4]])
    assert fp_homology_two_term(rank_one) == oracle_fp_two_term(
        p, [[1, 2], [2, 4]], 2, 2) == (1, 1)


@pytest.mark.parametrize("trial", range(25))
def test_fp_homology_matches_oracle(rng, trial):
    p = rng.choice([2, 3, 5])
    nr, nc = rng.randint(0, 6), rng.randint(0, 6)
    rows = [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)]
    assert fp_homology_two_term(FpMat(p, rows, ncols=nc)) == \
        oracle_fp_two_term(p, rows, nr, nc)


# ---------------------------------------------------------------------------
# one prime per context
# ---------------------------------------------------------------------------


def test_mixing_primes_is_an_error():
    from gaugeworks.errors import PrimeMismatchError
    with pytest.raises(PrimeMismatchError):
        FGModule(3, 1).direct_sum(FGModule(5, 1))
    with pytest.raises(PrimeMismatchError):
        ModuleMap(FGModule(3, 1), FGModule(5, 1), QMat([[1]]))
    with pytest.raises(PrimeMismatchError):
        FpMat.identity(3, 2) @ FpMat.identity(5, 2)


# ---------------------------------------------------------------------------
# dense matrices: one suite over Q and over F_p
# ---------------------------------------------------------------------------

FIELDS = [None, 2, 3, 101]  # None stands for the rationals


def mat(p, rows, ncols=None):
    return QMat(rows, ncols=ncols) if p is None else FpMat(p, rows, ncols=ncols)


def eye(p, n):
    return QMat.identity(n) if p is None else FpMat.identity(p, n)


def oracle_rank(p, rows):
    return oracle_q_rank(rows) if p is None else oracle_fp_rank(p, rows)


def rand_rows(rng, p, m, n):
    """Entries of an m x n matrix whose rank is often below min(m, n)."""
    k = rng.randint(0, min(m, n))
    if p is None:
        def entry():
            return Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
    else:
        def entry():
            return rng.randrange(p)
    left = [[entry() for _ in range(k)] for _ in range(m)]
    right = [[entry() for _ in range(n)] for _ in range(k)]
    rows = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)]
            for i in range(m)]
    if n and rng.random() < 0.3:
        for row in rows:
            row[rng.randrange(n)] = entry()
    return rows


def reseed(rng, *key):
    """Give each parametrised case its own draws, still led by the suite seed."""
    rng.seed(f"{rng.random()}-{key}")


@pytest.mark.parametrize("p", FIELDS)
@pytest.mark.parametrize("trial", range(12))
def test_dense_rank_and_kernel_match_oracle(rng, p, trial):
    reseed(rng, "rank", p, trial)
    m, n = rng.randint(0, 6), rng.randint(0, 6)
    rows = rand_rows(rng, p, m, n)
    a = mat(p, rows, ncols=n)
    r = oracle_rank(p, rows)
    assert a.rank() == r
    k = a.kernel()
    assert k.shape == (n, n - r)
    assert (a @ k).is_zero()
    assert k.rank() == n - r
    basis = a.column_space_basis()
    assert basis.shape == (m, r) and basis.rank() == r
    assert a.is_invertible() == (m == n == r)


@pytest.mark.parametrize("p", FIELDS)
@pytest.mark.parametrize("trial", range(12))
def test_dense_solve_is_none_exactly_when_inconsistent(rng, p, trial):
    reseed(rng, "solve", p, trial)
    m, n, w = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 3)
    a = mat(p, rand_rows(rng, p, m, n), ncols=n)
    if rng.random() < 0.5:
        b = a @ mat(p, rand_rows(rng, p, n, w), ncols=w)
    else:
        b = mat(p, rand_rows(rng, p, m, w), ncols=w)
    consistent = oracle_rank(p, [list(r) for r in a.hstack(b).rows]) == a.rank()
    x = a.solve(b)
    assert (x is not None) == consistent
    if x is not None:
        assert x.shape == (n, w) and a @ x == b
    with pytest.raises(ValueError, match="solve: row count mismatch"):
        a.solve(mat(p, [], ncols=w) if m else mat(p, [[0] * w], ncols=w))


@pytest.mark.parametrize("p", FIELDS)
@pytest.mark.parametrize("trial", range(12))
def test_dense_inverse_and_det(rng, p, trial):
    reseed(rng, "inverse", p, trial)
    n = rng.randint(0, 5)
    rows = rand_rows(rng, p, n, n)
    a = mat(p, rows, ncols=n)
    full = oracle_rank(p, rows) == n
    assert a.is_invertible() == full
    if p is None:  # an FpMat has no det
        det = a.det()
        assert isinstance(det, Fraction) and (det == 0) == (not full)
    if full:
        inv = a.inverse()
        assert a @ inv == eye(p, n) and inv @ a == eye(p, n)
        if p is None:
            assert (a @ a).det() == det * det
    else:
        with pytest.raises(ValueError, match="matrix is singular"):
            a.inverse()
    with pytest.raises(ValueError, match="non-square"):
        mat(p, [[1, 0]]).inverse()
    if p is None:
        with pytest.raises(ValueError, match="non-square"):
            mat(p, [[1, 0]]).det()


@pytest.mark.parametrize("p", FIELDS)
def test_dense_kron_index_convention(rng, p):
    from gaugeworks.exactlinalg import fp_kron, kron
    a = mat(p, rand_rows(rng, p, 2, 3), ncols=3)
    b = mat(p, rand_rows(rng, p, 3, 2), ncols=2)
    k = kron(a, b) if p is None else fp_kron(a, b)
    assert k.shape == (6, 6)
    for i in range(2):
        for j in range(3):
            for s in range(3):
                for t in range(2):
                    want = a[i, j] * b[s, t]
                    assert k[i * 3 + s, j * 2 + t] == (want % p if p else want)
    assert (kron(a, mat(p, [], ncols=2)) if p is None
            else fp_kron(a, mat(p, [], ncols=2))).shape == (0, 6)


@pytest.mark.parametrize("p", FIELDS)
def test_dense_empty_shapes(p):
    from gaugeworks.exactlinalg import block_diag
    e03, e30, e00 = mat(p, [], ncols=3), mat(p, [[]] * 3), mat(p, [])
    assert e03.shape == (0, 3) and e30.shape == (3, 0) and e00.shape == (0, 0)
    assert e03.transpose().shape == (3, 0) and e30.transpose().shape == (0, 3)
    assert e03.hstack(mat(p, [], ncols=2)).shape == (0, 5)
    assert e30.vstack(mat(p, [[]] * 2)).shape == (5, 0)
    assert e03.vstack(e03).shape == (0, 3) and e30.hstack(e30).shape == (3, 0)
    assert e00.hstack(e00) == e00 and e00.vstack(e00) == e00
    assert (e30 @ e03) == mat(p, [[0] * 3] * 3) and (e03 @ e30) == e00
    assert eye(p, 3).take_cols([]) == e30 and eye(p, 3).take_rows([]) == e03
    assert e03.rank() == e30.rank() == e00.rank() == 0
    assert e03.kernel() == eye(p, 3) and e30.kernel().shape == (0, 0)
    assert e00.inverse() == e00 and e00.is_invertible()
    assert p is not None or e00.det() == 1
    assert e30.solve(mat(p, [[1]] * 3)) is None
    assert e03.solve(e00) == e30
    assert block_diag(e00, eye(p, 2)) == eye(p, 2)
    assert block_diag(e30, e03) == mat(p, [[0] * 3] * 3)
    assert block_diag(eye(p, 1), mat(p, [[1, 1]])) == mat(p, [[1, 0, 0], [0, 1, 1]])


@pytest.mark.parametrize("p", FIELDS)
def test_dense_values_are_immutable_and_normalised(p):
    a = mat(p, [[1, 2], [3, 4]])
    with pytest.raises(AttributeError, match="immutable"):
        a.rows = ()
    with pytest.raises(AttributeError, match="immutable"):
        a.nrows = 5
    assert isinstance(a.rows, tuple) and all(isinstance(r, tuple) for r in a.rows)
    b = a + a
    assert a == mat(p, [[1, 2], [3, 4]]) and b == a.scale(2)
    assert hash(mat(p, [[1, 2], [3, 4]])) == hash(a)
    assert a - a == mat(p, [[0, 0], [0, 0]]) == -a + a
    assert a.transpose().transpose() == a
    assert a.power(2) == a @ a and a.power(0) == eye(p, 2)
    if p is None:
        assert all(isinstance(x, Fraction) for r in a.rows for x in r)
        assert a != FpMat(3, [[1, 2], [3, 4]])
    else:
        assert all(0 <= x < p for r in b.rows for x in r)
        assert mat(p, [[p + 1, -1]]) == mat(p, [[1, p - 1]])
        assert a != QMat([[1, 2], [3, 4]])


def test_fpmat_binary_operations_reject_mixed_primes():
    from gaugeworks.errors import PrimeMismatchError
    from gaugeworks.exactlinalg import block_diag, fp_kron, fp_span_union
    a, b = FpMat.identity(3, 2), FpMat.identity(5, 2)
    for op in (lambda: a + b, lambda: a - b, lambda: a @ b, lambda: a.hstack(b),
               lambda: a.vstack(b), lambda: a.solve(b), lambda: fp_kron(a, b),
               lambda: block_diag(a, b), lambda: fp_span_union(3, 2, [a, b])):
        with pytest.raises(PrimeMismatchError):
            op()
    assert a != b


# ---------------------------------------------------------------------------
# QMat's integer kernels against the plain-Fraction oracles
# ---------------------------------------------------------------------------


def q_case(rng, kind):
    """(rows of an m x n matrix, n, entry drawer) for one input family."""
    big = kind == "bigint"
    m, n = rng.randint(0, 5 if big else 12), rng.randint(0, 5 if big else 12)
    if kind == "empty":
        m, n = rng.choice([(0, n), (m, 0), (0, 0)])
    if kind == "big_denominators":
        def entry():
            return Fraction(rng.randint(-2 ** 64, 2 ** 64), rng.randint(1, 2 ** 64))
    elif big:
        def entry():
            return Fraction(rng.getrandbits(2000) - 2 ** 1999, rng.choice([1, 3, 2 ** 61 - 1]))
    elif kind == "negative_pivots":
        def entry():
            return Fraction(rng.randint(-9, -1), rng.randint(1, 9)) if rng.random() < 0.6 else 0
    else:
        def entry():
            return Fraction(rng.randint(-5, 5), rng.randint(1, 6))
    if kind == "rank_deficient":
        k = rng.randint(0, max(min(m, n) - 1, 0))
        left = [[entry() for _ in range(k)] for _ in range(m)]
        right = [[entry() for _ in range(n)] for _ in range(k)]
        rows = oracle_q_matmul(left, right, n)
    else:
        rows = [[entry() for _ in range(n)] for _ in range(m)]
    if kind == "zero_lines":
        for i in rng.sample(range(m), m // 3):
            rows[i] = [0] * n
        for j in rng.sample(range(n), n // 3):
            for r in rows:
                r[j] = 0
    return rows, n, entry


Q_KINDS = ["shapes", "empty", "rank_deficient", "zero_lines", "negative_pivots",
           "big_denominators", "bigint"]


def oracle_kernel(red, pivots, ncols):
    """Kernel basis columns read off a reduced row echelon form."""
    free = [j for j in range(ncols) if j not in pivots]
    return [[1 if i == f else -red[pivots.index(i)][f] if i in pivots else 0
             for i in range(ncols)] for f in free]


@pytest.mark.parametrize("kind", Q_KINDS)
@pytest.mark.parametrize("trial", range(8))
def test_qmat_kernels_match_fraction_oracles(rng, kind, trial):
    reseed(rng, "qkernels", kind, trial)
    rows, n, entry = q_case(rng, kind)
    m = len(rows)
    a = QMat(rows, ncols=n)
    red, pivots = oracle_q_rref(rows, n)
    assert a.rref() == (QMat(red, ncols=n), pivots)
    assert a.rank() == len(pivots)
    assert a.kernel() == QMat.from_cols(oracle_kernel(red, pivots, n), n)

    w = rng.randint(0, 3)
    x = [[entry() for _ in range(w)] for _ in range(n)]
    b_rows = oracle_q_matmul(rows, x, w) if rng.random() < 0.5 else \
        [[entry() for _ in range(w)] for _ in range(m)]
    assert a @ QMat(x, ncols=w) == QMat(oracle_q_matmul(rows, x, w), ncols=w)
    joined, jpivots = oracle_q_rref([r + b for r, b in zip(rows, b_rows)], n + w)
    got = a.solve(QMat(b_rows, ncols=w))
    if jpivots and jpivots[-1] >= n:
        assert got is None
    else:
        want = [[0] * w for _ in range(n)]
        for r, c in enumerate(jpivots):
            want[c] = joined[r][n:]
        assert got == QMat(want, ncols=w)

    if m == n:
        assert a.det() == oracle_q_det(rows)
        if len(pivots) == n:
            ident = [[int(i == j) for j in range(n)] for i in range(n)]
            inv, _ = oracle_q_rref([r + e for r, e in zip(rows, ident)], 2 * n)
            assert a.inverse() == QMat([r[n:] for r in inv], ncols=n)
        else:
            with pytest.raises(ValueError, match="matrix is singular"):
                a.inverse()


def conjugated_twists(rng, n, p, shift=0):
    """A D A^-1 - shift, D = diag(p^-t) with t in -3..3: q-dense's Frobenius shape."""
    while True:
        a = [[Fraction(rng.randint(-6, 6), rng.choice((1, 2, 5, 7))) for _ in range(n)]
             for _ in range(n)]
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        red, pivots = oracle_q_rref([r + e for r, e in zip(a, ident)], 2 * n)
        if pivots == list(range(n)):
            break
    diag = [[Fraction(p) ** -rng.randint(-3, 3) - shift if i == j else 0 for j in range(n)]
            for i in range(n)]
    return oracle_q_matmul(oracle_q_matmul(a, diag, n), [r[n:] for r in red], n)


def sweep_case(rng, kind):
    """Rows and width of one input to the forward sweep."""
    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 6))
    if kind.startswith("conjugated"):
        n = int(kind.split("-")[1])
        # shift 1 gives phi - 1, singular exactly when a twist is 0
        rows = conjugated_twists(rng, n, rng.choice([3, 5, 7]), shift=rng.randint(0, 1))
        return rows, n
    m, n = {"empty": rng.choice([(0, 0), (0, 4), (4, 0)]),
            "zero": (rng.randint(1, 6), rng.randint(1, 6)),
            "tall": (rng.randint(7, 12), rng.randint(1, 6)),
            "wide": (rng.randint(1, 6), rng.randint(7, 12)),
            "square": (rng.randint(1, 8),) * 2,
            "rank_deficient": (rng.randint(2, 10),) * 2}[kind]
    if kind == "zero":
        return [[0] * n for _ in range(m)], n
    if kind == "rank_deficient":
        k = rng.randint(0, m - 1)
        left = [[entry() for _ in range(k)] for _ in range(m)]
        right = [[entry() for _ in range(n)] for _ in range(k)]
        return oracle_q_matmul(left, right, n), n
    return [[entry() for _ in range(n)] for _ in range(m)], n


SWEEP_KINDS = ["empty", "zero", "tall", "wide", "square", "rank_deficient",
               "conjugated-16", "conjugated-24"]


@pytest.mark.parametrize("kind", SWEEP_KINDS)
@pytest.mark.parametrize("trial", range(3))
def test_qmat_sweep_matches_fraction_oracles(rng, kind, trial):
    reseed(rng, "sweep", kind, trial)
    rows, n = sweep_case(rng, kind)
    a = QMat(rows, ncols=n)
    _, pivots = oracle_q_rref(rows, n)
    assert a.rank() == oracle_q_rank(rows) == len(pivots)
    # the basis is the oracle's pivot columns, so printed bases cannot change
    assert a.column_space_basis() == QMat([[r[c] for c in pivots] for r in rows],
                                          ncols=len(pivots))
    assert a.is_invertible() == (len(rows) == n == len(pivots))
    if len(rows) == n:
        assert a.det() == oracle_q_det(rows)


def test_qmat_rank_det_and_basis_need_no_rref(rng, monkeypatch):
    cases = [sweep_case(rng, kind) for kind in SWEEP_KINDS[:-1] for _ in range(2)]
    mats = [QMat(rows, ncols=n) for rows, n in cases]

    def refuse(self):
        raise AssertionError("rref called")
    monkeypatch.setattr(QMat, "rref", refuse)
    for (rows, n), a in zip(cases, mats):
        _, pivots = oracle_q_rref(rows, n)
        assert a.rank() == len(pivots)
        assert a.column_space_basis() == a.take_cols(pivots)
        assert a.is_invertible() == (len(rows) == n == len(pivots))
        if len(rows) == n:
            assert a.det() == oracle_q_det(rows)


Q = qmat.RANK_PRIME
# matrices whose rank mod the word prime q is below their rank over Q
UNLUCKY = {
    "diag(q, 1)": [[Q, 0], [0, 1]],
    "dense, det q": [[1, 1, 1], [1, 2, 3], [1, 3, Q + 5]],
    "column 0 mod q": [[Q, 1, 2], [-2 * Q, 3, 5], [5 * Q, 4, 1]],
    "denominator q": [[Fraction(1, Q), 1], [0, 1]],
    "rank deficient": [[1, 2, 3], [1, 2 + Q, 3 + Q], [2, 4 + Q, 6 + Q]],
    "wide": [[Q, 2 * Q, 0, 1], [0, 0, Q, 1]],
    "tall": [[Q, 0], [2 * Q, 0], [0, 7 * Q], [1, 1]],
}


@pytest.mark.parametrize("name", UNLUCKY)
def test_qmat_rank_at_an_unlucky_word_prime(monkeypatch, name):
    rows = UNLUCKY[name]
    a = QMat(rows)
    assert rank_mod(a.num, Q) < oracle_q_rank(rows)
    sweeps = []
    sweep = qmat._sweep
    monkeypatch.setattr(qmat, "_sweep", lambda rows: sweeps.append(1) or sweep(rows))
    assert a.rank() == oracle_q_rank(rows)
    assert sweeps == [1]  # the exact sweep decided
    assert a.transpose().rank() == oracle_q_rank(rows)
    assert a.is_invertible() == (len(rows) == len(rows[0]) == oracle_q_rank(rows))


def test_qmat_rank_runs_the_exact_sweep_only_below_full_rank_mod_q(monkeypatch, rng):
    cases = [rand_rows(rng, None, m, n) for m in range(4) for n in range(4)]
    cases += [[[rng.choice([0, 1, -1, Q, -Q, 2 * Q, Q + 1, Fraction(1, Q), Fraction(Q, 7),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
                for _ in range(n)] for _ in range(m)]
              for m in range(5) for n in range(5) for _ in range(6)]
    sweep = qmat._sweep
    for rows in cases:
        n = len(rows[0]) if rows else rng.randint(0, 3)
        a = QMat(rows, ncols=n)
        sweeps = []
        monkeypatch.setattr(qmat, "_sweep", lambda r: sweeps.append(1) or sweep(r))
        assert a.rank() == oracle_q_rank(rows)
        full = min(a.nrows, a.ncols)
        assert len(sweeps) == (0 if rank_mod(a.num, Q) == full else 1)


@pytest.mark.parametrize("rows, pivots", [([[Q, 1]], [0]),
                                          ([[Q, 1, 0], [0, 0, 1]], [0, 2]),
                                          ([[1, 1, 0], [1, 1 + Q, 1]], [0, 1])])
def test_column_space_basis_keeps_the_pivots_over_q(rows, pivots):
    # wide matrices: the rank mod q is full, but its pivot columns are not those over Q
    a = QMat(rows)
    assert rank_mod(a.num, Q) == min(a.shape) == a.rank() == len(pivots)
    assert list(fpmat.mod_pivots(a.num, Q)) != pivots == oracle_q_rref(rows, a.ncols)[1]
    assert a.column_space_basis() == a.take_cols(pivots)


def test_qmat_reads_fractions_off_its_integer_form():
    # the constructor keeps no entry it was handed: the Fractions of ``rows``
    # are built from num / den on the first read
    third = Fraction(1, 3)
    a = QMat([[third, 2], [1, Fraction(4, 6)]])
    assert a.num == ((1, 6), (3, 2)) and a.den == 3
    assert all(type(x) is Fraction for r in a.rows for x in r) and a.rows is a.rows
    assert a == QMat([[Fraction(1, 3), 2], [1, Fraction(2, 3)]])


def test_qmat_constructors_match_the_old_ones_and_hold_fractions():
    # the former constructions handed int zeros to QMat, one Fraction each
    third = Fraction(1, 3)
    built = []
    for m, n in [(0, 0), (0, 3), (2, 0), (3, 3), (2, 4), (4, 2)]:
        built.append((QMat.zeros(m, n), QMat([[0] * n for _ in range(m)], ncols=n)))
    for n in range(5):
        entries = [third, 2, 0, -1][:n]
        built.append((QMat.diagonal(entries),
                      QMat([[entries[i] if i == j else 0 for j in range(n)]
                            for i in range(n)], ncols=n)))
    for n in range(5):
        built.append((QMat.identity(n), QMat([[int(i == j) for j in range(n)]
                                              for i in range(n)], ncols=n)))
        for c in (1, 0, -2, third):
            built.append((QMat.scalar(n, c), QMat([[c if i == j else 0 for j in range(n)]
                                                   for i in range(n)], ncols=n)))
    built.append((QMat.diagonal(x for x in (1, third)), QMat([[1, 0], [0, third]])))
    for new, old in built:
        assert new == old and new.shape == old.shape
        assert all(type(x) is Fraction for r in new.rows for x in r)


# ---------------------------------------------------------------------------
# QMat's one stored form (integer rows over one denominator) against Fractions
# ---------------------------------------------------------------------------

HUGE_DENOMINATORS = [10 ** 40 + 1, 3 * 10 ** 41 + 7, 2 ** 140 - 1, 7 ** 50, 10 ** 40 * 6]


def form_rows(rng, kind, m, n):
    """Fraction rows of an m x n matrix of one input family."""
    if kind == "zero":
        return [[Fraction(0)] * n for _ in range(m)]
    if kind == "huge_denominators":
        def entry():
            if rng.random() < 0.2:
                return Fraction(rng.randint(-3, 3))
            return Fraction(rng.randint(-10 ** 45, 10 ** 45), rng.choice(HUGE_DENOMINATORS))
    elif kind == "negative":
        def entry():
            return Fraction(rng.randint(-9, -1), rng.randint(1, 9)) if rng.random() < 0.7 else \
                Fraction(0)
    else:
        def entry():
            return Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6, 10 ** 40 + 1]))
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.3:  # rank below min(m, n)
        rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
    return rows


FORM_KINDS = ["mixed", "negative", "huge_denominators", "zero"]


def assert_holds(got, want_rows, ncols):
    """``got`` is the matrix of the Fraction rows ``want_rows``, in canonical form."""
    want = QMat(want_rows, ncols=ncols)
    assert got.shape == (len(want_rows), ncols)
    assert (got.num, got.den) == (want.num, want.den)
    assert got == want and hash(got) == hash(want)
    assert got.den > 0 and gcd(got.den, *(x for r in got.num for x in r)) == 1
    assert got.rows == tuple(map(tuple, want_rows))


def columns_as_rows(cols, nrows):
    return [[c[i] for c in cols] for i in range(nrows)]


@pytest.mark.parametrize("kind", FORM_KINDS)
@pytest.mark.parametrize("trial", range(8))
def test_qmat_stored_form_matches_fraction_oracles(rng, kind, trial):
    from gaugeworks.exactlinalg import block_diag, kron
    reseed(rng, "form", kind, trial)
    m, n, w = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 4)
    m, n = [(0, n), (m, 0), (0, 0)][trial] if trial < 3 else (m, n)
    A, B = form_rows(rng, kind, m, n), form_rows(rng, kind, m, n)
    C, R, V = form_rows(rng, kind, n, w), form_rows(rng, kind, m, w), form_rows(rng, kind, w, n)
    S = form_rows(rng, kind, n, n)
    a, b, c, s = (QMat(A, ncols=n), QMat(B, ncols=n), QMat(C, ncols=w), QMat(S, ncols=n))
    k = rng.choice([Fraction(0), Fraction(-1), Fraction(rng.randint(-9, 9), 10 ** 40 + 1), 3])
    cols = [rng.randrange(n) for _ in range(rng.randint(0, 4))] if n else []
    picked = [rng.randrange(m) for _ in range(rng.randint(0, 4))] if m else []

    assert_holds(a @ c, oracle_q_matmul(A, C, w), w)
    assert_holds(a + b, [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(A, B)], n)
    assert_holds(a - b, [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(A, B)], n)
    assert_holds(a - a, [[0] * n for _ in A], n)
    assert_holds(-a, [[-x for x in r] for r in A], n)
    assert_holds(a.scale(k), [[k * x for x in r] for r in A], n)
    assert_holds(a.hstack(QMat(R, ncols=w)), [r1 + r2 for r1, r2 in zip(A, R)], n + w)
    assert_holds(a.vstack(QMat(V, ncols=n)), A + V, n)
    assert_holds(a.take_rows(picked), [A[i] for i in picked], n)
    assert_holds(a.take_cols(cols), [[r[j] for j in cols] for r in A], len(cols))
    assert_holds(a.transpose(), [[r[j] for r in A] for j in range(n)], m)
    assert_holds(kron(a, c), [[x * y for x in ra for y in rc] for ra in A for rc in C], n * w)
    assert_holds(block_diag(a, c), [r + [0] * w for r in A] + [[0] * n + r for r in C], n + w)

    red, pivots = oracle_q_rref(A, n)
    got, got_pivots = a.rref()
    assert got_pivots == pivots
    assert_holds(got, red, n)
    assert a.rank() == len(pivots)
    assert_holds(a.column_space_basis(), [[r[j] for j in pivots] for r in A], len(pivots))
    assert_holds(a.kernel(), columns_as_rows(oracle_kernel(red, pivots, n), n),
                 n - len(pivots))
    for target in (oracle_q_matmul(A, C, w), R):
        joined, jpivots = oracle_q_rref([r + t for r, t in zip(A, target)], n + w)
        got = a.solve(QMat(target, ncols=w))
        if jpivots and jpivots[-1] >= n:
            assert got is None and target is R
            continue
        want = [[0] * w for _ in range(n)]
        for r, c_ in enumerate(jpivots):
            want[c_] = joined[r][n:]
        assert_holds(got, want, w)

    assert s.det() == oracle_q_det(S)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    inv, ipivots = oracle_q_rref([r + e for r, e in zip(S, ident)], 2 * n)
    if ipivots[:n] == list(range(n)):
        assert_holds(s.inverse(), [r[n:] for r in inv], n)
    else:
        with pytest.raises(ValueError, match="matrix is singular"):
            s.inverse()


@pytest.mark.parametrize("kind", FORM_KINDS)
def test_qmat_equality_and_hash_agree_with_fraction_rows(rng, kind):
    reseed(rng, "equality", kind)
    for _ in range(20):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        A = form_rows(rng, kind, m, n)
        a = QMat(A, ncols=n)
        # the same entries by other routes
        routes = [a.scale(3).scale(Fraction(1, 3)), a + QMat.zeros(m, n), -(-a),
                  a.transpose().transpose(), QMat.identity(m) @ a, a @ QMat.identity(n),
                  a.hstack(QMat.zeros(m, 0)), QMat.zeros(0, n).vstack(a),
                  a.take_cols(range(n)), QMat([[str(x) for x in r] for r in A], ncols=n)]
        for other in routes:
            assert other == a and hash(other) == hash(a) and other.rows == a.rows
        # the same shape with entries drawn from a small set, so that some agree
        B = [[rng.choice([x, x + 1, Fraction(1, 2)]) for x in r] for r in A]
        b = QMat(B, ncols=n)
        assert (a == b) == (A == B)
        assert (a != b) == (A != B)
        if A == B:
            assert hash(a) == hash(b)
    for m, n in [(0, 2), (2, 0), (1, 1)]:
        assert QMat.zeros(m, n) != QMat.zeros(m + 1, n) and QMat.zeros(m, n) != QMat.zeros(m, n + 1)
    assert QMat([[Fraction(1, 2)]]) != QMat([[Fraction(1, 3)]]) != QMat([[1]])


# ---------------------------------------------------------------------------
# FpMat's mod-p kernels against the plain-int oracles
# ---------------------------------------------------------------------------

FP_PRIMES = [2, 3, 101, 2 ** 61 - 1]


def fp_solve_oracle(p, rows, b_rows, n, w):
    """One solution of A X = B read off rref([A | B]), or None."""
    joined, pivots = oracle_fp_rref(p, [r + b for r, b in zip(rows, b_rows)], n + w)
    if pivots and pivots[-1] >= n:
        return None
    want = [[0] * w for _ in range(n)]
    for r, c in enumerate(pivots):
        want[c] = joined[r][n:]
    return FpMat(p, want, ncols=w)


@pytest.mark.parametrize("p", FP_PRIMES)
@pytest.mark.parametrize("trial", range(12))
def test_fpmat_kernels_match_int_oracles(rng, p, trial):
    reseed(rng, "fpkernels", p, trial)
    m, n = rng.randint(0, 10), rng.randint(0, 10)
    if trial % 2:
        n = m  # square: det and inverse
    elif trial in (0, 2):
        m, n = (0, n) if trial == 0 else (m, 0)
    rows = rand_rows(rng, p, m, n)
    if trial % 3 == 0:
        for i in rng.sample(range(m), m // 3):
            rows[i] = [0] * n
        for j in rng.sample(range(n), n // 3):
            for r in rows:
                r[j] = 0
    a = FpMat(p, rows, ncols=n)
    red, pivots = oracle_fp_rref(p, rows, n)
    assert a.rref() == (FpMat(p, red, ncols=n), pivots)
    assert a.rank() == len(pivots)
    assert a.kernel() == FpMat.from_cols(p, oracle_kernel(red, pivots, n), n)

    w = rng.randint(0, 3)
    x = [[rng.randrange(p) for _ in range(w)] for _ in range(n)]
    consistent = oracle_fp_matmul(p, rows, x, w)
    assert a @ FpMat(p, x, ncols=w) == FpMat(p, consistent, ncols=w)
    assert FpMat.zeros(p, m, 0) @ FpMat.zeros(p, 0, w) == \
        FpMat(p, oracle_fp_matmul(p, [[]] * m, [], w), ncols=w)
    with pytest.raises(PrimeMismatchError):
        a @ FpMat(5 if p != 5 else 7, x, ncols=w)
    with pytest.raises(ValueError, match="cannot compose"):
        a @ FpMat.zeros(p, n + 1, w)
    arbitrary = [[rng.randrange(p) for _ in range(w)] for _ in range(m)]
    for b_rows in (consistent, arbitrary):
        got = a.solve(FpMat(p, b_rows, ncols=w))
        assert got == fp_solve_oracle(p, rows, b_rows, n, w)
        if got is None:
            assert b_rows is arbitrary
        else:
            assert a @ got == FpMat(p, b_rows, ncols=w)
    # A X = I is solvable exactly when A has full row rank
    assert (a.solve(FpMat.identity(p, m)) is None) == (len(pivots) < m)

    if m == n:
        assert a.is_invertible() == (oracle_fp_det(p, rows) != 0)
        if len(pivots) == n:
            ident = [[int(i == j) for j in range(n)] for i in range(n)]
            inv, _ = oracle_fp_rref(p, [r + e for r, e in zip(rows, ident)], 2 * n)
            assert a.inverse() == FpMat(p, [r[n:] for r in inv], ncols=n)
        else:
            with pytest.raises(ValueError, match="matrix is singular"):
                a.inverse()
    else:
        assert not a.is_invertible()
        with pytest.raises(ValueError, match="inverse of a non-square matrix"):
            a.inverse()


def test_fpmat_product_constructs_one_matrix(monkeypatch):
    a = FpMat(7, [[1, 2, 3], [4, 5, 6]])
    b = FpMat(7, [[1, 0], [2, 1], [0, 3]])
    want = FpMat(7, [[5, 11], [14, 23]])
    made = []
    init, trusted = FpMat.__init__, FpMat._made
    monkeypatch.setattr(FpMat, "__init__",
                        lambda self, *args, **kw: made.append("public") or init(self, *args, **kw))
    monkeypatch.setattr(FpMat, "_made",
                        staticmethod(lambda *args: made.append("trusted") or trusted(*args)))
    product = a @ b
    assert made == ["trusted"]  # one construction, no transposed copy of b
    assert product == want


def test_fpmat_product_rows_match_the_product(rng):
    for p in (2, 5, 211):
        for m, k, n in [(0, 0, 0), (2, 0, 3), (0, 3, 2), (3, 2, 0), (3, 4, 2), (4, 4, 4)]:
            a = FpMat(p, [[rng.randrange(p) for _ in range(k)] for _ in range(m)], ncols=k)
            b = FpMat(p, [[rng.randrange(p) for _ in range(n)] for _ in range(k)], ncols=n)
            rows = fpmat.product_rows(a.rows, b.rows, n, p)
            assert rows == (a @ b).rows
            assert [list(r) for r in rows] == oracle_fp_matmul(p, a.rows, b.rows, n)


# ---------------------------------------------------------------------------
# shared F_p constants
# ---------------------------------------------------------------------------


def test_fp_constants_are_one_object_per_prime_shape_and_value():
    z = FpMat.zeros(5, 2, 3)
    assert FpMat.zeros(5, 2, 3) is z and z == FpMat(5, [[0] * 3] * 2)
    assert FpMat.identity(7, 3) is FpMat.identity(7, 3) is FpMat.scalar(7, 3, 8)
    assert FpMat.scalar(7, 3, -1) is FpMat.scalar(7, 3, 6)
    assert FpMat.scalar(7, 3, 7) is FpMat.zeros(7, 3, 3)
    distinct = [FpMat.zeros(5, 2, 3), FpMat.zeros(7, 2, 3), FpMat.zeros(5, 3, 2),
                FpMat.zeros(5, 0, 3), FpMat.zeros(5, 3, 0), FpMat.identity(5, 3),
                FpMat.scalar(5, 3, 2), FpMat.identity(5, 2)]
    assert len({id(m) for m in distinct}) == len(distinct)
    assert [m.shape for m in distinct[3:5]] == [(0, 3), (3, 0)]
    assert FpMat.scalar(5, 3, 2) == FpMat(5, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])


def test_fp_constants_stay_immutable():
    one = FpMat.identity(5, 2)
    for name, value in [("rows", ((0, 0), (0, 0))), ("p", 7), ("ncols", 3), ("nrows", 1)]:
        with pytest.raises(AttributeError):
            setattr(one, name, value)
    assert type(one.rows) is tuple and all(type(r) is tuple for r in one.rows)
    # arithmetic on a shared constant builds a new matrix and leaves it as it was
    assert (one + one).rows == ((2, 0), (0, 2)) and (-one).rows == ((4, 0), (0, 4))
    assert one.rows == ((1, 0), (0, 1)) and FpMat.identity(5, 2) is one


def test_fp_constant_table_is_bounded():
    info = fpmat._constant.cache_info()
    assert info.maxsize == fpmat.CONSTANTS and info.currsize <= fpmat.CONSTANTS
    first = FpMat.identity(3, 1)
    for n in range(fpmat.CONSTANTS + 10):
        FpMat.zeros(3, n, 1)
    assert fpmat._constant.cache_info().currsize == fpmat.CONSTANTS
    # the least recently used key was dropped, and its constant is built again
    again = FpMat.identity(3, 1)
    assert again is not first and again == first


def test_equality_answers_identity_first(monkeypatch):
    a, q = FpMat(5, [[1, 2], [3, 4]]), QMat([[Fraction(1, 2), 3]])

    def unread(self):
        raise AssertionError("_key read for a matrix compared with itself")

    monkeypatch.setattr(FpMat, "_key", unread)
    monkeypatch.setattr(QMat, "_key", unread)
    assert a == a and not a != a and q == q and (a,) == (a,)
    with pytest.raises(AssertionError):
        a == FpMat.identity(5, 2)


# ---------------------------------------------------------------------------
# the trusted construction path against the public constructors
# ---------------------------------------------------------------------------

TRUSTED_FIELDS = [None, 2, 3, 5, 211]  # None stands for the rationals


def rebuilt(m):
    """``m`` built again through its public constructor."""
    if isinstance(m, QMat):
        return QMat(m.rows, ncols=m.ncols)
    return FpMat(m.p, m.rows, ncols=m.ncols)


def raw_rows(rng, p, m, n):
    """Entries for a public constructor: unreduced ints over F_p, mixed types over Q."""
    if p is None:
        def entry():
            return rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 6))])
    else:
        def entry():
            return rng.choice([0, 1, rng.randint(-3 * p, 3 * p)])
    return [[entry() for _ in range(n)] for _ in range(m)]


@pytest.mark.parametrize("p", TRUSTED_FIELDS)
@pytest.mark.parametrize("trial", range(10))
def test_every_kernel_result_equals_its_public_rebuild(rng, p, trial):
    from gaugeworks.exactlinalg import block_diag, fp_kron, kron
    reseed(rng, "trusted", p, trial)
    m, n, w = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 3)
    m, n = [(0, n), (m, 0), (0, 0)][trial] if trial < 3 else (m, n)
    a = mat(p, raw_rows(rng, p, m, n), ncols=n)
    b = mat(p, raw_rows(rng, p, m, n), ncols=n)
    c = mat(p, raw_rows(rng, p, n, w), ncols=w)
    right = mat(p, raw_rows(rng, p, m, w), ncols=w)
    below = mat(p, raw_rows(rng, p, w, n), ncols=n)
    k = rng.choice([0, 1, -1, rng.randint(-500, 500)])
    cols = [rng.randrange(n) for _ in range(rng.randint(0, 4))] if n else []
    rows = [rng.randrange(m) for _ in range(rng.randint(0, 4))] if m else []
    results = {
        "rref": a.rref()[0], "@": a @ c, "transpose": a.transpose(),
        "hstack": a.hstack(right), "vstack": a.vstack(below),
        "take_cols": a.take_cols(cols), "take_rows": a.take_rows(rows),
        "solve": a.solve(right), "solve_consistent": a.solve(a @ c),
        "+": a + b, "-": a - b, "neg": -a, "scale": a.scale(k),
        "kron": kron(a, c) if p is None else fp_kron(a, c),
        "kernel": a.kernel(), "block_diag": block_diag(a, c),
        "column_space_basis": a.column_space_basis(), "power0": (a @ a.transpose()).power(0),
        "zeros": QMat.zeros(m, n) if p is None else FpMat.zeros(p, m, n),
        "scalar": QMat.scalar(n, k) if p is None else FpMat.scalar(p, n, k),
        "identity": eye(p, n),
    }
    if m == n and a.is_invertible():
        results["inverse"] = a.inverse()
    assert results["solve_consistent"] is not None
    for name, got in results.items():
        if name == "solve" and got is None:
            continue
        # int rows equal to the rebuild's reduced ones lie in [0, p)
        assert_same_matrix(got, rebuilt(got), Fraction if p is None else int)


@pytest.mark.parametrize("p", [2, 3, 5, 211])
def test_public_fpmat_constructor_reduces_and_checks(p):
    a = FpMat(p, [[-1, p, 2 * p + 3, p + 1]])
    assert a.rows == ((p - 1, 0, 3 % p, 1),)
    assert all(type(x) is int for x in a.rows[0])
    assert FpMat(p, [], ncols=4).shape == (0, 4) and FpMat(p, [[]] * 2).shape == (2, 0)
    assert FpMat.scalar(p, 2, -1) == FpMat(p, [[-1, 0], [0, -1]])
    with pytest.raises(ValueError, match="ragged rows"):
        FpMat(p, [[1, 2], [3]])
    with pytest.raises(ValueError, match="ncols=3 but rows have width 2"):
        FpMat(p, [[1, 2]], ncols=3)


def test_public_qmat_constructor_wraps_and_checks():
    a = QMat([[1, "1/2", Fraction(2, 4), "-3"]])
    assert a.rows == ((1, Fraction(1, 2), Fraction(1, 2), -3),)
    assert all(type(x) is Fraction for x in a.rows[0])
    assert QMat([], ncols=4).shape == (0, 4) and QMat([[]] * 2).shape == (2, 0)
    assert all(type(x) is Fraction for r in QMat.diagonal([2, "1/3"]).rows for x in r)
    with pytest.raises(ValueError, match="ragged rows"):
        QMat([[1, 2], [3]])
    with pytest.raises(ValueError, match="ncols=1 but rows have width 2"):
        QMat([[1, 2]], ncols=1)


# ---------------------------------------------------------------------------
# one rule per kind of entry: rational, F_p and integer
# ---------------------------------------------------------------------------

# (value, the job reader's message for a rational entry, or None if it reads one)
ENTRIES = [(0, None), (3, None), (-7, None), (10 ** 30, None), (Fraction(3, 4), None),
           (Fraction(-6, 4), None), ("3/4", None), ("-2", None), ("-4/6", None),
           (True, "expected a rational string, got True"),
           (0.5, "expected a rational string, got 0.5"),
           (0.1, "expected a rational string, got 0.1"),
           (Decimal("0.1"), "expected a rational string, got Decimal('0.1')"),
           (None, "expected a rational string, got None"),
           ([1], "expected a rational string, got [1]"),
           ("1.5", "not a rational literal: '1.5'"),
           (" 2", "not a rational literal: ' 2'"),
           ("1e3", "not a rational literal: '1e3'")]
ENTRY_IDS = [repr(x) for x, _ in ENTRIES]


@pytest.mark.parametrize("x, message", ENTRIES, ids=ENTRY_IDS)
def test_one_rule_reads_a_rational_entry_or_scalar(x, message):
    reads = {"QMat": lambda: QMat([[x, "1/6"]]).num, "diagonal": lambda: QMat.diagonal([x]),
             "scale": lambda: QMat([["1/6"]]).scale(x), "apply": lambda: QMat.identity(1).apply([x]),
             "rational_entry": lambda: rationals.rational_entry(x)}
    if message is not None:
        for name, read in reads.items():
            with pytest.raises(ValueError) as err:
                read()
            assert str(err.value) == message, name
        return
    want = Fraction(x)  # what each of them read before the one rule
    d = lcm(want.denominator, 6)
    assert QMat([[x, "1/6"]]).num == ((want.numerator * (d // want.denominator), d // 6),)
    assert QMat([[x, "1/6"]]).den == d
    diag = QMat.diagonal([x])
    assert (diag.num, diag.den) == (((want.numerator,),), want.denominator)
    assert QMat([["1/6"]]).scale(x) == QMat([[want / 6]])
    assert QMat.identity(1).apply([x]) == (want,)
    assert rationals.rational_entry(x) == (want.numerator, want.denominator)


@pytest.mark.parametrize("x, message", ENTRIES, ids=ENTRY_IDS)
def test_one_rule_reads_an_entry_over_fp_and_an_integer(x, message):
    p = 5
    reads = {"FpMat": lambda: FpMat(p, [[1, x]]), "scale": lambda: FpMat(p, [[1]]).scale(x),
             "scalar": lambda: FpMat.scalar(p, 2, x)}
    if type(x) is not int:
        for name, read in reads.items():
            with pytest.raises(ValueError) as err:
                read()
            assert str(err.value) == "expected an integer mod p", name
        with pytest.raises(ValueError) as err:
            rationals.exact_int(x)
        assert str(err.value) == f"expected an integer, got {x!r}"
        return
    r = x % p  # what each of them read before: int(x) % p
    assert FpMat(p, [[1, x]]).rows == ((1, r),)
    assert FpMat(p, [[1]]).scale(x).rows == ((r,),)
    assert FpMat.scalar(p, 2, x).rows == ((r, 0), (0, r))
    assert rationals.exact_int(x) is x


def test_no_entry_is_truncated_to_an_int():
    # each of these once read int(x): 1/2 as 0, 2.7 as 2, "3" as 3 and True as 1
    for x in (Fraction(1, 2), 2.7, "3", True):
        with pytest.raises(ValueError, match="expected an integer mod p"):
            FpMat(5, [[x]])
    with pytest.raises(ValueError, match="expected an integer mod p"):
        FpMat.scalar(5, 2, 2.9)
    assert QMat([["1/2"]]).den == 2
    with pytest.raises(ValueError, match="expected a rational string, got 0.1"):
        QMat([[0.1]])  # once 3602879701896397 / 2^55


@pytest.mark.parametrize("x, message", ENTRIES, ids=ENTRY_IDS)
def test_valuation_and_printing_read_their_argument_by_the_one_rule(x, message):
    p = 2
    reads = {"vp": lambda: rationals.vp(x, p), "is_p_local": lambda: rationals.is_p_local(x, p),
             "unit_part": lambda: rationals.unit_part(x, p),
             "format_rational": lambda: rationals.format_rational(x)}
    if message is not None:
        for name, read in reads.items():
            with pytest.raises(ValueError) as err:
                read()
            assert str(err.value) == message, name
        return
    want = Fraction(x)  # what each of them read before the one rule
    assert rationals.is_p_local(x, p) == (want.denominator % p != 0)
    assert rationals.format_rational(x) == str(want)
    if want == 0:
        assert rationals.vp(x, p) is rationals.INF
        with pytest.raises(ValueError, match="zero has no unit part"):
            rationals.unit_part(x, p)
        return
    v = 0
    while (want / Fraction(p) ** v).numerator % p == 0:
        v += 1
    while (want / Fraction(p) ** v).denominator % p == 0:
        v -= 1
    assert rationals.vp(x, p) == v
    assert rationals.unit_part(x, p) == want / Fraction(p) ** v


def test_module_map_diagonal_reads_one_integer_per_generator():
    m = FGModule(3, 1, (2,))
    assert ModuleMap.diagonal(m, [3, -1]).rows == ((3, 0), (0, -1))
    for bad in ([Fraction(1, 2), 0.5], [1, Fraction(2)], [True, 1], [1, "3"]):
        with pytest.raises(ValueError, match="expected an integer, got"):
            ModuleMap.diagonal(m, bad)
    for wrong in ([3], [3, 1, 1]):
        with pytest.raises(ValueError, match="need 2 diagonal entries"):
            ModuleMap.diagonal(m, wrong)


@pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(2), "2", True, None], ids=repr)
def test_integer_fields_are_read_by_one_rule(bad):
    # sizes, exponents and degrees: each once went through int(), so
    # FGModule(3, 0, (1.5, 2.9)) was Z/3^1 + Z/3^2
    g = bk_reduced(1, 3)
    one = FpMat.zeros(3, 0, 1)
    builds = [lambda: FGModule(3, 0, (1, bad)), lambda: FGModule(3, bad),
              lambda: FilteredSpace(0, 0, (bad,), ()),
              lambda: A1Module(3, 0, 0, (bad,), (), ()),
              lambda: GradedThetaModule(3, {0: bad}, {}),
              lambda: GradedThetaModule(3, {bad: 1}, {}),
              lambda: GradedThetaModule(3, {0: 1}, {bad: one}),
              lambda: GradedHiggsModule(3, 1, {0: bad}, {}),
              lambda: GradedHiggsModule(3, 1, {bad: 1}, {}),
              lambda: GradedHiggsModule(3, 1, {0: 1}, {1: {bad: one}}),
              lambda: ReducedFGauge(htc=g.htc, drp=g.drp, alpha_dr=g.alpha_dr,
                                    alpha_hod={bad: next(iter(g.alpha_hod.values()))})]
    for k, build in enumerate(builds):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == f"expected an integer, got {bad!r}", k


def lawful_map(rng, p, src, tgt):
    """A random map ``src -> tgt`` whose matrix respects the torsion orders."""
    rows = []
    for i in range(tgt.ngens):
        f = tgt.order_exponent(i)
        row = []
        for j in range(src.ngens):
            e = src.order_exponent(j)
            x = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 4]) if p != 2 else 5)
            if e is not None and f is None:
                x = 0
            elif e is not None and f > e:
                x *= p ** (f - e)
            row.append(x)
        rows.append(row)
    return ModuleMap(src, tgt, QMat(rows, ncols=src.ngens))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("trial", range(8))
def test_trusted_module_maps_pass_the_public_laws(rng, p, trial):
    reseed(rng, "maps", p, trial)

    def module():
        return FGModule(p, rng.randint(0, 2), tuple(sorted(rng.randint(1, 3)
                                                           for _ in range(rng.randint(0, 3)))))
    a, b, c = module(), module(), module()
    f, g = lawful_map(rng, p, a, b), lawful_map(rng, p, b, c)
    f2 = lawful_map(rng, p, a, b)
    k = rng.randint(-9, 9) * p ** rng.randint(0, 2)
    made = (composite(a, c, (f, g), k), composite(a, a, (), k),
            ModuleMap.diagonal(a, [1] * a.ngens),
            ModuleMap.diagonal(b, [rng.randint(-9, 9) for _ in range(b.ngens)]),
            f - f2, f - f, f.direct_sum(g))
    for got in made:
        assert got == ModuleMap(got.source, got.target, got.matrix)
    # against the Fraction route: the composite, the difference, the block sum
    assert made[0] == compose(scalar(c, k), compose(g, f))
    assert made[4].matrix == f.matrix - f2.matrix and made[5].matrix.is_zero()
    rf, rg = _sum_positions(b, c)
    cf, cg = _sum_positions(a, b)
    m = made[6].matrix
    assert m.take_rows(rf).take_cols(cf) == f.matrix and m.take_rows(rg).take_cols(cg) == g.matrix
    assert m.take_rows(rf).take_cols(cg).is_zero() and m.take_rows(rg).take_cols(cf).is_zero()


def _sum_positions(m1, m2):
    """Where the generators of m1 and of m2 sit in m1 (+) m2: the free ones
    first, m1's before m2's, then the torsion ones by exponent, m1's first
    on ties."""
    free = m1.free_rank + m2.free_rank
    tors = sorted([(e, 0, k) for k, e in enumerate(m1.torsion)] +
                  [(e, 1, k) for k, e in enumerate(m2.torsion)])
    at = {(w, k): free + n for n, (_, w, k) in enumerate(tors)}
    return (list(range(m1.free_rank)) + [at[0, k] for k in range(len(m1.torsion))],
            list(range(m1.free_rank, free)) + [at[1, k] for k in range(len(m2.torsion))])


@pytest.mark.parametrize("p", FIELDS)
def test_power_matches_repeated_products(rng, p):
    reseed(rng, "power", p)
    for a in (mat(p, rand_rows(rng, p, 4, 4), ncols=4),
              mat(p, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])):
        naive = eye(p, a.nrows)
        for k in range(71):
            assert a.power(k) == naive, k
            naive = naive @ a


@pytest.mark.parametrize("p", FIELDS)
def test_power_uses_at_most_two_products_per_bit(monkeypatch, p):
    cls = QMat if p is None else FpMat
    a = mat(p, [[0, -1, 0], [0, 0, 1], [1, 0, 0]])  # a signed permutation
    order = next(k for k in range(1, 13) if a.power(k) == eye(p, 3))
    products = []
    matmul = cls.__matmul__
    monkeypatch.setattr(cls, "__matmul__", lambda x, y: products.append(1) or matmul(x, y))
    for k in (0, 1, 2, 3, 7, 8, 70, 101, 1013, 100003):
        want = a.power(k % order)
        products.clear()
        assert a.power(k) == want
        assert len(products) <= 2 * k.bit_length(), k


SHARED_METHODS = [
    "transpose", "__add__", "__sub__", "__neg__", "scale", "__matmul__",
    "hstack", "vstack", "take_cols", "take_rows", "rref", "rank", "kernel",
    "solve", "column_space_basis", "inverse", "is_invertible", "power",
    "__eq__", "__hash__",
]  # QMat's own det is guarded by test_tracer_names


@pytest.mark.parametrize("cls", [QMat, FpMat])
def test_dense_methods_are_bound_on_each_class(cls):
    # the benchmark tracer patches each class's own __dict__ entry
    for name in SHARED_METHODS + ["__init__"]:
        assert name in vars(cls), name


def test_module_level_matrix_functions_are_distinct_objects():
    # the benchmark tracer rebinds module functions by identity
    from gaugeworks.exactlinalg import fp_kron, fp_span_union, kron, span_union
    assert kron is not fp_kron and span_union is not fp_span_union


# ---------------------------------------------------------------------------
# quotient projections, QMat's vector helpers, and module map sums
# ---------------------------------------------------------------------------


def quotient_basis(rng, p, trial):
    """An m x k basis over F_p: m = 0, k = 0, full rank, or dependent columns."""
    m = 0 if trial == 0 else rng.randint(1, 6)
    if trial == 1:
        return FpMat(p, [[]] * m, ncols=0)
    if trial == 2:
        return rand_fp_invertible(rng, p, m)
    rows = rand_rows(rng, p, m, rng.randint(1, 6))
    for row in rows:  # one more column, the sum of the first two
        row.append(row[0] + row[min(1, len(row) - 1)])
    return FpMat(p, rows)


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("trial", range(10))
def test_quotient_projection_meets_its_contract(rng, p, trial):
    from gaugeworks.exactlinalg import quotient_projection
    reseed(rng, "quotient", p, trial)
    basis = quotient_basis(rng, p, trial)
    m, k = basis.shape
    rows = [list(r) for r in basis.rows]
    r = oracle_fp_rank(p, rows)
    pi, sigma = quotient_projection(basis)
    q = m - r
    assert pi.shape == (q, m) and sigma.shape == (m, q)
    pi_rows, sigma_rows = [list(x) for x in pi.rows], [list(x) for x in sigma.rows]
    assert oracle_fp_matmul(p, pi_rows, rows, k) == [[0] * k] * q
    assert oracle_fp_rank(p, pi_rows) == q
    assert oracle_fp_matmul(p, pi_rows, sigma_rows, q) == [[int(i == j) for j in range(q)]
                                                           for i in range(q)]
    _, pivots = oracle_fp_rref(p, [list(c) for c in zip(*rows)], m)
    for j in range(q):
        col = [row[j] for row in sigma_rows]
        assert sorted(col) == [0] * (m - 1) + [1]
        assert col.index(1) not in pivots
    if trial == 2:
        assert q == 0


def frac_vector(rng, n):
    return [Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 7])) for _ in range(n)]


@pytest.mark.parametrize("trial", range(12))
def test_qmat_apply_matches_the_fraction_sum(rng, trial):
    reseed(rng, "apply", trial)
    m, n = rng.randint(0, 5), rng.randint(0, 5) if trial else 0
    rows = [frac_vector(rng, n) for _ in range(m)]
    a, v = QMat(rows, ncols=n), frac_vector(rng, n)
    want = tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in rows)
    assert a.apply(v) == want
    assert a.apply([str(x) for x in v]) == want
    with pytest.raises(ValueError, match="vector of wrong length"):
        a.apply(v + [1])


@pytest.mark.parametrize("trial", range(12))
def test_qmat_in_column_span_matches_the_oracle_rank(rng, trial):
    reseed(rng, "span", trial)
    m, n = rng.randint(1, 5), rng.randint(0, 4) if trial else 0
    rows = rand_rows(rng, None, m, n)
    a = QMat(rows, ncols=n)
    inside = [x[0] for x in oracle_q_matmul(rows, [[x] for x in frac_vector(rng, n)], 1)]
    assert a.in_column_span(inside)
    assert a.in_column_span([0] * m)
    v = frac_vector(rng, m)
    r = oracle_q_rank(rows)
    assert a.in_column_span(v) == (oracle_q_rank([row + [x] for row, x in zip(rows, v)]) == r)
    if r < m:
        # e_f at a non-pivot coordinate f of rref(a^T) is zero at every pivot
        # coordinate, so it is off the row space of a^T, the span of a
        _, pivots = oracle_q_rref([list(c) for c in zip(*rows)], m)
        f = next(j for j in range(m) if j not in pivots)
        assert not a.in_column_span([int(j == f) for j in range(m)])
    with pytest.raises(ValueError):
        a.in_column_span([0] * (m + 1))


def map_over(rng, p, src, tgt, den):
    """A lawful map ``src -> tgt`` stored over exactly ``den``: entry (0, 0) is free
    to free and has ``den`` as its denominator."""
    rows = []
    for i in range(tgt.ngens):
        f = tgt.order_exponent(i)
        row = []
        for j in range(src.ngens):
            e = src.order_exponent(j)
            x = Fraction(rng.randint(-20, 20), den)
            if e is not None and f is None:
                x = 0
            elif e is not None and f > e:
                x *= p ** (f - e)
            row.append(x)
        rows.append(row)
    rows[0][0] = Fraction(rng.randint(-20, 20) * den + 1, den)
    got = ModuleMap(src, tgt, QMat(rows, ncols=src.ngens))
    assert got.den == den
    return got


def map_fractions(f):
    return [[Fraction(x, f.den) for x in r] for r in f.rows]


def assert_canonical(f, want):
    """``f`` holds the Fraction rows ``want`` in the one stored form."""
    assert map_fractions(f) == want
    assert f.den == lcm(*(x.denominator for r in want for x in r))
    assert gcd(f.den, *(x for r in f.rows for x in r)) == 1


# p-unit denominators whose lcm is below their product
UNIT_DENS = [(5, 6, 21), (7, 10, 15), (2, 15, 35)]


@pytest.mark.parametrize("p, d1, d2", UNIT_DENS)
@pytest.mark.parametrize("trial", range(4))
def test_module_map_difference_matches_fraction_oracles(rng, p, d1, d2, trial):
    reseed(rng, "mapsub", p, trial)
    src, tgt = FGModule(p, 1 + trial % 2, (1, 2)), FGModule(p, 2, (1,) * (trial % 3))
    f, g = map_over(rng, p, src, tgt, d1), map_over(rng, p, src, tgt, d2)
    want = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(map_fractions(f),
                                                               map_fractions(g))]
    diff = f - g
    assert (diff.source, diff.target) == (src, tgt)
    assert_canonical(diff, want)
    assert (f - f).den == 1 and not any(map(any, (f - f).rows))
    other = FGModule(p, 3, (2,))  # neither src nor tgt
    for h in (map_over(rng, p, other, tgt, d2), map_over(rng, p, src, other, d2)):
        with pytest.raises(ValueError, match="can only subtract parallel maps"):
            f - h


@pytest.mark.parametrize("p, d1, d2", UNIT_DENS)
@pytest.mark.parametrize("trial", range(4))
def test_module_map_block_sum_matches_fraction_oracles(rng, p, d1, d2, trial):
    reseed(rng, "mapsum", p, trial)
    a, b = FGModule(p, 1, (2,) * (trial % 2) + (3,)), FGModule(p, 1 + trial % 2, (1, 3))
    c, d = FGModule(p, 2, (1,)), FGModule(p, 1, (2,) * (trial % 3))
    f, g = map_over(rng, p, a, b, d1), map_over(rng, p, c, d, d2)
    total = f.direct_sum(g)
    assert (total.source, total.target) == (a.direct_sum(c), b.direct_sum(d))
    want = [[Fraction(0)] * total.source.ngens for _ in range(total.target.ngens)]
    for h, (rs, cs) in ((f, (_sum_positions(b, d)[0], _sum_positions(a, c)[0])),
                        (g, (_sum_positions(b, d)[1], _sum_positions(a, c)[1]))):
        for i, row in zip(rs, map_fractions(h)):
            for j, x in zip(cs, row):
                want[i][j] = x
    assert_canonical(total, want)
    assert total.den == lcm(d1, d2)
