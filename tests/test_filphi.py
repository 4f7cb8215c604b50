"""Filtered Frobenius modules: derived Hom, twists, admissibility, tensor."""

from collections import Counter
from fractions import Fraction

import pytest

from conftest import (count_calls, oracle_q_det, oracle_q_rank, oracle_q_two_term,
                      oracle_rational_roots, oracle_snf, qmat_rows, rand_filtered_phi,
                      rand_qmat, twist_sum_square)
from gaugeworks.cli import build_filphi
from gaugeworks.errors import LawViolation, NonHonestFiltrationError
from gaugeworks.exactlinalg import QMat, kron, span_union, vp
from gaugeworks import filphi
from gaugeworks.filphi import (Admissibility, FilteredPhiModule,
                               FilteredSpace, PhiModule, dual, hodge_number,
                               internal_hom, is_weakly_admissible,
                               newton_number, rhom_mfphi,
                               rhom_mfphi_two_term, rhom_phi, tate, tensor)


def two_term_oracle(d: FilteredPhiModule):
    """Brute-force kernel/cokernel of Fil^0 -> underlying, (1 - phi) iota."""
    iota = d.fil0_iota
    phi = d.frobenius
    rows = [[iota[i, j] - sum(phi[i, k] * iota[k, j] for k in range(d.dim))
             for j in range(iota.ncols)] for i in range(d.dim)]
    return oracle_q_two_term(rows, d.dim, iota.ncols)


# ---------------------------------------------------------------------------
# rhom_phi
# ---------------------------------------------------------------------------


def test_rhom_phi_identity():
    m = PhiModule(3, QMat([[1]]))
    assert rhom_phi(m).dims == (1, 1)  # phi - 1 = 0


def test_rhom_phi_times_p():
    m = PhiModule(3, QMat([[3]]))
    assert rhom_phi(m).dims == (0, 0)  # 1 - p is a nonzero rational


def test_rhom_phi_rotation():
    # det(phi - 1) = 1 - p != 0, by direct determinant
    phi = QMat([[0, 3], [1, 0]])
    assert (phi - QMat.identity(2)).det() == 1 - 3
    assert rhom_phi(PhiModule(3, phi)).dims == (0, 0)


def test_rhom_phi_returns_bases():
    m = PhiModule(3, QMat([[1, 1], [0, 3]]))
    r = rhom_phi(m)
    assert r.h0_basis.ncols == r.h0
    d = m.frobenius - QMat.identity(2)
    assert (d @ r.h0_basis).is_zero()


# ---------------------------------------------------------------------------
# twists
# ---------------------------------------------------------------------------


def test_tate_unit_object():
    t0 = tate(0, 3)
    assert t0.dim == 1 and t0.frobenius == QMat([[1]])
    assert t0.filtration.dim_at(0) == 1 and t0.filtration.dim_at(1) == 0


def test_tate_group_law():
    assert tensor(tate(1, 3), tate(-1, 3)) == tate(0, 3)
    assert tensor(tate(2, 3), tate(3, 3)) == tate(5, 3)


def test_tate_numerical_invariants():
    for n in range(-6, 7):
        t = tate(n, 3)
        assert newton_number(t) == -n
        assert hodge_number(t) == -n


@pytest.mark.parametrize("n,expected", [(0, (1, 1))] +
                         [(n, (0, 1)) for n in range(1, 6)] +
                         [(n, (0, 0)) for n in range(-5, 0)])
def test_tate_rhom_table(n, expected):
    t = tate(n, 3)
    assert two_term_oracle(t) == expected  # independent brute-force oracle
    assert rhom_mfphi(t).dims == expected
    assert rhom_mfphi_two_term(t).dims == expected


# ---------------------------------------------------------------------------
# rhom_mfphi: two formulas, Euler characteristic, degree concentration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trial", range(60))
def test_rhom_mfphi_routes_agree(rng, trial):
    p = rng.choice([3, 5])
    d = rand_filtered_phi(rng, p)
    via_total = rhom_mfphi(d)
    via_two_term = rhom_mfphi_two_term(d)
    assert via_total.dims == via_two_term.dims == two_term_oracle(d)
    # H0 agrees as a subspace of the underlying space
    a = via_total.h0_in_underlying
    b = via_two_term.h0_in_underlying
    joint = a.hstack(b)
    assert oracle_q_rank(qmat_rows(joint)) == oracle_q_rank(qmat_rows(a)) \
        == oracle_q_rank(qmat_rows(b))


@pytest.mark.parametrize("honest", [True, False])
def test_rhom_mfphi_kernel_is_the_one_of_either_row_order(rng, honest):
    # rhom_mfphi eliminates the rows [1 | -iota] first; the RREF, hence the
    # kernel read off it, is the one of the former order [phi - 1 | 0] first
    for n in (2, 3, 5, 8, 12):
        for p in (3, 5):
            payload, _ = twist_sum_square(rng, p, n, honest)
            d = build_filphi(p, payload)
            iota, f0 = d.fil0_iota, d.fil0_dim()
            top = (d.frobenius - QMat.identity(n)).hstack(QMat.zeros(n, f0))
            ker = top.vstack(QMat.identity(n).hstack(iota.scale(-1))).kernel()
            r = rhom_mfphi(d)
            assert r.h0 == ker.ncols and r.h1 == 2 * n - (n + f0 - ker.ncols)
            assert r.h0_in_underlying == ker.take_rows(list(range(n)))
            assert r.h0_basis == ker.take_rows(list(range(n, n + f0)))


@pytest.mark.parametrize("trial", range(60))
def test_rhom_mfphi_euler_characteristic(rng, trial):
    d = rand_filtered_phi(rng, 3)
    r = rhom_mfphi(d)
    assert r.h0 - r.h1 == d.fil0_dim() - d.dim
    assert r.h0 >= 0 and r.h1 >= 0  # concentrated in degrees 0 and 1


# ---------------------------------------------------------------------------
# newton and hodge numbers
# ---------------------------------------------------------------------------


def test_split_rank_two_numbers():
    fs = FilteredSpace.from_subspaces(0, 1, [QMat.identity(2), QMat([[0], [1]])])
    d = FilteredPhiModule(3, fs, QMat([[1, 0], [0, 3]]))
    assert newton_number(d) == 1 and hodge_number(d) == 1


@pytest.mark.parametrize("trial", range(25))
def test_numbers_additive_in_direct_sums(rng, trial):
    d1 = rand_filtered_phi(rng, 3, max_dim=3, honest=True)
    d2 = rand_filtered_phi(rng, 3, max_dim=3, honest=True)
    s = d1.direct_sum(d2)
    assert newton_number(s) == newton_number(d1) + newton_number(d2)
    assert hodge_number(s) == hodge_number(d1) + hodge_number(d2)


def test_hodge_number_rejects_non_honest():
    fs = FilteredSpace(0, 1, (1, 1), (QMat([[0]]),))  # transition kills Fil^1
    d = FilteredPhiModule(3, fs, QMat([[1]]))
    with pytest.raises(NonHonestFiltrationError):
        hodge_number(d)
    r = rhom_mfphi(d)  # but cohomology is still defined
    assert r.h0 - r.h1 == d.fil0_dim() - d.dim


def rand_window(rng) -> FilteredSpace:
    """Random diagram, often non-honest: sparse transitions, wandering dims."""
    lo = rng.randint(-3, 3)
    hi = lo + rng.randint(0, 4)
    dims = [rng.randint(0, 4)]
    for _ in range(lo, hi):
        dims.append(max(0, dims[-1] + rng.choice([-2, -1, -1, 0, 0, 1])))

    def entry():
        return Fraction(rng.randint(-2, 2), rng.choice([1, 2])) if rng.random() < 0.6 else 0
    return FilteredSpace(lo, hi, tuple(dims), tuple(
        QMat([[entry() for _ in range(dims[k + 1])] for _ in range(dims[k])],
             ncols=dims[k + 1]) for k in range(hi - lo)))


def test_is_honest_matches_the_composite_definition(rng):
    # honest means every composite iota(i) into the underlying space is injective
    verdicts = Counter()
    for _ in range(2000):
        fs = rand_window(rng)
        composite = all(fs.iota(i).rank() == fs.dim_at(i)
                        for i in range(fs.lo, fs.hi + 1))
        assert fs.is_honest() == composite
        verdicts[composite] += 1
    assert min(verdicts[True], verdicts[False]) >= 400


def test_is_honest_makes_no_matrix_products(monkeypatch, rng):
    windows = [rand_window(rng) for _ in range(50)]
    windows += [rand_filtered_phi(rng, 3, honest=True).filtration for _ in range(10)]
    products = []
    matmul = QMat.__matmul__
    monkeypatch.setattr(QMat, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    for fs in windows:
        fs.is_honest()
    assert products == []


# ---------------------------------------------------------------------------
# weak admissibility
# ---------------------------------------------------------------------------


def test_admissibility_of_twists():
    for n in range(-10, 11):
        assert is_weakly_admissible(tate(n, 3)) is Admissibility.YES


def test_admissibility_split_rank_two():
    # phi = diag(1, p), jumps at 0 and 1; the only proper phi-stable lines
    # are the two eigenlines, checked both ways
    phi = QMat([[1, 0], [0, 3]])
    fs_good = FilteredSpace.from_subspaces(0, 1, [QMat.identity(2), QMat([[0], [1]])])
    assert is_weakly_admissible(FilteredPhiModule(3, fs_good, phi)) is Admissibility.YES
    fs_bad = FilteredSpace.from_subspaces(0, 1, [QMat.identity(2), QMat([[1], [0]])])
    assert is_weakly_admissible(FilteredPhiModule(3, fs_bad, phi)) is Admissibility.NO


def test_admissibility_undecided_on_irrational_spectrum():
    # x^2 - 2 has no rational roots
    fs = FilteredSpace(0, 0, (2,), ())
    d = FilteredPhiModule(3, fs, QMat([[0, 2], [1, 0]]))
    assert is_weakly_admissible(d) is Admissibility.UNDECIDED


def test_admissibility_undecided_on_repeated_eigenvalues_clean_pass():
    # phi = identity on 2 dims, jumps arranged so the global equality holds;
    # sums of full eigenspaces pass, but lines are not enumerated: undecided
    fs = FilteredSpace.from_subspaces(0, 0, [QMat.identity(2)])
    d = FilteredPhiModule(3, fs, QMat.identity(2))
    assert is_weakly_admissible(d) is Admissibility.UNDECIDED


def test_admissibility_conclusive_violation_with_repeated_eigenvalues():
    # newton(D) = 0 + 0 but hodge = 1: global equality already fails
    fs = FilteredSpace.from_subspaces(0, 1, [QMat.identity(2), QMat([[1], [0]])])
    d = FilteredPhiModule(3, fs, QMat.identity(2))
    assert is_weakly_admissible(d) is Admissibility.NO


def _poly_times(cs, factor):
    """Coefficient list (constant first) of the product of two polynomials."""
    out = [Fraction(0)] * (len(cs) + len(factor) - 1)
    for i, a in enumerate(cs):
        for j, b in enumerate(factor):
            out[i + j] += a * b
    return out


def test_rational_roots_match_the_divisor_oracle(rng):
    # products of linear factors (zero and repeated roots included), times
    # one of the irreducible x^2 - 2, x^2 + 1, x^2 + x + 1 every other time,
    # with a rational leading term; then characteristic polynomials
    for trial in range(60):
        cs = [Fraction(rng.choice([1, -2, 3, Fraction(5, 7)]))]
        for _ in range(rng.randint(1, 4)):
            root = rng.choice([Fraction(0),
                               Fraction(rng.randint(-6, 6), rng.randint(1, 4))])
            for _ in range(rng.randint(1, 2)):
                cs = _poly_times(cs, [-root, Fraction(1)])
        if trial % 2:
            cs = _poly_times(cs, rng.choice([[-2, 0, 1], [1, 0, 1], [1, 1, 1]]))
        assert filphi._rational_roots(cs) == oracle_rational_roots(cs)
    for _ in range(30):
        char = filphi._char_poly(rand_filtered_phi(rng, 3, max_dim=3).frobenius)
        assert filphi._rational_roots(char) == oracle_rational_roots(char)


@pytest.mark.parametrize("trial", range(40))
def test_char_poly_is_det_of_t_minus_a_with_one_product_per_step(rng, trial):
    n = rng.randint(0, 7)
    a = rand_qmat(rng, rng.choice([2, 3, 5]), n, n)
    with count_calls(QMat, "__matmul__") as products:
        coeffs = filphi._char_poly(a)
    assert len(products) == n and len(coeffs) == n + 1
    rows = qmat_rows(a)
    # n + 1 distinct points fix a polynomial of degree n
    for t in (Fraction(k - 2, 3) for k in range(n + 1)):
        shifted = [[(t if i == j else 0) - x for j, x in enumerate(r)] for i, r in enumerate(rows)]
        assert sum(c * t ** k for k, c in enumerate(coeffs)) == oracle_q_det(shifted)


def test_rational_roots_of_a_linear_factor_at_a_61_bit_prime():
    p = 2 ** 61 - 1
    for n in (-3, -1, 1, 3):
        assert filphi._rational_roots([-Fraction(p) ** -n, Fraction(1)]) \
            == {Fraction(p) ** -n: 1}


def test_admissibility_rejects_non_honest():
    fs = FilteredSpace(0, 1, (1, 1), (QMat([[0]]),))
    with pytest.raises(NonHonestFiltrationError):
        is_weakly_admissible(FilteredPhiModule(3, fs, QMat([[1]])))


# ---------------------------------------------------------------------------
# tensor structure
# ---------------------------------------------------------------------------


def test_dual_of_twists():
    for n in range(-4, 5):
        assert dual(tate(n, 3)) == tate(-n, 3)


def test_internal_hom_of_twists():
    assert internal_hom(tate(2, 3), tate(5, 3)) == tate(3, 3)


@pytest.mark.parametrize("trial", range(15))
def test_tensor_newton_number(rng, trial):
    # determinant identity: newton(D1 x D2) = dim2 newton1 + dim1 newton2
    d1 = rand_filtered_phi(rng, 3, max_dim=3, honest=True)
    d2 = rand_filtered_phi(rng, 3, max_dim=3, honest=True)
    if d1.dim == 0 or d2.dim == 0:
        return
    t = tensor(d1, d2)
    assert newton_number(t) == (d2.dim * newton_number(d1)
                                + d1.dim * newton_number(d2))
    assert hodge_number(t) == (d2.dim * hodge_number(d1)
                               + d1.dim * hodge_number(d2))


def word_exponent(p: int) -> int:
    """The largest k with p^k < 2^62: the modulus p^k of the Newton sweep."""
    k = 0
    while p ** (k + 1) < 2 ** 62:
        k += 1
    return k


def flat(frob: QMat, p: int) -> FilteredPhiModule:
    return FilteredPhiModule(p, FilteredSpace(0, 0, (frob.nrows,)), frob)


def rand_frobenius(rng, p: int, n: int) -> QMat:
    """An invertible n x n rational matrix whose denominator p divides."""
    while True:
        rows = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, p, p * p)))
                 * Fraction(p) ** rng.randint(-2, 3) for _ in range(n)] for _ in range(n)]
        frob = QMat(rows)
        if frob.den % p == 0 and oracle_q_det(rows) != 0:
            return frob


def past_the_word_power(p: int, rng) -> list[QMat]:
    """Frobenius matrices near and past the sweep's modulus p^k.

    tate(k + 3) carries p^(k+3) in its denominator over an exponent-0
    numerator, so it needs no fallback; the last one has an exponent near k.
    """
    k = word_exponent(p)
    dense = rand_frobenius(rng, p, 3)
    return [tate(-(k + 3), p).frobenius, tate(k + 3, p).frobenius,
            QMat.diagonal([p ** k, 1]), dense.scale(Fraction(p) ** (k + 1)),
            QMat.diagonal([p ** (k - 1), 1, 1]) @ dense]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("trial", range(8))
def test_newton_number_matches_the_determinant_oracle(rng, p, trial):
    frob = rand_frobenius(rng, p, rng.randint(1, 6))
    assert newton_number(flat(frob, p)) == vp(oracle_q_det(qmat_rows(frob)), p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2 ** 64 - 59])
def test_newton_number_past_the_word_power(rng, p):
    for frob in past_the_word_power(p, rng) if p < 2 ** 62 else [rand_frobenius(rng, p, 3)]:
        assert newton_number(flat(frob, p)) == vp(oracle_q_det(qmat_rows(frob)), p)
    k = word_exponent(p)
    assert newton_number(tate(k + 3, p)) == -(k + 3)
    assert newton_number(tate(-(k + 3), p)) == k + 3


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_newton_builds_an_exact_det_only_for_an_exponent_past_the_word_power(
        monkeypatch, rng, p):
    # construction and two reads of newton_number: no exact det when every
    # Smith exponent of phi's integer rows is below k, exactly one otherwise
    calls = []
    det = QMat.det
    monkeypatch.setattr(QMat, "det", lambda m: calls.append(m) or det(m))
    frobs = [rand_filtered_phi(rng, p, max_dim=4).frobenius for _ in range(6)]
    frobs += [rand_frobenius(rng, p, 4)] + past_the_word_power(p, rng)
    past = 0
    for frob in frobs:
        exps = oracle_snf(QMat(frob.num), p).exponents
        calls.clear()
        d = flat(frob, p)
        assert newton_number(d) == newton_number(d)
        assert len(calls) == (1 if exps and max(exps) >= word_exponent(p) else 0)
        past += len(calls)
    assert past >= 3  # tate(-(k + 3)), diag(p^k, 1) and the dense one times p^(k + 1)


SINGULAR = [[[0]], [[1, 2], [2, 4]], [[3, 0], [0, 0]], [["1/9", "2/27"], [3, 2]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]


@pytest.mark.parametrize("rows", SINGULAR)
@pytest.mark.parametrize("p", [3, 2 ** 64 - 59])
def test_singular_frobenius_is_a_law_violation(rows, p):
    frob = QMat(rows)
    with pytest.raises(LawViolation) as err:
        flat(frob, p)
    assert str(err.value) == "the Frobenius matrix must be invertible [determinant is zero]"
    with pytest.raises(LawViolation, match="determinant is zero"):
        flat(frob.scale(p ** 40), p)  # no residue mod p^k is left: the exact det decides


@pytest.mark.parametrize("trial", range(10))
def test_dual_is_an_involution_on_numbers(rng, trial):
    d = rand_filtered_phi(rng, 3, max_dim=3, honest=True)
    dd = dual(d)
    assert newton_number(dd) == -newton_number(d)
    assert hodge_number(dd) == -hodge_number(d)
    assert dual(dd).filtration.dims == d.filtration.dims


def test_tensor_rejects_non_honest():
    fs = FilteredSpace(0, 1, (1, 1), (QMat([[0]]),))
    bad = FilteredPhiModule(3, fs, QMat([[1]]))
    with pytest.raises(NonHonestFiltrationError):
        tensor(bad, tate(0, 3))


def old_tensor(d1: FilteredPhiModule, d2: FilteredPhiModule) -> FilteredPhiModule:
    """The former tensor product, kept as an oracle: per-index basis tables
    over the window plus one index each side, read through clamped indices."""
    f1, f2 = d1.filtration, d2.filtration
    b1 = {i: f1.subspace(i) for i in range(f1.lo - 1, f1.hi + 2)}
    b2 = {i: f2.subspace(i) for i in range(f2.lo - 1, f2.hi + 2)}
    n = d1.dim * d2.dim
    lo, hi = f1.lo + f2.lo, f1.hi + f2.hi
    bases = []
    for k in range(lo, hi + 1):
        pieces = []
        for i in range(f1.lo, f1.hi + 1):
            jc = min(max(k - i, f2.lo), f2.hi + 1)
            pieces.append(kron(b1[i], b2[jc]))
        bases.append(span_union(n, pieces))
    fs = FilteredSpace.from_subspaces(lo, hi, bases)
    return FilteredPhiModule(d1.prime, fs, kron(d1.frobenius, d2.frobenius))


def old_dual(d: FilteredPhiModule) -> FilteredPhiModule:
    """The former dual, kept as an oracle alongside :func:`old_tensor`."""
    f = d.filtration
    b = {i: f.subspace(i) for i in range(f.lo - 1, f.hi + 2)}
    lo, hi = -f.hi, -f.lo
    bases = []
    for i in range(lo, hi + 1):
        jc = min(max(1 - i, f.lo), f.hi + 1)
        bases.append(b[jc].transpose().kernel())
    fs = FilteredSpace.from_subspaces(lo, hi, bases)
    return FilteredPhiModule(d.prime, fs, d.frobenius.inverse().transpose())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tensor_and_dual_match_the_clamped_tables(rng, p):
    for _ in range(70):
        d1 = rand_filtered_phi(rng, p, max_dim=3, window=(-3, 3), honest=True)
        d2 = rand_filtered_phi(rng, p, max_dim=3, window=(-3, 3), honest=True)
        assert tensor(d1, d2) == old_tensor(d1, d2)
        assert dual(d1) == old_dual(d1)


def test_dual_rejects_non_honest():
    fs = FilteredSpace(0, 1, (1, 1), (QMat([[0]]),))
    with pytest.raises(NonHonestFiltrationError):
        dual(FilteredPhiModule(3, fs, QMat([[1]])))
