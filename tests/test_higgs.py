"""Graded Higgs modules and Koszul cohomology."""

from math import comb

import pytest

from conftest import fpmat_rows, oracle_fp_rank, rand_higgs
from gaugeworks.errors import LawViolation
from gaugeworks.exactlinalg import FpMat
from gaugeworks.higgs import (GradedHiggsModule, check_higgs,
                              hodge_cohomology, koszul_differential)

P = 3


def koszul_dims(m, i):
    return [comb(m.directions, k) * m.dim_at(i - k)
            for k in range(m.directions + 1)]


def oracle_hodge(m, i):
    """Brute-force ranks of the explicit Koszul matrices."""
    d = m.directions
    diffs = [koszul_differential(m, i, k) for k in range(d)]
    ranks = [oracle_fp_rank(m.prime, fpmat_rows(df)) for df in diffs]
    dims = koszul_dims(m, i)
    out = []
    prev = 0
    for k in range(d + 1):
        r = ranks[k] if k < d else 0
        out.append((k, dims[k] - r - prev))
        prev = r
    return out


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------


def test_zero_field_is_valid():
    m = GradedHiggsModule(P, 3, {0: 2, -1: 1}, {})
    assert check_higgs(m).ok


def test_noncommuting_pair_is_invalid():
    a = FpMat(P, [[0, 1], [0, 0]])
    b = FpMat(P, [[0, 0], [1, 0]])
    with pytest.raises(LawViolation, match=r"phi_1 phi_2 != phi_2 phi_1"):
        GradedHiggsModule(P, 2, {0: 2, -1: 2, -2: 2},
                          {1: {0: a, -1: a}, 2: {0: b, -1: b}})


def test_noncommuting_pair_among_many_directions():
    # directions 7 and 31 of 40 carry fields; the 38 without one are never
    # paired, and the one violation is still found
    a = FpMat(P, [[1], [0]])
    b = FpMat(P, [[0], [1]])
    with pytest.raises(LawViolation) as err:
        GradedHiggsModule(P, 40, {0: 1, -1: 2, -2: 1},
                          {7: {0: b, -1: FpMat(P, [[1, 0]])}, 31: {0: a}})
    assert str(err.value) == "phi_7 phi_31 != phi_31 phi_7 on V_0"


def test_commuting_koszul_example_is_valid(rng):
    m = rand_higgs(rng, P, 2)
    assert check_higgs(m).ok


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------


def test_zero_field_binomial_formula():
    m = GradedHiggsModule(P, 2, {0: 1, -1: 2, -2: 1}, {})
    for i in range(-2, 3):
        expected = [(k, comb(2, k) * m.dim_at(i - k)) for k in range(3)]
        assert hodge_cohomology(m, i) == expected


def test_single_direction_identity_field():
    m = GradedHiggsModule(P, 1, {0: 1, -1: 1}, {1: {0: FpMat(P, [[1]])}})
    assert hodge_cohomology(m, 0) == [(0, 0), (1, 0)]


def test_two_direction_unit_koszul_complex():
    # V_0 = F_p, V_{-1} = F_p^2, V_{-2} = F_p with the contraction maps of
    # two commuting coordinates: the 1 -> 4 -> 1 total complex has full-rank
    # differentials; dims frozen from the brute-force rank oracle
    phi1 = {0: FpMat(P, [[1], [0]]), -1: FpMat(P, [[0, 1]])}
    phi2 = {0: FpMat(P, [[0], [1]]), -1: FpMat(P, [[1, 0]])}
    m = GradedHiggsModule(P, 2, {0: 1, -1: 2, -2: 1}, {1: phi1, 2: phi2})
    assert check_higgs(m).ok
    assert oracle_hodge(m, 0) == [(0, 0), (1, 2), (2, 0)]
    assert hodge_cohomology(m, 0) == [(0, 0), (1, 2), (2, 0)]


def test_no_directions_degenerates():
    m = GradedHiggsModule(P, 0, {4: 3}, {})
    assert hodge_cohomology(m, 4) == [(0, 3)]
    assert hodge_cohomology(m, 5) == [(0, 0)]


@pytest.mark.parametrize("trial", range(30))
def test_differential_squares_to_zero(rng, trial):
    d = rng.randint(1, 3)
    m = rand_higgs(rng, rng.choice([2, 3, 5]), d)
    for i in range(min(m.dims) - 1, max(m.dims) + d + 1):
        for k in range(d - 1):
            lhs = koszul_differential(m, i, k + 1) @ koszul_differential(m, i, k)
            assert lhs.is_zero()


@pytest.mark.parametrize("trial", range(30))
def test_euler_characteristic_identity(rng, trial):
    d = rng.randint(0, 3)
    m = rand_higgs(rng, P, d) if d else GradedHiggsModule(P, 0, {0: 2}, {})
    assert m.total_dim() <= 12
    for i in range(min(m.dims), max(m.dims) + d + 1):
        hs = hodge_cohomology(m, i)
        chi = sum((-1) ** k * h for k, h in hs)
        expected = sum((-1) ** k * comb(d, k) * m.dim_at(i - k)
                       for k in range(d + 1))
        assert chi == expected


@pytest.mark.parametrize("trial", range(15))
def test_cohomology_matches_oracle(rng, trial):
    m = rand_higgs(rng, P, rng.randint(1, 3))
    for i in range(min(m.dims), max(m.dims) + m.directions + 1):
        assert hodge_cohomology(m, i) == oracle_hodge(m, i)


def test_joint_nilpotence_is_structural(rng):
    # any monomial in the phi's longer than the total dimension vanishes:
    # compose greedily along a random word and check the zero matrix appears
    m = rand_higgs(rng, P, 2)
    bound = m.total_dim() + 1
    degrees = sorted(m.dims)
    top = degrees[-1]
    word_target = top - bound
    acc = FpMat.identity(P, m.dim_at(top))
    level = top
    for step in range(bound):
        k = (step % m.directions) + 1
        acc = m.phi(k, level) @ acc
        level -= 1
    assert acc.is_zero()


def test_degree_bookkeeping(rng):
    # H^k at weight i only sees pieces V_{i-k}; perturbing a far-away piece
    # leaves the answer alone
    m = rand_higgs(rng, P, 2)
    i = max(m.dims)
    before = hodge_cohomology(m, i)
    far = min(m.dims) - 10
    dims = dict(m.dims)
    dims[far] = 3
    bigger = GradedHiggsModule(m.prime, m.directions, dims, m.fields)
    assert hodge_cohomology(bigger, i) == before
