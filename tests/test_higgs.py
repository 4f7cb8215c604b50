"""Graded Higgs modules and Koszul cohomology."""

from math import comb

import pytest

from conftest import (count_calls, fpmat_rows, oracle_fp_rank, oracle_hodge_cohomology,
                      rand_higgs)
from gaugeworks import higgs
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
    check_higgs(m)  # raises on a violated law


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
    check_higgs(m)  # raises on a violated law


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
    check_higgs(m)  # raises on a violated law
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


@pytest.mark.parametrize("trial", range(20))
def test_cohomology_matches_the_routine_that_built_every_differential(rng, trial):
    # fields in one to three directions, then the same module with up to three
    # directions more that have none
    p = rng.choice([2, 3, 5])
    m = rand_higgs(rng, p, rng.randint(1, 3))
    padded = GradedHiggsModule(p, m.directions + rng.randint(1, 3), m.dims, m.fields)
    for mod in (m, padded):
        for i in range(min(mod.dims) - 1, max(mod.dims) + mod.directions + 2):
            assert hodge_cohomology(mod, i) == oracle_hodge_cohomology(mod, i)


def test_differentials_out_of_or_into_a_zero_piece_are_not_built(rng):
    for m in (rand_higgs(rng, P, 2), GradedHiggsModule(P, 12, {0: 2, 3: 1}, {})):
        d = m.directions
        for i in range(min(m.dims) - 1, max(m.dims) + d + 2):
            with count_calls(higgs, "koszul_differential") as built:
                hodge_cohomology(m, i)
            assert len(built) == sum(1 for k in range(d)
                                     if m.dim_at(i - k) and m.dim_at(i - k - 1))


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


def test_cohomology_builds_no_checked_matrix(monkeypatch, rng):
    # the Koszul blocks are rows of reduced matrices, so the differentials
    # take the trusted path; the rank, the zeros and the products do too
    modules = [rand_higgs(rng, p, d) for p in (2, 3, 5) for d in (1, 2, 3)]
    built = []
    init = FpMat.__init__
    monkeypatch.setattr(FpMat, "__init__",
                        lambda self, *args, **kw: built.append(args) or init(self, *args, **kw))
    for m in modules:
        for i in range(min(m.dims) - 1, max(m.dims) + m.directions + 1):
            hodge_cohomology(m, i)
    assert built == []
    FpMat(P, [[1]])  # a public construction is counted
    assert len(built) == 1
