"""Graded Higgs modules over F_p and their Koszul cohomology.

A graded Higgs module is a finitely supported collection of F_p spaces V_i
with d commuting operators phi_1, ..., phi_d, each lowering the grading by
one (the Higgs field contracted with the coordinate vector fields; the
commuting condition is the vanishing of the wedge square of the field).
Nilpotence is automatic here: any monomial in the phi's longer than the
support width passes through a zero piece.

``hodge_cohomology(m, i)`` computes the cohomology of the Koszul-type total
complex whose degree-k term is the sum over k-element subsets S of the
directions of a copy of V_{i-k}, with the signed differential

    d(v (x) e_S) = sum over j not in S of  sign(j, S) phi_j(v) (x) e_{S + j},

the sign being the parity of the insertion position.  The differential
squares to zero exactly because the phi's commute; the test suite asserts
d^2 = 0 on every randomized input rather than trusting this comment.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import LawViolation
from .exactlinalg import FpMat, check_prime, exact_int


@dataclass(frozen=True)
class GradedHiggsModule:
    """Graded pieces plus one degree-lowering operator per direction.

    ``fields[k]`` maps a grading degree i to the matrix of phi_k on V_i
    (shape dim V_{i-1} x dim V_i); missing entries mean the zero map.
    The commutator laws are checked once, here, by :func:`check_higgs`; the
    value is frozen, so :func:`hodge_cohomology` trusts it.
    """

    prime: int
    directions: int
    dims: dict   # degree -> dimension (nonzero entries only)
    fields: dict  # direction (1..d) -> {degree -> FpMat}

    def __post_init__(self):
        check_prime(self.prime)
        object.__setattr__(self, "directions", exact_int(self.directions))
        if self.directions < 0:
            raise ValueError("directions must be >= 0")
        dims = {exact_int(i): exact_int(v) for i, v in self.dims.items()}
        object.__setattr__(self, "dims", {i: v for i, v in dims.items() if v})
        if any(v < 0 for v in self.dims.values()):
            raise ValueError("piece dimensions must be >= 0")
        fields: dict = {}
        for k in range(1, self.directions + 1):
            per = {}
            for i, mat in self.fields.get(k, {}).items():
                i = exact_int(i)
                expected = (self.dim_at(i - 1), self.dim_at(i))
                if mat.shape != expected:
                    raise ValueError(
                        f"phi_{k} at degree {i} has shape {mat.shape}, "
                        f"expected {expected}")
                if not mat.is_zero():
                    per[i] = mat
            fields[k] = per
        object.__setattr__(self, "fields", fields)
        check_higgs(self)

    def dim_at(self, i: int) -> int:
        return self.dims.get(i, 0)

    def phi(self, k: int, i: int) -> FpMat:
        """phi_k restricted to V_i."""
        if not 1 <= k <= self.directions:
            raise ValueError(f"direction {k} out of range")
        got = self.fields.get(k, {}).get(i)
        if got is not None:
            return got
        return FpMat.zeros(self.prime, self.dim_at(i - 1), self.dim_at(i))

    def total_dim(self) -> int:
        return sum(self.dims.values())


def check_higgs(m: GradedHiggsModule) -> None:
    """Raise the first violated commutator law (wedge-square of the field).

    Joint nilpotence needs no separate check: monomials of length beyond the
    support width factor through a zero graded piece.  A direction without a
    field commutes with every other, so only directions with one are paired.
    """
    degrees = sorted(m.dims)
    with_field = [d for d in range(1, m.directions + 1) if m.fields[d]]
    for j, k in combinations(with_field, 2):
        for i in degrees:
            lhs = m.phi(j, i - 1) @ m.phi(k, i)
            rhs = m.phi(k, i - 1) @ m.phi(j, i)
            if lhs != rhs:
                raise LawViolation(f"phi_{j} phi_{k} != phi_{k} phi_{j} on V_{i}")


def koszul_differential(m: GradedHiggsModule, i: int, k: int) -> FpMat:
    """The map from the degree-k to the degree-(k+1) term of the complex at i.

    Term k is the direct sum over sorted k-subsets S of V_{i-k}; block
    (S -> S + {j}) is sign(j, S) phi_j on V_{i-k}.
    """
    p = m.prime
    d = m.directions
    src_subsets = list(combinations(range(1, d + 1), k))
    tgt_subsets = list(combinations(range(1, d + 1), k + 1))
    src_dim = m.dim_at(i - k)
    tgt_dim = m.dim_at(i - k - 1)
    rows = len(tgt_subsets) * tgt_dim
    cols = len(src_subsets) * src_dim
    entries = [[0] * cols for _ in range(rows)]
    tgt_index = {s: a for a, s in enumerate(tgt_subsets)}
    # each direction's block on V_{i-k} and its negation, read once; a
    # direction with no field there contributes only zeros
    blocks = {}
    for j in range(1, d + 1):
        field = m.fields[j].get(i - k)
        if field is not None:
            blocks[j] = (field.rows, (-field).rows)
    for b, s in enumerate(src_subsets):
        for j, (plus, minus) in blocks.items():
            if j in s:
                continue
            merged = tuple(sorted(s + (j,)))
            block = minus if sum(1 for x in s if x < j) % 2 else plus
            a = tgt_index[merged]
            for r in range(tgt_dim):
                entries[a * tgt_dim + r][b * src_dim:(b + 1) * src_dim] = block[r]
    # every entry is 0 or read from the rows of a field: already reduced
    return FpMat._made(p, tuple(map(tuple, entries)), cols)


def hodge_cohomology(m: GradedHiggsModule, i: int) -> list[tuple[int, int]]:
    """[(k, dim H^k)] for k = 0..d of the Koszul total complex in weight i."""
    d = m.directions
    # r[k] is the rank into term k; a differential out of or into a zero piece
    # has a shape and no entries, so it is not built
    r = [0] + [koszul_differential(m, i, k).rank() if m.dim_at(i - k) and m.dim_at(i - k - 1)
               else 0 for k in range(d)] + [0]
    return [(k, comb(d, k) * m.dim_at(i - k) - r[k] - r[k + 1]) for k in range(d + 1)]
