"""Exact linear algebra over Q, F_p and the localization Z_(p).

Public surface: rational matrices (:class:`QMat`), prime-field matrices
(:class:`FpMat`), Smith normal form over Z_(p), finitely generated modules
in normal form, and homology of two-term complexes of such modules.  Each
stored form has one owner.  ``FpMat`` owns rows of ints mod p and ``QMat``
owns integer rows over one denominator, with every method that reads or
writes an entry; ``ModuleMap`` stores the ``QMat`` form and takes its
canonical step, differences and block sums from ``QMat``.  ``dense.DenseMat``
holds what reads no entry, and ``dense.kernel_rows``/``dense.solve_rows``
the one rule that reads a kernel or a solution off an RREF.  ``SNF`` keeps
V^{-1} in the form its sweep yields, one integer row over one p-unit per
row, and builds a ``QMat`` only for :meth:`SNF.integral_basis`.
"""

from .dense import block_diag
from .fpmat import (FpMat, fp_homology_two_term, fp_kron, fp_span_union,
                    quotient_projection)
from .modules import (FGModule, ModuleMap, cokernel, homology_two_term, kernel,
                      zero_module)
from .qmat import QMat, intersect_spans, kron, span_union
from .rationals import (INF, check_prime, exact_int, format_rational, is_p_local,
                        parse_rational, rational_pair, unit_part, vp)
from .snf import SNF, kernel_over_zp, smith_normal_form

__all__ = [
    "INF", "vp", "is_p_local", "unit_part",
    "check_prime", "exact_int", "parse_rational", "rational_pair", "format_rational",
    "block_diag", "QMat", "kron", "span_union", "intersect_spans",
    "FpMat", "fp_kron", "fp_span_union", "fp_homology_two_term",
    "quotient_projection",
    "SNF", "smith_normal_form", "kernel_over_zp",
    "FGModule", "ModuleMap", "zero_module",
    "homology_two_term", "kernel", "cokernel",
]
