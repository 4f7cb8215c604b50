"""Coefficients on the reduced locus over F_p and their glued cohomology."""

from .bk import (A1Flag, bk_filtheta, bk_flag, bk_reduced, dual_reduced,
                 tensor_reduced)
from .components import (A1Module, FilThetaModule, GradedThetaModule,
                         ThetaModule, coh_dR, coh_dRplus, coh_Hod, coh_HTc,
                         restrict_dRplus_to_dR, restrict_dRplus_to_Hod,
                         restrict_HTc_to_dR, restrict_HTc_to_Hod)
from .gluing import ReducedCohomology, ReducedFGauge, reduced_syntomic_cohomology

__all__ = [
    "ThetaModule", "GradedThetaModule", "A1Module", "FilThetaModule",
    "coh_dR", "coh_Hod", "coh_HTc", "coh_dRplus",
    "restrict_HTc_to_dR", "restrict_HTc_to_Hod",
    "restrict_dRplus_to_dR", "restrict_dRplus_to_Hod",
    "ReducedFGauge", "ReducedCohomology", "reduced_syntomic_cohomology",
    "A1Flag", "bk_flag", "bk_filtheta", "bk_reduced",
    "tensor_reduced", "dual_reduced",
]
