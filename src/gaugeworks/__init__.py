"""gaugeworks: exact linear-algebra avatars of syntomic cohomology at a point.

Subpackages and modules, bottom up:

* :mod:`gaugeworks.exactlinalg` -- rationals, F_p and Z_(p) linear algebra,
  Smith normal form, finitely generated modules and two-term homology.
* :mod:`gaugeworks.filphi` -- filtered Frobenius modules over the rationals,
  derived Hom out of the unit, twists, Newton/Hodge numbers, weak
  admissibility, tensor structure.
* :mod:`gaugeworks.beilinson` -- the forgetful fibre square and the
  Frobenius-twisted fibre sequence, with cartesianness verification.
* :mod:`gaugeworks.fgauge` -- F-gauges over F_p as stabilized u/t diagrams,
  syntomic cohomology, rational realization, saturated filtrations of
  F-crystals, Hodge--Tate weights.
* :mod:`gaugeworks.redlocus` -- the four reduced-locus coefficient
  categories, restriction functors, glued objects and their cohomology.
* :mod:`gaugeworks.higgs` -- graded Higgs modules and Koszul cohomology.
* :mod:`gaugeworks.cli` -- the ``gaugeworks`` command.

All values are immutable and all operations pure; everything is safe to
share across threads.
"""

from . import beilinson, cli, exactlinalg, fgauge, filphi, higgs, redlocus
from .errors import (LawViolation, NonHonestFiltrationError,
                     PrimeMismatchError, SchemaError)

__version__ = "0.1.0"

__all__ = [
    "exactlinalg", "filphi", "beilinson", "fgauge", "redlocus", "higgs",
    "cli", "SchemaError", "LawViolation", "PrimeMismatchError",
    "NonHonestFiltrationError",
]
