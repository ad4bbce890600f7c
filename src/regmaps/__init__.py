"""regmaps: constructions and exact verification for non-orientable regular
maps with Euler characteristic minus an odd prime power.

Submodules
----------
algebra       exact integer matrices, Smith normal form, mod-p rank
permgrp       finite permutation-group engine (orders, cores, Sylow shapes)
mapcore       the regular-map layer: star-group verification, Euler counts,
              structural checks and the exhaustive involution-triple census
constructors  concrete group builders: PSL2/PGL2, dihedral families, module
              and split extensions, branched semidirect cells
homology      triangle-group kernel homology via Reidemeister-Schreier
families      symbolic family-table formulas and Diophantine searches
cli           command-line verifier
"""

__version__ = "0.1.0"

from .errors import ContractError, ParameterError, RegmapsError, ResourceError  # noqa: F401
from . import algebra, permgrp, mapcore, constructors, homology, families  # noqa: F401,E402
