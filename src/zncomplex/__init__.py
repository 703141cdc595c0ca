"""Small simplicial complexes with fundamental group Z^n, and the
presentation machinery for reasoning about how small they can get.

Modules:

- simplicial: complexes, validation, spur collapses, integer homology
- intlinalg: Smith normal form and exact lattice utilities
- factorization: 1-factorizations of complete graphs and orthogonal pairs
- construction: the block complexes W and their collapsed forms X
- presentation: 3-presentations, normal forms, and the rewrite toolkit
- hyperforest: the (1,1) pebble game deciding hyperforests and tight sets
- sg: exact point-line incidence checks and hypergraph pruning
- report: Report, the ok/violations/witness result of every check
- pipeline: end-to-end drivers and their stage records
- errors: the exception types; cli: the zncomplex command

The library computes what the command line and the pipelines read;
tests/test_library_surface.py lists, with reasons, the few public names
that no library code calls.
"""

from .construction import build_w, build_spurs, build_x, torus_block
from .factorization import (
    OneFactorization,
    OrthogonalPair,
    orthogonal_pair,
    round_robin_factorization,
    verify_orthogonal_pair,
)
from .intlinalg import smith_normal_form
from .pipeline import report_bounds, run_lower, run_upper
from .presentation import (
    AbelianMap,
    Presentation,
    abelian_images,
    extract_presentation,
    minimize,
    normalize,
    standard_zn,
)
from .report import Report
from .sg import PointConfig, is_delta_sg, prune_min_degree, sg_reduce
from .simplicial import (
    SimplicialComplex,
    collapse_spur,
    collapse_spurs,
    homology,
    is_spur,
    validate,
)

__all__ = [
    "AbelianMap",
    "OneFactorization",
    "OrthogonalPair",
    "PointConfig",
    "Presentation",
    "Report",
    "SimplicialComplex",
    "abelian_images",
    "build_spurs",
    "build_w",
    "build_x",
    "collapse_spur",
    "collapse_spurs",
    "extract_presentation",
    "homology",
    "is_delta_sg",
    "is_spur",
    "minimize",
    "normalize",
    "orthogonal_pair",
    "prune_min_degree",
    "report_bounds",
    "round_robin_factorization",
    "run_lower",
    "run_upper",
    "sg_reduce",
    "smith_normal_form",
    "standard_zn",
    "torus_block",
    "validate",
    "verify_orthogonal_pair",
]

__version__ = "0.1.0"
