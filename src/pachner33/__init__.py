"""Grassmann-Berezin weights on 4-simplices and the three-for-three trade
of simplices around a 2-face.

The modules build on each other roughly in this order: grassmann (finite
anticommuting algebra), simplicial (faces and cochains), operators (first
order operators and subspace tools), weights (Gaussian weights of skew
matrices), edgeops (annihilating edge operators and the induced cocycle),
cocycle2weight (the reverse direction), elliptic (a concrete parameterized
family), pachner (the six-simplex scene), cli (command line entry point).
"""

import os

# The program's matrices are small: several BLAS threads cost far more CPU
# than one and save no time.  Set before numpy loads; a value set by the
# user still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .errors import (
    BranchInconsistencyError,
    ConsistencyError,
    DegenerateCocycleError,
    DegenerateWeightError,
    NumericsError,
    Pachner33Error,
    SpaceMismatchError,
)
from .grassmann import GeneratorSpace, GrassmannElement, berezin_integral, exp_even
from .simplicial import Cochain, coboundary, cochain_primitive, is_cocycle, random_cocycle
from .operators import LinearOperator, annihilator_of, principal_angles
from .weights import (
    WeightMatrix,
    double_ratios,
    gaussian_weight,
    solve_F_from_ratios,
    weight_operators,
)
from .edgeops import EdgeOperatorFamily, extract_w_cocycle, normalize_family, raw_edge_operator
from .cocycle2weight import kappa, reconstruct_F, superisotropic_f
from .elliptic import EllipticParams, elliptic_F, elliptic_cocycle, jacobi_sn_cn_dn
from .pachner import ReconciledWeights, Verification33, reconcile, side_weight, verify_33

__version__ = "0.1.0"

__all__ = [
    "BranchInconsistencyError",
    "ConsistencyError",
    "DegenerateCocycleError",
    "DegenerateWeightError",
    "NumericsError",
    "Pachner33Error",
    "SpaceMismatchError",
    "GeneratorSpace",
    "GrassmannElement",
    "berezin_integral",
    "exp_even",
    "Cochain",
    "coboundary",
    "cochain_primitive",
    "is_cocycle",
    "random_cocycle",
    "LinearOperator",
    "annihilator_of",
    "principal_angles",
    "WeightMatrix",
    "double_ratios",
    "gaussian_weight",
    "solve_F_from_ratios",
    "weight_operators",
    "EdgeOperatorFamily",
    "extract_w_cocycle",
    "normalize_family",
    "raw_edge_operator",
    "kappa",
    "reconstruct_F",
    "superisotropic_f",
    "EllipticParams",
    "elliptic_F",
    "elliptic_cocycle",
    "jacobi_sn_cn_dn",
    "ReconciledWeights",
    "Verification33",
    "reconcile",
    "side_weight",
    "verify_33",
    "__version__",
]
