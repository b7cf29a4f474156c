"""Numerical defaults shared across the package.

Every tolerance that influences a reported number is collected here so that
result records can echo the exact configuration they were produced with.
"""

# Construction-time matrix checks
HERMITICITY_TOL = 1e-10
NEGATIVE_EIGENVALUE_TOL = 1e-10   # eigenvalues in [-tol, 0) clamp to 0; below is an error
UNITARITY_TOL = 1e-10

# Spectral support handling (relative to the largest eigenvalue)
SUPPORT_CUTOFF = 1e-12

# Partition-of-unity checks
UNIT_SUM_TOL = 1e-8
SUB_UNITALITY_TOL = 1e-9
CHOI_POSITIVITY_TOL = 1e-9
PROJECTOR_TOL = 1e-9

# Outcomes with weight at or below this contribute 0 to entropy sums
WEIGHT_FLOOR = 1e-14

# Resource caps
TENSOR_DIM_CAP = 4096
BRANCH_CAP = 4096
MAX_WINDOW = 12   # longest Markov window in symbols; its word arrays hold <= TENSOR_DIM_CAP**2
SEARCH_CAP = 10**6   # restarts * max_iterations allowed for one capacity search

# Dynamical-entropy sequence defaults
DEFAULT_DEPTH = 6
ADMISSIBILITY_TOL = 1e-6
CONVERGENCE_TOL = 1e-6
INVARIANCE_TOL = 1e-9

# Classical (finite-space) checks
MEASURE_SUM_TOL = 1e-12
FUNCTION_UNITY_TOL = 1e-10
STOCHASTICITY_TOL = 1e-10

VERSION = "0.1.0"


def provenance(**overrides) -> dict:
    """Snapshot of the numerical configuration, for embedding in outputs."""
    snap = {
        "version": VERSION,
        "support_cutoff": SUPPORT_CUTOFF,
        "unit_sum_tol": UNIT_SUM_TOL,
        "weight_floor": WEIGHT_FLOOR,
        "branch_cap": BRANCH_CAP,
        "tensor_dim_cap": TENSOR_DIM_CAP,
        "admissibility_tol": ADMISSIBILITY_TOL,
        "convergence_tol": CONVERGENCE_TOL,
    }
    snap.update(overrides)
    return snap
