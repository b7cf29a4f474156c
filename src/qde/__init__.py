"""Numerical laboratory for measurement information, dynamical entropy, and
channel capacity on finite-dimensional algebras."""

from .defaults import VERSION as __version__
from .linalg import (
    BlockAlgebra,
    matrix_log_on_support,
    spectral_decompose,
    support_projection,
    tensor,
)
from .states import (
    StateFunctional,
    decomposition_entropy_gap,
    donald_residual,
    relative_entropy,
    relative_entropy_report,
    von_neumann_entropy,
)
from .partitions import (
    Automorphism,
    KrausMap,
    Partition,
    compose,
    conjugate,
    pinching_invariant_partition,
    predual_apply,
    tensor_partition,
    validate_partition,
    vn_partition,
)
from .dynamics import (
    EntropySequence,
    InformationReport,
    admissibility_check,
    an_sequence,
    conditional_information,
    convexity_probe,
    information,
    information_via_direct_sum,
    invariance_check,
    refinement,
)
from .capacity import (
    CapacityReport,
    OptimizerConfig,
    capacity_rate,
    capacity_sweep,
    dephasing_channel,
    depolarizing_channel,
    ensemble_channel,
    holevo_quantity,
    information_gain,
    optimize_Cn,
    optimize_Dn,
    projective_measurement,
    proportional_code_channel,
    unit_input_state,
)
from .classical import (
    FiniteSpace,
    FunctionPartition,
    SymbolicShift,
    classical_conditional,
    classical_information,
    embed_diagonal,
    markov_entropy_sequence,
    partition_comparison_bound,
    permutation_entropy_sequence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
