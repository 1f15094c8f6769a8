"""Small-ball probabilities of simple random tensors: laws, bounds, experiments."""

__version__ = "0.1.0"

from .decomposition import (
    FoldingPlan,
    Rank1Terms,
    RecoveryReport,
    contract_mode3,
    decompose_smoothed,
    fold_higher_order,
    match_components,
    simultaneous_diagonalize,
    unfold_terms,
)
from .distributions import (
    DistributionSpec,
    HistogramDensity,
    matched_cube,
    sample_matrix,
)
from .errors import (
    ConfigurationError,
    DataSparsityError,
    DegeneracyError,
    HypothesisViolationError,
    RangeError,
    ResourceError,
    TensorBallError,
    UsageError,
    ValidationError,
)
from .exact_laws import (
    BoundConfig,
    bound_carbery_wright,
    bound_concentration_subgaussian,
    bound_fixed_subspace,
    bound_generic_subspace,
    bound_nondeterministic,
    bound_single_direction,
    bound_smin_tail,
    product_uniform_cdf,
    product_uniform_smallball,
    sharpness_lower_bound,
)
from .khatri_rao import (
    SminTailResult,
    SmoothedEnsemble,
    khatri_rao,
    pinv_hs_norm_sq,
    projection_distance_sum,
    sample_smoothed_factors,
    smin_tail_experiment,
)
from .montecarlo import (
    DominanceReport,
    ExperimentConfig,
    NormTailCurves,
    SlabBody,
    SmallBallCurve,
    clopper_pearson,
    curve_csv_bytes,
    dominance_test,
    estimate_direction_smallball,
    estimate_smallball,
    fit_slope,
    norm_concentration,
    rows_csv_bytes,
)
from .subspaces import (
    SubspaceBasis,
    coordinate_line_subspace,
    diagonal_direction,
    haar_subspace,
)
from .tensor_core import (
    contract,
    kron,
)
