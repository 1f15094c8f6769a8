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
    density_sup,
    matched_cube,
    rearrange_histogram,
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
    ConstantFit,
    bound_carbery_wright,
    bound_concentration_subgaussian,
    bound_fixed_subspace,
    bound_generic_subspace,
    bound_negative_moment,
    bound_nondeterministic,
    bound_single_direction,
    bound_smin_tail,
    fit_constant,
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
    sample_smoothed,
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
    git_blob_hash,
    negative_moment,
    norm_concentration,
)
from .subspaces import (
    SubspaceBasis,
    coordinate_line_subspace,
    diagonal_direction,
    haar_subspace,
    orthonormalize,
)
from .tensor_core import (
    FlatTensor,
    SimpleTensor,
    contract,
    flatten,
    frobenius_norm,
    inner_flat,
    inner_simple,
    kron,
    projection_norm,
)
