"""Computational algebra for the convolution (Jury) product on matrices.

Fixed-shape matrices form a commutative unital ring under entrywise
addition and truncated 2-D convolution.  This package implements the
ring (exact-rational and complex-float backends), the partition
combinatorics behind its power formulas, the convolution-compatible
functional calculus with smooth and step-size variants, annihilating
and minimal polynomials, positivity-preserver experiments, Bruhat-order
comparison through rank matrices, and probability of sums of
grid-valued random variables via padded convolution.
"""

from .numerics import COMPLEX, RATIONAL, binomial, multiset_weight
from .conv_core import (
    BackendMismatchError,
    ConvMatrix,
    ShapeMismatchError,
    SingularMatrixError,
    add,
    conv,
    conv_identity,
    conv_inverse_ch,
    conv_inverse_recursive,
    conv_power_naive,
    conv_power_squaring,
    scale,
    transpose,
)
from .partitions import (
    EnumerationLimitError,
    IndexGrid,
    MultisetPartition,
    conv_power_partition,
    elementary_sum,
    enumerate_partitions,
)
from .transforms import (
    DomainError,
    FunctionSpec,
    Poly,
    SeriesDivergenceError,
    SeriesTransformResult,
    bivariate_power_matrix,
    divided_difference,
    factorial_frame,
    forward_difference,
    forward_differences,
    poly_transform,
    series_transform,
    smooth_transform,
    stepped_transform,
)
from .cayley_hamilton import (
    AnnihilatorReport,
    ch_check,
    ch_polynomial,
    minimal_polynomial,
    tightness_witness,
)
from .positivity import (
    Interval,
    NonHermitianError,
    PsdVerdict,
    difference_operator_report,
    fractional_power_study,
    horn_witness,
    is_psd,
    jury_closure_test,
    preserver_test,
    sample_psd,
    schoenberg_h_counterexample,
)
from .bruhat import (
    Permutation,
    RankMatrix,
    bruhat_leq_conv,
    bruhat_leq_oracle,
    perm_to_matrix,
    rank_matrix,
    verify_equivalences,
)
from .probgrid import (
    GridDistribution,
    brute_force_sum_law,
    padded_conv,
    padded_power,
    psd_chain_check,
    semiinfinite_checks,
    sum_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "AnnihilatorReport",
    "BackendMismatchError",
    "COMPLEX",
    "ConvMatrix",
    "DomainError",
    "EnumerationLimitError",
    "FunctionSpec",
    "GridDistribution",
    "IndexGrid",
    "Interval",
    "MultisetPartition",
    "NonHermitianError",
    "Permutation",
    "Poly",
    "PsdVerdict",
    "RankMatrix",
    "RATIONAL",
    "SeriesDivergenceError",
    "SeriesTransformResult",
    "ShapeMismatchError",
    "SingularMatrixError",
    "add",
    "binomial",
    "bivariate_power_matrix",
    "brute_force_sum_law",
    "bruhat_leq_conv",
    "bruhat_leq_oracle",
    "ch_check",
    "ch_polynomial",
    "conv",
    "conv_identity",
    "conv_inverse_ch",
    "conv_inverse_recursive",
    "conv_power_naive",
    "conv_power_partition",
    "conv_power_squaring",
    "difference_operator_report",
    "divided_difference",
    "elementary_sum",
    "enumerate_partitions",
    "factorial_frame",
    "forward_difference",
    "forward_differences",
    "fractional_power_study",
    "horn_witness",
    "is_psd",
    "jury_closure_test",
    "minimal_polynomial",
    "multiset_weight",
    "padded_conv",
    "padded_power",
    "perm_to_matrix",
    "poly_transform",
    "preserver_test",
    "psd_chain_check",
    "rank_matrix",
    "sample_psd",
    "scale",
    "schoenberg_h_counterexample",
    "semiinfinite_checks",
    "series_transform",
    "smooth_transform",
    "stepped_transform",
    "sum_distribution",
    "tightness_witness",
    "transpose",
    "verify_equivalences",
]
