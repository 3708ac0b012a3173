"""Differentially private sanitisation of finite categorical databases.

The package provides the discrete exponential mechanism and product
(row-by-row) sanitisation, a verifier that decides (epsilon, delta)
privacy either by exhaustive subset enumeration or by sufficient-set
workload reduction, and the error analysis connecting the two mechanism
families, including the error-optimal solution matrix.
"""

from .analysis import (
    ErrorProfile,
    batch_matrix_margins,
    error_bounds,
    expected_error,
    exponential_to_product,
    k_from_p,
    matrix_expected_error,
    optimal_mechanism,
    p_from_k,
    product_to_exponential,
    sample_feasible_matrices,
)
from .core import (
    DEFAULT_ENUM_BUDGET,
    CategorySpace,
    Count,
    Database,
    DatabaseSet,
    NeighborPair,
    database_from_index,
    database_index,
    enumerate_databases,
    enumerate_neighbor_pairs,
    hamming_distance,
    load_category_space,
    load_database_csv,
    naive_check_count,
    space_size,
)
from .errors import (
    DataFormatError,
    DpcatError,
    EnumerationBudgetError,
    ExactModeError,
    IncompleteUtilityError,
    LengthMismatchError,
    ParameterRangeError,
)
from .kernels import BACKEND as KERNEL_BACKEND
from .mechanisms import (
    ExponentialSpec,
    HammingUtility,
    NegL1Utility,
    ProductSpec,
    SolutionMatrix,
    TableUtility,
    make_symmetric_product,
    sample,
    symmetric_matrix,
)
from .specfile import load_spec_file, save_spec_file
from .verifier import (
    TIE_BAND,
    TOLERANCE,
    ConditionResult,
    PrivacyParams,
    SufficientSet,
    VerificationReport,
    dp_holds_on_set,
    exp_dp_condition,
    product_dp_condition,
    sufficient_set,
    verify_bruteforce,
    verify_matrix,
    verify_reduced,
)

__version__ = "0.1.0"
