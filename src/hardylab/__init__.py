"""Numerical workbench for Hardy-type inequality criteria.

Finite-horizon verification of the per-index criteria behind forward
(weighted-mean) and reverse (tail-mean) inequalities, the auxiliary weight
sequences they rely on, the recurrent-inequality parameterization with its
feasibility conditions and constants, and an operator lab that brackets
the sharp constants from the other side.
"""

from .criteria import (
    check_2_3,
    check_2_4,
    check_2_30,
    classic_forward_constant,
    criterion_2_20_check,
    f_alpha_analysis,
    knopp_criterion_check,
    reverse_criterion_check,
    weighted_mean_constant,
)
from .errors import (
    InvalidExponentError,
    NonpositiveWeightError,
    OutOfDomainError,
    ParameterMismatchError,
    PreconditionError,
    TailTruncationWarning,
    UndefinedRatioError,
    WorkbenchError,
)
from .operators import (
    OperatorSpec,
    SequenceFamily,
    apply_copson_tail,
    apply_weighted_mean,
    cesaro,
    constant_ratio,
    copson_ratio_with_tail,
    copson_tail,
    extremal_search,
    norm_ratio,
    power_decay_tail_bounds,
)
from .redheffer import (
    RecurrentSequences,
    RedhefferParams,
    ScanResult,
    condition_6_49_check,
    condition_6_50_check,
    condition_6_54_check,
    k_of_p,
    lemma_6_1_residual,
    lemma_6_2_residual,
    lemma_6_2_step,
    scan_params,
    solve_x_half,
)
from .reports import CriterionReport, Tolerances, Verdict
from .sequences import (
    AuxSequence,
    conjugate_exponent,
    knopp_sequence,
    levin_steckin_sequence,
    power_aux_sequence,
    power_sum_bound_checks,
)
from .verify import run_verification

__version__ = "0.1.0"
