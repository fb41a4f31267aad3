"""Desk-scale lab for negative central values of smoothed quadratic
character sums, driven by a two-band multiplicative resonator."""

__version__ = "0.1.0"

from .arith import (
    InvalidDiscriminant,
    chi8d,
    check_2d_squarefree,
    factorize,
    is_squarefree,
    kronecker,
    primes_in,
    primes_up_to,
    squarefree_sieve,
)
from .resonator import (
    CoefficientTable,
    ParamsError,
    ResonatorParams,
    SignState,
    SupportTooLarge,
    assign_signs,
    build_params,
    build_table,
    enumerate_support,
    r_minus,
    r_plus,
    r_tilde,
)
from .smoothing import (
    AccuracyError,
    afe_weight_V,
    mellin_phi,
    phi,
    psi,
)
from .charsums import (
    EmptyFamilyError,
    PartialSumKernel,
    RatioReport,
    WorkEstimateError,
    afe_central_value,
    big_R,
    denominator_asymptotic,
    dirichlet_l_half,
    orthogonality_check,
    pigeonhole_extract,
    scan_family,
    sigma1,
    sigma2,
    truncated_sum,
)
from .analytic import (
    F_direct,
    F_factored_bounded,
    H_of_s,
    S_via_contour,
    TRIG_MIN,
    hurwitz_em,
    resonance_bound,
    sigma2_bound_check,
    trig_product,
    verify_rankin_truncations,
)
from .sieve import (
    DirichletPolynomial,
    admissible_alpha,
    autocorrelation_identity_check,
    lhs_integral,
    rhs_integral,
    sieve_inequality_check,
)
