"""Spectral zeta functions, Eisenstein series and functional determinants on
complex tori, plus an argument-principle determinant engine for 1D operators."""

from .domain import (
    DEFAULT_PRECISION,
    Diagnostics,
    EvalResult,
    Precision,
    Sl2zMatrix,
    TauPoint,
    as_tau,
)
from .errors import (
    DomainError,
    NonFiniteError,
    NormalizationError,
    PoleError,
    SpectrumError,
    TruncationWarning,
    ZeroModeError,
)
from .eta import eta, eta_multiplier, eta_transform_check, fundamental_domain_reduce, log_abs_eta
from .operator1d import (
    OperatorSpec,
    log_det,
    log_det_numeric,
    mellin_gamma_zeta_check,
    zeta_operator,
    zeta_p,
    zeta_p_functional_equation,
)
from .potentials import PotentialParseError, parse_potential
from .specialfn import (
    bessel_k,
    cospi,
    dedekind_sum_exact,
    gamma,
    lambert_series,
    rgamma,
    riemann_zeta,
    sigma,
    sinpi,
)
from .torus import (
    determinant_torus,
    determinant_torus_numeric,
    eisenstein,
    eisenstein_cs,
    eisenstein_contour,
    eisenstein_direct,
    functional_equation_residual,
    heat_kernel,
    kronecker_constant,
    lambert_q1,
    mellin_remainder_tau_i,
    nan_yue_williams_sum,
    pole_residue,
    remainder_bessel,
    remainder_fe_residual,
    remainder_integral,
    theta_mellin_check,
    weight_integral_check,
    zeta_laplacian,
    zeta_laplacian_deriv0,
    zeta_laplacian_deriv0_numeric,
)

__version__ = "0.1.0"
