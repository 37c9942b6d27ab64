"""Exact construction and verification of bispectral Krall-Hahn families.

Everything runs over the rationals: polynomials, difference operators,
discrete measures, determinants.  The central objects are a construction
context (Hahn parameters plus determinant-row data), the bordered-determinant
polynomial family it defines, and the higher-order difference operator those
polynomials are eigenfunctions of.  The ``verify`` module re-checks every
identity the theory claims, exactly, and the ``krallhahn`` CLI exposes that
as runnable configurations.
"""

from .casorati import (
    core_determinant,
    eigenvalue_polynomial,
    krall_operator,
    krall_polynomial,
    mixing_polynomial,
    operator_halfwidth,
    spectral_polynomial,
)
from .config import ConstructionConfig, builtin_config, config_from_dict, config_from_file
from .context import ConstructionContext, context_from_degrees, context_from_quartet
from .diffops import DifferenceOperator
from .errors import (
    ConfigInvalid,
    DegenerateMoments,
    InsufficientData,
    KrallHahnError,
    NonExactDivision,
    NotThetaRepresentable,
    ParameterSingularity,
    ResonantParameters,
    ZeroOperatorError,
)
from .hahn import (
    HahnParams,
    companion_polynomial,
    corollary_reduction,
    dual_hahn_polynomial,
    factored_hahn_weight,
    hahn_operator,
    hahn_polynomial,
    hahn_weight,
    reflect,
    theta_substitute,
    transformed_hahn_weight,
)
from .ladder import ladder_operator, series_coefficients
from .measures import DiscreteMeasure, gram_schmidt
from .oracle import operator_solution_space
from .polynomials import Polynomial, antidifference, pochhammer
from .rationals import Rational, as_rational, format_rational
from .sets import SetQuartet, involution, padded_complement, transform_quartet
from .verify import (
    CheckResult,
    VerificationReport,
    check_foeq,
    enumerate_root_couples,
    run_config,
    run_many,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ConfigInvalid",
    "ConstructionConfig",
    "ConstructionContext",
    "DegenerateMoments",
    "DifferenceOperator",
    "DiscreteMeasure",
    "HahnParams",
    "InsufficientData",
    "KrallHahnError",
    "NonExactDivision",
    "NotThetaRepresentable",
    "ParameterSingularity",
    "Polynomial",
    "Rational",
    "ResonantParameters",
    "SetQuartet",
    "VerificationReport",
    "ZeroOperatorError",
    "antidifference",
    "as_rational",
    "builtin_config",
    "check_foeq",
    "companion_polynomial",
    "config_from_dict",
    "config_from_file",
    "context_from_degrees",
    "context_from_quartet",
    "core_determinant",
    "corollary_reduction",
    "dual_hahn_polynomial",
    "eigenvalue_polynomial",
    "enumerate_root_couples",
    "factored_hahn_weight",
    "format_rational",
    "gram_schmidt",
    "hahn_operator",
    "hahn_polynomial",
    "hahn_weight",
    "involution",
    "krall_operator",
    "krall_polynomial",
    "ladder_operator",
    "mixing_polynomial",
    "operator_halfwidth",
    "operator_solution_space",
    "padded_complement",
    "pochhammer",
    "reflect",
    "run_config",
    "run_many",
    "series_coefficients",
    "spectral_polynomial",
    "theta_substitute",
    "transform_quartet",
    "transformed_hahn_weight",
]
