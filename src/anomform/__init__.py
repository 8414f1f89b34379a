"""anomform: exact verification of modular-invariance cancellation identities.

Exact q^(1/2)-series over pluggable rings, a Chern-root model of the
characteristic-class ring, the level-2 Witten bundle expansions with their
triangular virtual-bundle decompositions, and a verifier that measures the
normalization constants of the resulting cancellation identities (including
the classical dimension-2/6/10 gravitational ones) with rational arithmetic.
"""

from .anomaly import (
    COROLLARY_DIMENSIONS,
    CorollaryVector,
    IdentityReport,
    corollary_coefficients,
    identity_profile,
    p_form,
    verify_agw,
    verify_decomposition_identity,
    verify_main_identity,
    verify_route_equivalence,
)
from .chroot import (
    GradedClass,
    GradedRing,
    RootProfile,
    eval_at_roots,
    product_over_roots,
    sum_over_roots,
)
from .genera import a_hat, l_class
from .modforms import (
    SpanError,
    basis_decompose,
    decompose_theta2,
    delta_epsilon,
    identity_parameters,
    theta1_nullwert_fourth,
    theta_nullwert,
)
from .qseries import QQ, HalfQSeries, RingMismatchError, TruncationError
from .thetanum import NumericCheckReport, check_transformation, theta_eval
from .witten import (
    ThetaBundleSeries,
    build_theta_bundle,
    chern_character,
    lambda_t_character,
    s_t_character,
)

__version__ = "0.1.0"

__all__ = [
    "COROLLARY_DIMENSIONS",
    "CorollaryVector",
    "GradedClass",
    "GradedRing",
    "HalfQSeries",
    "IdentityReport",
    "NumericCheckReport",
    "QQ",
    "RingMismatchError",
    "RootProfile",
    "SpanError",
    "ThetaBundleSeries",
    "TruncationError",
    "a_hat",
    "basis_decompose",
    "build_theta_bundle",
    "check_transformation",
    "chern_character",
    "corollary_coefficients",
    "decompose_theta2",
    "delta_epsilon",
    "eval_at_roots",
    "identity_parameters",
    "identity_profile",
    "l_class",
    "lambda_t_character",
    "p_form",
    "product_over_roots",
    "s_t_character",
    "sum_over_roots",
    "theta1_nullwert_fourth",
    "theta_eval",
    "theta_nullwert",
    "verify_agw",
    "verify_decomposition_identity",
    "verify_main_identity",
    "verify_route_equivalence",
]
