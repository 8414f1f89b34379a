"""Virtual-bundle Chern characters and the level-2 Witten bundle expansions.

A virtual bundle is carried as its Chern character alone: a GradedClass
whose constant term is the integer virtual rank.  Every identity downstream
consumes nothing else, and labels are attached only at output.  The two
theta bundles are the q^(1/2)-series tensor products

    Theta_1 = prod_n S_{q^n}(reduced T_C Z) . prod_m Lambda_{q^m}(reduced T_C Z)
    Theta_2 = prod_n S_{q^n}(reduced T_C Z) . prod_m Lambda_{-q^(m-1/2)}(reduced T_C Z)

built factor by factor.  Each factor comes from the Adams-operation form
of the lambda-operations (Atiyah, *K-Theory*, 1967)

    Lambda_t = exp(sum_k (-1)^(k-1) psi^k t^k / k),   S_t = exp(sum_k psi^k t^k / k),

where ch psi^k of the reduced bundle is the sum over roots of e^(kx) - 1,
so one root pair contributes 2 (cosh(kx) - 1).  A factor is therefore a
product over root pairs (``chroot.product_over_root_pairs``) with f0 = 1
and the pair log in u = x^2

    Lambda_t:  L_n(t) = 2/(2n)! * sum_k (-1)^(k-1) k^(2n-1) t^k
    S_t:       L_n(t) = 2/(2n)! * sum_k k^(2n-1) t^k

at t = +-q^(e/2): a zero root contributes nothing, and no exterior power
is formed and no series inverted.  `theta_bundle` is the memoised entry
point every caller uses: one build per (kind, profile) and process,
truncated for smaller requests; `build_theta_bundle` always builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .chroot import (
    GradedClass,
    GradedRing,
    RootProfile,
    product_over_root_pairs,
    sum_over_roots,
)
from .qseries import QQ, HalfQSeries


def chern_character(profile: RootProfile) -> GradedClass:
    """ch of the complexified vertical tangent bundle: sum over roots of e^x."""
    n = 2 * profile.max_weight + 1
    return sum_over_roots([Fraction(1, factorial(i)) for i in range(n)], profile)


def _reduced_factor(
    adams_sign: int, profile: RootProfile, t_sign: int, t_exp2: int, order2: int
) -> HalfQSeries:
    """exp(sum_k adams_sign^(k-1) ch psi^k(T_C Z - dim) t^k / k), t = t_sign q^(t_exp2/2).

    adams_sign = -1 gives Lambda_t and +1 gives S_t, through the pair log of
    the module doc.
    """
    if t_exp2 <= 0:
        raise ValueError("t must carry a positive power of q")
    if t_sign not in (1, -1):
        raise ValueError("t_sign must be +1 or -1")
    # t^k carries the sign t_sign^k, and Lambda_t's Adams sign (-1)^(k-1) besides
    signs = {k: adams_sign ** (k - 1) * t_sign**k for k in range(1, (order2 - 1) // t_exp2 + 1)}
    logs = []
    for n in range(1, profile.max_weight + 1):
        scale = Fraction(2, factorial(2 * n))
        terms = {k * t_exp2: scale * s * k ** (2 * n - 1) for k, s in signs.items()}
        logs.append(HalfQSeries(QQ, terms, order2))
    return product_over_root_pairs(HalfQSeries.one(QQ, order2), logs, profile)


def lambda_t_character(profile: RootProfile, t_sign: int, t_exp2: int, order2: int) -> HalfQSeries:
    """ch Lambda_t of the reduced bundle T_C Z - dim at t = t_sign * q^(t_exp2/2)."""
    return _reduced_factor(-1, profile, t_sign, t_exp2, order2)


def s_t_character(profile: RootProfile, t_sign: int, t_exp2: int, order2: int) -> HalfQSeries:
    """ch S_t of the reduced bundle T_C Z - dim at t = t_sign * q^(t_exp2/2)."""
    return _reduced_factor(1, profile, t_sign, t_exp2, order2)


THETA1 = "theta1"
THETA2 = "theta2"


@dataclass(frozen=True)
class ThetaBundleSeries:
    """A Witten bundle expansion: q^(1/2)-series of virtual characters.

    Coefficients are GradedClass values over GradedRing(profile); each
    constant term is the integer virtual rank of that q-coefficient.
    """

    kind: str
    profile: RootProfile
    series: HalfQSeries

    def __post_init__(self):
        if self.series.coefficient(0) != GradedClass.one(self.profile):
            raise ValueError("theta bundle must start with the trivial line at q^0")
        for exp2, coeff in self.series.items():
            if self.kind == THETA1 and exp2 % 2:
                raise ValueError("Theta_1 is supported on integer q-powers")
            rank = coeff.constant_term()
            if rank.denominator != 1:
                raise ValueError(f"virtual rank {rank} is not an integer")

    def truncate(self, order2: int) -> "ThetaBundleSeries":
        return ThetaBundleSeries(self.kind, self.profile, self.series.truncate(order2))


def default_theta_order2(m: int) -> int:
    """Matched window (m+1 coefficients) plus guard room: exp2 <= 2m+4."""
    return 2 * m + 5


def build_theta_bundle(kind: str, profile: RootProfile, order2: int) -> ThetaBundleSeries:
    """Tensor together the S and Lambda factors up to the truncation order."""
    if kind not in (THETA1, THETA2):
        raise ValueError(f"unknown theta bundle kind {kind!r}")
    ring = GradedRing(profile)
    series = HalfQSeries.one(ring, order2)
    for exp2 in range(2, order2, 2):
        series = series * s_t_character(profile, 1, exp2, order2)
    if kind == THETA1:
        for exp2 in range(2, order2, 2):
            series = series * lambda_t_character(profile, 1, exp2, order2)
    else:
        for exp2 in range(1, order2, 2):
            series = series * lambda_t_character(profile, -1, exp2, order2)
    return ThetaBundleSeries(kind, profile, series)


_THETA_MEMO: dict = {}


def theta_bundle(kind: str, profile: RootProfile, order2: int) -> ThetaBundleSeries:
    """build_theta_bundle, built once per (kind, profile) and truncated on reuse.

    A request above the stored order rebuilds at that order and replaces the
    stored bundle; the result always has exactly the requested order2.
    """
    held = _THETA_MEMO.get((kind, profile))
    if held is None or held.series.order2 < order2:
        held = _THETA_MEMO[kind, profile] = build_theta_bundle(kind, profile, order2)
    return held if held.series.order2 == order2 else held.truncate(order2)


theta_bundle.cache_clear = _THETA_MEMO.clear
