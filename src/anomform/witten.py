"""Virtual-bundle Chern characters and the level-2 Witten bundle expansions.

A virtual bundle is carried as its Chern character alone: a GradedClass
whose constant term is the integer virtual rank.  Every identity downstream
consumes nothing else, and labels are attached only at output.  The two
theta bundles are the q^(1/2)-series tensor products

    Theta_1 = prod_n S_{q^n}(reduced T_C Z) . prod_m Lambda_{q^m}(reduced T_C Z)
    Theta_2 = prod_n S_{q^n}(reduced T_C Z) . prod_m Lambda_{-q^(m-1/2)}(reduced T_C Z)

built factor by factor from exterior-power characters.  The exterior powers
themselves come from Newton's identities applied to the root-exponential
power sums, so no root monomials are ever expanded.  `theta_bundle` is the
memoised entry point every caller uses: one build per (kind, profile) and
process, truncated for smaller requests; `build_theta_bundle` always builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .chroot import (
    GradedClass,
    GradedRing,
    RootProfile,
    elementary_from_power_sums,
    sum_over_roots,
)
from .qseries import QQ, HalfQSeries


def chern_character(profile: RootProfile, power: int = 1) -> GradedClass:
    """ch of the complexified vertical tangent bundle with roots scaled by `power`.

    power = 1 gives ch(T_C Z); higher powers are the exponential power sums
    sum over roots of e^(k.x) feeding Newton's identities.
    """
    n = 2 * profile.max_weight + 1
    g = [Fraction(power) ** i / factorial(i) for i in range(n)]
    return sum_over_roots(g, profile)


@lru_cache(maxsize=None)
def exterior_power_characters(profile: RootProfile, k_max: int) -> tuple:
    """(ch Lambda^0, ..., ch Lambda^k_max) of T_C Z, via Newton's identities."""
    psums = [chern_character(profile, k) for k in range(1, k_max + 1)]
    es = elementary_from_power_sums(psums, k_max, GradedClass.one(profile))
    return tuple(es)


def lambda_t_character(profile: RootProfile, t_sign: int, t_exp2: int, order2: int) -> HalfQSeries:
    """ch Lambda_t of the reduced bundle T_C Z - dim at t = t_sign * q^(t_exp2/2).

    A finite sum: prod over roots (1 + t e^root) = sum_k ch(Lambda^k) t^k,
    divided by (1 + t)^fiber_dim per the lambda-operation quotient rule for
    virtual differences.
    """
    if t_exp2 <= 0:
        raise ValueError("t must carry a positive power of q")
    if t_sign not in (1, -1):
        raise ValueError("t_sign must be +1 or -1")
    ring = GradedRing(profile)
    k_max = min((order2 - 1) // t_exp2, profile.fiber_dim)
    es = exterior_power_characters(profile, k_max)
    coeffs = {}
    for k in range(k_max + 1):
        coeff = es[k] if t_sign == 1 or k % 2 == 0 else -es[k]
        coeffs[k * t_exp2] = coeff
    series = HalfQSeries(ring, coeffs, order2)
    unit = HalfQSeries.from_terms(QQ, [(0, 1), (t_exp2, t_sign)], order2)
    return series * (unit**profile.fiber_dim).inverse().lift_to(ring)


def s_t_character(profile: RootProfile, t_sign: int, t_exp2: int, order2: int) -> HalfQSeries:
    """ch S_t of the reduced bundle: 1 / ch Lambda_{-t}(T_C Z - dim)."""
    return lambda_t_character(profile, -t_sign, t_exp2, order2).inverse()


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
