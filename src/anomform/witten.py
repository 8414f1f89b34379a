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
is formed and no series inverted.  ``_factor_logs`` writes these logs once.

Two builders read them.  ``build_theta_bundle`` multiplies the factors one
by one: the S factors (``_symmetric_half``), then the kind's Lambda factors.
It serves the K-theory route (``anomaly.p_form``, ``verify routes`` and
``expand theta-bundle``) through `theta_bundle`, its memo: one build per
(kind, profile) and process, truncated for smaller requests.  The two kinds
share their S half, so the memo builds it once per profile, holds it at the
largest order built and truncates it for each kind; it drops the half once
both bundles of the profile are held at the half's order or above, when no
request can read it again.  That route keeps its product of exponentials,
which the route check sets against the theta route's exponential of one
summed log.  ``summed_theta2`` adds the factor logs and exponentiates
once; it serves the b_r/z_r solve (``modforms.decompose_theta2``), which
reads Theta_2 only through q^(m/2).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .chroot import (
    GradedClass,
    GradedRing,
    RootProfile,
    product_over_root_pairs,
    sum_over_roots,
)
from .qseries import QQ, FrozenRecord, HalfQSeries


def chern_character(profile: RootProfile) -> GradedClass:
    """ch of the complexified vertical tangent bundle: sum over roots of e^x."""
    n = 2 * profile.max_weight + 1
    return sum_over_roots([Fraction(1, factorial(i)) for i in range(n)], profile)


def _factor_logs(
    adams_sign: int, t_sign: int, t_exp2: int, order2: int, max_weight: int
) -> list:
    """Pair logs L_1..L_w of exp(sum_k adams_sign^(k-1) ch psi^k(T_C Z - dim) t^k / k).

    t = t_sign q^(t_exp2/2); adams_sign = -1 gives Lambda_t and +1 gives S_t,
    through the pair log of the module doc.
    """
    if t_exp2 <= 0:
        raise ValueError("t must carry a positive power of q")
    if t_sign not in (1, -1):
        raise ValueError("t_sign must be +1 or -1")
    # t^k carries the sign t_sign^k, and Lambda_t's Adams sign (-1)^(k-1) besides
    signs = {k: adams_sign ** (k - 1) * t_sign**k for k in range(1, (order2 - 1) // t_exp2 + 1)}
    logs = []
    for n in range(1, max_weight + 1):
        scale = Fraction(2, factorial(2 * n))
        terms = {k * t_exp2: scale * s * k ** (2 * n - 1) for k, s in signs.items()}
        logs.append(HalfQSeries(QQ, terms, order2))
    return logs


def _reduced_factor(
    adams_sign: int, profile: RootProfile, t_sign: int, t_exp2: int, order2: int
) -> HalfQSeries:
    """The factor of ``_factor_logs`` as one product over root pairs."""
    logs = _factor_logs(adams_sign, t_sign, t_exp2, order2, profile.max_weight)
    return product_over_root_pairs(HalfQSeries.one(QQ, order2), logs, profile)


def lambda_t_character(profile: RootProfile, t_sign: int, t_exp2: int, order2: int) -> HalfQSeries:
    """ch Lambda_t of the reduced bundle T_C Z - dim at t = t_sign * q^(t_exp2/2)."""
    return _reduced_factor(-1, profile, t_sign, t_exp2, order2)


def s_t_character(profile: RootProfile, t_sign: int, t_exp2: int, order2: int) -> HalfQSeries:
    """ch S_t of the reduced bundle T_C Z - dim at t = t_sign * q^(t_exp2/2)."""
    return _reduced_factor(1, profile, t_sign, t_exp2, order2)


THETA1 = "theta1"
THETA2 = "theta2"


class ThetaBundleSeries(FrozenRecord):
    """A Witten bundle expansion: q^(1/2)-series of virtual characters.

    Coefficients are GradedClass values over GradedRing(profile); each
    constant term is the integer virtual rank of that q-coefficient.
    """

    def __init__(self, kind: str, profile: RootProfile, series: HalfQSeries):
        if series.coefficient(0) != GradedClass.one(profile):
            raise ValueError("theta bundle must start with the trivial line at q^0")
        for exp2, coeff in series.items():
            if kind == THETA1 and exp2 % 2:
                raise ValueError("Theta_1 is supported on integer q-powers")
            rank = coeff.constant_term()
            if rank.denominator != 1:
                raise ValueError(f"virtual rank {rank} is not an integer")
        self.__dict__.update(kind=kind, profile=profile, series=series)

    def truncate(self, order2: int) -> "ThetaBundleSeries":
        return ThetaBundleSeries(self.kind, self.profile, self.series.truncate(order2))


def default_theta_order2(m: int) -> int:
    """Matched window (m+1 coefficients) plus guard room: exp2 <= 2m+4."""
    return 2 * m + 5


def _symmetric_half(profile: RootProfile, order2: int) -> HalfQSeries:
    """prod_n S_(q^n) of the reduced bundle: the factors Theta_1 and Theta_2 share."""
    series = HalfQSeries.one(GradedRing(profile), order2)
    for exp2 in range(2, order2, 2):
        series = series * s_t_character(profile, 1, exp2, order2)
    return series


def build_theta_bundle(
    kind: str, profile: RootProfile, order2: int, *, half: HalfQSeries | None = None
) -> ThetaBundleSeries:
    """Tensor together the S and Lambda factors up to the truncation order.

    `half` is ``_symmetric_half(profile, o)`` for some o >= order2, built
    afresh when not given; the kind's Lambda factors multiply onto it.
    """
    if kind not in (THETA1, THETA2):
        raise ValueError(f"unknown theta bundle kind {kind!r}")
    series = _symmetric_half(profile, order2) if half is None else half.truncate(order2)
    if kind == THETA1:
        for exp2 in range(2, order2, 2):
            series = series * lambda_t_character(profile, 1, exp2, order2)
    else:
        for exp2 in range(1, order2, 2):
            series = series * lambda_t_character(profile, -1, exp2, order2)
    return ThetaBundleSeries(kind, profile, series)


def summed_theta2(profile: RootProfile, order2: int) -> ThetaBundleSeries:
    """Theta_2 as one product over root pairs of its factors' summed pair logs.

    Each factor is exp(sum_n L_n S_n) with S_n the power sums of the u_j
    (Macdonald, *Symmetric Functions*, I.2), so the product of the factors is
    the exponential of the summed L_n: one partition sum, where
    ``build_theta_bundle`` makes one per factor and a series product besides.
    The sum adds the same Adams-operation logs (``_factor_logs``), and the
    series equals build_theta_bundle(THETA2, profile, order2).series.
    """
    factors = [(1, 1, exp2) for exp2 in range(2, order2, 2)]  # S_(q^n)
    factors += [(-1, -1, exp2) for exp2 in range(1, order2, 2)]  # Lambda_(-q^(n-1/2))
    logs = [HalfQSeries.zero(QQ, order2)] * profile.max_weight
    for adams_sign, t_sign, t_exp2 in factors:
        factor = _factor_logs(adams_sign, t_sign, t_exp2, order2, profile.max_weight)
        logs = [total + log for total, log in zip(logs, factor)]
    series = product_over_root_pairs(HalfQSeries.one(QQ, order2), logs, profile)
    return ThetaBundleSeries(THETA2, profile, series)


_THETA_MEMO: dict = {}


def theta_bundle(kind: str, profile: RootProfile, order2: int) -> ThetaBundleSeries:
    """build_theta_bundle, built once per (kind, profile) and truncated on reuse.

    A request above the stored order rebuilds at that order and replaces the
    stored bundle; the result always has exactly the requested order2.  The
    two kinds' shared S half is held under the profile at the largest order
    built, until both bundles are held at its order or above.
    """
    held = _THETA_MEMO.get((kind, profile))
    if held is None or held.series.order2 < order2:
        half = _THETA_MEMO.get(profile)
        if half is None or half.order2 < order2:
            half = _THETA_MEMO[profile] = _symmetric_half(profile, order2)
        held = _THETA_MEMO[kind, profile] = build_theta_bundle(kind, profile, order2, half=half)
        bundles = [_THETA_MEMO.get((k, profile)) for k in (THETA1, THETA2)]
        if all(b is not None and b.series.order2 >= half.order2 for b in bundles):
            del _THETA_MEMO[profile]
    return held if held.series.order2 == order2 else held.truncate(order2)


theta_bundle.cache_clear = _THETA_MEMO.clear
