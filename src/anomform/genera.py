"""Standard characteristic series: the A-roof and the L-class.

Each genus is a product over the roots of an even per-root factor f, and
enters the product over root pairs (``chroot.product_over_root_pairs``)
through its pair log log(f/f0) = sum_k l_k u^k in u = x^2.  These logs
are closed forms in the Bernoulli numbers B_2k:

    (x/2)/sinh(x/2)   f0 = 1   l_k = -B_2k / (2k (2k)!)
    x/tanh x          f0 = 1   l_k = 2^2k (2^2k - 2) B_2k / (2k (2k)!)
    x/tanh(x/2)       f0 = 2   l_k = (2^2k - 2) B_2k / (2k (2k)!)

from log(sinh x / x) = sum_k 2^2k B_2k x^2k / (2k (2k)!) and
log cosh x = sum_k 2^2k (2^2k - 1) B_2k x^2k / (2k (2k)!).  They are the
q^0 terms of the Eisenstein pair logs of the level-2 theta quotients
(``anomaly.theta_quotient_pair_series``), so no power series is inverted
or multiplied to build either class.  Each Bernoulli number is computed
once per process.

The L-class ships in two angle conventions, full (x/tanh x, zero roots
contribute 1) and half (x/tanh(x/2), zero roots contribute 2); which one
makes downstream constants exact is a measured fact, not an assumption,
so both are first-class.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .chroot import GradedClass, RootProfile, product_over_root_pairs
from .qseries import QQ, HalfQSeries

AHAT = "ahat"
L_FULL = "full"
L_HALF = "half"

_L_ALIASES = {
    "full": L_FULL,
    "full_angle": L_FULL,
    "half": L_HALF,
    "half_angle": L_HALF,
}

# genus -> (f0, l_k / (B_2k / (2k (2k)!))), the table of the module doc
_PAIR_LOGS = {
    AHAT: (1, lambda k: -1),
    L_FULL: (1, lambda k: 4**k * (4**k - 2)),
    L_HALF: (2, lambda k: 4**k - 2),
}


def normalize_l_variant(variant: str) -> str:
    try:
        return _L_ALIASES[variant]
    except KeyError:
        raise ValueError(f"unknown L-class variant {variant!r} (use 'full' or 'half')")


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    """B_n (B_1 = -1/2), from sum_(j<=n) C(n+1, j) B_j = 0; B_0..B_(n-1) in order, so 2 deep."""
    if n == 0:
        return Fraction(1)
    return -sum(comb(n + 1, j) * _bernoulli(j) for j in range(n)) / (n + 1)


def genus_pair_log(genus: str, max_weight: int) -> tuple:
    """(f0, (l_1, ..., l_w)) of the per-root factor of AHAT, L_FULL or L_HALF."""
    f0, factor = _PAIR_LOGS[genus]
    return Fraction(f0), tuple(
        factor(k) * _bernoulli(2 * k) / (2 * k * factorial(2 * k))
        for k in range(1, max_weight + 1)
    )


def _genus_class(genus: str, profile: RootProfile) -> GradedClass:
    f0, logs = genus_pair_log(genus, profile.max_weight)
    f0, *logs = (HalfQSeries(QQ, {0: c}, 1) for c in (f0, *logs))
    return product_over_root_pairs(f0, logs, profile).coefficient(0)


@lru_cache(maxsize=None)
def a_hat(profile: RootProfile) -> GradedClass:
    """A-roof class: prod (x/2)/sinh(x/2) over the root multiset."""
    return _genus_class(AHAT, profile)


@lru_cache(maxsize=None)
def l_class(profile: RootProfile, variant: str = L_FULL) -> GradedClass:
    """Hirzebruch L-class in the requested angle convention.

    Zero roots contribute the x -> 0 limit of the per-root factor:
    1 for full angle, 2 for half angle.
    """
    return _genus_class(normalize_l_variant(variant), profile)
