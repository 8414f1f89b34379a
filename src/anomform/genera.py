"""Standard characteristic series: A-roof, the L-class, spinor characters.

Everything is built per Chern root and pushed through the product-over-roots
pipeline.  The L-class ships in two angle conventions, full (x/tanh x, zero
roots contribute 1) and half (x/tanh(x/2), zero roots contribute 2); which
one makes downstream constants exact is a measured fact, not an assumption,
so both are first-class.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .chroot import (
    GradedClass,
    RootProfile,
    product_over_roots,
    xseries_inverse,
    xseries_mul,
)

L_FULL = "full"
L_HALF = "half"

_L_ALIASES = {
    "full": L_FULL,
    "full_angle": L_FULL,
    "half": L_HALF,
    "half_angle": L_HALF,
}


def normalize_l_variant(variant: str) -> str:
    try:
        return _L_ALIASES[variant]
    except KeyError:
        raise ValueError(f"unknown L-class variant {variant!r} (use 'full' or 'half')")


def _even_series(term, x_order: int) -> list:
    """Dense series with x^(2k) coefficient term(k) and zero odd part."""
    out = [Fraction(0)] * x_order
    for k in range(0, (x_order + 1) // 2):
        out[2 * k] = term(k)
    return out


def sinh_ratio_series(x_order: int, half: bool = True) -> list:
    """sinh(ax)/(ax) with a = 1/2 (half=True) or a = 1."""
    a = Fraction(1, 2) if half else Fraction(1)
    return _even_series(lambda k: a ** (2 * k) / factorial(2 * k + 1), x_order)


def cosh_series(x_order: int, half: bool = True, scale: int = 1) -> list:
    """scale * cosh(ax) with a = 1/2 (half=True) or a = 1."""
    a = Fraction(1, 2) if half else Fraction(1)
    return _even_series(lambda k: scale * a ** (2 * k) / factorial(2 * k), x_order)


def ahat_root_series(x_order: int) -> list:
    """(x/2)/sinh(x/2)."""
    return xseries_inverse(sinh_ratio_series(x_order, half=True), x_order)


def l_root_series(x_order: int, variant: str = L_FULL) -> list:
    """x/tanh(x) (full angle) or x/tanh(x/2) (half angle)."""
    variant = normalize_l_variant(variant)
    if variant == L_FULL:
        inv_sinh = xseries_inverse(sinh_ratio_series(x_order, half=False), x_order)
        return xseries_mul(cosh_series(x_order, half=False), inv_sinh, x_order)
    inv_sinh = xseries_inverse(sinh_ratio_series(x_order, half=True), x_order)
    return xseries_mul(cosh_series(x_order, half=True, scale=2), inv_sinh, x_order)


def spinor_root_series(x_order: int) -> list:
    """2*cosh(x/2), the per-pair character of the full spinor bundle."""
    return cosh_series(x_order, half=True, scale=2)


def _x_order(profile: RootProfile) -> int:
    return 2 * profile.max_weight + 1


@lru_cache(maxsize=None)
def a_hat(profile: RootProfile) -> GradedClass:
    """A-roof class: prod (x/2)/sinh(x/2) over the root multiset."""
    return product_over_roots(ahat_root_series(_x_order(profile)), profile)


@lru_cache(maxsize=None)
def l_class(profile: RootProfile, variant: str = L_FULL) -> GradedClass:
    """Hirzebruch L-class in the requested angle convention.

    Zero roots contribute the x -> 0 limit of the per-root factor:
    1 for full angle, 2 for half angle.
    """
    return product_over_roots(l_root_series(_x_order(profile), variant), profile)


def spinor_character(profile: RootProfile, kind: str = "even") -> GradedClass:
    """Chern character of the spinor bundle: prod of 2*cosh(x_j/2) over pairs.

    Both kinds share the root formula; a zero root contributes a factor 1
    (the bundle rank is 2^n_pairs for either fiber parity).  The kind is
    validated against the fiber parity only.
    """
    kinds = {"even": False, "even_full": False, "odd": True, "odd_full": True}
    try:
        wants_odd = kinds[kind]
    except KeyError:
        raise ValueError(f"unknown spinor kind {kind!r}")
    if wants_odd != profile.has_zero_root:
        raise ValueError(
            f"spinor kind {kind!r} does not match fiber dimension {profile.fiber_dim}"
        )
    return product_over_roots(
        spinor_root_series(_x_order(profile)), profile, include_zero_root=False
    )
