"""Top-level identity verifier.

Builds the degree-(8m+4) and degree-8m characteristic q-series two ways:
K-theory tensor assembly, and theta-quotient products over the roots, whose
pair log is a closed sum of Eisenstein divisor sums and whose product over
roots is the partition sum of ``chroot.product_over_root_pairs`` at the
identity weight alone.  It runs the modular-basis decomposition, measures
the normalization scalar of the main cancellation identity against the
expected integer constant, checks the three classical gravitational
cancellation combinations, and extracts the integer corollary vectors.
Everything here is exact rational arithmetic; a report either has an empty
residual list or names the offending monomials.

Both routes reach the characteristic-form ring through the same partition
sum, so ``verify_route_equivalence`` compares what differs between them:
the K-theory route multiplies 2m+4 factor characters, each the exponential
of its own Adams-operation pair log (``witten``), and applies the genus
with ``GradedClass.mul_degree``; the theta route adds the genus log to the
Eisenstein divisor sums of ``_divisor_sum`` and exponentiates that one
summed log.  The check thus pits a product of exponentials against the
exponential of a sum, the per-factor Adams sums against the divisor sums,
and ``mul_degree`` against log addition.  Newton's identities for the
exterior powers are on neither route: only a test oracle checks the
factors against them.

Every exact artifact is computed once per identity class, the (case, m,
degree) that ``modforms.identity_parameters`` assigns a fiber dimension:
8m+1..8m+3 (b case) or 8m-3..8m-1 (z case) at degree 8m+4 or 8m.  At
weight w = degree/4 the truncated Pontryagin ring is free in p_1..p_w once
n_pairs >= w, and a zero root contributes nothing to a reduced character,
the A-roof or the full-angle L class; so a stable fiber
is computed on its class representative RootProfile(8m+2 or 8m-2, degree),
and the dimension d enters only where it is mathematically present: the
corollary constant beta and the half-angle L constant 2^ceil(d/2).
Dimension 1 (n_pairs 0 < w 1) is unstable and keeps its own profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .chroot import GradedClass, GradedRing, RootProfile, product_over_root_pairs
from .genera import (
    AHAT,
    L_FULL,
    L_HALF,
    a_hat,
    genus_pair_log,
    l_class,
    normalize_l_variant,
)
from .modforms import SpanError, basis_decompose, decompose_theta2, identity_parameters
from .qseries import QQ, HalfQSeries
from .witten import (
    THETA1,
    THETA2,
    chern_character,
    default_theta_order2,
    theta_bundle,
)

ROUTE_KTHEORY = "ktheory"
ROUTE_THETA = "theta_product"

P1, P2, Q1, Q2 = "P1", "P2", "Q1", "Q2"

CASE_CONSTANTS = {"b": 8, "z": 1}  # overall factor in front of sum 2^(6m-6r)


def identity_profile(fiber_dim: int, max_form_degree: int | None = None) -> RootProfile:
    """Root profile truncated at the fiber's identity degree by default."""
    if max_form_degree is None:
        _, _, max_form_degree = identity_parameters(fiber_dim)
    return RootProfile(fiber_dim, max_form_degree)


def _class_profile(fiber_dim: int) -> RootProfile:
    """The profile fiber_dim's identity class is computed on (see the module doc)."""
    case, m, degree = identity_parameters(fiber_dim)
    own = RootProfile(fiber_dim, degree)
    if own.n_pairs < own.max_weight:
        return own
    return RootProfile(8 * m + 2 if case == "b" else 8 * m - 2, degree)


def _half_angle_scale(fiber_dim: int, profile: RootProfile, l_variant) -> int:
    """L-class factor from `profile` to fiber_dim: 2^ceil(d/2) / 2^ceil(d_rep/2) or 1.

    Each root pair and a zero root contribute the constant term of
    x/tanh(x/2), which is 2; under the full angle that constant is 1.
    """
    if l_variant != L_HALF:
        return 1
    return 2 ** ((fiber_dim + 1) // 2 - (profile.fiber_dim + 1) // 2)


@dataclass
class IdentityReport:
    """Outcome of one verification: measured scalar, residuals, status."""

    identity: str
    fiber_dim: int
    m: int
    l_variant: str | None
    route: str | None
    lambda_measured: Fraction | None
    paper_ratio: Fraction | None
    residuals: list
    status: str
    lhs: list = field(default_factory=list)
    rhs: list = field(default_factory=list)

    def to_obj(self) -> dict:
        return {
            "identity": self.identity,
            "fiber_dim": self.fiber_dim,
            "m": self.m,
            "l_variant": self.l_variant,
            "route": self.route,
            "lambda": None if self.lambda_measured is None else str(self.lambda_measured),
            "paper_ratio": None if self.paper_ratio is None else str(self.paper_ratio),
            "residuals": self.residuals,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


def _exact_report(identity, fiber_dim, m, l_variant, route, residuals, status, lhs):
    """Report of an exact comparison: lambda = paper_ratio = 1 exactly when it passes."""
    unit = Fraction(1) if status == "pass" else None
    return IdentityReport(
        identity, fiber_dim, m, l_variant, route, unit, unit, residuals, status, lhs
    )


@dataclass(frozen=True)
class CorollaryVector:
    """Integer combination over {signature twist, T_C Z twist, trivial twist}."""

    fiber_dim: int
    coefficients: tuple

    basis = ("signature-twist", "TCZ-twist", "trivial-twist")

    def to_obj(self) -> dict:
        return {
            "fiber_dim": self.fiber_dim,
            "basis": list(self.basis),
            "coefficients": [str(c) for c in self.coefficients],
        }


def _kind_parameters(kind: str, profile: RootProfile):
    case, m, degree = identity_parameters(profile.fiber_dim)
    if kind in (P1, P2) and case != "b":
        raise ValueError(f"{kind} requires fiber dimension 8m+1..8m+3, got {profile.fiber_dim}")
    if kind in (Q1, Q2) and case != "z":
        raise ValueError(f"{kind} requires fiber dimension 8m-3..8m-1, got {profile.fiber_dim}")
    if profile.max_form_degree < degree:
        raise ValueError(
            f"profile truncation {profile.max_form_degree} below identity degree {degree}"
        )
    return case, m, degree


# -- exact theta-quotient route ---------------------------------------------


def _divisor_sum(theta1_side: bool, n: int, p: int) -> int:
    """a_j(n) at p = 2j - 1: sum_(k|n) (-1)^(n/k) k^p on the Theta_2 side;
    2 sum_(k|n/2, k odd) k^p for even n and 0 for odd n on the Theta_1 side."""
    if not theta1_side:
        return sum((-1) ** (n // k) * k**p for k in range(1, n + 1) if n % k == 0)
    if n % 2:
        return 0
    return 2 * sum(k**p for k in range(1, n // 2 + 1, 2) if n // 2 % k == 0)


def theta_quotient_pair_series(
    kind: str, l_variant: str, order2: int, max_weight: int
) -> tuple:
    """Pair log (f0, (L_1, ..., L_w)) of one root pair's theta-quotient factor f.

    f is even in x; log(f/f0) = sum_j L_j u^j in u = x^2 (``chroot.pair_log``).
    It is the K-theory prefactor (A-roof on the Theta_2 side, the requested
    L-variant on the Theta_1 side) times exterior-power factors
    (1 + s t e^(cx))(1 + s t e^(-cx)) / (1 + s t)^2 at t = q^(h/2), s = +-1,
    over symmetric-power ones at s = -1, t = q^n.  A factor's log is
    sum_k (-1)^(k-1) (st)^k / k * 2 (cosh(ckx) - 1), so
    L_j = l_j + 2 c^(2j) / (2j)! * sum_(0<N<order2) a_j(N) q^(N/2), with l_j
    the prefactor's closed-form pair log (``genera.genus_pair_log``), f0 its
    constant term and the Eisenstein divisor sums of ``_divisor_sum`` (Zagier,
    "Note on the Landweber-Stong elliptic genus", 1988).  Equivalently L_j is
    2 c^(2j) / (2j)! times an Eisenstein series whose constant term is
    -B_2j / (4j) on the Theta_2 side and (2^2j - 2) B_2j / (4j) on the Theta_1
    side.  The full-angle Theta_1 calibration doubles the root
    exponentials (c = 2): the determinant normalization under which the
    S-transformation carries the clean 2^(4m+2) factor.
    """
    theta1_side = kind not in (P2, Q2)
    genus = normalize_l_variant(l_variant) if theta1_side else AHAT
    c = 2 if genus == L_FULL else 1
    f0, ell = genus_pair_log(genus, max_weight)
    logs = []
    for j in range(1, max_weight + 1):
        scale = Fraction(2 * c ** (2 * j), factorial(2 * j))
        terms = {n: scale * _divisor_sum(theta1_side, n, 2 * j - 1) for n in range(1, order2)}
        logs.append(HalfQSeries(QQ, {0: ell[j - 1], **terms}, order2))
    return HalfQSeries(QQ, {0: f0}, order2), tuple(logs)


@lru_cache(maxsize=None)
def p_form(
    kind: str,
    profile: RootProfile,
    route: str = ROUTE_KTHEORY,
    l_variant: str = L_FULL,
    order2: int | None = None,
) -> HalfQSeries:
    """The degree-extracted characteristic q-series P_1/P_2/Q_1/Q_2.

    ktheory route: Hirzebruch prefactor times the Witten bundle character,
    degree component per q-coefficient.  theta_product route: the closed-form
    pair log of the theta-quotient factor, summed over the partitions of the
    identity weight (``chroot.product_over_root_pairs``).  Memoised:
    each series is computed once per argument tuple and process.
    """
    case, m, degree = _kind_parameters(kind, profile)
    if order2 is None:
        order2 = default_theta_order2(m)
    ring = GradedRing(profile)
    if route == ROUTE_KTHEORY:
        if kind in (P2, Q2):
            prefactor = a_hat(profile)
            theta = theta_bundle(THETA2, profile, order2)
        else:
            prefactor = l_class(profile, normalize_l_variant(l_variant))
            theta = theta_bundle(THETA1, profile, order2)
        return theta.series.map_coefficients(
            lambda ch: prefactor.mul_degree(ch, degree), ring
        )
    if route != ROUTE_THETA:
        raise ValueError(f"unknown route {route!r}")
    f0, logs = theta_quotient_pair_series(kind, l_variant, order2, profile.max_weight)
    return product_over_root_pairs(f0, logs, profile, weights=(degree // 4,))


# -- symbolic verifications --------------------------------------------------


def verify_decomposition_identity(fiber_dim: int, order2: int | None = None) -> IdentityReport:
    """Check P_2 (or Q_2) = sum_r {A-roof ch(b_r or z_r)} basis_r in full.

    The coefficients come from the matched-window solve; agreement must then
    extend through the whole computed truncation (series-level modularity),
    and the solved coefficients must equal the A-roof images of the bundle
    decomposition.
    """
    case, m, degree = identity_parameters(fiber_dim)
    profile = _class_profile(fiber_dim)
    if order2 is None:
        order2 = default_theta_order2(m)
    kind = P2 if case == "b" else Q2
    identity = "eq3.12" if case == "b" else "eq3.33"
    weight = degree // 2
    series = p_form(kind, profile, ROUTE_KTHEORY, L_FULL, order2)
    residuals = []
    status = "pass"
    hs = []
    try:
        hs = basis_decompose(series, weight)
    except SpanError as err:
        status = "fail"
        residuals.append({"exp2": err.exp2, "error": str(err)})
    if status == "pass":
        # cross-check h_r against the bundle-level decomposition
        ahat = a_hat(profile)
        brs = decompose_theta2(m, profile)
        for r in range(min(len(hs), len(brs)), max(len(hs), len(brs))):
            status = "fail"
            missing = f"{case}_{r}" if r >= len(brs) else f"h_{r}"
            residuals.append({"r": r, "error": f"{missing} is missing from the decomposition"})
        for r, (h, br) in enumerate(zip(hs, brs)):
            expected = ahat.mul_degree(br, degree)
            if h != expected:
                status = "fail"
                residuals.append(
                    {
                        "r": r,
                        "error": "basis coefficient differs from A-roof ch(b_r)",
                        "basis": h.to_obj(),
                        "bundle": expected.to_obj(),
                    }
                )
    if status == "pass" and all(not h for h in hs):
        status = "degenerate-zero"
    return _exact_report(
        identity, fiber_dim, m, None, ROUTE_KTHEORY, residuals, status,
        [h.to_obj() for h in hs],
    )


def main_identity_sides(fiber_dim: int, l_variant: str = L_FULL):
    """(lhs, rhs) of the top-degree identity before scalar normalization.

    lhs = {L}^(deg), rhs = sum_r 2^(-6r) {A-roof ch(b_r or z_r)}^(deg); the
    identity claims lhs = lambda * rhs with lambda = 8*2^(6m) or 2^(6m).
    Both sides live over the class profile.
    """
    case, m, degree = identity_parameters(fiber_dim)
    profile = _class_profile(fiber_dim)
    brs = decompose_theta2(m, profile)
    ahat = a_hat(profile)
    l_variant = normalize_l_variant(l_variant)
    lhs = l_class(profile, l_variant).degree_component(degree)
    lhs = lhs * _half_angle_scale(fiber_dim, profile, l_variant)
    rhs = GradedClass.zero(profile)
    for r, br in enumerate(brs):
        h = ahat.mul_degree(br, degree)
        rhs = rhs + h * Fraction(1, 64**r)
    return lhs, rhs


def verify_main_identity(fiber_dim: int, l_variant: str = L_FULL) -> IdentityReport:
    """Measure the unique scalar with {L}^(deg) = lambda sum_r 2^(-6r) h_r.

    All p-monomials must give one and the same scalar; the report carries
    lambda and its ratio to the expected constant (8*2^(6m) or 2^(6m)).
    """
    case, m, degree = identity_parameters(fiber_dim)
    l_variant = normalize_l_variant(l_variant)
    identity = "eq3.14" if case == "b" else "eq3.35"
    lhs, rhs = main_identity_sides(fiber_dim, l_variant)
    expected_constant = Fraction(CASE_CONSTANTS[case] * 2 ** (6 * m))
    monomials = sorted(
        {mon for mon, _ in lhs.items()} | {mon for mon, _ in rhs.items()}
    )
    residuals = []
    lam = None
    for mon in monomials:
        lc, rc = lhs.coefficient(mon), rhs.coefficient(mon)
        if not rc:
            residuals.append({"monomial": list(mon), "lhs": str(lc), "rhs": str(rc)})
            continue
        ratio = lc / rc
        if lam is None:
            lam = ratio
        elif ratio != lam:
            residuals.append(
                {"monomial": list(mon), "lhs": str(lc), "rhs": str(rc), "ratio": str(ratio)}
            )
    status = "pass" if lam is not None and not residuals else "fail"
    if not monomials:
        status = "degenerate-zero"
    return IdentityReport(
        identity=identity,
        fiber_dim=fiber_dim,
        m=m,
        l_variant=l_variant,
        route=ROUTE_KTHEORY,
        lambda_measured=lam,
        paper_ratio=None if lam is None else lam / expected_constant,
        residuals=residuals,
        status=status,
        lhs=lhs.to_obj(),
        rhs=rhs.to_obj(),
    )


_AGW_COMBINATIONS = {
    2: ("eq1.1", (Fraction(-1), Fraction(0), Fraction(1))),
    6: ("eq1.2", (Fraction(21), Fraction(-1), Fraction(8))),
    10: ("eq1.3", (Fraction(-1), Fraction(1), Fraction(1))),
}


def agw_densities(dim: int, l_variant: str = L_FULL):
    """(I_1/2, I_3/2, I_A) integrand densities in degree dim + 2.

    I_1/2 = {A-roof}, I_3/2 = {A-roof (ch T_C Z - 1)}, I_A = -(1/8){L}.
    """
    degree = dim + 2
    profile = RootProfile(dim, degree)
    ahat = a_hat(profile)
    i_half = ahat.degree_component(degree)
    i_three_half = ahat.mul_degree(chern_character(profile) - 1, degree)
    i_a = l_class(profile, normalize_l_variant(l_variant)).degree_component(degree) * Fraction(-1, 8)
    return i_half, i_three_half, i_a


def verify_agw(dim: int, l_variant: str = L_FULL) -> IdentityReport:
    """Check the dimension-2/6/10 gravitational cancellation combinations.

    Every monomial of the stated linear combination of the three densities
    must vanish identically.
    """
    if dim not in _AGW_COMBINATIONS:
        raise ValueError(f"dimension {dim} has no classical cancellation formula")
    identity, (c_half, c_three, c_a) = _AGW_COMBINATIONS[dim]
    i_half, i_three_half, i_a = agw_densities(dim, l_variant)
    combo = i_half * c_half + i_three_half * c_three + i_a * c_a
    residuals = [
        {"monomial": list(mon), "value": str(c)} for mon, c in combo.items()
    ]
    case, m, _ = identity_parameters(dim)
    return _exact_report(
        identity, dim, m, normalize_l_variant(l_variant), ROUTE_KTHEORY, residuals,
        "pass" if not residuals else "fail", combo.to_obj(),
    )


COROLLARY_DIMENSIONS = (1, 2, 3, 5, 6, 7, 9, 10, 11)


def corollary_coefficients(fiber_dim: int) -> CorollaryVector:
    """Integer vector of the corollary combination for the listed dimensions.

    Writes (8 or 1) sum_r 2^(6m-6r) ch(b_r or z_r) as alpha ch(T_C Z) + beta
    and returns (1, -alpha, -beta): the vanishing combination of the twisted
    operator densities, signature twist normalized to +1.
    """
    if fiber_dim not in COROLLARY_DIMENSIONS:
        raise ValueError(f"no corollary is stated for fiber dimension {fiber_dim}")
    case, m, _ = identity_parameters(fiber_dim)
    profile = _class_profile(fiber_dim)
    brs = decompose_theta2(m, profile)
    overall = CASE_CONSTANTS[case]
    combo = GradedClass.zero(profile)
    for r, br in enumerate(brs):
        combo = combo + br * (overall * 2 ** (6 * m - 6 * r))
    form = combo.positive_part()
    tc_form = chern_character(profile).positive_part()
    alpha = Fraction(0)
    if tc_form:
        ratios = set()
        for mon, c in tc_form.items():
            ratios.add(form.coefficient(mon) / c)
        if len(ratios) != 1:
            raise ArithmeticError(
                "combination is not a multiple of ch(T_C Z) plus constants"
            )
        alpha = ratios.pop()
        if form != tc_form * alpha:
            raise ArithmeticError("combination has extra form content")
    elif form:
        raise ArithmeticError("combination has form content on a formless fiber")
    beta = combo.constant_term() - alpha * fiber_dim
    return CorollaryVector(fiber_dim, (Fraction(1), -alpha, -beta))


def verify_route_equivalence(
    fiber_dim: int,
    kind: str | None = None,
    order2: int | None = None,
    l_variant: str = L_FULL,
) -> IdentityReport:
    """Compare the K-theory and theta-quotient routes coefficient by coefficient."""
    case, m, _ = identity_parameters(fiber_dim)
    if kind is None:
        kind = P2 if case == "b" else Q2
    _kind_parameters(kind, identity_profile(fiber_dim))  # errors name fiber_dim
    profile = _class_profile(fiber_dim)
    if order2 is None:
        order2 = default_theta_order2(m)
    l_variant = normalize_l_variant(l_variant) if kind in (P1, Q1) else None
    via_k = p_form(kind, profile, ROUTE_KTHEORY, l_variant or L_FULL, order2)
    via_theta = p_form(kind, profile, ROUTE_THETA, l_variant or L_FULL, order2)
    scale = _half_angle_scale(fiber_dim, profile, l_variant)
    bound = min(via_k.order2, via_theta.order2)
    residuals = []
    for exp2 in range(bound):
        a, b = via_k.coefficient(exp2), via_theta.coefficient(exp2)
        if a != b:
            residuals.append(
                {
                    "kind": kind,
                    "exp2": exp2,
                    "ktheory": (a * scale).to_obj(),
                    "theta_product": (b * scale).to_obj(),
                }
            )
            break  # report the first differing coefficient
    nonzero = any(bool(via_k.coefficient(e)) for e in range(bound))
    status = "pass" if not residuals else "fail"
    if status == "pass" and not nonzero:
        status = "degenerate-zero"
    route = f"{ROUTE_KTHEORY}|{ROUTE_THETA}"
    return _exact_report(f"routes-{kind}", fiber_dim, m, l_variant, route, residuals, status, [])
