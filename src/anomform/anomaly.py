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
Eisenstein divisor sums of ``modforms.eisenstein_series`` and exponentiates
that one summed log.  The check thus pits a product of exponentials against
the exponential of a sum, the per-factor Adams sums against the divisor sums,
and ``mul_degree`` against log addition.  Newton's identities for the
exterior powers are on neither route: only a test oracle checks the
factors against them.

eq3.12/eq3.33 decompose the theta-route series at the class order and
compare its basis coefficients with the b_r/z_r that ``decompose_theta2``
solves from the Witten Theta_2 through q^(m/2): that ties the two routes
together, and only ``verify_route_equivalence`` builds the K-theory series
at the full order.  Past the matched window the coefficients test the code,
not the theorem (Sturm's bound).

Every exact artifact is computed once per identity class, the (case, m,
degree) that ``modforms.identity_parameters`` assigns a fiber dimension:
8m+1..8m+3 (b case) or 8m-3..8m-1 (z case) at degree 8m+4 or 8m.  At
weight w = degree/4 the truncated Pontryagin ring is free in p_1..p_w once
n_pairs >= w, and a zero root contributes nothing to a reduced character,
the A-roof or the full-angle L class; so a stable fiber is computed on its
class representative RootProfile(8m+2 or 8m-2, degree), and the dimension
d enters only where it is mathematically present: the corollary constant
beta and the half-angle L constant 2^ceil(d/2).  Memos keyed on that
profile enforce it: ``identity_class`` holds the class's b_r/z_r solve,
its h_r and the main identity's rhs, ``_decomposition`` its eq3.12/eq3.33
comparison per order2, and ``p_form`` its series.
Dimension 1 (n_pairs 0 < w 1) is unstable and keeps its own profile.
"""

from __future__ import annotations

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
from .modforms import (
    SpanError,
    basis_decompose,
    decompose_theta2,
    eisenstein_series,
    identity_parameters,
)
from .qseries import QQ, FrozenRecord, HalfQSeries, Record
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


class IdentityReport(Record):
    """Outcome of one verification: measured scalar, residuals, status."""

    def __init__(self, identity: str, fiber_dim: int, m: int, l_variant: str | None,
                 route: str | None, lambda_measured: Fraction | None,
                 paper_ratio: Fraction | None, residuals: list, status: str,
                 lhs: list | None = None, rhs: list | None = None):
        self.identity = identity
        self.fiber_dim = fiber_dim
        self.m = m
        self.l_variant = l_variant
        self.route = route
        self.lambda_measured = lambda_measured
        self.paper_ratio = paper_ratio
        self.residuals = residuals
        self.status = status
        self.lhs = [] if lhs is None else lhs
        self.rhs = [] if rhs is None else rhs

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


class CorollaryVector(FrozenRecord):
    """Integer combination over {signature twist, T_C Z twist, trivial twist}."""

    basis = ("signature-twist", "TCZ-twist", "trivial-twist")

    def __init__(self, fiber_dim: int, coefficients: tuple):
        self.__dict__.update(fiber_dim=fiber_dim, coefficients=coefficients)

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
    constant term and the Eisenstein divisor sums a_j(N) below (Zagier,
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
    # a_j(N) at p = 2j - 1: sum_(k|N) (-1)^(N/k) k^p on the Theta_2 side;
    # 2 sum_(k|N/2, k odd) k^p at even N and 0 at odd N on the Theta_1 side
    weight, step = (lambda k, co: 2 * (k % 2), 2) if theta1_side else (lambda k, co: (-1) ** co, 1)
    return HalfQSeries(QQ, {0: f0}, order2), tuple(
        eisenstein_series(ell[j - 1], Fraction(2 * c ** (2 * j), factorial(2 * j)),
                          2 * j - 1, weight, step, order2)
        for j in range(1, max_weight + 1)
    )


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


class IdentityClass(FrozenRecord):
    """What every report of one identity class reads, computed on its profile.

    Case, m, degree, kind and identity ids; the b_r/z_r, their A-roof images
    h_r = {A-roof ch(b_r)} and the main identity's rhs sum_r 2^(-6r) h_r.
    """

    _IDS = {"b": (P2, "eq3.12", "eq3.14"), "z": (Q2, "eq3.33", "eq3.35")}

    def __init__(self, profile: RootProfile):
        case, m, degree = identity_parameters(profile.fiber_dim)
        kind, decomposition_id, main_id = self._IDS[case]
        brs = decompose_theta2(m, profile)
        ahat = a_hat(profile)
        hs = tuple(ahat.mul_degree(br, degree) for br in brs)
        rhs = sum((h * Fraction(1, 64**r) for r, h in enumerate(hs)), GradedClass.zero(profile))
        self.__dict__.update(
            profile=profile, case=case, m=m, degree=degree, kind=kind,
            decomposition_id=decomposition_id, main_id=main_id, brs=brs, hs=hs, rhs=rhs,
        )


@lru_cache(maxsize=None)
def identity_class(profile: RootProfile) -> IdentityClass:
    """The record of the class computed on `profile`, built once per process."""
    return IdentityClass(profile)


@lru_cache(maxsize=None)
def _decomposition(profile: RootProfile, order2: int) -> tuple:
    """(hs, residuals, status) of eq3.12/eq3.33 at order2; each report serialises the classes."""
    cls = identity_class(profile)
    series = p_form(cls.kind, profile, ROUTE_THETA, L_FULL, order2)
    try:
        hs = tuple(basis_decompose(series, cls.degree // 2))
    except SpanError as err:
        return (), ({"exp2": err.exp2, "error": str(err)},), "fail"
    # cross-check h_r against the bundle-level decomposition
    residuals = []
    for r in range(min(len(hs), len(cls.hs)), max(len(hs), len(cls.hs))):
        missing = f"{cls.case}_{r}" if r >= len(cls.hs) else f"h_{r}"
        residuals.append({"r": r, "error": f"{missing} is missing from the decomposition"})
    for r, (h, expected) in enumerate(zip(hs, cls.hs)):
        if h != expected:
            residuals.append({"r": r, "error": "basis coefficient differs from A-roof ch(b_r)",
                              "basis": h, "bundle": expected})
    status = "fail" if residuals else "pass" if any(hs) else "degenerate-zero"
    return hs, tuple(residuals), status


def verify_decomposition_identity(fiber_dim: int, order2: int | None = None) -> IdentityReport:
    """Check P_2 (or Q_2) = sum_r {A-roof ch(b_r or z_r)} basis_r in full.

    P_2 comes from the theta-quotient route at order2.  The coefficients come
    from the matched-window solve; agreement must then extend through the
    whole computed truncation (series-level modularity), and the solved
    coefficients must equal the A-roof images of the bundle decomposition,
    which reads the Witten Theta_2 only through q^(m/2).
    """
    cls = identity_class(_class_profile(fiber_dim))
    order2 = default_theta_order2(cls.m) if order2 is None else order2
    hs, residuals, status = _decomposition(cls.profile, order2)
    residuals = [{key: v.to_obj() if isinstance(v, GradedClass) else v for key, v in res.items()}
                 for res in residuals]
    return _exact_report(
        cls.decomposition_id, fiber_dim, cls.m, None, ROUTE_THETA, residuals, status,
        [h.to_obj() for h in hs],
    )


def main_identity_sides(fiber_dim: int, l_variant: str = L_FULL):
    """(lhs, rhs) of the top-degree identity before scalar normalization.

    lhs = {L}^(deg), rhs = sum_r 2^(-6r) {A-roof ch(b_r or z_r)}^(deg); the
    identity claims lhs = lambda * rhs with lambda = 8*2^(6m) or 2^(6m).
    Both sides live over the class profile.
    """
    cls = identity_class(_class_profile(fiber_dim))
    l_variant = normalize_l_variant(l_variant)
    lhs = l_class(cls.profile, l_variant).degree_component(cls.degree)
    return lhs * _half_angle_scale(fiber_dim, cls.profile, l_variant), cls.rhs


def verify_main_identity(fiber_dim: int, l_variant: str = L_FULL) -> IdentityReport:
    """Measure the unique scalar with {L}^(deg) = lambda sum_r 2^(-6r) h_r.

    All p-monomials must give one and the same scalar; the report carries
    lambda and its ratio to the expected constant (8*2^(6m) or 2^(6m)).
    """
    cls = identity_class(_class_profile(fiber_dim))
    l_variant = normalize_l_variant(l_variant)
    lhs, rhs = main_identity_sides(fiber_dim, l_variant)
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
        cls.main_id, fiber_dim, cls.m, l_variant, ROUTE_KTHEORY, lam,
        None if lam is None else lam / (CASE_CONSTANTS[cls.case] * 2 ** (6 * cls.m)),
        residuals, status, lhs.to_obj(), rhs.to_obj(),
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
    cls = identity_class(_class_profile(fiber_dim))
    combo = GradedClass.zero(cls.profile)
    for r, br in enumerate(cls.brs):
        combo = combo + br * (CASE_CONSTANTS[cls.case] * 2 ** (6 * cls.m - 6 * r))
    form = combo.positive_part()
    tc_form = chern_character(cls.profile).positive_part()
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
