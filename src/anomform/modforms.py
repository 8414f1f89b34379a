"""Level-2 modular form expansions and the triangular bundle decompositions.

The nullwerte are expanded exactly from their infinite products; the bare
first theta series carries a q^(1/8) prefactor and is therefore only exposed
through its 4th power, which lives on integral q^(1/2) powers.  The four
weight-2/weight-4 forms delta/epsilon are assembled from 4th powers of
nullwerte; ``_DELTA_EPS_SPECS`` holds their weights and congruence subgroups.

The decomposition machinery matches q^(r/2)-coefficients of a series against
the monomial basis (8 delta_2)^(e-2r) epsilon_2^r; the system is triangular
with unit diagonal because epsilon_2 = q^(1/2)(1 + ...).  It is solved one
way only: through its integral inverse, ``combination_matrix``, whose rows
turn the matched window q^0..q^(m/2) into the basis coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .chroot import RootProfile
from .qseries import QQ, HalfQSeries, TruncationError
from .witten import THETA2, theta_bundle

GAMMA0_LOWER = "Gamma_0(2)"
GAMMA0_UPPER = "Gamma^0(2)"


class SpanError(ValueError):
    """A series is not in the span of the modular monomial basis."""

    def __init__(self, message: str, exp2: int):
        super().__init__(message)
        self.exp2 = exp2


def _one_minus(exp2: int, sign: int, order2: int) -> HalfQSeries:
    return HalfQSeries.from_terms(QQ, [(0, 1), (exp2, sign)], order2)


def _nullwert_product(half_sign: int, order2: int) -> HalfQSeries:
    """prod (1 - q^j)(1 + half_sign q^(j-1/2))^2."""
    out = HalfQSeries.one(QQ, order2)
    for exp2 in range(2, order2, 2):
        out = out * _one_minus(exp2, -1, order2)
    for exp2 in range(1, order2, 2):
        out = out * _one_minus(exp2, half_sign, order2) ** 2
    return out


def theta2_nullwert(order2: int) -> HalfQSeries:
    """theta_2(0, tau) = prod (1 - q^j)(1 - q^(j-1/2))^2."""
    return _nullwert_product(-1, order2)


def theta3_nullwert(order2: int) -> HalfQSeries:
    """theta_3(0, tau) = prod (1 - q^j)(1 + q^(j-1/2))^2."""
    return _nullwert_product(1, order2)


def theta1_nullwert_fourth(order2: int) -> HalfQSeries:
    """theta_1(0, tau)^4 = 16 q^(1/2) prod (1 - q^j)^4 (1 + q^j)^8."""
    if order2 < 2:
        return HalfQSeries.zero(QQ, order2)
    body = HalfQSeries.one(QQ, order2 - 1) * 16
    for exp2 in range(2, order2 - 1, 2):
        body = body * _one_minus(exp2, -1, order2 - 1) ** 4
        body = body * _one_minus(exp2, 1, order2 - 1) ** 8
    return body.shifted(1)


def theta_nullwert(i: int, order2: int) -> HalfQSeries:
    """Exact nullwert expansion for theta (i=0), theta_2, theta_3.

    theta_1(0, tau) alone is not an exact q^(1/2)-series (prefactor
    q^(1/8)); request theta1_nullwert_fourth or evaluate numerically.
    """
    if i == 0:
        return HalfQSeries.zero(QQ, order2)  # sin(0) kills the whole product
    if i == 1:
        raise ValueError(
            "theta_1(0,tau) carries q^(1/8); only its 4th power is an exact "
            "q^(1/2)-series (theta1_nullwert_fourth)"
        )
    if i == 2:
        return theta2_nullwert(order2)
    if i == 3:
        return theta3_nullwert(order2)
    raise ValueError(f"unknown theta index {i}")


_DELTA_EPS_SPECS = {
    "delta1": (2, GAMMA0_LOWER),
    "eps1": (4, GAMMA0_LOWER),
    "delta2": (2, GAMMA0_UPPER),
    "eps2": (4, GAMMA0_UPPER),
}

_DELTA_EPS_ALIASES = {
    "epsilon1": "eps1",
    "epsilon2": "eps2",
}


def delta_epsilon(which: str, order2: int) -> HalfQSeries:
    """delta_1, epsilon_1, delta_2 or epsilon_2 from nullwert 4th powers."""
    which = _DELTA_EPS_ALIASES.get(which, which)
    if which not in _DELTA_EPS_SPECS:
        raise ValueError(f"unknown form {which!r}")
    if which in ("delta1", "eps1"):
        t2 = theta2_nullwert(order2) ** 4
        t3 = theta3_nullwert(order2) ** 4
        series = (t2 + t3) / 8 if which == "delta1" else (t2 * t3) / 16
    else:
        t1 = theta1_nullwert_fourth(order2)
        t3 = theta3_nullwert(order2) ** 4
        series = -(t1 + t3) / 8 if which == "delta2" else (t1 * t3) / 16
    return series.truncate(order2)


def modular_basis(weight: int, order2: int) -> list:
    """The monomials (8 delta_2)^(e-2r) epsilon_2^r, r = 0..weight//4.

    e = weight//2; these span the weight-`weight` forms over the upper
    level-2 subgroup with the constant-term normalization used throughout.
    Each (weight, order2) is built once; callers get a fresh list.
    """
    return list(_modular_basis(weight, order2))


@lru_cache(maxsize=None)
def _modular_basis(weight: int, order2: int) -> tuple:
    if weight % 2 or weight < 2:
        raise ValueError("weight must be a positive even integer")
    e = weight // 2
    d8 = delta_epsilon("delta2", order2) * 8
    eps = delta_epsilon("eps2", order2)
    return tuple(d8 ** (e - 2 * r) * (eps**r) for r in range(weight // 4 + 1))


def combination_matrix(weight: int) -> list:
    """Integral inverse of the matched-window basis matrix: the one solver.

    Row s expresses the s-th solved coefficient as an integer combination of
    the input's q^(0/2)..q^(s/2) coefficients.  Raises ArithmeticError unless
    the matrix has a unit diagonal, is lower triangular and inverts integrally.
    """
    m = weight // 4
    basis = modular_basis(weight, m + 1)
    matrix = [[basis[r].coefficient(s) for r in range(m + 1)] for s in range(m + 1)]
    for r in range(m + 1):
        if abs(matrix[r][r]) != 1:
            raise ArithmeticError("triangular diagonal must be a unit")
        for s in range(r):
            if matrix[s][r] != 0:
                raise ArithmeticError("basis matrix must be lower triangular")
    inv = [[Fraction(0)] * (m + 1) for _ in range(m + 1)]
    for s in range(m + 1):
        inv[s][s] = Fraction(1) / matrix[s][s]
        for j in range(s):
            acc = Fraction(0)
            for r in range(j, s):
                acc += matrix[s][r] * inv[r][j]
            inv[s][j] = -acc / matrix[s][s]
    for row in inv:
        for entry in row:
            if entry.denominator != 1:
                raise ArithmeticError("combination matrix must be integral")
    return [[int(entry) for entry in row] for row in inv]


def _solve(f: HalfQSeries, weight: int):
    """(xs, recon): basis coefficients of f and their sum, at f.order2.

    The xs are the combination matrix applied to q^0..q^(m/2) of f.
    """
    m = weight // 4
    if f.order2 < m + 1:
        raise TruncationError(
            f"need at least {m + 1} matched coefficients, have order2={f.order2}"
        )
    rows = combination_matrix(weight)
    window = [f.coefficient(j) for j in range(m + 1)]
    xs = [sum((c * k for c, k in zip(window, row) if k), f.ring.zero) for row in rows]
    recon = HalfQSeries.zero(f.ring, f.order2)
    for x, b in zip(xs, modular_basis(weight, f.order2)):
        recon = recon + b.lift_to(f.ring) * x
    return xs, recon


def basis_decompose(f: HalfQSeries, weight: int) -> list:
    """Coefficients of the weight-`weight` series f in the modular monomial basis.

    The matched window determines the coefficients; the reconstruction must
    then agree with f through f's entire truncation (the series-level
    modularity statement).  Raises SpanError at the first failing exponent.
    """
    xs, recon = _solve(f, weight)
    for exp2 in range(f.order2):
        if f.coefficient(exp2) != recon.coefficient(exp2):
            raise SpanError(
                f"input is not in the modular span: first mismatch at exp2={exp2}",
                exp2,
            )
    return xs


def identity_parameters(fiber_dim: int):
    """(case, m, identity degree) for a fiber dimension; 'b' carries 8m+4."""
    if fiber_dim < 1:
        raise ValueError("fiber_dim must be positive")
    r = fiber_dim % 8
    if r in (1, 2, 3):
        m = fiber_dim // 8
        return "b", m, 8 * m + 4
    if r in (5, 6, 7):
        m = fiber_dim // 8 + 1
        return "z", m, 8 * m
    raise ValueError(
        f"fiber dimension {fiber_dim} (0 or 4 mod 8) has no identity class here"
    )


def decomposition_case(m: int, fiber_dim: int) -> str:
    """fiber_dim's case, 'b' or 'z', when its identity class has this m."""
    if m < 0:
        raise ValueError("m must be non-negative")
    try:
        case, class_m, _ = identity_parameters(fiber_dim)
    except ValueError:
        class_m = None
    if class_m != m:
        raise ValueError(f"fiber dimension {fiber_dim} is not in a class handled at m={m}")
    return case


@lru_cache(maxsize=None)
def decompose_theta2(m: int, profile: RootProfile) -> tuple:
    """Solve Theta_2 = sum_r x_r (8 delta_2)^(e-2r) eps_2^r mod q^((m+1)/2).

    Returns the virtual characters x_0..x_m as GradedClass values (constant
    term = virtual rank): b_0..b_m (e = 2m+1) or z_0..z_m (e = 2m) depending
    on the fiber-dimension class.  Only q^0..q^(m/2) of Theta_2 enter, so the
    result is solved once per (m, profile) from a bundle of order2 m+1.  The
    matched-window residual must vanish identically and the solve's
    combination matrix must be integral (so are the x_r); either failure
    raises ArithmeticError.
    """
    decomposition_case(m, profile.fiber_dim)  # raises unless the class has this m
    f = theta_bundle(THETA2, profile, m + 1).series
    xs, recon = _solve(f, identity_parameters(profile.fiber_dim)[2] // 2)
    for s in range(m + 1):
        if f.coefficient(s) != recon.coefficient(s):
            raise ArithmeticError("matched window residual")
    return tuple(xs)
