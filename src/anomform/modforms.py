"""Level-2 modular form expansions and the triangular bundle decompositions.

Every form here is a closed-form sum, built without a q-series product.
delta/epsilon are Eisenstein series (Zagier 1988; Liu, CMP 174, 1995),
with sigma_1^odd(n) the sum of the odd divisors of n:

    delta_1 = 1/4 + 6 sum sigma_1^odd(n) q^n
    eps_1   = 1/16 + sum_n sum_(d|n) (-1)^d d^3 q^n
    delta_2 = -1/8 - 3 sum sigma_1^odd(n) q^(n/2)
    eps_2   = sum_n sum_(d|n, n/d odd) d^3 q^(n/2)

By the Jacobi triple product the products prod (1 - q^j)(1 -+ q^(j-1/2))^2
are theta_2(0) = sum (-1)^n q^(n^2/2) and theta_3(0) = sum q^(n^2/2), over
all integers n.  The bare theta_1(0) carries a q^(1/8) prefactor and is
only exposed as theta_1^4 = 16 sum_(n odd) sigma_1(n) q^(n/2).
``eisenstein_series`` is the one divisor-sum loop; the theta-quotient pair
logs of ``anomaly`` use it too.

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


def eisenstein_series(constant, scale, p: int, weight, step: int, order2: int) -> HalfQSeries:
    """constant + scale sum_(n>=1) sum_(k|n) weight(k, n/k) k^p q^(step n/2), below order2."""
    scale, top = Fraction(scale), (order2 - 1) // step
    sums = [0] * (top + 1)
    for k in range(1, top + 1):  # k adds to its multiples: O(N log N) in N = top
        kp = k**p
        for co in range(1, top // k + 1):
            sums[k * co] += weight(k, co) * kp
    terms = {step * n: scale * s for n, s in enumerate(sums) if n}
    return HalfQSeries(QQ, {0: Fraction(constant), **terms}, order2)


def theta1_nullwert_fourth(order2: int) -> HalfQSeries:
    """16 q^(1/2) prod (1 - q^j)^4 (1 + q^j)^8 = 16 sum_(n odd) sigma_1(n) q^(n/2)."""
    return eisenstein_series(0, 16, 1, lambda k, co: k * co % 2, 1, order2)


def theta_nullwert(i: int, order2: int) -> HalfQSeries:
    """Exact nullwert expansion for theta (i=0), theta_2, theta_3 (Jacobi sums).

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
    if i not in (2, 3):
        raise ValueError(f"unknown theta index {i}")
    sign = -1 if i == 2 else 1
    terms = {n * n: Fraction(2 * sign**n) for n in range(1, order2) if n * n < order2}
    return HalfQSeries(QQ, {0: Fraction(1), **terms}, order2)


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

# form -> its eisenstein_series (constant, scale, p, weight(k, n/k), step), as in the module doc
_EISENSTEIN = {
    "delta1": (Fraction(1, 4), 6, 1, lambda k, co: k % 2, 2),
    "eps1": (Fraction(1, 16), 1, 3, lambda k, co: (-1) ** k, 2),
    "delta2": (Fraction(-1, 8), -3, 1, lambda k, co: k % 2, 1),
    "eps2": (0, 1, 3, lambda k, co: co % 2, 1),
}


def delta_epsilon(which: str, order2: int) -> HalfQSeries:
    """delta_1, epsilon_1, delta_2 or epsilon_2 as Eisenstein series."""
    which = _DELTA_EPS_ALIASES.get(which, which)
    if which not in _DELTA_EPS_SPECS:
        raise ValueError(f"unknown form {which!r}")
    return eisenstein_series(*_EISENSTEIN[which], order2)


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
    e, top = weight // 2, weight // 4
    d8 = delta_epsilon("delta2", order2) * 8
    eps = delta_epsilon("eps2", order2)
    # each power is one product of the one before; a monomial, one product of two
    d8_sq = d8 * d8
    d8_pows = [d8 if e % 2 else HalfQSeries.one(QQ, order2)]
    eps_pows = [HalfQSeries.one(QQ, order2)]
    for _ in range(top):
        d8_pows.append(d8_pows[-1] * d8_sq)
        eps_pows.append(eps_pows[-1] * eps)
    return tuple(d8_pows[top - r] * eps_pows[r] for r in range(top + 1))


def combination_matrix(weight: int) -> list:
    """Integral inverse of the matched-window basis matrix: the one solver.

    Row s expresses the s-th solved coefficient as an integer combination of
    the input's q^(0/2)..q^(s/2) coefficients.  Raises ArithmeticError unless
    the matrix has a unit diagonal, is lower triangular and inverts integrally.
    Each weight is solved once; callers get fresh lists.
    """
    return [list(row) for row in _combination_matrix(weight)]


@lru_cache(maxsize=None)
def _combination_matrix(weight: int) -> tuple:
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
    return tuple(tuple(int(entry) for entry in row) for row in inv)


def _solve(f: HalfQSeries, weight: int):
    """(xs, exp2): basis coefficients of f, and the first exponent below f.order2
    where their sum differs from f (None if there is none).

    The xs are the combination matrix applied to q^0..q^(m/2) of f.  Each
    exponent of the sum is sum_r (rational basis coefficient) * x_r, a scalar
    multiple of each x_r: no ring product is formed.
    """
    m = weight // 4
    if f.order2 < m + 1:
        raise TruncationError(
            f"need at least {m + 1} matched coefficients, have order2={f.order2}"
        )
    rows = _combination_matrix(weight)
    window = [f.coefficient(j) for j in range(m + 1)]
    xs = [sum((c * k for c, k in zip(window, row) if k), f.ring.zero) for row in rows]
    basis = modular_basis(weight, f.order2)
    for e in range(f.order2):
        terms = (x * c for x, c in zip(xs, (b.coefficient(e) for b in basis)) if c)
        if sum(terms, f.ring.zero) != f.coefficient(e):
            return xs, e
    return xs, None


def basis_decompose(f: HalfQSeries, weight: int) -> list:
    """Coefficients of the weight-`weight` series f in the modular monomial basis.

    The matched window determines the coefficients; the reconstruction must
    then agree with f through f's entire truncation (the series-level
    modularity statement).  Raises SpanError at the first failing exponent.
    """
    xs, exp2 = _solve(f, weight)
    if exp2 is not None:
        raise SpanError(f"input is not in the modular span: first mismatch at exp2={exp2}", exp2)
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


def decompose_theta2(m: int, profile: RootProfile) -> tuple:
    """Solve Theta_2 = sum_r x_r (8 delta_2)^(e-2r) eps_2^r mod q^((m+1)/2).

    Returns the virtual characters x_0..x_m as GradedClass values (constant
    term = virtual rank): b_0..b_m (e = 2m+1) or z_0..z_m (e = 2m) depending
    on the fiber-dimension class.  Only q^0..q^(m/2) of Theta_2 enter, so it
    is solved from a bundle of order2 m+1.  Not memoised: the class record
    of ``anomaly.identity_class`` holds each class's solve.  The matched-window
    residual must vanish identically and the solve's combination matrix must
    be integral (so are the x_r); either failure raises ArithmeticError.
    """
    decomposition_case(m, profile.fiber_dim)  # raises unless the class has this m
    f = theta_bundle(THETA2, profile, m + 1).series
    xs, exp2 = _solve(f, identity_parameters(profile.fiber_dim)[2] // 2)
    if exp2 is not None:
        raise ArithmeticError("matched window residual")
    return tuple(xs)
