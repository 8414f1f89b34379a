"""Numeric evaluation of the four Jacobi theta functions and law checks.

Double-precision product-formula evaluation on the upper half plane, plus
residual checks of the modular transformation laws: the T/S laws of the
four thetas, the S-law sending delta_2/epsilon_2 to delta_1/epsilon_1, and
the S-transformation exchanging the two degree-extracted characteristic
q-series (with numeric root values and jets truncated at the identity
degree standing in for the nilpotent curvature variables).  A root pair's
quotient jet does not depend on the root value, so one jet per (side, tau)
serves every root; one table of q-powers per tau serves every theta
product there (a jet's sample points, a law's partner thetas).
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from functools import lru_cache

from .qseries import Record


def _check_tau(tau: complex):
    if tau.imag <= 0:
        raise ValueError(f"tau={tau} is not in the upper half plane")


def product_terms_needed(tau: complex, target: float = 1e-16) -> int:
    """Smallest n with |q|^n below target (|q| = e^(-2 pi Im tau))."""
    _check_tau(tau)
    log_q = -2.0 * math.pi * tau.imag
    n = int(math.log(target) / log_q) + 1
    return max(n, 1)


# kind -> (sign of the w-factors, half-integer q-powers, v-factor of the q^(1/8) prefactor)
_KINDS = {
    "theta": (-1.0, False, cmath.sin), "theta0": (-1.0, False, cmath.sin),
    "theta1": (1.0, False, cmath.cos), "theta2": (-1.0, True, None), "theta3": (1.0, True, None),
}
# delta_i / epsilon_i -> the two nullwerte whose 4th powers build it
_FORM_KINDS = {f + i: kinds for f in ("delta", "eps", "epsilon")
               for i, kinds in (("1", ("theta2", "theta3")), ("2", ("theta1", "theta3")))}


def _caller_stacklevel() -> int:
    """`warnings.warn` stacklevel of the first frame outside this module."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_globals is globals():
        frame, level = frame.f_back, level + 1
    return level


def _tau_tables(tau: complex, n_terms: int | None, half: bool) -> tuple:
    """One tau's table (2 q^(1/8), [q^j], [q^(j - 1/2)] if half else None, [1 - q^j])."""
    _check_tau(tau)
    if n_terms is None:
        n_terms = product_terms_needed(tau)
    elif math.exp(-2.0 * math.pi * tau.imag * n_terms) > 1e-10:
        warnings.warn(f"n_terms={n_terms} leaves |q|^n above 1e-10 at tau={tau}; the "
                      "truncated product may miss the target accuracy", RuntimeWarning,
                      stacklevel=_caller_stacklevel())
    q = cmath.exp(2j * cmath.pi * tau)
    # q^(1/8) enters as exp(2 pi i tau / 8); shifted powers for j-1/2
    eighth = 2.0 * cmath.exp(cmath.pi * 1j * tau / 4.0)
    q_half = cmath.exp(1j * cmath.pi * tau)
    js = range(1, n_terms + 1)
    q_int = [q**j for j in js]
    q_odd = [q_half ** (2 * j - 1) for j in js] if half else None
    return eighth, q_int, q_odd, [1 - qj for qj in q_int]


def _theta_products(kinds, v: complex, tables: tuple) -> list:
    """Product-formula values of several kinds at v from one tau's table, each in its own order."""
    eighth, q_int, q_odd, euler = tables
    w = cmath.exp(2j * cmath.pi * v)
    w_inv = 1.0 / w
    values = []
    for kind in kinds:
        sign, half, trig = _KINDS[kind]
        value = 1.0 if trig is None else eighth * trig(cmath.pi * v)
        sw, sw_inv = sign * w, sign * w_inv
        for e, qs in zip(euler, q_odd if half else q_int):
            value *= e * (1 + sw * qs) * (1 + sw_inv * qs)
        values.append(value)
    return values


def theta_eval(kind: str, v: complex, tau: complex, n_terms: int | None = None) -> complex:
    """Product-formula value of theta, theta_1, theta_2 or theta_3 at (v, tau)."""
    if kind not in _KINDS:
        raise ValueError(f"unknown theta kind {kind!r}")
    return _theta_products((kind,), v, _tau_tables(tau, n_terms, _KINDS[kind][1]))[0]


def _theta_prime(tau: complex, tables: tuple) -> complex:
    value = 2.0 * cmath.pi * cmath.exp(cmath.pi * 1j * tau / 4.0)
    for e in tables[3]:
        value *= e**3
    return value


def nullwert(kind: str, tau: complex, n_terms: int | None = None) -> complex:
    return theta_eval(kind, 0.0, tau, n_terms)


def delta_epsilon_eval(which: str, tau: complex, n_terms: int | None = None) -> complex:
    """Numeric delta_i / epsilon_i from the 4th powers of the two nullwerte it needs."""
    if which not in _FORM_KINDS:
        raise ValueError(f"unknown form {which!r}")
    tables = _tau_tables(tau, n_terms, True)  # each pair holds theta3, which takes q^(j - 1/2)
    a, b = (t**4 for t in _theta_products(_FORM_KINDS[which], 0.0, tables))
    if which == "delta1":
        return (a + b) / 8.0
    if which == "delta2":
        return -(a + b) / 8.0
    return a * b / 16.0


class NumericCheckReport(Record):
    """Residuals of one transformation law over a sample set."""

    def __init__(self, law: str, samples: list, residuals: list, tolerance: float,
                 n_terms: int | None):
        self.law = law
        self.samples = samples
        self.residuals = residuals
        self.tolerance = tolerance
        self.n_terms = n_terms

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0

    @property
    def passed(self) -> bool:
        return all(r < self.tolerance for r in self.residuals)

    def to_obj(self) -> dict:
        return {
            "law": self.law,
            "samples": self.samples,
            "residuals": self.residuals,
            "tolerance": self.tolerance,
            "n_terms": self.n_terms,
            "status": "pass" if self.passed else "fail",
        }


_S_PARTNER = {"theta": "theta", "theta1": "theta2", "theta2": "theta1", "theta3": "theta3"}
_T_PARTNER = {"theta": "theta", "theta1": "theta1", "theta2": "theta3", "theta3": "theta2"}
_T_PHASE = {"theta": True, "theta1": True, "theta2": False, "theta3": False}
_LAW_KIND = {"eq3.1": "theta", "eq3.2": "theta1", "eq3.3": "theta2", "eq3.4": "theta3"}


def _theta_law_residuals(kind: str, v: complex, tau: complex, n_terms: int | None):
    """Residuals of the T-law and S-law of one theta function at (v, tau)."""
    phase = cmath.exp(1j * cmath.pi / 4) if _T_PHASE[kind] else 1.0
    t_kind, s_kind = _T_PARTNER[kind], _S_PARTNER[kind]
    lhs_t = theta_eval(kind, v, tau + 1, n_terms)
    # one table at tau serves the T-partner at v and the S-partner at tau v
    at_tau = _tau_tables(tau, n_terms, _KINDS[t_kind][1] or _KINDS[s_kind][1])
    rhs_t = phase * _theta_products((t_kind,), v, at_tau)[0]
    # principal branch of (tau / i)^(1/2)
    prefactor = cmath.sqrt(tau / 1j) * cmath.exp(1j * cmath.pi * tau * v * v)
    if kind == "theta":
        prefactor = prefactor / 1j
    lhs_s = theta_eval(kind, v, -1.0 / tau, n_terms)
    rhs_s = prefactor * _theta_products((s_kind,), tau * v, at_tau)[0]
    return abs(lhs_t - rhs_t), abs(lhs_s - rhs_s)


def _delta_eps_law_residual(which: str, tau: complex, n_terms: int | None) -> float:
    if which == "delta":
        lhs = delta_epsilon_eval("delta2", -1.0 / tau, n_terms)
        rhs = tau * tau * delta_epsilon_eval("delta1", tau, n_terms)
    else:
        lhs = delta_epsilon_eval("eps2", -1.0 / tau, n_terms)
        rhs = tau**4 * delta_epsilon_eval("eps1", tau, n_terms)
    return abs(lhs - rhs)


def _pair_jet(side: int, tau: complex, max_degree: int, n_terms: int | None) -> list:
    """Jet c_0..c_max_degree of one root pair's determinant-normalized theta quotient.

    side 1: v = i t / pi with the theta_1 quotient (the Theta_1 side);
    side 2: v = i t / (2 pi) with the theta_2 quotient (the Theta_2 side).
    The jet does not depend on the root value x: a root's term vector is
    c_d x^d, so one jet per (side, tau) serves every root.  Coefficients are
    extracted by roots-of-unity sampling (aliasing error O(radius^points)).
    """
    points = 2 * max_degree + 10
    radius = 0.25
    quotient_kind = "theta1" if side == 1 else "theta2"
    tables = _tau_tables(tau, n_terms, side == 2)  # theta2 takes q^(j - 1/2)
    null = _theta_products((quotient_kind,), 0.0, tables)[0]
    prime = _theta_prime(tau, tables)
    samples = []
    for k in range(points):
        t = radius * cmath.exp(2j * cmath.pi * k / points)
        v = 1j * t / cmath.pi if side == 1 else 1j * t / (2 * cmath.pi)
        theta, quotient = _theta_products(("theta", quotient_kind), v, tables)
        samples.append(v * prime / theta * quotient / null)
    jet = []
    for d, row in enumerate(_dft_rows(points, max_degree)):
        acc = 0j
        for s, twiddle in zip(samples, row):
            acc += s * twiddle
        jet.append(acc / (points * radius**d))
    return jet


@lru_cache(maxsize=16)
def _dft_rows(points: int, max_degree: int) -> tuple:
    """Twiddle rows exp(-2 pi i k d / points), k < points, for d = 0..max_degree."""
    return tuple(tuple(cmath.exp(-2j * cmath.pi * k * d / points) for k in range(points))
                 for d in range(max_degree + 1))


def _root_terms(jet: list, roots: list) -> list:
    """Each root's term vector c_d x^d of one pair jet."""
    return [[c * complex(x) ** d for d, c in enumerate(jet)] for x in roots]


def _top_degree_product(term_vectors: list, degree: int) -> complex:
    """Coefficient-sum of total degree `degree` across per-pair term vectors."""
    acc = [0j] * (degree + 1)
    acc[0] = 1.0 + 0j
    for vec in term_vectors:
        new = [0j] * (degree + 1)
        for i, a in enumerate(acc):
            if a == 0:
                continue
            for j, b in enumerate(vec):
                if i + j <= degree:
                    new[i + j] += a * b
        acc = new
    return acc[degree]


def transformed_pq_residual(m: int, roots: list, tau: complex, z_case: bool = False,
                            n_terms: int | None = None) -> float:
    """Residual of the S-transformation between the two degree-extracted series.

    Checks {side-1 product}(roots, -1/tau) = 2^w tau^w {side-2 product}(roots, tau)
    on the degree-w jet, w = 4m+2 (or 4m for the 8m-degree family), in the
    determinant normalization that doubles the side-1 root exponentials.
    """
    w = 4 * m if z_case else 4 * m + 2
    tau_s = -1.0 / tau
    n_lhs = product_terms_needed(tau_s) if n_terms is None else n_terms
    n_rhs = product_terms_needed(tau) if n_terms is None else n_terms
    lhs = _top_degree_product(_root_terms(_pair_jet(1, tau_s, w, n_lhs), roots), w)
    rhs = _top_degree_product(_root_terms(_pair_jet(2, tau, w, n_rhs), roots), w)
    expected = (2.0 * tau) ** w * rhs
    scale = max(1.0, abs(expected))
    return abs(lhs - expected) / scale


# a sample tau that needs more product terms than this, at tau or -1/tau, is rejected
MAX_PRODUCT_TERMS = 10_000


def _check_sample_tau(tau: complex) -> None:
    """Reject a sample tau before anything is evaluated, naming it as given.

    A law evaluates at tau, tau + 1 and -1/tau; tau + 1 needs as many
    product terms as tau.
    """
    if not (cmath.isfinite(tau) and tau.imag > 0):
        raise ValueError(f"tau={tau} is not a finite point of the upper half plane")
    for at in (tau, -1.0 / tau):
        # product_terms_needed(at) > MAX_PRODUCT_TERMS, without its int() overflow as Im -> 0
        if not at.imag > 0 or math.log(1e-16) / (-2.0 * math.pi * at.imag) >= MAX_PRODUCT_TERMS:
            raise ValueError(f"tau={tau} needs more than {MAX_PRODUCT_TERMS} product terms "
                             f"at {at}")


def check_transformation(law: str, samples: list, tol: float = 1e-9,
                         n_terms: int | None = None) -> NumericCheckReport:
    """Evaluate both sides of a transformation law over the sample set.

    Laws eq3.1..eq3.4 take (v, tau) samples and produce two residuals each
    (tau -> tau + 1 and tau -> -1/tau); eq3.5delta / eq3.5eps take tau
    samples; eq3.11 / eq3.32 take (m, roots, tau) samples.  An empty sample
    set or a sample without roots (either would pass with nothing checked), a
    non-finite tau, one off the upper half plane or one needing more than
    MAX_PRODUCT_TERMS product terms raises ValueError before any sample is
    evaluated.
    """
    if law in _LAW_KIND:
        taus = [tau for _, tau in samples]
    elif law in ("eq3.5delta", "eq3.5eps"):
        taus = samples
    elif law in ("eq3.11", "eq3.32"):
        taus = [tau for _, _, tau in samples]
    else:
        raise ValueError(f"unknown transformation law {law!r}")
    if not samples:
        raise ValueError(f"{law} has no samples to check")
    if law in ("eq3.11", "eq3.32") and not all(roots for _, roots, _ in samples):
        raise ValueError(f"{law} sample has no roots: an empty root product checks 0 = 0")
    for tau in taus:
        _check_sample_tau(complex(tau))
    residuals: list = []
    recorded: list = []
    if law in _LAW_KIND:
        kind = _LAW_KIND[law]
        for v, tau in samples:
            r_t, r_s = _theta_law_residuals(kind, complex(v), complex(tau), n_terms)
            residuals.extend([r_t, r_s])
            recorded.append({"v": str(complex(v)), "tau": str(complex(tau))})
    elif law in ("eq3.5delta", "eq3.5eps"):
        which = "delta" if law.endswith("delta") else "eps"
        for tau in samples:
            residuals.append(_delta_eps_law_residual(which, complex(tau), n_terms))
            recorded.append({"tau": str(complex(tau))})
    else:
        z_case = law == "eq3.32"
        for m, roots, tau in samples:
            residuals.append(transformed_pq_residual(m, list(roots), complex(tau), z_case, n_terms))
            recorded.append({"m": m, "roots": [str(complex(x)) for x in roots],
                             "tau": str(complex(tau))})
    return NumericCheckReport(law, recorded, residuals, tol, n_terms)
