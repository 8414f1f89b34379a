"""Numeric evaluation of the four Jacobi theta functions and law checks.

Double-precision product-formula evaluation on the upper half plane, plus
residual checks of the modular transformation laws: the T/S laws of the
four thetas, the S-law sending delta_2/epsilon_2 to delta_1/epsilon_1, and
the S-transformation exchanging the two degree-extracted characteristic
q-series (with numeric root values and jets truncated at the identity
degree standing in for the nilpotent curvature variables).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

TAU_DEFAULT_TERMS = 64


def _check_tau(tau: complex):
    if tau.imag <= 0:
        raise ValueError(f"tau={tau} is not in the upper half plane")


def product_terms_needed(tau: complex, target: float = 1e-16) -> int:
    """Smallest n with |q|^n below target (|q| = e^(-2 pi Im tau))."""
    _check_tau(tau)
    log_q = -2.0 * math.pi * tau.imag
    n = int(math.log(target) / log_q) + 1
    return max(n, 1)


def theta_eval(kind: str, v: complex, tau: complex, n_terms: int | None = None) -> complex:
    """Product-formula value of theta, theta_1, theta_2 or theta_3 at (v, tau)."""
    _check_tau(tau)
    if n_terms is None:
        n_terms = product_terms_needed(tau)
    elif math.exp(-2.0 * math.pi * tau.imag * n_terms) > 1e-10:
        warnings.warn(
            f"n_terms={n_terms} leaves |q|^n above 1e-10 at tau={tau}; "
            "the truncated product may miss the target accuracy",
            RuntimeWarning,
            stacklevel=2,
        )
    q = cmath.exp(2j * cmath.pi * tau)
    w = cmath.exp(2j * cmath.pi * v)
    w_inv = 1.0 / w
    if kind in ("theta", "theta0"):
        value = 2.0 * cmath.exp(cmath.pi * 1j * tau / 4.0) * cmath.sin(cmath.pi * v)
        sign, half = -1.0, False
    elif kind == "theta1":
        value = 2.0 * cmath.exp(cmath.pi * 1j * tau / 4.0) * cmath.cos(cmath.pi * v)
        sign, half = 1.0, False
    elif kind == "theta2":
        value, sign, half = 1.0, -1.0, True
    elif kind == "theta3":
        value, sign, half = 1.0, 1.0, True
    else:
        raise ValueError(f"unknown theta kind {kind!r}")
    # q^(1/8) above enters as exp(2 pi i tau / 8); shifted powers for j-1/2
    q_half = cmath.exp(1j * cmath.pi * tau)
    for j in range(1, n_terms + 1):
        qj = q**j
        qs = q_half ** (2 * j - 1) if half else qj
        value *= (1 - qj) * (1 + sign * w * qs) * (1 + sign * w_inv * qs)
    return value


def theta_prime_zero(tau: complex, n_terms: int | None = None) -> complex:
    """d theta / dv at v = 0: 2 pi q^(1/8) prod (1 - q^j)^3."""
    _check_tau(tau)
    if n_terms is None:
        n_terms = product_terms_needed(tau)
    q = cmath.exp(2j * cmath.pi * tau)
    value = 2.0 * cmath.pi * cmath.exp(cmath.pi * 1j * tau / 4.0)
    for j in range(1, n_terms + 1):
        value *= (1 - q**j) ** 3
    return value


def nullwert(kind: str, tau: complex, n_terms: int | None = None) -> complex:
    return theta_eval(kind, 0.0, tau, n_terms)


def delta_epsilon_eval(which: str, tau: complex, n_terms: int | None = None) -> complex:
    """Numeric delta_i / epsilon_i from nullwert 4th powers."""
    t1 = nullwert("theta1", tau, n_terms) ** 4
    t2 = nullwert("theta2", tau, n_terms) ** 4
    t3 = nullwert("theta3", tau, n_terms) ** 4
    if which == "delta1":
        return (t2 + t3) / 8.0
    if which in ("eps1", "epsilon1"):
        return t2 * t3 / 16.0
    if which == "delta2":
        return -(t1 + t3) / 8.0
    if which in ("eps2", "epsilon2"):
        return t1 * t3 / 16.0
    raise ValueError(f"unknown form {which!r}")


@dataclass
class NumericCheckReport:
    """Residuals of one transformation law over a sample set."""

    law: str
    samples: list
    residuals: list
    tolerance: float
    n_terms: int | None

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
    lhs_t = theta_eval(kind, v, tau + 1, n_terms)
    rhs_t = phase * theta_eval(_T_PARTNER[kind], v, tau, n_terms)
    # principal branch of (tau / i)^(1/2)
    prefactor = cmath.sqrt(tau / 1j) * cmath.exp(1j * cmath.pi * tau * v * v)
    if kind == "theta":
        prefactor = prefactor / 1j
    lhs_s = theta_eval(kind, v, -1.0 / tau, n_terms)
    rhs_s = prefactor * theta_eval(_S_PARTNER[kind], tau * v, tau, n_terms)
    return abs(lhs_t - rhs_t), abs(lhs_s - rhs_s)


def _delta_eps_law_residual(which: str, tau: complex, n_terms: int | None) -> float:
    if which == "delta":
        lhs = delta_epsilon_eval("delta2", -1.0 / tau, n_terms)
        rhs = tau * tau * delta_epsilon_eval("delta1", tau, n_terms)
    else:
        lhs = delta_epsilon_eval("eps2", -1.0 / tau, n_terms)
        rhs = tau**4 * delta_epsilon_eval("eps1", tau, n_terms)
    return abs(lhs - rhs)


def _pair_jet(side: int, x: complex, tau: complex, max_degree: int, n_terms: int | None):
    """Jet in x of one root pair's determinant-normalized theta quotient.

    side 1: v = i x / pi with the theta_1 quotient (the Theta_1 side);
    side 2: v = i x / (2 pi) with the theta_2 quotient (the Theta_2 side).
    Coefficients c_0..c_max_degree are extracted by roots-of-unity sampling
    (aliasing error O(radius^points)).
    """
    points = 2 * max_degree + 10
    radius = 0.25
    quotient_kind = "theta1" if side == 1 else "theta2"
    null = nullwert(quotient_kind, tau, n_terms)
    prime = theta_prime_zero(tau, n_terms)
    samples = []
    for k in range(points):
        t = radius * cmath.exp(2j * cmath.pi * k / points)
        v = 1j * t / cmath.pi if side == 1 else 1j * t / (2 * cmath.pi)
        value = (
            v
            * prime
            / theta_eval("theta", v, tau, n_terms)
            * theta_eval(quotient_kind, v, tau, n_terms)
            / null
        )
        samples.append(value)
    jets = []
    for d in range(max_degree + 1):
        acc = 0j
        for k, s in enumerate(samples):
            omega = cmath.exp(-2j * cmath.pi * k * d / points)
            acc += s * omega
        jets.append(acc / (points * radius**d))
    # evaluate the jet polynomial's term vector at the root value
    return [jets[d] * x**d for d in range(max_degree + 1)]


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


def transformed_pq_residual(
    m: int,
    roots: list,
    tau: complex,
    z_case: bool = False,
    n_terms: int | None = None,
) -> float:
    """Residual of the S-transformation between the two degree-extracted series.

    Checks {side-1 product}(roots, -1/tau) = 2^w tau^w {side-2 product}(roots, tau)
    on the degree-w jet, w = 4m+2 (or 4m for the 8m-degree family), in the
    determinant normalization that doubles the side-1 root exponentials.
    """
    w = 4 * m if z_case else 4 * m + 2
    tau_s = -1.0 / tau
    n_lhs = product_terms_needed(tau_s) if n_terms is None else n_terms
    n_rhs = product_terms_needed(tau) if n_terms is None else n_terms
    lhs_vecs = [_pair_jet(1, complex(x), tau_s, w, n_lhs) for x in roots]
    rhs_vecs = [_pair_jet(2, complex(x), tau, w, n_rhs) for x in roots]
    lhs = _top_degree_product(lhs_vecs, w)
    rhs = _top_degree_product(rhs_vecs, w)
    expected = (2.0 * tau) ** w * rhs
    scale = max(1.0, abs(expected))
    return abs(lhs - expected) / scale


def check_transformation(
    law: str,
    samples: list,
    tol: float = 1e-9,
    n_terms: int | None = None,
) -> NumericCheckReport:
    """Evaluate both sides of a transformation law over the sample set.

    Laws eq3.1..eq3.4 take (v, tau) samples and produce two residuals each
    (tau -> tau + 1 and tau -> -1/tau); eq3.5delta / eq3.5eps take tau
    samples; eq3.11 / eq3.32 take (m, roots, tau) samples.
    """
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
    elif law in ("eq3.11", "eq3.32"):
        for m, roots, tau in samples:
            residuals.append(
                transformed_pq_residual(
                    m, list(roots), complex(tau), z_case=(law == "eq3.32"), n_terms=n_terms
                )
            )
            recorded.append(
                {"m": m, "roots": [str(complex(x)) for x in roots], "tau": str(complex(tau))}
            )
    else:
        raise ValueError(f"unknown transformation law {law!r}")
    return NumericCheckReport(law, recorded, residuals, tol, n_terms)
