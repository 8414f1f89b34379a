"""Numeric Jacobi thetas and the modular transformation laws, with relative residuals.

Product formulas (the oracle of eq3.1-eq3.5) give residuals divided by |rhs|, or for
eq3.5delta by its nullwert 4th powers' moduli, as delta_1 vanishes at (+-1 + i)/2.
The jet laws eq3.11/eq3.32 read ``anomaly.theta_quotient_pair_series``; they divide
by |2 tau|^w times the size of the rhs terms.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from itertools import accumulate, repeat
from operator import mul

from .anomaly import P1, P2, theta_quotient_pair_series
from .genera import L_FULL
from .qseries import Record


def _check_tau(tau: complex):
    if tau.imag <= 0:
        raise ValueError(f"tau={tau} is not in the upper half plane")


def product_terms_needed(tau: complex, target: float = 1e-16) -> int:
    """Smallest n with |q|^n below target (|q| = e^(-2 pi Im tau))."""
    _check_tau(tau)
    return max(int(math.log(target) / (-2.0 * math.pi * tau.imag)) + 1, 1)


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


def _product_terms(tau: complex, n_terms: int | None) -> int:
    """n_terms, or product_terms_needed(tau) if None; warns when n_terms falls short."""
    _check_tau(tau)
    if n_terms is None:
        return product_terms_needed(tau)
    if math.exp(-2.0 * math.pi * tau.imag * n_terms) > 1e-10:
        warnings.warn(f"n_terms={n_terms} leaves |q|^n above 1e-10 at tau={tau}; the "
                      "truncated product may miss the target accuracy", RuntimeWarning,
                      stacklevel=_caller_stacklevel())
    return n_terms


def _tau_tables(tau: complex, n_terms: int | None, half: bool) -> tuple:
    """One tau's table (2 q^(1/8), [q^j], [q^(j - 1/2)] if half else None, [1 - q^j])."""
    n_terms = _product_terms(tau, n_terms)
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


def nullwert(kind: str, tau: complex, n_terms: int | None = None) -> complex:
    return theta_eval(kind, 0.0, tau, n_terms)


def _nullwert_fourths(which: str, tau: complex, n_terms: int | None):
    """The 4th powers of the two nullwerte that build delta_i / epsilon_i."""
    if which not in _FORM_KINDS:
        raise ValueError(f"unknown form {which!r}")
    tables = _tau_tables(tau, n_terms, True)  # each pair holds theta3, which takes q^(j - 1/2)
    return (t**4 for t in _theta_products(_FORM_KINDS[which], 0.0, tables))


def delta_epsilon_eval(which: str, tau: complex, n_terms: int | None = None) -> complex:
    """Numeric delta_i / epsilon_i from the 4th powers of the two nullwerte it needs."""
    a, b = _nullwert_fourths(which, tau, n_terms)
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


def _relative(lhs: complex, rhs: complex) -> float:
    """|lhs - rhs| / |rhs|; two exact zeros (theta at v = 0) agree."""
    return abs(lhs - rhs) / abs(rhs) if rhs else (math.inf if lhs else 0.0)


_S_PARTNER = {"theta": "theta", "theta1": "theta2", "theta2": "theta1", "theta3": "theta3"}
_T_PARTNER = {"theta": "theta", "theta1": "theta1", "theta2": "theta3", "theta3": "theta2"}
_T_PHASE = {"theta": True, "theta1": True, "theta2": False, "theta3": False}
_LAW_KIND = {"eq3.1": "theta", "eq3.2": "theta1", "eq3.3": "theta2", "eq3.4": "theta3"}


def _theta_law_residuals(kind: str, v: complex, tau: complex, n_terms: int | None):
    """Relative residuals of the T-law and S-law of one theta function at (v, tau)."""
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
    return _relative(lhs_t, rhs_t), _relative(lhs_s, rhs_s)


def _delta_eps_law_residual(which: str, tau: complex, n_terms: int | None) -> float:
    lhs = delta_epsilon_eval(which + "2", -1.0 / tau, n_terms)
    a, b = _nullwert_fourths(which + "1", tau, n_terms)
    if which == "eps":
        return _relative(lhs, tau**4 * (a * b / 16.0))
    return abs(lhs - tau * tau * ((a + b) / 8.0)) / (abs(tau * tau) * (abs(a) + abs(b)) / 8.0)


_PAIR_LOG_MEMO: dict = {}  # (side, w) -> (order2, f0, L_j as doubles by exp2 < order2, j <= w/2)


def _pair_log_terms(tau: complex, w: int, n_terms: int | None) -> int:
    """Pair-log terms to sum at tau: through q^n_terms, or while n^w |q|^(n/2) >= 1e-18."""
    if n_terms is not None:
        return 2 * _product_terms(tau, n_terms) + 1
    _check_tau(tau)
    a, cut = math.pi * tau.imag, math.log(1e-18)  # |q|^(n/2) = e^(-a n)
    n = max(1.0, w / a)  # the peak of n^w e^(-a n)
    while w * math.log(n) - a * n >= cut:
        n = max(n + 1.0, (w * math.log(n) - cut) / a)
    return math.ceil(n)


def _pair_logs(side: int, w: int, size: int) -> tuple:
    """f0 and the float L_j of side 1 (full-angle Theta_1) or 2 (A-roof Theta_2), exp2 < size."""
    held = _PAIR_LOG_MEMO.get((side, w))
    if held is None or held[0] < size:  # a table too short is rebuilt at least twice as long
        order2 = size if held is None else max(size, 2 * held[0])
        f0, logs = theta_quotient_pair_series(P1 if side == 1 else P2, L_FULL, order2, w // 2)
        # flat buffers of doubles: a float object per coefficient would fragment the heap
        rows = [memoryview(bytearray(8 * order2)).cast("d") for _ in logs]
        for row, log in zip(rows, logs):
            for exp2, c in log.items():
                row[exp2] = float(c)
        held = _PAIR_LOG_MEMO[(side, w)] = (order2, float(f0.coefficient(0)), rows)
    return held[1], held[2]


def _root_pair_product(side: int, w: int, tau: complex, roots: list, n_terms) -> tuple:
    """Degree-w part of prod_roots f0 exp(sum_j L_j(tau) x^(2j)), and the size of its terms.

    Each is f_(w/2) of f0^r exp(sum_j g_j u^j), k f_k = sum_j j g_j f_(k-j), with g_j =
    L_j sum_roots x^(2j) for the value and |L_j| sum_roots |x|^(2j) for the size.
    """
    size = _pair_log_terms(tau, w, n_terms)
    f0, rows = _pair_logs(side, w, size)
    powers = list(accumulate(repeat(cmath.exp(1j * cmath.pi * tau), size - 1), mul, initial=1.0))
    logs = [sum(map(mul, row, powers)) for row in rows]  # at q^(1/2) = e^(i pi tau)
    u = [complex(x) ** 2 for x in roots]
    g = [(ell * sum(x**j for x in u), abs(ell) * sum(abs(x) ** j for x in u))
         for j, ell in enumerate(logs, 1)]
    f = [(f0 ** len(u), abs(f0) ** len(u))]
    for k in range(1, len(g) + 1):
        f.append(tuple(sum(j * g[j - 1][c] * f[k - j][c] for j in range(1, k + 1)) / k
                       for c in (0, 1)))
    return f[-1]


def transformed_pq_residual(m: int, roots: list, tau: complex, z_case: bool = False,
                            n_terms: int | None = None) -> float:
    """Relative residual of the S-transformation between the two degree-extracted series.

    {side-1 product}(roots, -1/tau) = 2^w tau^w {side-2 product}(roots, tau) in
    degree w = 4m+2 (4m for the 8m-degree family), side 1 doubling the root
    exponentials; divided by |2 tau|^w times the size of the side-2 terms.
    """
    w = 4 * m if z_case else 4 * m + 2
    lhs, _ = _root_pair_product(1, w, -1.0 / tau, roots, n_terms)
    rhs, scale = _root_pair_product(2, w, tau, roots, n_terms)
    factor = (2.0 * tau) ** w
    return abs(lhs - factor * rhs) / (abs(factor) * scale)


# a sample tau that needs more product terms than this, at tau or -1/tau, is rejected
MAX_PRODUCT_TERMS = 10_000


def _check_sample_tau(tau: complex, v: complex | None) -> None:
    """Reject a sample tau before anything is evaluated, naming it as given.

    A law evaluates at tau, tau + 1 (as many product terms as tau) and -1/tau.
    A product-formula law (v not None) needs normal doubles for q^(1/8) there
    and e^(+-2 pi i v') at v' = v and tau v: else a theta is flushed to 0 or 1/0.
    """
    if not (cmath.isfinite(tau) and tau.imag > 0):
        raise ValueError(f"tau={tau} is not a finite point of the upper half plane")
    for at in (tau, -1.0 / tau):
        # product_terms_needed(at) > MAX_PRODUCT_TERMS, without its int() overflow as Im -> 0
        if not at.imag > 0 or math.log(1e-16) / (-2.0 * math.pi * at.imag) >= MAX_PRODUCT_TERMS:
            raise ValueError(f"tau={tau} needs more than {MAX_PRODUCT_TERMS} product terms "
                             f"at {at}")
    if v is not None and math.pi * max(  # -log of |q^(1/8)| and the smaller |e^(+-2 pi i v')|
            tau.imag / 4.0, (-1.0 / tau).imag / 4.0, 2.0 * abs(v.imag), 2.0 * abs((tau * v).imag)
    ) >= -math.log(sys.float_info.min):
        raise ValueError(f"tau={tau} takes q^(1/8) or e^(2 pi i v) outside the normal doubles")


def check_transformation(law: str, samples: list, tol: float = 1e-9,
                         n_terms: int | None = None) -> NumericCheckReport:
    """Evaluate both sides of a transformation law over the sample set.

    Laws eq3.1..eq3.4 take (v, tau) samples and produce two residuals each
    (tau -> tau + 1 and tau -> -1/tau); eq3.5delta / eq3.5eps take tau
    samples; eq3.11 / eq3.32 take (m, roots, tau) samples.  An empty sample
    set, a jet sample without nonzero roots or below the law's first m, or a
    tau that ``_check_sample_tau`` refuses raises ValueError before any sample
    is evaluated.
    """
    if law in _LAW_KIND:  # each sample's tau, and the v of a product-formula law
        taus = ((tau, v) for v, tau in samples)
    elif law in ("eq3.5delta", "eq3.5eps"):
        taus = ((tau, 0) for tau in samples)
    elif law in ("eq3.11", "eq3.32"):
        taus = ((tau, None) for _, _, tau in samples)
    else:
        raise ValueError(f"unknown transformation law {law!r}")
    if not samples:
        raise ValueError(f"{law} has no samples to check")
    if law in ("eq3.11", "eq3.32") and not all(any(map(complex, roots)) for _, roots, _ in samples):
        raise ValueError(f"{law} sample has no roots other than 0: its product checks 0 = 0")
    if law in ("eq3.11", "eq3.32") and min(m for m, _, _ in samples) < (law == "eq3.32"):
        raise ValueError(f"{law} sample has m below {int(law == 'eq3.32')}: degree w under 2")
    for tau, v in taus:
        _check_sample_tau(complex(tau), None if v is None else complex(v))
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
