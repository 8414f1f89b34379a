"""Dense x-series and Newton-identity oracles shared by the tests.

A dense series is a list of coefficients indexed by the power of x:
rationals, or rational q-series for the theta-quotient factors.  The
library never forms one: it writes every per-root factor as a closed-form
pair log.  These helpers build the factors themselves, from exponentials
and schoolbook products and quotients, so the tests can compare the two.
Likewise the library never forms an exterior power: the Witten bundle
factors are Adams-operation pair logs, which the tests compare against
Newton's identities (``elementary_from_power_sums``).  The library keeps a
graded class as integer numerators over one denominator; the Fraction-dict
products here (``graded_product``, ``graded_series_product``) hold one
``Fraction`` per p-monomial and multiply every pair of monomials.
Likewise the library writes the level-2 forms as Eisenstein series and the
nullwerte as Jacobi sums; the oracles here expand the nullwerte from their
infinite products and build delta/epsilon from their 4th powers
(``nullwert_product``, ``theta1_fourth_product``, ``delta_epsilon_product``).
Likewise the library reads a root pair's theta-quotient jet from the exact
pair logs; ``sampled_pair_jet`` extracts it from product-formula theta
values by a discrete Fourier transform on a circle.
"""

import cmath
from fractions import Fraction
from math import factorial

from anomform import thetanum
from anomform.chroot import pair_log, product_over_root_pairs
from anomform.qseries import QQ, HalfQSeries


def exp_poly(c, n):
    """e^(c x) with rational c, dense to degree < n."""
    return [Fraction(c) ** i / factorial(i) for i in range(n)]


def poly_mul(a, b, n):
    """a * b truncated to degree < n."""
    out = [a[0] * 0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[: n - i]):
                out[i + j] = out[i + j] + ai * bj
    return out


def poly_div(num, den, n):
    """num / den truncated to degree < n, by forward substitution (den[0] invertible)."""
    out = []
    for k in range(n):
        acc = num[k] if k < len(num) else num[0] * 0
        for i in range(1, min(k, len(den) - 1) + 1):
            acc = acc - den[i] * out[k - i]
        out.append(acc / den[0])
    return out


def x_over_tanh(n, half):
    """x/tanh(ax), a = 1/2 (half) or 1: (e^(2ax) + 1) / ((e^(2ax) - 1)/x)."""
    a = Fraction(1, 2) if half else Fraction(1)
    e = exp_poly(2 * a, n + 1)
    num = list(e)
    num[0] += 1
    return poly_div(num, e[1:], n)


def ahat_factor(n):
    """(x/2)/sinh(x/2) = x / (e^(x/2) - e^(-x/2))."""
    plus = exp_poly(Fraction(1, 2), n + 1)
    minus = exp_poly(Fraction(-1, 2), n + 1)
    return poly_div([Fraction(1)], [p - m for p, m in zip(plus[1:], minus[1:])], n)


def even_part(f):
    """u-coefficients of an even series (u = x^2); rejects odd terms."""
    if any(f[1::2]):
        raise ValueError("series is not even in x")
    return f[0::2]


def product_over_roots(f, profile):
    """prod over the root multiset of an even rational series f(x).

    The reference log ``pair_log`` of f, fed to the library's product over
    root pairs as q-constant series; a zero root multiplies by f(0).
    """
    f0, logs = pair_log([Fraction(c) for c in even_part(f)[: profile.max_weight + 1]])
    f0, *logs = (HalfQSeries(QQ, {0: c}, 1) for c in (f0, *logs))
    return product_over_root_pairs(f0, logs, profile).coefficient(0)


def elementary_from_power_sums(psums, k_max, one):
    """e_0..e_k_max from power sums N_1..N_k_max (Newton, any ring).

    e_k = (1/k) * sum_{i=1..k} (-1)^(i-1) e_(k-i) N_i.
    """
    es = [one]
    for k in range(1, k_max + 1):
        acc = None
        for i in range(1, k + 1):
            term = es[k - i] * psums[i - 1]
            if i % 2 == 0:
                term = -term
            acc = term if acc is None else acc + term
        es.append(acc * Fraction(1, k))
    return es


def graded_product(a, b, w_lo, w_hi):
    """Product of p-monomial -> Fraction dicts keeping weights w_lo..w_hi.

    Schoolbook: every pair of monomials, exponent tuples added and trimmed.
    Returns nonzero coefficients only.
    """
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            n = max(len(m1), len(m2))
            mon = [(m1[i] if i < len(m1) else 0) + (m2[i] if i < len(m2) else 0) for i in range(n)]
            while mon and not mon[-1]:
                mon.pop()
            if w_lo <= sum((i + 1) * e for i, e in enumerate(mon)) <= w_hi:
                mon = tuple(mon)
                out[mon] = out.get(mon, 0) + c1 * c2
    return {m: Fraction(c) for m, c in out.items() if c}


def graded_series_product(a, b, order2, w_hi):
    """exp2 -> Fraction dict of two exp2 -> Fraction-dict series, below order2."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if e1 + e2 < order2:
                acc = out.setdefault(e1 + e2, {})
                for m, c in graded_product(c1, c2, 0, w_hi).items():
                    acc[m] = acc.get(m, 0) + c
    out = {e: {m: c for m, c in acc.items() if c} for e, acc in out.items()}
    return {e: acc for e, acc in out.items() if acc}


def monomials(profile):
    """All trimmed p-monomials of weight <= max_weight with at most n_pairs parts."""

    def exponents(i, room):
        if i > profile.n_pairs:
            yield ()
            return
        for a in range(room // i + 1):
            for rest in exponents(i + 1, room - a * i):
                yield (a,) + rest

    out = set()
    for mon in exponents(1, profile.max_weight):
        while mon and not mon[-1]:
            mon = mon[:-1]
        out.add(mon)
    return sorted(out)


def _one_plus(exp2, sign, order2):
    """1 + sign q^(exp2/2)."""
    return HalfQSeries.from_terms(QQ, [(0, 1), (exp2, sign)], order2)


def nullwert_product(half_sign, order2):
    """prod (1 - q^j)(1 + half_sign q^(j-1/2))^2: theta_3 (+1) and theta_2 (-1) at 0."""
    out = HalfQSeries.one(QQ, order2)
    for exp2 in range(2, order2, 2):
        out = out * _one_plus(exp2, -1, order2)
    for exp2 in range(1, order2, 2):
        out = out * _one_plus(exp2, half_sign, order2) ** 2
    return out


def theta1_fourth_product(order2):
    """theta_1(0, tau)^4 = 16 q^(1/2) prod (1 - q^j)^4 (1 + q^j)^8."""
    if order2 < 2:
        return HalfQSeries.zero(QQ, order2)
    body = HalfQSeries.one(QQ, order2 - 1) * 16
    for exp2 in range(2, order2 - 1, 2):
        body = body * _one_plus(exp2, -1, order2 - 1) ** 4
        body = body * _one_plus(exp2, 1, order2 - 1) ** 8
    return body.shifted(1)


def delta_epsilon_product(which, order2):
    """delta_1, eps_1, delta_2 or eps_2 from 4th powers of the product nullwerte."""
    t3 = nullwert_product(1, order2) ** 4
    if which in ("delta1", "eps1"):
        t2 = nullwert_product(-1, order2) ** 4
        series = (t2 + t3) / 8 if which == "delta1" else (t2 * t3) / 16
    else:
        t1 = theta1_fourth_product(order2)
        series = -(t1 + t3) / 8 if which == "delta2" else (t1 * t3) / 16
    return series.truncate(order2)


def sampled_pair_jet(side, tau, max_degree, n_terms=None):
    """Jet c_0..c_max_degree of one root pair's theta quotient, from product-formula samples.

    side 1: v = i t / pi with the theta_1 quotient (the Theta_1 side);
    side 2: v = i t / (2 pi) with the theta_2 quotient (the Theta_2 side).
    The quotient v theta'(0) / theta(v) * theta_i(v) / theta_i(0) is sampled
    at 2 max_degree + 10 points of the circle |t| = 1/4, and the jet is
    their discrete Fourier transform (aliasing error O(4^-points)).
    """
    points = 2 * max_degree + 10
    radius = 0.25
    quotient_kind = "theta1" if side == 1 else "theta2"
    tables = thetanum._tau_tables(tau, n_terms, side == 2)  # theta2 takes q^(j - 1/2)
    null = thetanum._theta_products((quotient_kind,), 0.0, tables)[0]
    # theta'(0) = 2 pi q^(1/8) prod (1 - q^j)^3
    prime = 2.0 * cmath.pi * cmath.exp(cmath.pi * 1j * tau / 4.0)
    for e in tables[3]:
        prime *= e**3
    samples = []
    for k in range(points):
        t = radius * cmath.exp(2j * cmath.pi * k / points)
        v = 1j * t / cmath.pi if side == 1 else 1j * t / (2 * cmath.pi)
        theta, quotient = thetanum._theta_products(("theta", quotient_kind), v, tables)
        samples.append(v * prime / theta * quotient / null)
    return [
        sum(s * cmath.exp(-2j * cmath.pi * k * d / points) for k, s in enumerate(samples))
        / (points * radius**d)
        for d in range(max_degree + 1)
    ]


def jet_degree_part(jet, roots, degree):
    """Degree-`degree` part of the product over the roots x of sum_d jet[d] x^d."""
    acc = [1.0 + 0j] + [0j] * degree
    for x in roots:
        terms = [c * complex(x) ** d for d, c in enumerate(jet)]
        acc = [sum(acc[i] * terms[n - i] for i in range(n + 1) if n - i < len(terms))
               for n in range(degree + 1)]
    return acc[degree]
