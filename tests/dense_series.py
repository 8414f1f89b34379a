"""Dense x-series and Newton-identity oracles shared by the tests.

A dense series is a list of coefficients indexed by the power of x:
rationals, or rational q-series for the theta-quotient factors.  The
library never forms one: it writes every per-root factor as a closed-form
pair log.  These helpers build the factors themselves, from exponentials
and schoolbook products and quotients, so the tests can compare the two.
Likewise the library never forms an exterior power: the Witten bundle
factors are Adams-operation pair logs, which the tests compare against
Newton's identities (``elementary_from_power_sums``).
"""

from fractions import Fraction
from math import factorial

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
