"""The theta route's closed-form pair log against a product of cosh forms.

`theta_quotient_pair_series` writes log(f/f0) of one root pair's
theta-quotient factor from Eisenstein divisor sums.  The oracle here builds
the factor itself in u = x^2, as a product of closed cosh forms over
rational q-series, and takes its log with the one-pass `pair_log`; the two
must agree exactly.  Negative controls: a perturbed log must make
`verify_route_equivalence` fail and name the first exp2 where the
perturbation reaches the series.
"""

from fractions import Fraction
from math import factorial

import pytest

from anomform import anomaly
from anomform.anomaly import (
    P1,
    P2,
    Q1,
    Q2,
    theta_quotient_pair_series,
    verify_route_equivalence,
)
from anomform.chroot import pair_log
from anomform.genera import L_FULL, L_HALF
from anomform.qseries import QQ, HalfQSeries
from dense_series import ahat_factor, even_part, poly_div, poly_mul, x_over_tanh

KIND_VARIANTS = [
    (P1, L_FULL), (P1, L_HALF), (P2, L_FULL), (Q1, L_FULL), (Q1, L_HALF), (Q2, L_FULL)
]


def cosh_form_pair_series(kind, l_variant, order2, max_weight, symmetric=True):
    """u-coefficients of one root pair's factor as a product of cosh forms.

    An exterior-power factor at t = q^(h/2), s = +-1 is
    (1 + s t e^(cx))(1 + s t e^(-cx)) / (1 + s t)^2
    = 1 + 2st/(1+st)^2 (cosh(cx) - 1), and a symmetric-power factor
    (1-q^n)^2 / ((1 - e^(cx) q^n)(1 - e^(-cx) q^n)) is the inverse of that
    form at s = -1, t = q^n.  The q^0 term is the K-theory prefactor, built
    from exponentials; `symmetric=False` leaves the symmetric-power factors out.
    """
    n_u = max_weight + 1
    if kind in (P2, Q2):
        prefactor, c = ahat_factor(2 * max_weight + 1), 1
        lambda_factors = [(2 * n - 1, -1) for n in range(1, order2 // 2 + 1)]
    else:
        prefactor = x_over_tanh(2 * max_weight + 1, half=l_variant != L_FULL)
        c = 1 if l_variant != L_FULL else 2
        lambda_factors = [(2 * n, 1) for n in range(1, (order2 - 1) // 2 + 1)]
    one = HalfQSeries.one(QQ, order2)

    def cosh_form(exp2, sign):
        st = HalfQSeries.from_terms(QQ, [(exp2, sign)], order2)
        scale = st * 2 * ((one + st) ** 2).inverse()
        return [one] + [scale * Fraction(c ** (2 * k), factorial(2 * k)) for k in range(1, n_u)]

    series = [one * coeff for coeff in even_part(prefactor)]
    if symmetric:
        for n in range(1, (order2 - 1) // 2 + 1):
            series = poly_div(series, cosh_form(2 * n, -1), n_u)
    for exp2, sign in lambda_factors:
        series = poly_mul(series, cosh_form(exp2, sign), n_u)
    return series


@pytest.mark.parametrize("kind, variant", KIND_VARIANTS, ids=lambda x: str(x))
@pytest.mark.parametrize("order2", (3, 6, 9))
def test_closed_form_log_equals_log_of_cosh_form_product(kind, variant, order2):
    for w in range(1, 7):
        f0, logs = theta_quotient_pair_series(kind, variant, order2, w)
        want_f0, want_logs = pair_log(cosh_form_pair_series(kind, variant, order2, w))
        assert f0 == want_f0
        assert len(logs) == w
        assert logs == want_logs


def first_difference(logs, perturbed):
    """Smallest exp2 at which some perturbed L_j differs from L_j."""
    return min(
        e
        for a, b in zip(logs, perturbed)
        for e in range(a.order2)
        if a.coefficient(e) != b.coefficient(e)
    )


def flip_one_divisor_sum(f0, logs, exp2):
    """L_1 with the sign of its divisor-sum term at q^(exp2/2) flipped."""
    first = logs[0]
    flip = HalfQSeries.from_terms(QQ, [(exp2, -2 * first.coefficient(exp2))], first.order2)
    flipped = first + flip
    return f0, (flipped,) + tuple(logs[1:])


# (kind, fiber_dim, l_variant, exp2 of the flipped divisor sum); dims pass unperturbed
CONTROLS = [(P2, 10, L_FULL, 3), (Q2, 6, L_FULL, 3), (P1, 2, L_HALF, 4), (Q1, 6, L_HALF, 4)]


@pytest.mark.parametrize("kind, dim, variant, exp2", CONTROLS)
def test_route_check_names_first_exp2_of_a_flipped_divisor_sum(
    clear_memos, monkeypatch, kind, dim, variant, exp2
):
    assert verify_route_equivalence(dim, kind, l_variant=variant).status == "pass"
    clear_memos()

    def perturbed(kind, l_variant, order2, max_weight):
        f0, logs = theta_quotient_pair_series(kind, l_variant, order2, max_weight)
        assert logs[0].coefficient(exp2)  # the flip must change the log
        return flip_one_divisor_sum(f0, logs, exp2)

    monkeypatch.setattr(anomaly, "theta_quotient_pair_series", perturbed)
    report = verify_route_equivalence(dim, kind, l_variant=variant)
    assert report.status == "fail"
    assert [r["exp2"] for r in report.residuals] == [exp2]
    assert report.residuals[0]["kind"] == kind


@pytest.mark.parametrize("kind, dim, variant, _", CONTROLS)
def test_route_check_names_first_exp2_without_symmetric_powers(
    clear_memos, monkeypatch, kind, dim, variant, _
):
    firsts = []

    def perturbed(kind, l_variant, order2, max_weight):
        series = cosh_form_pair_series(kind, l_variant, order2, max_weight, symmetric=False)
        f0, logs = pair_log(series)
        real = theta_quotient_pair_series(kind, l_variant, order2, max_weight)
        firsts.append(first_difference(real[1], logs))
        return f0, logs

    monkeypatch.setattr(anomaly, "theta_quotient_pair_series", perturbed)
    report = verify_route_equivalence(dim, kind, l_variant=variant)
    assert firsts == [2]  # the symmetric power at t = q enters at q^1
    assert report.status == "fail"
    assert [r["exp2"] for r in report.residuals] == firsts
