"""Nullwert expansions, delta/epsilon, and the triangular decompositions."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from anomform import modforms
from anomform.anomaly import P2, Q2, ROUTE_KTHEORY, identity_profile, p_form
from anomform.chroot import GradedClass, GradedRing, RootProfile
from anomform.cli import main
from anomform.modforms import (
    GAMMA0_LOWER,
    GAMMA0_UPPER,
    SpanError,
    basis_decompose,
    combination_matrix,
    decompose_theta2,
    decomposition_case,
    delta_epsilon,
    identity_parameters,
    modular_basis,
    theta1_nullwert_fourth,
    theta_nullwert,
)
from anomform.qseries import QQ, HalfQSeries
from anomform.witten import THETA2, build_theta_bundle, chern_character
from dense_series import delta_epsilon_product, nullwert_product, theta1_fourth_product

ORDER = 24  # through q^11 for the oracles below


# -- sum-formula oracles (independent of the library's sums and products) -------


def two_squares_oracle(sign, order2):
    """1 + 4 sum_n sign^n (d_1(n) - d_3(n)) q^(n/2), d_i(n) the divisors of n that are i mod 4.

    Jacobi's two-squares theorem: 4 (d_1(n) - d_3(n)) is the number of ways
    to write n = a^2 + b^2, so this is theta_3(0)^2 at sign 1 and, as
    (-1)^(a+b) = (-1)^n, theta_2(0)^2 at sign -1.
    """
    coeffs = {0: 1}
    for n in range(1, order2):
        coeffs[n] = 4 * sign**n * sum((-1) ** (d // 2) for d in range(1, n + 1, 2) if n % d == 0)
    return HalfQSeries.from_terms(QQ, coeffs.items(), order2)


def sum_oracle_theta1_fourth(order2):
    """theta_1(0)^4 = 16 q^(1/2) (sum_{n>=0} q^(n(n+1)/2))^4."""
    body_order = order2 - 1
    coeffs = {}
    n = 0
    while n * (n + 1) < body_order:
        coeffs[n * (n + 1)] = coeffs.get(n * (n + 1), 0) + 1
        n += 1
    body = HalfQSeries.from_terms(QQ, coeffs.items(), body_order)
    return ((body**4) * 16).truncate(body_order).shifted(1)


def test_theta2_matches_sum_formula():
    for order2 in (ORDER, 60):
        assert theta_nullwert(2, order2) ** 2 == two_squares_oracle(-1, order2)


def test_theta3_matches_sum_formula():
    for order2 in (ORDER, 60):
        assert theta_nullwert(3, order2) ** 2 == two_squares_oracle(1, order2)


def test_two_squares_oracle_tells_theta2_from_theta3():
    # r_2(1) = 4: the sign of q^(1/2) alone separates them
    assert two_squares_oracle(1, 2).coefficient(1) == 4
    assert two_squares_oracle(-1, 2).coefficient(1) == -4
    assert theta_nullwert(2, ORDER) ** 2 != two_squares_oracle(1, ORDER)


def test_theta1_fourth_matches_sum_formula():
    assert theta1_nullwert_fourth(ORDER) == sum_oracle_theta1_fourth(ORDER)


# -- infinite-product oracles (tests/dense_series.py) ----------------------------

PRODUCT_ORDER = 41  # through q^20

# form -> (library builder, product oracle), each taking order2
PRODUCT_ORACLES = {
    "theta2": (partial(theta_nullwert, 2), partial(nullwert_product, -1)),
    "theta3": (partial(theta_nullwert, 3), partial(nullwert_product, 1)),
    "theta1^4": (theta1_nullwert_fourth, theta1_fourth_product),
    **{
        which: (partial(delta_epsilon, which), partial(delta_epsilon_product, which))
        for which in ("delta1", "eps1", "delta2", "eps2")
    },
}


def first_product_mismatch(form, order2):
    """First exp2 where the library's form differs from its product oracle, else None."""
    library, oracle = (build(order2) for build in PRODUCT_ORACLES[form])
    assert library.order2 == oracle.order2 == order2
    return next(
        (e for e in range(order2) if library.coefficient(e) != oracle.coefficient(e)), None
    )


@pytest.mark.parametrize("form", PRODUCT_ORACLES)
def test_closed_forms_match_their_infinite_products(form):
    for order2 in (0, 1, 2, 3, PRODUCT_ORDER):
        assert first_product_mismatch(form, order2) is None


def test_product_oracle_rejects_sigma1_in_delta2(monkeypatch):
    # sigma_1(2) = 3 where sigma_1^odd(2) = 1: delta_2 first differs at q^1
    constant, scale, p, _, step = modforms._EISENSTEIN["delta2"]
    monkeypatch.setitem(
        modforms._EISENSTEIN, "delta2", (constant, scale, p, lambda k, c: 1, step)
    )
    assert first_product_mismatch("delta2", PRODUCT_ORDER) == 2
    assert first_product_mismatch("eps2", PRODUCT_ORDER) is None


def direct_divisor_sum(constant, scale, p, weight, step, order2):
    """eisenstein_series' sum with every k <= n tested for dividing n."""
    terms = {
        step * n: Fraction(scale) * sum(weight(k, n // k) * k**p
                                        for k in range(1, n + 1) if n % k == 0)
        for n in range(1, (order2 - 1) // step + 1)
    }
    return HalfQSeries(QQ, {0: Fraction(constant), **terms}, order2)


# the weights and steps of anomaly.theta_quotient_pair_series: Theta_1 side, Theta_2 side
PAIR_LOG_SPECS = [
    (Fraction(1, 3), Fraction(2, 3), 2 * j - 1, weight, step)
    for weight, step in ((lambda k, co: 2 * (k % 2), 2), (lambda k, co: (-1) ** co, 1))
    for j in (1, 2, 3)
]


@pytest.mark.parametrize(
    "spec", list(modforms._EISENSTEIN.values()) + PAIR_LOG_SPECS,
    ids=list(modforms._EISENSTEIN) + [f"pair-log-{i}" for i in range(len(PAIR_LOG_SPECS))],
)
def test_eisenstein_series_sums_over_multiples_as_the_divisor_sum(spec):
    for order2 in (0, 1, 2, 3, 200, 201):
        loop, direct = modforms.eisenstein_series(*spec, order2), direct_divisor_sum(*spec, order2)
        assert loop.order2 == direct.order2 == order2
        assert list(loop.items()) == list(direct.items())


def test_theta_vanishing_nullwert():
    assert not theta_nullwert(0, 8)


def test_bare_theta1_rejected():
    with pytest.raises(ValueError, match="q\\^\\(1/8\\)"):
        theta_nullwert(1, 8)


# -- delta / epsilon -----------------------------------------------------------


def test_printed_expansions():
    d1 = delta_epsilon("delta1", 6)
    assert [d1.coefficient(k) for k in (0, 2, 4)] == [Fraction(1, 4), 6, 6]
    assert not d1.coefficient(1) and not d1.coefficient(3)
    e1 = delta_epsilon("eps1", 6)
    assert [e1.coefficient(k) for k in (0, 2, 4)] == [Fraction(1, 16), -1, 7]
    d2 = delta_epsilon("delta2", 4)
    assert [d2.coefficient(k) for k in (0, 1, 2)] == [Fraction(-1, 8), -3, -3]
    e2 = delta_epsilon("eps2", 4)
    assert [e2.coefficient(k) for k in (0, 1, 2)] == [0, 1, 8]


def test_weights_and_groups(capsys):
    # `expand delta-eps` prints each form's weight and congruence subgroup
    for which, weight, group in (
        ("delta1", 2, GAMMA0_LOWER),
        ("eps1", 4, GAMMA0_LOWER),
        ("delta2", 2, GAMMA0_UPPER),
        ("eps2", 4, GAMMA0_UPPER),
        ("epsilon2", 4, GAMMA0_UPPER),
    ):
        assert main(["expand", "delta-eps", "--which", which, "--q-order", "4"]) == 0
        result = json.loads(capsys.readouterr().out)["results"][0]
        assert (result["weight"], result["group"]) == (weight, group)
    assert delta_epsilon("epsilon2", 4) == delta_epsilon("eps2", 4)


def test_integrality_past_constant_to_q10():
    order2 = 21  # exponents through q^10
    for which in ("delta1", "eps1", "delta2", "eps2"):
        series = delta_epsilon(which, order2)
        for exp2, coeff in series.items():
            if exp2 == 0:
                continue
            assert coeff.denominator == 1, (which, exp2, coeff)


# -- basis decomposition ---------------------------------------------------------


def test_basis_decompose_pure_monomials():
    d8 = delta_epsilon("delta2", 8) * 8
    eps2 = delta_epsilon("eps2", 8)
    assert basis_decompose((d8**3).truncate(8), 6) == [1, 0]
    assert basis_decompose(eps2, 4) == [0, 1]
    mixed = (d8**2) * Fraction(5, 7) - eps2 * 3
    assert basis_decompose(mixed.truncate(8), 4) == [Fraction(5, 7), -3]


def test_basis_decompose_rejects_off_span_series():
    d8 = delta_epsilon("delta2", 8) * 8
    poisoned = (d8**3).truncate(8) + HalfQSeries.from_terms(QQ, [(5, 1)], 8)
    with pytest.raises(SpanError) as err:
        basis_decompose(poisoned, 6)
    assert err.value.exp2 == 5


def graded_reconstruction(dim, order2):
    """sum_r x_r (8 delta_2)^(e-2r) eps_2^r over GradedRing, x_r from decompose_theta2."""
    _, m, degree = identity_parameters(dim)
    profile = identity_profile(dim)
    xs = decompose_theta2(m, profile)
    out = HalfQSeries.zero(GradedRing(profile), order2)
    for x, b in zip(xs, modular_basis(degree // 2, order2)):
        out = out + HalfQSeries(out.ring, {e: x * c for e, c in b.items()}, order2)
    return out


@pytest.mark.parametrize("source", ["theta2", "p2"])
@pytest.mark.parametrize("dim", [9, 14, 25])
def test_basis_decompose_rejects_off_span_graded_series(dim, source):
    """A true series over GradedRing decomposes; one poisoned monomial past
    the matched window (exp2 = m + 2) must raise SpanError there."""
    case, m, degree = identity_parameters(dim)
    profile = identity_profile(dim)
    order2 = m + 3
    if source == "theta2":
        series = graded_reconstruction(dim, order2)
        bundle = build_theta_bundle(THETA2, profile, m + 1).series
        assert series.truncate(m + 1) == bundle  # it is Theta_2 through the window
    else:
        series = p_form(P2 if case == "b" else Q2, profile, ROUTE_KTHEORY, order2=order2)
    xs = basis_decompose(series, degree // 2)
    assert len(xs) == m + 1
    # p_1^(degree/4) at q^((m+2)/2): in the identity degree, past the window
    poison = HalfQSeries(series.ring, {m + 2: GradedClass.p(profile, 1) ** (degree // 4)}, order2)
    with pytest.raises(SpanError) as err:
        basis_decompose(series + poison, degree // 2)
    assert err.value.exp2 == m + 2


def test_modular_basis_monomial_count():
    assert len(modular_basis(6, 6)) == 2
    assert len(modular_basis(4, 6)) == 2
    assert len(modular_basis(10, 6)) == 3
    assert len(modular_basis(8, 6)) == 3


# -- theta_2 decomposition --------------------------------------------------------


def test_case_selection():
    assert decomposition_case(0, 1) == "b"
    assert decomposition_case(1, 10) == "b"
    assert decomposition_case(1, 6) == "z"
    with pytest.raises(ValueError):
        decomposition_case(0, 6)
    with pytest.raises(ValueError):
        decomposition_case(0, 5)  # m = 0 z-case is rejected
    with pytest.raises(ValueError):
        decomposition_case(1, 4)
    with pytest.raises(ValueError, match="not in a class handled at m=0"):
        decomposition_case(0, -1)  # -1 = 8*0 - 1 is not a z-case fiber


@pytest.mark.parametrize("m", range(10))
def test_case_selection_table(m):
    # the two dimension lists of the paper's 4k+2 classes, written out as the oracle
    b_dims = (8 * m + 1, 8 * m + 2, 8 * m + 3)
    z_dims = (8 * m - 3, 8 * m - 2, 8 * m - 1) if m >= 1 else ()
    for dim in range(1, 65):
        if dim in b_dims:
            assert decomposition_case(m, dim) == "b"
        elif dim in z_dims:
            assert decomposition_case(m, dim) == "z"
        else:
            with pytest.raises(ValueError, match=f"not in a class handled at m={m}$"):
                decomposition_case(m, dim)


@pytest.mark.parametrize("m,dim", [(0, 1), (0, 2), (0, 3), (1, 9), (1, 10), (1, 11), (2, 17), (2, 18), (2, 19)])
def test_b_closed_forms(m, dim):
    profile = RootProfile(dim, 8 * m + 4)
    elements = decompose_theta2(m, profile)
    assert len(elements) == m + 1
    assert elements[0] == GradedClass.constant(profile, -1)
    if m >= 1:
        expected = chern_character(profile) + (24 * (2 * m + 1) - dim)
        assert elements[1] == expected


@pytest.mark.parametrize("m,dim", [(1, 5), (1, 6), (1, 7), (2, 13), (2, 14), (2, 15)])
def test_z_closed_forms(m, dim):
    profile = RootProfile(dim, 8 * m)
    elements = decompose_theta2(m, profile)
    assert len(elements) == m + 1
    assert elements[0] == GradedClass.constant(profile, 1)
    expected = -chern_character(profile) - (48 * m - dim)
    assert elements[1] == expected


def test_combination_matrix_is_integral_and_reconstructs():
    # each solved coefficient is an integer combination of the Fourier
    # coefficients of the input series
    for weight, m, dim in ((6, 1, 10), (4, 1, 6)):
        matrix = combination_matrix(weight)
        for row in matrix:
            for entry in row:
                assert isinstance(entry, int)
        profile = RootProfile(dim, 8)
        theta = build_theta_bundle(THETA2, profile, m + 3)
        series = theta.series
        elements = decompose_theta2(m, profile)
        for r, el in enumerate(elements):
            combo = sum(
                (series.coefficient(j) * matrix[r][j] for j in range(r + 1)),
                start=series.ring.zero,
            )
            assert el == combo


def test_decompose_rejects_m_zero_z_case():
    with pytest.raises(ValueError, match="not in a class"):
        decompose_theta2(0, RootProfile(6, 8))


def test_b2_cross_checked_by_numeric_resolve():
    # solve the m=2 system once in the graded ring, then re-solve it as a
    # plain rational system at random root values and compare evaluations
    import random

    from anomform.chroot import eval_at_roots

    m, dim = 2, 18
    profile = RootProfile(dim, 20)
    elements = decompose_theta2(m, profile)
    theta = build_theta_bundle(THETA2, profile, m + 3)
    series = theta.series
    basis = modular_basis(4 * m + 2, m + 3)
    matrix = [[basis[r].coefficient(s) for r in range(m + 1)] for s in range(m + 1)]
    rng = random.Random(31415)
    for _ in range(3):
        values = [
            Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
            for _ in range(profile.n_pairs)
        ]
        solved = []
        for s in range(m + 1):
            acc = eval_at_roots(series.coefficient(s), values)
            for r in range(s):
                acc -= matrix[s][r] * solved[r]
            solved.append(acc / matrix[s][s])
        for r, el in enumerate(elements):
            assert solved[r] == eval_at_roots(el, values)


# A basis whose leading monomial is doubled breaks the unit diagonal.  The
# check must raise even under ``python -O``, which strips ``assert``.
_PERTURBED_DIAGONAL = """
import sys
from anomform import modforms
from anomform.chroot import RootProfile

if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
original = modforms.modular_basis

def perturbed(weight, order2):
    basis = original(weight, order2)
    return [basis[0] * 2] + basis[1:]

modforms.modular_basis = perturbed
modforms.decompose_theta2(1, RootProfile(10, 12))
"""


def test_checks_survive_python_O():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PERTURBED_DIAGONAL],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "ArithmeticError: triangular diagonal must be a unit" in proc.stderr

