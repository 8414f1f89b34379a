"""Nullwert expansions, delta/epsilon, and the triangular decompositions."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from anomform.chroot import GradedClass, RootProfile
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
    modular_basis,
    theta1_nullwert_fourth,
    theta2_nullwert,
    theta3_nullwert,
    theta_nullwert,
)
from anomform.qseries import QQ, HalfQSeries
from anomform.witten import THETA2, build_theta_bundle, chern_character

ORDER = 24  # through q^11 for the oracles below


# -- Jacobi sum-formula oracles (independent of the product expansions) --------


def sum_oracle_theta3(order2):
    """theta_3(0) = sum over all integers of q^(n^2 / 2)."""
    coeffs = {}
    n = 0
    while n * n < order2:
        coeffs[n * n] = coeffs.get(n * n, 0) + (1 if n == 0 else 2)
        n += 1
    return HalfQSeries.from_terms(QQ, coeffs.items(), order2)


def sum_oracle_theta2(order2):
    """theta_2(0) = sum over all integers of (-1)^n q^(n^2 / 2)."""
    coeffs = {}
    n = 0
    while n * n < order2:
        sign = -1 if n % 2 else 1
        coeffs[n * n] = coeffs.get(n * n, 0) + (sign if n == 0 else 2 * sign)
        n += 1
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
    assert theta2_nullwert(ORDER) == sum_oracle_theta2(ORDER)


def test_theta3_matches_sum_formula():
    assert theta3_nullwert(ORDER) == sum_oracle_theta3(ORDER)


def test_theta1_fourth_matches_sum_formula():
    assert theta1_nullwert_fourth(ORDER) == sum_oracle_theta1_fourth(ORDER)


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

