"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Everything symbolic is checked for exact equality of rationals; the numeric
criterion carries the stated 1e-9 tolerance.  Each criterion also enforces
its stated wall-clock budget.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from anomform.anomaly import (
    CASE_CONSTANTS,
    P2,
    Q2,
    corollary_coefficients,
    identity_parameters,
    verify_agw,
    verify_decomposition_identity,
    verify_main_identity,
    verify_route_equivalence,
)
from anomform.chroot import GradedClass, RootProfile, eval_at_roots, product_over_roots
from anomform.cli import main as cli_main
from anomform.modforms import delta_epsilon
from anomform.qseries import QQ, HalfQSeries
from anomform.thetanum import check_transformation
from anomform.witten import lambda_t_character, s_t_character

B_DIMS = (1, 2, 3, 9, 10, 11, 17, 18, 19)
Z_DIMS = (5, 6, 7, 13, 14, 15)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({description}): PASS [{elapsed:.2f}s < {budget_seconds}s]")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_modular_form_expansions():
    with criterion(1, "delta/epsilon expansions and integrality", 1.0):
        order2 = 21  # through q^10
        d1 = delta_epsilon("delta1", order2)
        e1 = delta_epsilon("eps1", order2)
        d2 = delta_epsilon("delta2", order2)
        e2 = delta_epsilon("eps2", order2)
        assert [d1.coefficient(k) for k in (0, 2, 4)] == [Fraction(1, 4), 6, 6]
        assert [e1.coefficient(k) for k in (0, 2, 4)] == [Fraction(1, 16), -1, 7]
        assert [d2.coefficient(k) for k in (0, 1, 2)] == [Fraction(-1, 8), -3, -3]
        assert [e2.coefficient(k) for k in (0, 1, 2)] == [0, 1, 8]
        for form in (d1, e1, d2, e2):
            for exp2, coeff in form.items():
                assert exp2 == 0 or coeff.denominator == 1


def test_criterion_2_decomposition_closed_forms():
    from anomform.modforms import decompose_theta2
    from anomform.witten import chern_character

    with criterion(2, "b_0/b_1/z_0/z_1 closed forms for m <= 2", 10.0):
        for dim in B_DIMS:
            _, m, degree = identity_parameters(dim)
            profile = RootProfile(dim, degree)
            elements = decompose_theta2(m, profile)
            assert elements[0] == GradedClass.constant(profile, -1)
            if m >= 1:
                expected = chern_character(profile) + (24 * (2 * m + 1) - dim)
                assert elements[1] == expected
        for dim in Z_DIMS:
            _, m, degree = identity_parameters(dim)
            profile = RootProfile(dim, degree)
            elements = decompose_theta2(m, profile)
            assert elements[0] == GradedClass.constant(profile, 1)
            assert elements[1] == -chern_character(profile) - (48 * m - dim)


def test_criterion_3_main_identity_sweep():
    with criterion(3, "main identity lambda across all residues", 60.0):
        for dim in B_DIMS + Z_DIMS:
            case, m, _ = identity_parameters(dim)
            full = verify_main_identity(dim, "full")
            if dim == 1:
                assert full.status == "degenerate-zero"
                continue
            assert full.status == "pass" and full.residuals == []
            assert full.lambda_measured == CASE_CONSTANTS[case] * 2 ** (6 * m)
            assert full.paper_ratio == 1
            half = verify_main_identity(dim, "half")
            assert half.status == "pass"
            num, den = half.paper_ratio.numerator, half.paper_ratio.denominator
            assert num & (num - 1) == 0 and den & (den - 1) == 0


def test_criterion_4_agw_formulas():
    with criterion(4, "dimension 2/6/10 cancellation formulas", 1.0):
        for dim in (2, 6, 10):
            report = verify_agw(dim, "full")
            assert report.status == "pass" and report.residuals == []


def test_criterion_5_corollary_vectors():
    expected = {
        1: (1, 0, 8), 2: (1, 0, 8), 3: (1, 0, 8),
        5: (1, 1, -21), 6: (1, 1, -22), 7: (1, 1, -23),
        9: (1, -8, 8), 10: (1, -8, 16), 11: (1, -8, 24),
    }
    with criterion(5, "corollary coefficient vectors", 5.0):
        for dim, vec in expected.items():
            got = corollary_coefficients(dim).coefficients
            assert got == tuple(Fraction(c) for c in vec), (dim, got)


def test_criterion_6_series_modularity_with_guards():
    with criterion(6, "decomposition identity with guard coefficients", 30.0):
        for dim in B_DIMS + Z_DIMS:
            _, m, _ = identity_parameters(dim)
            # matched window is exp2 <= m; two whole-q guard steps beyond
            report = verify_decomposition_identity(dim, order2=m + 5)
            expected = "degenerate-zero" if dim == 1 else "pass"
            assert report.status == expected and report.residuals == []


def test_criterion_7_route_equivalence():
    with criterion(7, "ktheory vs theta-product routes to q^(5/2)", 30.0):
        for dim in (1, 2, 3, 9, 10, 11):
            report = verify_route_equivalence(dim, kind=P2, order2=6)
            expected = "degenerate-zero" if dim == 1 else "pass"
            assert report.status == expected and report.residuals == []
        for dim in (5, 6, 7):
            report = verify_route_equivalence(dim, kind=Q2, order2=6)
            assert report.status == "pass" and report.residuals == []


def test_criterion_8_numeric_transformation_laws():
    with criterion(8, "numeric theta transformation laws", 5.0):
        rng = random.Random(20260808)
        points = [
            (
                complex(rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.5)),
                complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)),
            )
            for _ in range(20)
        ]
        for law in ("eq3.1", "eq3.2", "eq3.3", "eq3.4"):
            report = check_transformation(law, points, tol=1e-9)
            assert report.passed, (law, report.max_residual)
        taus = [tau for _, tau in points[:10]]
        for law in ("eq3.5delta", "eq3.5eps"):
            report = check_transformation(law, taus, tol=1e-9)
            assert report.passed, (law, report.max_residual)
        jets = [
            (0, [0.1], complex(0.3, 1.2)),
            (0, [0.17], complex(-0.2, 0.8)),
            (0, [0.05, -0.12], complex(0.1, 1.0)),
        ]
        report = check_transformation("eq3.11", jets, tol=1e-9)
        assert report.passed, report.residuals


def test_criterion_9_property_suites(capsys, clear_memos):
    with criterion(9, "ring axioms, duality, Newton roundtrip, determinism", 30.0):
        # q-series ring axioms on random sparse series
        rng = random.Random(99001)

        def rand_series():
            terms = [
                (rng.randrange(0, 10), Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)))
                for _ in range(rng.randrange(0, 6))
            ]
            return HalfQSeries.from_terms(QQ, terms, 10)

        for _ in range(100):
            a, b, c = rand_series(), rand_series(), rand_series()
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            left, right = a * (b + c), a * b + a * c
            k = min(left.order2, right.order2)
            assert left.truncate(k) == right.truncate(k)

        # exterior/symmetric duality per factor bundle and q-power
        from anomform.chroot import GradedRing

        profile = RootProfile(6, 8)
        one = HalfQSeries.one(GradedRing(profile), 8)
        for exp2 in (1, 2, 3):
            s = s_t_character(profile, 1, exp2, 8)
            lam = lambda_t_character(profile, -1, exp2, 8)
            assert s * lam == one

        # Newton-conversion roundtrip against direct root evaluation
        for _ in range(50):
            n_pairs = rng.randrange(1, 5)
            dim = 2 * n_pairs + rng.randrange(2)
            profile = RootProfile(dim, 8)
            n = 2 * profile.max_weight + 1
            f = [Fraction(0)] * n
            f[0] = Fraction(1)
            for k in range(2, n, 2):
                f[k] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
            values = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(n_pairs)]
            got = eval_at_roots(product_over_roots(f, profile), values)
            acc = [Fraction(0)] * (2 * profile.max_weight + 1)
            acc[0] = Fraction(1)
            for r in values:
                fr = [f[d] * r**d if d < len(f) else Fraction(0) for d in range(len(acc))]
                new = [Fraction(0)] * len(acc)
                for i, ai in enumerate(acc):
                    if ai:
                        for j, bj in enumerate(fr):
                            if i + j < len(acc):
                                new[i + j] += ai * bj
                acc = new
            oracle = sum(acc) * (f[0] if profile.has_zero_root else 1)
            assert got == oracle

        # determinism and memo byte-equality through the CLI: the warm run
        # reads what the cold run memoised
        clear_memos()
        argv = ["verify", "main", "--dim", "6"]
        assert cli_main(argv) == 0
        cold = capsys.readouterr().out
        assert cli_main(argv) == 0
        warm = capsys.readouterr().out
        assert cold == warm
        assert cli_main(["verify", "main", "--dim", "6"]) == 0
        plain = capsys.readouterr().out
        assert json.loads(plain)["results"] == json.loads(cold)["results"]
