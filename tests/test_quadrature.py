"""Quadrature oracle against known values and exact results."""

import hashlib
from fractions import Fraction

import mpmath as mp
import pytest

from gegentropy import (ExactEntropy, GegenbauerSpec, QuadratureConfig,
                        ToleranceNotMet, entropy_exact, entropy_quadrature,
                        integral_I_quadrature, integrals_series_log,
                        normalize_entropy, normalized_entropy_quadrature,
                        orthonormality_quadrature, quadrature)

CFG = QuadratureConfig()
TOL = mp.mpf("1e-9")  # an order above the default target


class TestEntropyQuadrature:
    def test_chebyshev_u_n3(self):
        got = entropy_quadrature(GegenbauerSpec(1, 3), CFG)
        with mp.workdps(50):
            assert abs(got - (-3 * mp.pi / 8)) < TOL

    def test_lambda4_n2_printed_value(self):
        got = entropy_quadrature(GegenbauerSpec(4, 2), CFG)
        assert abs(got - mp.mpf("-88.862")) < 5e-4

    def test_degree_zero(self):
        assert abs(entropy_quadrature(GegenbauerSpec(3, 0), CFG)) < TOL

    def test_matches_exact_sample(self):
        for lam, n in [(1, 7), (2, 4), (3, 6), (5, 3), (6, 10)]:
            spec = GegenbauerSpec(lam, n)
            got = entropy_quadrature(spec, CFG)
            want = entropy_exact(spec).evaluate(50)
            assert abs(got - want) < TOL

    @pytest.mark.parametrize("lam", [1, 2, 3])
    def test_reaches_working_precision(self, lam):
        # Far below the 1e-10 budget: the oracle's panels converge to nearly
        # all 50 working digits, so it can tell apart values the gate cannot.
        cfg = QuadratureConfig(target_abs_tol=1e-10, working_precision=50)
        for n in range(7):
            spec = GegenbauerSpec(lam, n)
            got = entropy_quadrature(spec, cfg)
            want = entropy_exact(spec).evaluate(50)
            with mp.workdps(50):
                assert abs(got - want) < mp.mpf("1e-40")

    def test_convergence_monotonicity(self):
        spec = GegenbauerSpec(3, 4)
        loose = QuadratureConfig(target_abs_tol=1e-8)
        tight = QuadratureConfig(target_abs_tol=5e-9)
        a = entropy_quadrature(spec, loose)
        b = entropy_quadrature(spec, tight)
        assert abs(a - b) <= 1e-8

    def test_tolerance_not_met_carries_estimate(self, monkeypatch):
        # At 50 digits the rule's own estimates floor near 1e-74; a 1e-100
        # budget with no subdivision allowance must fail loudly.
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", 0)
        cfg = QuadratureConfig(target_abs_tol=1e-100, working_precision=50)
        spec = GegenbauerSpec(2, 3)
        with pytest.raises(ToleranceNotMet) as info:
            entropy_quadrature(spec, cfg)
        want = entropy_exact(spec).evaluate(50)
        # The attached best estimate is the raw panel sum (sign not applied).
        assert abs(abs(info.value.estimate) - abs(want)) < 1e-8


    def test_zero_node_adds_zero(self, monkeypatch):
        # T_1(cos t) = cos t is 0 in fixed point at pi/2 rounded from 200
        # digits, where the integrand's limit value is 0.
        integrands = []
        monkeypatch.setattr(quadrature, "_integrate",
                            lambda f, knots, cfg: integrands.append(f) or mp.mpf(0))
        entropy_quadrature(GegenbauerSpec(0, 1))
        with mp.workdps(200):
            t = +(mp.pi / 2)
        with mp.workdps(50):
            assert integrands[0](t) == 0


class TestIntegralMoments:
    def test_lambda1_n2_m1(self):
        got = integral_I_quadrature(GegenbauerSpec(1, 2), 1, CFG)
        with mp.workdps(50):
            assert abs(got - mp.pi) < TOL

    def test_degree_zero_m0(self):
        assert abs(integral_I_quadrature(GegenbauerSpec(4, 0), 0, CFG)) < TOL

    def test_lambda2_n1_m3(self):
        # (pi/3)(3 - (4/2)^3) + pi(4/2) = pi/3, from the lam = 2 closed form.
        y = Fraction(4, 2)
        expected_coeff = Fraction(3 - y ** 3, 3) + y
        assert expected_coeff == Fraction(1, 3)
        got = integral_I_quadrature(GegenbauerSpec(2, 1), 3, CFG)
        with mp.workdps(50):
            assert abs(got - mp.pi / 3) < TOL

    def test_log_entry_against_exact(self):
        for lam, n in [(2, 3), (4, 1), (3, 5)]:
            spec = GegenbauerSpec(lam, n)
            table = integrals_series_log(spec)
            for m in (0, 1, n + lam):
                got = integral_I_quadrature(spec, m, CFG)
                with mp.workdps(50):
                    want = ExactEntropy(pi_part=table.values[m]).evaluate(50)
                    assert abs(got - want) < TOL

    def test_series_log_to_working_precision(self):
        # Far below the 1e-10 budget, as for the entropy oracle.
        for lam in range(1, 5):
            for n in range(0, 9, 2):
                spec = GegenbauerSpec(lam, n)
                table = integrals_series_log(spec)
                for m in range(0, n + lam + 1, 2):
                    got = integral_I_quadrature(spec, m, CFG)
                    want = ExactEntropy(pi_part=table.values[m]).evaluate(50)
                    with mp.workdps(50):
                        assert abs(got - want) < mp.mpf("1e-40")

    @pytest.mark.parametrize("m", [0, 1])
    def test_zero_node_takes_last_place(self, monkeypatch, m):
        # T_1(cos t) = cos t is 0 in fixed point at pi/2 rounded from 200
        # digits; there C^2 counts as one unit in the last place of the
        # square, 2^(-2 bits), and cos(2m t) = (-1)^m.
        integrands = []
        monkeypatch.setattr(quadrature, "_integrate",
                            lambda f, knots, cfg: integrands.append(f) or mp.mpf(0))
        integral_I_quadrature(GegenbauerSpec(0, 1), m)
        with mp.workdps(200):
            t = +(mp.pi / 2)
        with mp.workdps(50):
            bits = mp.mp.prec + 10
            want = (-1) ** m * -2 * bits * mp.log(2)
            assert abs(integrands[0](t) - want) < mp.mpf("1e-45")

    def test_rejects_out_of_range_m(self):
        for m in (1.5, True, "1", -1, 4):
            with pytest.raises(ValueError):
                integral_I_quadrature(GegenbauerSpec(2, 1), m, CFG)


class TestNormalizedQuadrature:
    def test_chebyshev_t5(self):
        got = normalized_entropy_quadrature(GegenbauerSpec(0, 5), CFG)
        with mp.workdps(50):
            assert abs(got - (mp.log(2) - 1)) < TOL

    def test_chebyshev_u4(self):
        got = normalized_entropy_quadrature(GegenbauerSpec(1, 4), CFG)
        with mp.workdps(50):
            assert abs(got - mp.mpf(-4) / 5) < TOL

    def test_lambda2_degree_zero(self):
        assert abs(normalized_entropy_quadrature(GegenbauerSpec(2, 0), CFG)) < TOL

    def test_lambda2_n3_reference_form(self):
        # -log(3(n+1)/(n+3)) - (n^3-5n^2-29n-27)/((n+1)(n+2)(n+3))
        # - (1/(n+2))((n+3)/(n+1))^(n+2) at n = 3.
        got = normalized_entropy_quadrature(GegenbauerSpec(2, 3), CFG)
        with mp.workdps(50):
            want = (-mp.log(mp.mpf(12) / 6) - mp.mpf(3 ** 3 - 5 * 9 - 29 * 3 - 27)
                    / (4 * 5 * 6) - mp.mpf(1) / 5 * (mp.mpf(6) / 4) ** 5)
            assert abs(got - want) < TOL

    def test_matches_exact_normalization(self):
        for lam, n in [(1, 6), (2, 5), (3, 3), (4, 4)]:
            spec = GegenbauerSpec(lam, n)
            got = normalized_entropy_quadrature(spec, CFG)
            want = normalize_entropy(spec, entropy_exact(spec)).evaluate(50)
            assert abs(got - want) < TOL


class TestAdaptivePanel:
    @staticmethod
    def integrate(monkeypatch, budget):
        # |t - 1/3| has a kink at 1/3, which only bisection can isolate.
        calls = []
        real = mp.quad

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(mp, "quad", counting)
        with mp.workdps(50):
            value, err = quadrature._adaptive_panel(
                lambda t: abs(t - mp.mpf(1) / 3), mp.mpf(0), mp.mpf(1),
                mp.mpf(budget), quadrature._MAX_DEPTH)
            return value - mp.mpf(5) / 18, err, len(calls)

    def test_bisects_until_budget_met(self, monkeypatch):
        miss, err, calls = self.integrate(monkeypatch, "1e-6")
        assert calls == 5
        assert err <= 1e-6 and abs(miss) < 1e-7

    def test_returns_estimate_when_depth_runs_out(self, monkeypatch):
        miss, err, calls = self.integrate(monkeypatch, "1e-20")
        assert calls == 1 + 2 * quadrature._MAX_DEPTH
        assert err > 1e-20 and abs(miss) < 1e-11


class TestOrthonormality:
    @pytest.mark.parametrize("lam,n", [(0, 4), (1, 3), (2, 7), (3, 2), (4, 9)])
    def test_unit_norm(self, lam, n):
        got = orthonormality_quadrature(GegenbauerSpec(lam, n), CFG)
        assert abs(got - 1) < 10 * mp.mpf(CFG.target_abs_tol)


class TestPinnedOutput:
    # sha256 of the repr of each oracle's values over a grid: any change to
    # the integrand arithmetic that moves a single digit shows here.
    @pytest.mark.parametrize("oracle,lam_max,n_max,digest", [
        (entropy_quadrature, 5, 9,
         "7140c6a8deeee6eeb547c8b3f51bb3d6a8acfc8e2d30a9f0be4855deed583a15"),
        (normalized_entropy_quadrature, 3, 5,
         "a43f212d686a6bc70f0c4f712521061959b79d8b37c193a1a5c1be7f1b31b63d"),
        (orthonormality_quadrature, 3, 5,
         "885d167609a4f2f300a60ae409daf9b70c8e9306b8abbde7e0af06ccd8f059ba"),
    ], ids=["entropy", "normalized", "orthonormality"])
    def test_repr_digest(self, oracle, lam_max, n_max, digest):
        cfg = QuadratureConfig(target_abs_tol=1e-9, working_precision=50)
        values = [oracle(GegenbauerSpec(lam, n), cfg)
                  for lam in range(lam_max + 1) for n in range(n_max + 1)]
        assert hashlib.sha256(repr(values).encode()).hexdigest() == digest

    def test_moment_repr_digest(self):
        cfg = QuadratureConfig(target_abs_tol=1e-9, working_precision=50)
        values = [integral_I_quadrature(GegenbauerSpec(lam, n), m, cfg)
                  for lam in range(1, 4) for n in range(5)
                  for m in range(n + lam + 1)]
        assert (hashlib.sha256(repr(values).encode()).hexdigest()
                == "cae4f558320f6a858526fa4a77fe378a7ab378fb72b44d3b08c877e9a1ce2a70")


class TestConfig:
    BAD = [
        {"target_abs_tol": 0},
        {"target_abs_tol": "1e-9"},
        {"target_abs_tol": None},
        {"target_abs_tol": float("inf")},
        {"target_abs_tol": float("nan")},
        {"target_abs_tol": True},
        {"working_precision": 30},
        {"working_precision": 60.5},
        {"working_precision": "60"},
        {"working_precision": True},
    ]

    def test_validation(self):
        for kwargs in self.BAD:
            with pytest.raises(ValueError):
                QuadratureConfig(**kwargs)
