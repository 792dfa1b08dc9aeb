"""Quadrature oracle against known values and exact results."""

import hashlib
from fractions import Fraction

import mpmath as mp
import pytest

from gegentropy import (ExactEntropy, GegenbauerSpec, QuadratureConfig,
                        ToleranceNotMet, entropy_exact, entropy_quadrature,
                        integral_I_quadrature, integrals_series_log,
                        normalize_entropy, normalized_entropy_quadrature,
                        orthonormality_quadrature, quadrature, zero_angles)

CFG = QuadratureConfig()
TOL = mp.mpf("1e-9")  # an order above the default target


def fixed_cos_zero():
    """(bits, t): bits the panel rule's at 50 digits, t the first fixed-point
    angle from pi/2 (truncated) up whose fixed-point cosine is 0."""
    with mp.workdps(50):
        bits = mp.mp.prec + 20 + quadrature._GUARD_BITS
    with mp.workdps(200):
        t = int(mp.ldexp(mp.pi / 2, bits))
    while quadrature.cos_sin_basecase(t, bits)[0] > 0:
        t += 1
    assert quadrature.cos_sin_basecase(t, bits)[0] == 0
    return bits, t


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
        # The attached best estimate is the value the oracle would return.
        assert abs(info.value.estimate - want) < 1e-8


    def test_zero_node_adds_zero(self, monkeypatch):
        # T_1(cos t) = cos t is 0 in fixed point at an angle next to pi/2,
        # where the integrand's limit value is 0.
        integrands = []
        monkeypatch.setattr(quadrature, "_integrate",
                            lambda f, knots, cfg: integrands.append(f) or mp.mpf(0))
        entropy_quadrature(GegenbauerSpec(0, 1))
        bits, t = fixed_cos_zero()
        assert integrands[0](t, bits) == 0


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
        # T_1(cos t) = cos t is 0 in fixed point at an angle next to pi/2;
        # there C^2 counts as one unit in the last place of the
        # square, 2^(-2 bits), and cos(2m t) = (-1)^m.
        integrands = []
        monkeypatch.setattr(quadrature, "_integrate",
                            lambda f, knots, cfg: integrands.append(f) or mp.mpf(0))
        integral_I_quadrature(GegenbauerSpec(0, 1), m)
        bits, t = fixed_cos_zero()
        with mp.workdps(50):
            want = (-1) ** m * -2 * bits * mp.log(2)
            got = mp.ldexp(integrands[0](t, bits), -bits)
            assert abs(got - want) < mp.mpf("1e-45")

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
        real = quadrature._tanh_sinh

        def counting(f, a, b):
            calls.append((a, b))
            return real(f, a, b)

        monkeypatch.setattr(quadrature, "_tanh_sinh", counting)
        with mp.workdps(50):
            value, err = quadrature._adaptive_panel(
                lambda t, bits: abs(t - (1 << bits) // 3), mp.mpf(0), mp.mpf(1),
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


class TestFixedPointRule:
    @pytest.mark.parametrize("dps", [50, 200])
    def test_cos_sin_matches_mpmath(self, dps):
        # mpmath does not export cos_sin_basecase, so its contract is checked
        # here: fixed-point cos and sin on [0, pi/2], 0 and pi/2 included,
        # within a few units of 2^-bits, also within 2^-190 of a zero angle.
        with mp.workdps(dps):
            bits = mp.mp.prec + 20 + quadrature._GUARD_BITS
            knot = zero_angles(GegenbauerSpec(3, 7), dps)[0]
            angles = [mp.pi * k / 64 for k in range(33)] + [knot]
        with mp.workdps(300):
            thetas = [int(mp.ldexp(t, bits)) for t in angles]
            near = 1 << (bits - 190)
            thetas += [thetas[-1] - near, thetas[-1] + near]
            for theta in thetas:
                c, s = quadrature.cos_sin_basecase(theta, bits)
                t = mp.ldexp(theta, -bits)
                assert abs(c - mp.ldexp(mp.cos(t), bits)) < 16
                assert abs(s - mp.ldexp(mp.sin(t), bits)) < 16

    def test_panel_rule_integrates_log_singularity(self):
        # int_0^1 t^2 log t dt = -1/9, the log singular at the end 0.
        def f(theta, bits):
            with mp.workprec(bits):
                t = mp.ldexp(theta, -bits)
                return int(mp.ldexp(t * t * mp.log(t), bits))

        with mp.workdps(50):
            value, err = quadrature._tanh_sinh(f, mp.mpf(0), mp.mpf(1))
            assert abs(value + mp.mpf(1) / 9) < mp.mpf("1e-45")
            assert err < mp.mpf("1e-45")


class TestOrthonormality:
    @pytest.mark.parametrize("lam,n", [(0, 4), (1, 3), (2, 7), (3, 2), (4, 9)])
    def test_unit_norm(self, lam, n):
        got = orthonormality_quadrature(GegenbauerSpec(lam, n), CFG)
        assert abs(got - 1) < 10 * mp.mpf(CFG.target_abs_tol)


class TestPinnedOutput:
    # sha256 of the _mpf_ tuples of each oracle's values over a grid: any
    # change to the integrand arithmetic that moves a single bit shows here.
    @pytest.mark.parametrize("oracle,lam_max,n_max,digest", [
        (entropy_quadrature, 5, 9,
         "bc7807addb7c6cda4e5bfdb95aa90e2d4a03bab1d0edc75cea56d75ce4b330a0"),
        (normalized_entropy_quadrature, 3, 5,
         "00c571a436dd79d6235c42bec4e65bff300bc0d05f7dc22b9f8ae532de7cf003"),
        (orthonormality_quadrature, 3, 5,
         "4f3bfc322f54bda43213c039a5cc0173bda29194c842b6f49003813cb13544ff"),
    ], ids=["entropy", "normalized", "orthonormality"])
    def test_repr_digest(self, oracle, lam_max, n_max, digest):
        cfg = QuadratureConfig(target_abs_tol=1e-9, working_precision=50)
        values = [oracle(GegenbauerSpec(lam, n), cfg)
                  for lam in range(lam_max + 1) for n in range(n_max + 1)]
        tuples = [v._mpf_ for v in values]
        assert hashlib.sha256(repr(tuples).encode()).hexdigest() == digest

    def test_moment_repr_digest(self):
        cfg = QuadratureConfig(target_abs_tol=1e-9, working_precision=50)
        values = [integral_I_quadrature(GegenbauerSpec(lam, n), m, cfg)
                  for lam in range(1, 4) for n in range(5)
                  for m in range(n + lam + 1)]
        tuples = [v._mpf_ for v in values]
        assert (hashlib.sha256(repr(tuples).encode()).hexdigest()
                == "3972fa4b4f3b1de71b56cf939f960700e855a7db91060a41e0128f129b5f21f7")


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
