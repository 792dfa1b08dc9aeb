"""Coefficients, evaluation, trigonometric representations, and zeros."""

import hashlib
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from gegentropy import (GegenbauerSpec, gegenbauer, gegenbauer_value,
                        standard_coeffs, standard_representation,
                        szego_coeffs, szego_representation, zero_angles)
from gegentropy.gegenbauer import pochhammer, zeros

F = Fraction


def brute_cosine_coeff(lam, n, m):
    """d_m straight from factorial ratios, independent of standard_coeffs."""
    def rising(a, k):
        out = 1
        for i in range(k):
            out *= a + i
        return out
    return F(rising(lam, m) * rising(lam, n - m),
             math.factorial(m) * math.factorial(n - m))


class TestSpec:
    @pytest.mark.parametrize("lam,n", [(2.5, 3), (True, 3), (3, 2.0), ("3", 2)])
    def test_rejects_non_integer(self, lam, n):
        with pytest.raises(ValueError):
            GegenbauerSpec(lam, n)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(F(7, 3), 0) == 1

    def test_two_three(self):
        assert pochhammer(2, 3) == 24

    def test_vs_factorial_ratio(self):
        # (4)_1 = 4!/3! appears as the (lam=4, n=1) leading cosine coefficient
        assert pochhammer(4, 1) == F(math.factorial(4), math.factorial(3))
        for a in range(1, 8):
            for k in range(0, 6):
                assert pochhammer(a, k) == F(math.factorial(a + k - 1),
                                             math.factorial(a - 1))

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            pochhammer(1, -1)


class TestStandardCoeff:
    def test_lambda1_all_ones(self):
        for n in range(0, 9):
            assert standard_coeffs(GegenbauerSpec(1, n)) == (1,) * (n + 1)

    def test_lambda2_n2_m1(self):
        spec = GegenbauerSpec(2, 2)
        d = standard_coeffs(spec)
        assert d[1] == 4
        # Oracle: C_2^(2)(cos t) from the recurrence must equal the cosine sum.
        with mp.workdps(50):
            for t in (mp.mpf("0.3"), mp.mpf("1.1"), mp.mpf("2.7")):
                direct = gegenbauer_value(spec, mp.cos(t))
                series = sum(mp.mpf(d[m].numerator) / d[m].denominator
                             * mp.cos((2 - 2 * m) * t) for m in range(3))
                assert abs(direct - series) < 1e-40

    def test_symmetry_witness(self):
        d = standard_coeffs(GegenbauerSpec(3, 5))
        assert d[1] == d[4]

    def test_symmetry_exhaustive(self):
        for lam in range(0, 7):
            for n in range(0, 21):
                d = standard_coeffs(GegenbauerSpec(lam, n))
                for m in range(n + 1):
                    assert d[m] == d[n - m]

    def test_matches_brute_force(self):
        for lam in range(1, 6):
            for n in range(0, 10):
                d = standard_coeffs(GegenbauerSpec(lam, n))
                for m in range(n + 1):
                    assert d[m] == brute_cosine_coeff(lam, n, m)

    def test_chebyshev_limit(self):
        assert standard_coeffs(GegenbauerSpec(0, 0)) == (1,)
        assert standard_coeffs(GegenbauerSpec(0, 1)) == (F(1, 2), F(1, 2))
        assert standard_coeffs(GegenbauerSpec(0, 5)) == (
            F(1, 2), 0, 0, 0, 0, F(1, 2))


class TestSzegoCoeffs:
    def test_alpha0_is_one(self):
        for lam in range(1, 8):
            for n in (0, 1, 5, 12):
                _, alphas = szego_coeffs(GegenbauerSpec(lam, n))
                assert alphas[0] == 1
                assert len(alphas) == lam
                assert all(a != 0 for a in alphas)

    def test_lambda4_n1_prefactor(self):
        c, _ = szego_coeffs(GegenbauerSpec(4, 1))
        assert c == F(7, 8)
        # Ties to the factored leading entropy coefficient: c * d_0 = 7/2.
        assert c * standard_coeffs(GegenbauerSpec(4, 1))[0] == F(7, 2)

    def test_lambda1_recovers_chebyshev_u(self):
        for n in range(0, 8):
            c, alphas = szego_coeffs(GegenbauerSpec(1, n))
            assert c == 1 and alphas == (F(1),)

    def test_rejects_chebyshev_t_limit(self):
        with pytest.raises(ValueError):
            szego_coeffs(GegenbauerSpec(0, 3))


class TestCoefficientMemo:
    def test_second_call_returns_the_same_object(self):
        # Equal specs, built apart, share one build.
        assert standard_coeffs(GegenbauerSpec(3, 7)) is standard_coeffs(GegenbauerSpec(3, 7))
        assert szego_coeffs(GegenbauerSpec(3, 7)) is szego_coeffs(GegenbauerSpec(3, 7))

    def test_szego_coeffs_are_tuples(self):
        for lam in (1, 2, 5):
            for n in (0, 3, 9):
                result = szego_coeffs(GegenbauerSpec(lam, n))
                assert isinstance(result, tuple) and isinstance(result[1], tuple)

    def test_values_survive_eviction(self):
        spec = GegenbauerSpec(4, 11)
        before = standard_coeffs(spec), szego_coeffs(spec)
        for n in range(12, 13 + gegenbauer._COEFF_CACHE_SIZE):
            standard_coeffs(GegenbauerSpec(4, n))
            szego_coeffs(GegenbauerSpec(4, n))
        after = standard_coeffs(spec), szego_coeffs(spec)
        assert after[0] is not before[0] and after[1] is not before[1]
        assert after == before


class TestOrthonormalScales:
    def test_unit_norm_by_theorem(self):
        # int_0^pi C_n^2 sin^(2 lam) dt = pi 2 (n+2lam-1)! / (4^lam n! (n+lam)
        # ((lam-1)!)^2), and int_0^pi cos^2(n t) dt = pi/2 (n >= 1) or pi,
        # so s2 times k_pi/pi times the norm integral is exactly 1.
        for lam in range(13):
            for n in range(41):
                s2, k_pi = gegenbauer.orthonormal_scales(GegenbauerSpec(lam, n))
                if lam == 0:
                    assert s2 * k_pi == (2 if n else 1)
                    continue
                norm = F(2 * math.factorial(n + 2 * lam - 1),
                         4 ** lam * math.factorial(n) * (n + lam)
                         * math.factorial(lam - 1) ** 2)
                assert s2 * k_pi * norm == 1

    @pytest.mark.parametrize("n", [300, 1000, 5000])
    def test_matches_pochhammer_form_at_large_n(self, n):
        # s2 = (n+lam) n! / (lam (2 lam)_n) with (2 lam)_n as the rising product.
        for lam in (1, 5, 12):
            s2, _ = gegenbauer.orthonormal_scales(GegenbauerSpec(lam, n))
            assert s2 == F((n + lam) * math.factorial(n)) / (lam * pochhammer(2 * lam, n))

    def test_weight_is_a_probability(self):
        # int_0^pi sin^(2 lam) t dt = pi (2 lam)! / (4^lam (lam!)^2).
        for lam in range(13):
            _, k_pi = gegenbauer.orthonormal_scales(GegenbauerSpec(lam, 3))
            assert k_pi * F(math.factorial(2 * lam),
                            4 ** lam * math.factorial(lam) ** 2) == 1


class TestEvaluation:
    @given(st.integers(min_value=1, max_value=8),
           st.fractions(min_value=F(-2), max_value=F(2), max_denominator=30))
    def test_degree_one(self, lam, x):
        assert gegenbauer_value(GegenbauerSpec(lam, 1), x) == 2 * lam * x

    def test_u2_at_zero(self):
        assert gegenbauer_value(GegenbauerSpec(1, 2), F(0)) == -1

    def test_recurrence_matches_cosine_series(self):
        # Brute-force oracle: the cosine series with factorial-ratio
        # coefficients, evaluated term by term.
        with mp.workdps(50):
            for lam in range(1, 6):
                for n in range(0, 11):
                    spec = GegenbauerSpec(lam, n)
                    for t in (mp.mpf("0.3"), mp.mpf("1.1"), mp.mpf("2.7")):
                        direct = gegenbauer_value(spec, mp.cos(t))
                        d = [brute_cosine_coeff(lam, n, m) for m in range(n + 1)]
                        series = sum(
                            mp.mpf(dm.numerator) / dm.denominator
                            * mp.cos((n - 2 * m) * t)
                            for m, dm in enumerate(d))
                        scale = max(mp.mpf(1), abs(series))
                        assert abs(direct - series) < 1e-40 * scale

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=12),
           st.fractions(min_value=F(-3, 2), max_value=F(3, 2), max_denominator=24))
    def test_parity(self, lam, n, x):
        spec = GegenbauerSpec(lam, n)
        sign = -1 if n % 2 else 1
        assert gegenbauer_value(spec, -x) == sign * gegenbauer_value(spec, x)

    def test_chebyshev_t_values(self):
        assert gegenbauer_value(GegenbauerSpec(0, 3), F(1, 2)) == -1
        with mp.workdps(50):
            t = mp.mpf("0.8")
            got = gegenbauer_value(GegenbauerSpec(0, 6), mp.cos(t))
            assert abs(got - mp.cos(6 * t)) < 1e-45


class TestTrigRepresentations:
    def test_standard_u2_at_right_angle(self):
        spec = GegenbauerSpec(1, 2)
        rep = standard_representation(spec)
        with mp.workdps(50):
            got = rep(mp.pi / 2)
            assert abs(got - (-1)) < 1e-45

    def test_chebyshev_t_is_single_cosine(self):
        spec = GegenbauerSpec(0, 3)
        rep = standard_representation(spec)
        with mp.workdps(50):
            for t in (mp.mpf("0.17"), mp.mpf("1.9"), mp.mpf("2.9")):
                assert abs(rep(t) - mp.cos(3 * t)) < 1e-45

    def test_szego_equals_standard_on_grid(self):
        with mp.workdps(50):
            for lam in (1, 2, 4):
                for n in (0, 3, 9):
                    spec = GegenbauerSpec(lam, n)
                    std = standard_representation(spec)
                    sze = szego_representation(spec)
                    # Values below the evaluation noise floor (the grid can
                    # hit exact zeros, e.g. theta = pi/2 for odd n) carry no
                    # relative-deviation information.
                    floor = gegenbauer_value(spec, mp.mpf(1)) * mp.mpf("1e-40")
                    for i in range(1, 60):
                        t = mp.pi * i / 60
                        a = std(t)
                        b = sze(t)
                        scale = max(abs(a), abs(b))
                        if scale > floor:
                            assert abs(a - b) / scale < 1e-14

    def test_szego_singular_at_endpoints(self):
        spec = GegenbauerSpec(2, 3)
        rep = szego_representation(spec)
        with pytest.raises(ValueError):
            rep(0)

    def test_representation_shapes(self):
        spec = GegenbauerSpec(4, 6)
        assert len(standard_coeffs(spec)) == 7
        _, alphas = szego_coeffs(spec)
        assert len(alphas) == 4 and alphas[0] == 1

    @pytest.mark.parametrize("lam,n", [(20, 100), (30, 300)])
    def test_standard_accuracy_at_large_specs(self, lam, n):
        # The 50-digit sum against a 300-digit one, relative to the sum of
        # the |weights|, C_n(1); near t = 0 the wave recurrence is worst
        # conditioned.
        spec = GegenbauerSpec(lam, n)
        with mp.workdps(50):
            angles = [mp.pi * k / 194 for k in range(1, 97)]
            angles += [mp.mpf("1e-3"), mp.mpf("1e-6"), mp.mpf("1e-12")]
            rep = standard_representation(spec)
            got = [rep(t) for t in angles]
        weight_sum = sum(standard_coeffs(spec))
        with mp.workdps(300):
            rep = standard_representation(spec)
            worst = max(abs(a - rep(t)) for a, t in zip(got, angles))
            assert worst < (mp.mpf("2e-48") * weight_sum.numerator
                            / weight_sum.denominator)

    @pytest.mark.parametrize("lam,n", [(20, 100), (30, 300)])
    def test_series_accuracy_near_ends(self, lam, n):
        # The 50-digit cosine series and its sine series (the slope) against
        # their terms summed one by one at 300 digits, near t = 0 and pi/2,
        # relative to the sum of the |weights| of each.
        spec = GegenbauerSpec(lam, n)
        d = standard_coeffs(spec)
        offsets = ["1e-12", "1e-6", "1e-3", "1e-2", "1e-1"]
        with mp.workdps(50):
            angles = [mp.mpf(x) for x in offsets]
            angles += [mp.pi / 2 - mp.mpf(x) for x in offsets] + [mp.pi / 2]
            rep = standard_representation(spec)
            weights = gegenbauer._folded_weights(spec)
            slope = gegenbauer._at_angle(gegenbauer._folded_series(
                n, [-(2 * k + n % 2) * w for k, w in enumerate(weights)], sine=True))
            got = [(rep(t), slope(t)) for t in angles]
        with mp.workdps(300):
            weights = [mp.mpf(dm.numerator) / dm.denominator for dm in d]
            bounds = (mp.mpf("2e-48") * mp.fsum(weights),
                      mp.mpf("2e-48") * mp.fsum(w * abs(n - 2 * m)
                                                for m, w in enumerate(weights)))
            for t, (value, derivative) in zip(angles, got):
                want = mp.fsum(w * mp.cos((n - 2 * m) * t)
                               for m, w in enumerate(weights))
                want_slope = -mp.fsum(w * (n - 2 * m) * mp.sin((n - 2 * m) * t)
                                      for m, w in enumerate(weights))
                assert abs(value - want) < bounds[0]
                assert abs(derivative - want_slope) < bounds[1]

    @pytest.mark.parametrize("lam,n", [(20, 100), (30, 300)])
    def test_szego_accuracy_at_large_specs(self, lam, n):
        # The 50-digit szego form times sin(t)^(2 lam - 1) / c against its
        # sine series summed term by term at 300 digits, relative to the sum
        # of the |a_v|, on a grid and near t = 0 and pi/2.
        spec = GegenbauerSpec(lam, n)
        c, alphas = szego_coeffs(spec)
        offsets = ["1e-12", "1e-6", "1e-3", "1e-2", "1e-1"]
        with mp.workdps(50):
            angles = [mp.pi * k / 194 for k in range(1, 97)]
            angles += [mp.mpf(x) for x in offsets]
            angles += [mp.pi / 2 - mp.mpf(x) for x in offsets]
            rep = szego_representation(spec)
            got = [rep(t) for t in angles]
        with mp.workdps(300):
            a = [mp.mpf(av.numerator) / av.denominator for av in alphas]
            scale = mp.mpf(c.numerator) / c.denominator
            bound = mp.mpf("2e-48") * mp.fsum(abs(av) for av in a)
            for t, value in zip(angles, got):
                want = mp.fsum(av * mp.sin((n + 1 + 2 * v) * t)
                               for v, av in enumerate(a))
                assert abs(value * mp.sin(t) ** (2 * lam - 1) / scale - want) < bound

    def test_trig_recurrence_identity(self):
        # 2(lam-1) sin^2 t C_n^(lam) = (2 lam + n - 1) cos t C_{n+1}^(lam-1)
        #                              - (n + 2) C_{n+2}^(lam-1)
        with mp.workdps(50):
            for lam in range(2, 6):
                for n in range(0, 8):
                    spec = GegenbauerSpec(lam, n)
                    lower1 = GegenbauerSpec(lam - 1, n + 1)
                    lower2 = GegenbauerSpec(lam - 1, n + 2)
                    for i in range(1, 24):
                        t = mp.pi * i / 24
                        lhs = (2 * (lam - 1) * mp.sin(t) ** 2
                               * standard_representation(spec)(t))
                        rhs = ((2 * lam + n - 1) * mp.cos(t)
                               * standard_representation(lower1)(t)
                               - (n + 2)
                               * standard_representation(lower2)(t))
                        scale = max(mp.mpf(1), abs(lhs), abs(rhs))
                        assert abs(lhs - rhs) / scale < 1e-12


class TestZeros:
    def test_u2(self):
        got = zeros(GegenbauerSpec(1, 2), 50)
        assert len(got) == 2
        assert abs(got[0] + F(1, 2)) < 1e-40 and abs(got[1] - F(1, 2)) < 1e-40

    def test_chebyshev_t4(self):
        got = zeros(GegenbauerSpec(0, 4), 50)
        with mp.workdps(60):
            expected = sorted(mp.cos((2 * k - 1) * mp.pi / 8) for k in range(1, 5))
            assert all(abs(a - b) < 1e-45 for a, b in zip(got, expected))

    def test_lambda3_n5_symmetric_with_zero(self):
        got = zeros(GegenbauerSpec(3, 5), 50)
        assert len(got) == 5
        assert abs(got[2]) < 1e-45
        for i in range(5):
            assert abs(got[i] + got[4 - i]) < 1e-44

    def test_residual_small_and_sign_changes(self):
        with mp.workdps(60):
            for lam in (0, 1, 3, 5):
                for n in (1, 4, 9):
                    spec = GegenbauerSpec(lam, n)
                    got = zeros(spec, 50)
                    assert len(got) == n
                    scale = max(abs(gegenbauer_value(spec, mp.mpf(1))), mp.mpf(1))
                    eps = mp.mpf("1e-30")
                    for z in got:
                        assert abs(gegenbauer_value(spec, z)) < 1e-44 * scale
                        left = gegenbauer_value(spec, z - eps)
                        right = gegenbauer_value(spec, z + eps)
                        assert left * right < 0

    def test_interlacing(self):
        for lam in (0, 1, 2, 4):
            for n in range(2, 9):
                inner = zeros(GegenbauerSpec(lam, n - 1), 50)
                outer = zeros(GegenbauerSpec(lam, n), 50)
                for i in range(n - 1):
                    assert outer[i] < inner[i] < outer[i + 1]


#: zero_angles' accuracy at precision 50: 10^(2 - precision).
ZERO_TOL = mp.mpf(10) ** -48


class TestZeroAngles:
    @pytest.mark.parametrize("lam", [0, 1])
    def test_closed_forms(self, lam):
        # T_n: t_k = (2k-1) pi / (2n);  U_n: t_k = k pi / (n+1).
        for n in range(1, 41):
            got = zero_angles(GegenbauerSpec(lam, n), 50)
            with mp.workdps(60):
                if lam == 0:
                    want = [(2 * k - 1) * mp.pi / (2 * n) for k in range(1, n + 1)]
                else:
                    want = [k * mp.pi / (n + 1) for k in range(1, n + 1)]
                assert len(got) == n
                assert all(abs(a - b) < ZERO_TOL for a, b in zip(got, want))

    @pytest.mark.parametrize("lam", range(2, 7))
    def test_mirror_symmetry(self, lam):
        for n in range(1, 16):
            got = zero_angles(GegenbauerSpec(lam, n), 50)
            with mp.workdps(60):
                for k in range(n):
                    assert abs(got[k] + got[n - 1 - k] - mp.pi) < ZERO_TOL
                if n % 2:
                    assert abs(got[n // 2] - mp.pi / 2) < ZERO_TOL

    def test_pinned_repr_digest(self):
        # sha256 of the _mpf_ tuple of every angle for lam 0..5, n 0..9: any
        # change to the evaluation arithmetic that moves a single bit shows here.
        angles = [zero_angles(GegenbauerSpec(lam, n), 50)
                  for lam in range(6) for n in range(10)]
        tuples = [[t._mpf_ for t in row] for row in angles]
        assert (hashlib.sha256(repr(tuples).encode()).hexdigest()
                == "224374dcaf2cdf4aa731dc5fb8b164580251a3a6fd732eff53fc68575e16cc3a")

    @pytest.mark.parametrize("lam,n", [(30, 100), (40, 80)])
    def test_accurate_at_size(self, lam, n):
        # The series sums weights up to C_n(1), about 1e44 and 1e46 here,
        # down to values near 0; the zeros keep 10^(2 - precision) anyway.
        spec = GegenbauerSpec(lam, n)
        got, want = zero_angles(spec, 50), zero_angles(spec, 110)
        with mp.workdps(120):
            assert max(abs(a - b) for a, b in zip(got, want)) < ZERO_TOL

    @pytest.mark.parametrize("precision", [10, 60.5, "60", True])
    def test_rejects_bad_precision(self, precision):
        for n in (0, 3):
            with pytest.raises(ValueError):
                zero_angles(GegenbauerSpec(2, n), precision)
            with pytest.raises(ValueError):
                zeros(GegenbauerSpec(2, n), precision)
