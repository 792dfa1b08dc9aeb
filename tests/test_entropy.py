"""Integral tables by three routes and the exact entropy assembly."""

import hashlib
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from gegentropy import (ExactEntropy, GegenbauerSpec, IntegralTable, LogLinear,
                        assemble_entropy, beta_vector, entropy, entropy_closed_form,
                        entropy_exact, entropy_quadrature, integrals_faa_di_bruno,
                        integrals_series_log, integrals_standard_rep,
                        log_linear_from, normalize_entropy,
                        entropy_to_json_dict, gegenbauer_value,
                        normalized_entropy_exact, standard_coeffs,
                        standard_representation, szego_coeffs, zero_angles)
from gegentropy.gegenbauer import pochhammer

F = Fraction


def rational_entry(table, m):
    value = table.values[m]
    assert not value.log_terms, f"entry {m} should be a pure rational"
    return value.constant


class TestBetaVector:
    def test_out_of_range_zero_and_length(self):
        spec = GegenbauerSpec(3, 4)
        bv = beta_vector(spec)
        assert len(bv) == 4 + 3 + 1
        _, alphas = szego_coeffs(spec)
        assert bv[0] == alphas[0] * standard_coeffs(spec)[0]

    def test_lambda1_collapses_to_two_terms(self):
        # E(C_n^(1)) = -(1/2)(I_0 - I_{n+1}): all interior weights vanish.
        for n in range(0, 12):
            spec = GegenbauerSpec(1, n)
            bv = beta_vector(spec)
            c, alphas = szego_coeffs(spec)
            assert c == 1 and bv[0] == alphas[0] * standard_coeffs(spec)[0] == 1
            assert all(bv[m] == 0 for m in range(1, n + 1))
            assert bv[n + 1] == -1

    def test_lambda2_effective_weights(self):
        # Effective coefficient of I_m in E is -(1/2) c beta_m; for lam = 2 it
        # must be m/2 for 1 <= m <= n+1 and -(n+1)^2/8 at m = n+2, with
        # -(n+1)(n+3)/8 on I_0.
        for n in range(0, 10):
            spec = GegenbauerSpec(2, n)
            c, _ = szego_coeffs(spec)
            bv = beta_vector(spec)
            front = -F(1, 2) * c
            assert front * bv[0] == -F((n + 1) * (n + 3), 8)
            for m in range(1, n + 2):
                assert front * bv[m] == F(m, 2)
            assert front * bv[n + 2] == -F((n + 1) ** 2, 8)

    def test_lambda3_n1_values(self):
        bv = beta_vector(GegenbauerSpec(3, 1))
        assert bv[1:] == (F(-12, 5), F(-12, 5), F(12, 5), F(-3, 5))


class TestSeriesLogRoute:
    def test_lambda1_delta_structure(self):
        for n in (0, 1, 4, 9):
            table = integrals_series_log(GegenbauerSpec(1, n))
            assert table.values[0].is_zero()  # 2 log((1)_n/n!) = 0
            for m in range(1, n + 1):
                assert rational_entry(table, m) == F(1, m)
            assert rational_entry(table, n + 1) == F(1, n + 1) - 1

    def test_lambda2_closed_form(self):
        for n in (0, 1, 3, 7):
            table = integrals_series_log(GegenbauerSpec(2, n))
            y = F(n + 3, n + 1)
            for m in range(1, n + 3):
                expected = (3 - y ** m) / m + (y if m == n + 2 else 0)
                assert rational_entry(table, m) == expected

    def test_lambda3_n1_m1_vs_brute_partition_sum(self):
        # Single-term partition sum evaluated by hand:
        # I_1/pi = 5 - (a0/a1) * [0!/((2-1)! 0!)] * (-a1^2/(a2 a0)).
        _, a = szego_coeffs(GegenbauerSpec(3, 1))
        brute = 5 - (a[0] / a[1]) * (-a[1] ** 2 / (a[2] * a[0]))
        table = integrals_series_log(GegenbauerSpec(3, 1))
        assert rational_entry(table, 1) == brute == 1

    def test_log_entry(self):
        table = integrals_series_log(GegenbauerSpec(2, 1))
        assert table.values[0] == log_linear_from(2, 2)  # 2 log((2)_1/1!) = 2 log 2


class TestFaaDiBrunoRoute:
    def test_lambda3_matches_direct_single_sum(self):
        # Independent evaluation of the lam = 3 single-sum formula.
        for n in (0, 1, 2, 5):
            spec = GegenbauerSpec(3, n)
            _, a = szego_coeffs(spec)
            table = integrals_faa_di_bruno(spec)
            for m in range(1, n + 4):
                s = sum(
                    F(math.factorial(k - 1),
                      math.factorial(2 * k - m) * math.factorial(m - k))
                    * (-a[1] ** 2 / (a[2] * a[0])) ** k
                    for k in range(1, m + 1) if 2 * k >= m)
                expected = F(5, m) - (a[0] / a[1]) ** m * s
                if m == n + 3:
                    expected -= a[0] / a[2]
                assert rational_entry(table, m) == expected

    @pytest.mark.parametrize("lam", range(1, 11))
    def test_agrees_with_series_log(self, lam):
        for n in range(0, 11):
            spec = GegenbauerSpec(lam, n)
            assert (integrals_faa_di_bruno(spec).values
                    == integrals_series_log(spec).values)


class TestStandardRepRoute:
    def test_log_entry_matches_pochhammer_ratio(self):
        for lam in range(1, 6):
            for n in range(0, 8):
                spec = GegenbauerSpec(lam, n)
                table = integrals_standard_rep(spec)
                expected = log_linear_from(
                    2, pochhammer(lam, n) / math.factorial(n))
                assert table.values[0] == expected

    def test_lambda1_n3_matches_delta_structure(self):
        table = integrals_standard_rep(GegenbauerSpec(1, 3))
        assert [rational_entry(table, m) for m in range(1, 5)] == [
            F(1), F(1, 2), F(1, 3), F(1, 4) - 1]

    def test_degree_zero_table_vanishes(self):
        for lam in range(1, 7):
            spec = GegenbauerSpec(lam, 0)
            table = integrals_standard_rep(spec)
            assert all(table.values[m].is_zero() for m in range(0, lam + 1))
            assert table.values == integrals_series_log(spec).values
            assert entropy_exact(spec).is_zero()

    @pytest.mark.parametrize("lam", [1, 2, 3, 4, 5, 6])
    def test_agrees_with_series_log(self, lam):
        for n in range(0, 11):
            spec = GegenbauerSpec(lam, n)
            assert (integrals_standard_rep(spec).values
                    == integrals_series_log(spec).values)


class TestPinnedOutput:
    # sha256 of the repr over lam 1..12, n 0, 3, ..., 39: a rewrite of the
    # series builders must leave every exact value as it was.
    @pytest.mark.parametrize("build,digest", [
        (beta_vector,
         "c4a37897c0e46d97609ea3272f76aa55ab31cf928b01d0c192b03153e22d64ef"),
        (lambda spec: integrals_series_log(spec).values,
         "24e1596339a95d5c92a130fce2b4dcb99e1b803e44130b159d059186ae4710ba"),
    ], ids=["beta_vector", "series_log"])
    def test_repr_digest(self, build, digest):
        values = [build(GegenbauerSpec(lam, n))
                  for lam in range(1, 13) for n in range(0, 40, 3)]
        assert hashlib.sha256(repr(values).encode()).hexdigest() == digest


class TestIntegralTableInvariants:
    def test_log_entry_zero_iff_trivial(self):
        for lam in range(1, 7):
            for n in range(0, 15):
                table = integrals_series_log(GegenbauerSpec(lam, n))
                assert table.values[0].is_zero() == (lam == 1 or n == 0)

    @pytest.mark.parametrize("n", [0, 7, 300, 1000, 5000])
    def test_log_entry_matches_pochhammer_form(self, n):
        # I_0 / pi = 2 log((lam)_n / n!) with (lam)_n as the rising product.
        for lam in (1, 5, 12):
            want = log_linear_from(2, pochhammer(lam, n) / math.factorial(n))
            assert entropy._log_value(GegenbauerSpec(lam, n)) == want

    def test_rejects_chebyshev_limit(self):
        with pytest.raises(ValueError):
            integrals_series_log(GegenbauerSpec(0, 2))
        with pytest.raises(ValueError):
            entropy_exact(GegenbauerSpec(0, 2))


class TestEntropyExact:
    def test_lambda4_n1(self):
        expected = ExactEntropy(
            pi_part=log_linear_from(F(-7), 2) + LogLinear(F(119, 240)))
        assert entropy_exact(GegenbauerSpec(4, 1)) == expected

    def test_lambda5_n2(self):
        expected = ExactEntropy(
            pi_part=log_linear_from(F(-2475, 128), 15)
            + LogLinear(F(27685925, 5225472)))
        assert entropy_exact(GegenbauerSpec(5, 2)) == expected

    def test_degree_zero(self):
        assert entropy_exact(GegenbauerSpec(1, 0)).is_zero()

    def test_pure_pi_multiple(self):
        for lam in (1, 3, 5):
            for n in (0, 2, 7):
                e = entropy_exact(GegenbauerSpec(lam, n))
                assert e.plain_part.is_zero()

    def test_assembly_from_any_route(self):
        spec = GegenbauerSpec(4, 5)
        e = entropy_exact(spec)
        assert assemble_entropy(spec, integrals_standard_rep(spec)) == e
        assert assemble_entropy(spec, integrals_faa_di_bruno(spec)) == e

    def test_assembly_rejects_table_of_other_length(self):
        for other in (GegenbauerSpec(4, 4), GegenbauerSpec(4, 6)):
            with pytest.raises(ValueError):
                assemble_entropy(GegenbauerSpec(4, 5), integrals_series_log(other))

    def test_assembly_rejects_table_of_other_spec(self):
        # Same length (n + lam + 1 = 6), so only the spec tells them apart.
        with pytest.raises(ValueError):
            assemble_entropy(GegenbauerSpec(3, 2),
                             integrals_series_log(GegenbauerSpec(2, 3)))


class TestClosedForms:
    def test_lambda0_normalized_constants(self):
        assert normalized_entropy_exact(GegenbauerSpec(0, 0)).is_zero()
        e = normalized_entropy_exact(GegenbauerSpec(0, 7))
        assert e.pi_part.is_zero()
        assert e.plain_part == log_linear_from(1, 2) + LogLinear(F(-1))

    def test_lambda1_n1(self):
        e = entropy_closed_form(GegenbauerSpec(1, 1))
        assert e == ExactEntropy(pi_part=LogLinear(F(-1, 4)))

    def test_lambda1_matches_exact(self):
        for n in range(0, 40):
            spec = GegenbauerSpec(1, n)
            assert entropy_closed_form(spec) == entropy_exact(spec)

    def test_lambda2_n1_substitution(self):
        # -(pi/8)(16 log 2 - 20 + 64/3), by direct substitution.
        expected = ExactEntropy(
            pi_part=log_linear_from(F(-2), 2) + LogLinear(-F(-20 + F(64, 3), 8)))
        assert entropy_closed_form(GegenbauerSpec(2, 1)) == expected
        assert entropy_exact(GegenbauerSpec(2, 1)) == expected

    def test_lambda2_matches_exact(self):
        for n in range(0, 40):
            spec = GegenbauerSpec(2, n)
            assert entropy_closed_form(spec) == entropy_exact(spec)

    def test_lambda3_float_matches_rational_route(self):
        for n in (1, 2, 5, 12):
            spec = GegenbauerSpec(3, n)
            surd = entropy_closed_form(spec, 64)
            rational = entropy_exact(spec).evaluate(64)
            assert abs(surd - rational) <= abs(rational) * mp.mpf(10) ** -54

    def test_unsupported_parameter(self):
        with pytest.raises(ValueError):
            entropy_closed_form(GegenbauerSpec(4, 1))

    @pytest.mark.parametrize("precision", [10, 60.5, "60", True])
    def test_rejects_bad_precision(self, precision):
        # Checked first, so also where the closed form is exact.
        for lam in (1, 2, 3):
            with pytest.raises(ValueError):
                entropy_closed_form(GegenbauerSpec(lam, 3), precision)


def reference_normalized_lambda2(n):
    """-log(3(n+1)/(n+3)) - (n^3-5n^2-29n-27)/((n+1)(n+2)(n+3))
    - (1/(n+2)) ((n+3)/(n+1))^(n+2), independently canonicalized."""
    logs = log_linear_from(-1, F(3 * (n + 1), n + 3))
    const = (-F(n ** 3 - 5 * n ** 2 - 29 * n - 27, (n + 1) * (n + 2) * (n + 3))
             - F((n + 3) ** (n + 2), (n + 2) * (n + 1) ** (n + 2)))
    return ExactEntropy(plain_part=logs + LogLinear(const))


class TestNormalization:
    def test_chebyshev_u(self):
        for n in range(0, 30):
            spec = GegenbauerSpec(1, n)
            e = normalize_entropy(spec, entropy_exact(spec))
            assert e == ExactEntropy(plain_part=LogLinear(F(-n, n + 1)))

    def test_lambda2_n1(self):
        spec = GegenbauerSpec(2, 1)
        e = normalize_entropy(spec, entropy_exact(spec))
        expected = ExactEntropy(
            plain_part=log_linear_from(-1, F(3, 2)) + LogLinear(F(-1, 6)))
        assert e == expected

    def test_lambda2_reference_form(self):
        for n in range(0, 40):
            spec = GegenbauerSpec(2, n)
            e = normalize_entropy(spec, entropy_exact(spec))
            assert e == reference_normalized_lambda2(n)

    def test_pi_free(self):
        for lam in (1, 2, 4):
            for n in (0, 3, 8):
                spec = GegenbauerSpec(lam, n)
                e = normalize_entropy(spec, entropy_exact(spec))
                assert e.pi_part.is_zero()

    def test_rejects_already_normalized(self):
        spec = GegenbauerSpec(2, 3)
        e = normalize_entropy(spec, entropy_exact(spec))
        with pytest.raises(ValueError):
            normalize_entropy(spec, e)

    def test_normalized_entropy_exact_lambda0(self):
        e = normalized_entropy_exact(GegenbauerSpec(0, 5))
        assert e.plain_part == log_linear_from(1, 2) + LogLinear(F(-1))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=30))
def test_gibbs_inequality(lam, n):
    # The normalized entropy is -KL(rho_n || w) <= 0, with equality only at n = 0.
    e = normalized_entropy_exact(GegenbauerSpec(lam, n))
    if n == 0:
        assert e.is_zero()
    else:
        assert e.evaluate(50) < 0


class TestArgumentTypes:
    @pytest.mark.parametrize("call", [
        lambda: entropy_exact("x"),
        lambda: zero_angles((2, 3)),
        lambda: assemble_entropy(GegenbauerSpec(2, 3), "t"),
        lambda: normalize_entropy(GegenbauerSpec(2, 3), mp.mpf(1)),
        lambda: entropy_quadrature(GegenbauerSpec(2, 3), None),
        lambda: normalized_entropy_exact(None),
        lambda: standard_representation("x"),
        lambda: entropy_to_json_dict("x"),
        lambda: gegenbauer_value(GegenbauerSpec(2, 3), "x"),
        lambda: gegenbauer_value(GegenbauerSpec(2, 3), None),
        lambda: gegenbauer_value(GegenbauerSpec(2, 3), True),
        lambda: assemble_entropy(GegenbauerSpec(2, 3),
                                 IntegralTable(GegenbauerSpec(2, 3), None, "x")),
        lambda: assemble_entropy(GegenbauerSpec(1, 1),
                                 IntegralTable(GegenbauerSpec(1, 1),
                                               (1.0, 0.5, 0.25), "x")),
        lambda: IntegralTable((1, 1), (LogLinear(),) * 3, "x"),
    ], ids=["entropy_exact", "zero_angles", "assemble_entropy",
            "normalize_entropy", "entropy_quadrature",
            "normalized_entropy_exact", "standard_representation",
            "entropy_to_json_dict", "gegenbauer_value_str",
            "gegenbauer_value_none", "gegenbauer_value_bool",
            "integral_table_values_none", "integral_table_of_floats",
            "integral_table_spec"])
    def test_wrong_type_is_a_value_error(self, call):
        with pytest.raises(ValueError, match="must be a"):
            call()
