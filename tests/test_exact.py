"""Rational arithmetic and the canonical log-linear value form."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from gegentropy import (ExactEntropy, LogLinear, dumps_json,
                        entropy_from_json_dict, entropy_to_json_dict,
                        log_linear_from)
from gegentropy.exact import factorize

F = Fraction


class TestRationalArithmetic:
    def test_addition_reduces(self):
        assert F(1, 3) + F(1, 6) == F(1, 2)

    def test_product_from_szego_prefactor(self):
        # 7/8 appears as the (lam=4, n=1) szego prefactor: independently,
        # c = 2^(2-2*4) * 8! / (3! * 5!) and d_0 = (4)_0 (4)_1 / (0! 1!) = 4.
        c = F(2) ** (2 - 8) * math.factorial(8) / (
            math.factorial(3) * math.factorial(5))
        assert c == F(7, 8)
        assert c * 4 == F(7, 2)
        assert F(7, 8) * 4 == F(7, 2)

    @given(st.fractions(max_denominator=10 ** 6))
    def test_zeroth_power_is_one(self, a):
        assert a ** 0 == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            F(1, 2) / F(0)


class TestFactorize:
    @pytest.mark.parametrize("n,expected", [
        (1, {}),
        (2, {2: 1}),
        (360, {2: 3, 3: 2, 5: 1}),
        (97, {97: 1}),
        (10 ** 6, {2: 6, 5: 6}),
    ])
    def test_known(self, n, expected):
        assert factorize(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(min_value=2, max_value=2 * 10 ** 6))
    def test_product_of_prime_powers(self, n):
        factors = factorize(n)
        assert math.prod(p ** e for p, e in factors.items()) == n
        for p in factors:
            assert factorize(p) == {p: 1}  # every key is prime


class TestLogLinearFrom:
    def test_log4_with_half_coefficient(self):
        # -(7/2) log 4 = -7 log 2
        assert log_linear_from(F(-7, 2), 4).log_terms == {2: F(-7)}

    def test_log_one_is_empty(self):
        v = log_linear_from(F(5, 3), 1)
        assert v.is_zero()

    def test_log10(self):
        v = log_linear_from(F(-105, 8), 10)
        assert v.log_terms == {2: F(-105, 8), 5: F(-105, 8)}

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            log_linear_from(1, F(-3, 2))
        with pytest.raises(ValueError):
            log_linear_from(1, 0)

    def test_canonical_equality(self):
        assert log_linear_from(-7, 2) == log_linear_from(F(-7, 2), 4)

    @given(st.fractions(min_value=F(-50), max_value=F(50), max_denominator=40),
           st.fractions(min_value=F(1, 200), max_value=F(500), max_denominator=200),
           st.fractions(min_value=F(1, 200), max_value=F(500), max_denominator=200))
    def test_additivity(self, c, r1, r2):
        assert (log_linear_from(c, r1 * r2)
                == log_linear_from(c, r1) + log_linear_from(c, r2))

    @given(st.fractions(min_value=F(-50), max_value=F(50), max_denominator=40),
           st.fractions(min_value=F(1, 200), max_value=F(500), max_denominator=200))
    def test_eval_round_trip(self, c, r):
        got = ExactEntropy(plain_part=log_linear_from(c, r)).evaluate(50)
        with mp.workdps(60):
            want = (mp.mpf(c.numerator) / c.denominator
                    * mp.log(mp.mpf(r.numerator) / r.denominator))
            assert abs(got - want) <= mp.mpf(10) ** -45 * (1 + abs(want))


class TestLogLinearValue:
    def test_zero_coefficients_dropped(self):
        v = LogLinear(F(1), {2: F(0), 3: F(1, 2)})
        assert v.log_terms == {3: F(1, 2)}

    def test_composite_keys_rejected(self):
        with pytest.raises(ValueError):
            LogLinear(F(0), {6: F(1)})
        with pytest.raises(ValueError):
            LogLinear(F(0), {1: F(1)})

    def test_scalar_and_sum(self):
        v = log_linear_from(1, 6) * F(1, 2) - log_linear_from(F(1, 2), 2)
        assert v.log_terms == {3: F(1, 2)}

    def test_eval_empty_is_zero(self):
        assert ExactEntropy(plain_part=LogLinear()).evaluate(50) == 0

    def test_eval_requires_min_precision(self):
        with pytest.raises(ValueError):
            ExactEntropy(plain_part=LogLinear()).evaluate(20)

    def test_reference_value_lambda4_n1(self):
        v = LogLinear(F(119, 240), {2: F(-7)})
        with mp.workdps(40):
            value = ExactEntropy(plain_part=v).evaluate(64) * mp.pi
            assert mp.nstr(value, 5) == "-13.685"

    def test_reference_value_lambda4_n2(self):
        v = LogLinear(F(580771, 300000), {2: F(-105, 8), 5: F(-105, 8)})
        with mp.workdps(40):
            value = ExactEntropy(plain_part=v).evaluate(64) * mp.pi
            assert abs(value - mp.mpf("-88.862")) < 5e-4


class TestExactEntropyJson:
    def test_schema_and_round_trip(self):
        e = ExactEntropy(pi_part=LogLinear(F(119, 240), {2: F(-7)}))
        d = entropy_to_json_dict(e, 64)
        assert d["pi_log"] == [{"prime": 2, "coeff": "-7"}]
        assert d["pi_const"] == "119/240"
        assert d["plain_log"] == []
        assert d["plain_const"] == "0"
        assert d["decimal"].startswith("-13.685")
        assert entropy_from_json_dict(d) == e

    def test_json_text_round_trips_byte_identical(self):
        import json
        e = ExactEntropy(
            pi_part=LogLinear(F(-1, 6), {2: F(-105, 8), 5: F(-105, 8)}),
            plain_part=LogLinear(F(3), {7: F(2, 3)}))
        text = dumps_json(entropy_to_json_dict(e, 64))
        assert dumps_json(json.loads(text)) == text
