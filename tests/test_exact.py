"""Rational arithmetic and the canonical log-linear value form."""

import copy
import math
import pickle
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from gegentropy import (ExactEntropy, LogLinear, dumps_json,
                        entropy_from_json_dict, entropy_to_json_dict,
                        log_linear_from)
from gegentropy.exact import ZERO, factorize

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

    @pytest.mark.parametrize("coeff,arg", [(1, "3"), (0.5, 2), (1, 2.0), (True, 2)])
    def test_rejects_inexact_input(self, coeff, arg):
        with pytest.raises(ValueError):
            log_linear_from(coeff, arg)

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

    def test_large_prime_key_round_trips(self):
        # Too large to prove prime by trial division in any useful time.
        e = ExactEntropy(plain_part=LogLinear(F(1), {2**61 - 1: F(3)}))
        assert entropy_from_json_dict(entropy_to_json_dict(e)) == e

    def test_large_composite_key_rejected(self):
        # psi_12 = 399165290221 * 798330580441 is a strong probable prime
        # to the bases 2 .. 37; base 41 shows it composite.
        with pytest.raises(ValueError, match="not prime"):
            LogLinear(F(0), {318665857834031151167461: F(1)})

    @pytest.mark.parametrize("key", [3317044064679887385961981,
                                     2**89 - 1])
    def test_keys_past_psi_13_rejected(self, key):
        # Miller-Rabin to the 13 bases 2 .. 41 is a proof only below psi_13.
        with pytest.raises(ValueError, match="psi_13"):
            LogLinear(F(0), {key: F(1)})

    @pytest.mark.parametrize("key", [2.0, True, "2", F(2)])
    def test_non_int_keys_rejected(self, key):
        # A float key would be written as "prime": 2.0, which the JSON
        # reader rejects, so the value could not round-trip.
        with pytest.raises(ValueError):
            LogLinear(F(0), {key: F(1)})

    @pytest.mark.parametrize("args", [(0.1,), (True,), ("1/2",),
                                      (F(0), {2: 0.5}), (F(0), {3: "1/2"})])
    def test_inexact_values_rejected(self, args):
        # LogLinear(0.1) would store 3602879701896397/36028797018963968.
        with pytest.raises(ValueError):
            LogLinear(*args)

    @pytest.mark.parametrize("part", [F(1), 1, None])
    def test_entropy_parts_must_be_log_linear(self, part):
        with pytest.raises(ValueError):
            ExactEntropy(pi_part=part)
        with pytest.raises(ValueError):
            ExactEntropy(plain_part=part)

    def test_log_terms_are_read_only(self):
        # ZERO is every ExactEntropy's default part; a write through one
        # value's map would change every later entropy.
        for v in (LogLinear(F(1), {2: F(1, 3)}), ZERO):
            terms = v.log_terms
            for mutate in (lambda d: d.__setitem__(3, F(1)), lambda d: d.__delitem__(2),
                           lambda d: d.update({3: F(1)}), lambda d: d.setdefault(3, F(1)),
                           lambda d: d.pop(2), lambda d: d.popitem(), lambda d: d.clear()):
                with pytest.raises(TypeError):
                    mutate(terms)
            with pytest.raises(TypeError):
                terms |= {3: F(1)}
        assert ZERO.log_terms == {} and ExactEntropy().is_zero()

    def test_read_only_log_terms_behave_as_a_dict(self):
        v = LogLinear(F(1), {3: F(1, 2), 2: F(-1)})
        assert v.log_terms == {2: F(-1), 3: F(1, 2)}
        assert repr(v.log_terms) == repr({2: F(-1), 3: F(1, 2)})
        for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert w == v and repr(w) == repr(v)
            with pytest.raises(TypeError):
                w.log_terms[5] = F(1)

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

    @pytest.mark.parametrize("prime", [2.5, "2"])
    def test_rejects_non_integer_prime(self, prime):
        d = entropy_to_json_dict(ExactEntropy(pi_part=log_linear_from(1, 2)))
        d["pi_log"][0]["prime"] = prime
        with pytest.raises(ValueError):
            entropy_from_json_dict(d)

    def test_rejects_repeated_prime(self):
        d = entropy_to_json_dict(ExactEntropy(plain_part=log_linear_from(1, 2)))
        d["plain_log"].append({"prime": 2, "coeff": "3"})
        with pytest.raises(ValueError):
            entropy_from_json_dict(d)

    @pytest.mark.parametrize("field", ["pi_const", "plain_const", "coeff"])
    def test_rejects_float_rational(self, field):
        d = entropy_to_json_dict(ExactEntropy(pi_part=log_linear_from(1, 2)))
        if field == "coeff":
            d["pi_log"][0]["coeff"] = 0.1
        else:
            d[field] = 0.1
        with pytest.raises(ValueError):
            entropy_from_json_dict(d)

    @pytest.mark.parametrize("field", ["pi_const", "plain_const", "coeff"])
    def test_rejects_zero_denominator(self, field):
        d = entropy_to_json_dict(ExactEntropy(pi_part=log_linear_from(1, 2)))
        if field == "coeff":
            d["pi_log"][0]["coeff"] = "1/0"
        else:
            d[field] = "1/0"
        with pytest.raises(ValueError):
            entropy_from_json_dict(d)

    @staticmethod
    def record():
        return entropy_to_json_dict(ExactEntropy(
            pi_part=log_linear_from(F(-7, 2), 2) + LogLinear(F(119, 240)),
            plain_part=log_linear_from(1, 3)))

    @pytest.mark.parametrize("record", [None, [], "pi_log", 1.5])
    def test_rejects_non_object_record(self, record):
        with pytest.raises(ValueError):
            entropy_from_json_dict(record)

    @pytest.mark.parametrize("key", ["pi_log", "pi_const", "plain_log", "plain_const"])
    def test_rejects_missing_key(self, key):
        d = self.record()
        del d[key]
        with pytest.raises(ValueError):
            entropy_from_json_dict(d)

    @pytest.mark.parametrize("terms", ["2", {"prime": 2, "coeff": "1"}, None, 3])
    def test_rejects_log_list_of_other_type(self, terms):
        d = self.record()
        d["plain_log"] = terms
        with pytest.raises(ValueError):
            entropy_from_json_dict(d)

    @pytest.mark.parametrize("term", [2, "2", ["2", "1"], None,
                                      {"prime": 2}, {"coeff": "1"}])
    def test_rejects_malformed_term(self, term):
        d = self.record()
        d["pi_log"] = [term]
        with pytest.raises(ValueError):
            entropy_from_json_dict(d)

    @pytest.mark.parametrize("text", ["0.5", "1e5", "1E5", "-2.5e-3", "1/2.0",
                                      "inf", "nan", " 1/2", "1/2 ", "+1/2",
                                      "1 /2", "1/-2", "", "1_000", "١"])
    def test_rejects_non_fraction_notation(self, text):
        for field in ("pi_const", "coeff"):
            d = self.record()
            if field == "coeff":
                d["pi_log"][0]["coeff"] = text
            else:
                d[field] = text
            with pytest.raises(ValueError):
                entropy_from_json_dict(d)

    def test_accepts_every_str_of_fraction(self):
        values = [F(0), F(1), F(-1), F(7, 2), F(-119, 240), F(10 ** 40 + 1, 3 ** 50)]
        for q in values:
            d = self.record()
            d["pi_const"] = str(q)
            d["pi_log"][0]["coeff"] = str(-q) if q else "1"
            e = entropy_from_json_dict(d)
            assert e.pi_part.constant == q
