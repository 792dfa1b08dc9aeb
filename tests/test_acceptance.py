"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
the oracle sweep (criterion 6) is the long pole and runs in a few minutes.
"""

import csv
import io
import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath as mp

from gegentropy import (ExactEntropy, GegenbauerSpec, LogLinear,
                        entropy_closed_form, entropy_exact, entropy_quadrature,
                        gegenbauer_value, integrals_faa_di_bruno,
                        integrals_series_log, integrals_standard_rep,
                        log_linear_from, normalize_entropy,
                        normalized_entropy_exact,
                        normalized_entropy_quadrature,
                        orthonormality_quadrature, QuadratureConfig,
                        standard_coeffs, standard_representation,
                        szego_representation)
from gegentropy.cli import main, round_half_even
from gegentropy.gegenbauer import pochhammer, zeros

from reference_values import REFERENCE_LAMBDA4, REFERENCE_LAMBDA5

F = Fraction


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.1f}s)")


def check_reference_table(lam, rows):
    for n, log_coeff, base, constant, printed in rows:
        expected = ExactEntropy(
            pi_part=log_linear_from(log_coeff, base) + LogLinear(constant))
        got = entropy_exact(GegenbauerSpec(lam, n))
        assert got == expected, f"lambda={lam} n={n}: exact value differs"
        decimal = round_half_even(got.evaluate(64), 3)
        assert decimal == printed, \
            f"lambda={lam} n={n}: {decimal} != printed {printed}"


def check_reference_table_cli(lam, rows, capsys):
    code = main(["table", "--lambda", str(lam), "--n-max", "15",
                 "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = list(csv.reader(io.StringIO(out)))[1:]
    assert len(parsed) == 15
    for (n, _, _, _, printed), row in zip(rows, parsed):
        assert row[0] == str(lam) and row[1] == str(n)
        assert row[3] == printed, f"CLI decimal row {n}: {row[3]} != {printed}"


def test_criterion_1_reference_table_lambda4(capsys):
    with criterion(1, "lambda=4 table, n=1..15, exact + 3-decimal columns"):
        check_reference_table(4, REFERENCE_LAMBDA4)
        check_reference_table_cli(4, REFERENCE_LAMBDA4, capsys)


def test_criterion_2_reference_table_lambda5(capsys):
    with criterion(2, "lambda=5 table, n=1..15, exact + 3-decimal columns"):
        check_reference_table(5, REFERENCE_LAMBDA5)
        check_reference_table_cli(5, REFERENCE_LAMBDA5, capsys)


def test_criterion_3_closed_form_equivalence():
    with criterion(3, "closed forms lambda=1,2 and their normalized forms, "
                      "n=0..100, exact"):
        for n in range(0, 101):
            spec1 = GegenbauerSpec(1, n)
            expected1 = ExactEntropy(
                pi_part=LogLinear(F(1, 2) * (F(1, n + 1) - 1)))
            assert entropy_exact(spec1) == expected1
            assert entropy_closed_form(spec1) == expected1

            spec2 = GegenbauerSpec(2, n)
            e2 = entropy_exact(spec2)
            assert e2 == entropy_closed_form(spec2)

            # Orthonormalized forms.
            assert normalize_entropy(spec1, expected1) == ExactEntropy(
                plain_part=LogLinear(F(-n, n + 1)))
            reference2 = ExactEntropy(plain_part=(
                log_linear_from(-1, F(3 * (n + 1), n + 3))
                + LogLinear(
                    -F(n ** 3 - 5 * n ** 2 - 29 * n - 27,
                       (n + 1) * (n + 2) * (n + 3))
                    - F((n + 3) ** (n + 2), (n + 2) * (n + 1) ** (n + 2)))))
            assert normalize_entropy(spec2, e2) == reference2


def test_criterion_4_lambda3_surd_identity():
    with criterion(4, "lambda=3 surd closed form vs rational route, n=1..50, "
                      "rel 1e-30 at 64 digits"):
        for n in range(1, 51):
            spec = GegenbauerSpec(3, n)
            surd = entropy_closed_form(spec, 64)
            rational = entropy_exact(spec).evaluate(64)
            assert abs(surd - rational) <= abs(rational) * mp.mpf(10) ** -30, \
                f"n={n}"


def test_criterion_5_route_equality():
    with criterion(5, "three integral routes exactly equal, lambda=1..6, "
                      "n=0..20"):
        for lam in range(1, 7):
            for n in range(0, 21):
                spec = GegenbauerSpec(lam, n)
                reference = integrals_series_log(spec)
                for other in (integrals_faa_di_bruno(spec),
                              integrals_standard_rep(spec)):
                    assert reference.values == other.values, \
                        f"lambda={lam} n={n} {other.route}"


def test_criterion_6_oracle_agreement():
    cfg = QuadratureConfig(target_abs_tol=1e-10, working_precision=50)
    gate = mp.mpf(10) ** -8
    with criterion(6, "quadrature oracle within 1e-8: raw lambda=1..6 "
                      "n=0..20, normalized lambda=1..4 n=0..10"):
        for lam in range(1, 7):
            for n in range(0, 21):
                spec = GegenbauerSpec(lam, n)
                exact = entropy_exact(spec).evaluate(50)
                oracle = entropy_quadrature(spec, cfg)
                assert abs(exact - oracle) < gate, \
                    f"lambda={lam} n={n}: |{exact - oracle}|"
        for lam in range(1, 5):
            for n in range(0, 11):
                spec = GegenbauerSpec(lam, n)
                exact = normalized_entropy_exact(spec).evaluate(50)
                oracle = normalized_entropy_quadrature(spec, cfg)
                assert abs(exact - oracle) < gate, \
                    f"normalized lambda={lam} n={n}"


def test_criterion_7_representation_identity():
    with criterion(7, "szego == standard on 1000-point grid, lambda=1..6, "
                      "n=0..20, rel 1e-12"):
        with mp.workdps(50):
            grid = [mp.pi * i / 1001 for i in range(1, 1001)]
            worst = mp.mpf(0)
            for lam in range(1, 7):
                for n in range(0, 21):
                    spec = GegenbauerSpec(lam, n)
                    std = standard_representation(spec)
                    sze = szego_representation(spec)
                    # Noise floor: values this far below the coefficient
                    # scale are zero to working precision.
                    floor = gegenbauer_value(spec, mp.mpf(1)) * mp.mpf("1e-40")
                    for t in grid:
                        a = std(t)
                        b = sze(t)
                        scale = max(abs(a), abs(b))
                        if scale > floor:
                            worst = max(worst, abs(a - b) / scale)
            assert worst < mp.mpf(10) ** -12, f"max relative deviation {worst}"


def test_criterion_8_property_suite():
    with criterion(8, "parity, coefficient symmetry, recurrence, log-entry "
                      "law, zeros, orthonormality"):
        # Parity: C_n(-x) = (-1)^n C_n(x), exact for rational x.
        xs = [F(-3, 2), F(-2, 3), F(-1, 7), F(0), F(1, 2), F(1)]
        for lam in range(0, 6):
            for n in range(0, 13):
                spec = GegenbauerSpec(lam, n)
                sign = -1 if n % 2 else 1
                for x in xs:
                    assert gegenbauer_value(spec, -x) == \
                        sign * gegenbauer_value(spec, x)

        # Cosine-coefficient symmetry d_m = d_{n-m}, exact.
        for lam in range(0, 7):
            for n in range(0, 21):
                d = standard_coeffs(GegenbauerSpec(lam, n))
                for m in range(n + 1):
                    assert d[m] == d[n - m]

        # Three-term recurrence across parameters, rel 1e-12 on a theta grid.
        with mp.workdps(50):
            for lam in range(2, 7):
                for n in range(0, 11):
                    spec = GegenbauerSpec(lam, n)
                    low1 = GegenbauerSpec(lam - 1, n + 1)
                    low2 = GegenbauerSpec(lam - 1, n + 2)
                    r, r1, r2 = (standard_representation(s)
                                 for s in (spec, low1, low2))
                    for i in range(1, 25):
                        t = mp.pi * i / 25
                        lhs = 2 * (lam - 1) * mp.sin(t) ** 2 * r(t)
                        rhs = ((2 * lam + n - 1) * mp.cos(t) * r1(t)
                               - (n + 2) * r2(t))
                        scale = max(mp.mpf(1), abs(lhs), abs(rhs))
                        assert abs(lhs - rhs) / scale < 1e-12

        # Log-entry law: I_0/pi = 2 log((lam)_n/n!), zero iff lam=1 or n=0.
        import math
        for lam in range(1, 7):
            for n in range(0, 21):
                table = integrals_series_log(GegenbauerSpec(lam, n))
                expected = log_linear_from(
                    2, pochhammer(lam, n) / math.factorial(n))
                assert table.values[0] == expected
                assert table.values[0].is_zero() == (lam == 1 or n == 0)

        # Zero count and interlacing.
        for lam in range(0, 5):
            previous = None
            for n in range(1, 9):
                current = zeros(GegenbauerSpec(lam, n), 50)
                assert len(current) == n
                if previous is not None:
                    for i in range(n - 1):
                        assert current[i] < previous[i] < current[i + 1]
                previous = current

        # Orthonormality: the normalized square integrates to 1.
        cfg = QuadratureConfig(target_abs_tol=1e-11, working_precision=50)
        for lam in range(0, 5):
            for n in range(0, 11):
                norm = orthonormality_quadrature(GegenbauerSpec(lam, n), cfg)
                assert abs(norm - 1) < 1e-10, f"lambda={lam} n={n}"
