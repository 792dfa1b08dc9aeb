"""CLI surface: formats, exit codes, fault detection."""

import csv
import io
import json
import os
import subprocess
import sys
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import gegentropy.cli as cli
import gegentropy.entropy
import gegentropy.quadrature
from gegentropy import (ExactEntropy, IntegralTable, LogLinear, dumps_json,
                        log_linear_from)
from gegentropy.cli import format_exact_entropy, main, round_half_even

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExactFormatting:
    def test_single_prime(self):
        e = ExactEntropy(pi_part=log_linear_from(F(-7), 2) + LogLinear(F(119, 240)))
        assert format_exact_entropy(e) == "-7*pi*log(2) + (119/240)*pi"

    def test_common_factor_base_recovery(self):
        e = ExactEntropy(pi_part=log_linear_from(F(-105, 8), 10)
                         + LogLinear(F(580771, 300000)))
        assert format_exact_entropy(e) == \
            "-(105/8)*pi*log(10) + (580771/300000)*pi"

    def test_mixed_sign_falls_back_to_primes(self):
        e = ExactEntropy(plain_part=log_linear_from(1, F(2, 3)) + LogLinear(F(-1, 6)))
        assert format_exact_entropy(e) == "log(2) - log(3) - 1/6"

    def test_unequal_exponents_recover_composite_base(self):
        e = ExactEntropy(pi_part=log_linear_from(F(-75, 2), 20))
        assert format_exact_entropy(e) == "-(75/2)*pi*log(20)"

    def test_zero(self):
        assert format_exact_entropy(ExactEntropy()) == "0"

    def test_plain_constant_only(self):
        e = ExactEntropy(plain_part=LogLinear(F(-1, 2)))
        assert format_exact_entropy(e) == "-1/2"


class TestRounding:
    def test_half_even_on_exact_ties(self):
        import mpmath as mp
        # 0.0625 = 2^-4 is exact in binary, so these really are ties.
        assert round_half_even(mp.mpf("0.0625")) == "0.062"
        assert round_half_even(mp.mpf("0.1875")) == "0.188"
        assert round_half_even(mp.mpf("-0.0625")) == "-0.062"

    def test_plain_rounding(self):
        import mpmath as mp
        assert round_half_even(mp.mpf("-13.68539")) == "-13.685"
        assert round_half_even(mp.mpf(100)) == "100.000"


class TestEntropyCommand:
    def test_exact_format(self, capsys):
        code, out, _ = run(capsys, "entropy", "--lambda", "4", "--n", "1",
                           "--format", "exact")
        assert code == 0
        assert out.strip() == "-7*pi*log(2) + (119/240)*pi"

    def test_degree_zero_prints_zero(self, capsys):
        code, out, _ = run(capsys, "entropy", "--lambda", "1", "--n", "0")
        assert code == 0 and out.strip() == "0"

    def test_decimal_format(self, capsys):
        code, out, _ = run(capsys, "entropy", "--lambda", "5", "--n", "1",
                           "--format", "decimal")
        assert code == 0
        assert out.startswith("-17.839")

    def test_json_format_round_trips(self, capsys):
        code, out, _ = run(capsys, "entropy", "--lambda", "4", "--n", "2",
                           "--format", "json")
        assert code == 0
        line = out.strip()
        assert dumps_json(json.loads(line)) == line
        record = json.loads(line)
        assert record["lambda"] == 4 and record["n"] == 2
        assert record["route"] == "series-log"
        assert record["exact"]["pi_log"] == [
            {"prime": 2, "coeff": "-105/8"}, {"prime": 5, "coeff": "-105/8"}]

    @pytest.mark.parametrize("fmt,calls", [("exact", 0), ("decimal", 1),
                                           ("json", 1)])
    def test_evaluates_only_what_it_prints(self, capsys, monkeypatch, fmt, calls):
        # json's top-level decimal is the one inside its exact record.
        evaluate, counted = ExactEntropy.evaluate, []

        def counting(self, *args, **kwargs):
            counted.append(self)
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(ExactEntropy, "evaluate", counting)
        code, out, _ = run(capsys, "entropy", "--lambda", "4", "--n", "40",
                           "--normalized", "--format", fmt)
        assert code == 0 and out
        assert len(counted) == calls

    def test_normalized(self, capsys):
        code, out, _ = run(capsys, "entropy", "--lambda", "1", "--n", "4",
                           "--normalized")
        assert code == 0 and out.strip() == "-4/5"

    def test_chebyshev_t_requires_normalized(self, capsys):
        code, _, err = run(capsys, "entropy", "--lambda", "0", "--n", "5")
        assert code == 2 and "normalized" in err

    def test_chebyshev_t_normalized(self, capsys):
        code, out, _ = run(capsys, "entropy", "--lambda", "0", "--n", "5",
                           "--normalized")
        assert code == 0 and out.strip() == "log(2) - 1"

    def test_negative_arguments_rejected(self, capsys):
        code, _, _ = run(capsys, "entropy", "--lambda", "-1", "--n", "2")
        assert code == 2
        code, _, _ = run(capsys, "entropy", "--lambda", "2", "--n", "-3")
        assert code == 2

    def test_non_integer_rejected(self, capsys):
        code, _, _ = run(capsys, "entropy", "--lambda", "x", "--n", "1")
        assert code == 2

    def test_low_precision_rejected(self, capsys):
        code, _, err = run(capsys, "entropy", "--lambda", "1", "--n", "1",
                           "--precision", "10")
        assert code == 2 and "precision" in err

    def test_env_var_precision(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_PRECISION, "80")
        code, out, _ = run(capsys, "entropy", "--lambda", "1", "--n", "1",
                           "--format", "decimal")
        assert code == 0
        assert len(out.strip()) > 70  # 80 significant digits printed

    def test_env_var_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_PRECISION, "grape")
        code, _, _ = run(capsys, "entropy", "--lambda", "1", "--n", "1")
        assert code == 2


class TestTableCommand:
    def test_chebyshev_u_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--lambda", "1", "--n-max", "3",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["lambda", "n", "exact", "decimal"]
        assert rows[1] == ["1", "1", "-(1/4)*pi", "-0.785"]
        assert rows[2] == ["1", "2", "-(1/3)*pi", "-1.047"]
        assert rows[3] == ["1", "3", "-(3/8)*pi", "-1.178"]

    def test_text_layout(self, capsys):
        code, out, _ = run(capsys, "table", "--lambda", "4", "--n-max", "2")
        assert code == 0
        lines = out.splitlines()
        assert "exact" in lines[0]
        assert "-7*pi*log(2) + (119/240)*pi" in lines[1]
        assert lines[1].rstrip().endswith("-13.685")

    def test_json_rows_round_trip(self, capsys):
        code, out, _ = run(capsys, "table", "--lambda", "2", "--n-max", "4",
                           "--format", "json")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            assert dumps_json(json.loads(line)) == line

    def test_rounds_values_past_1e25(self, capsys):
        # E(C_60^(16)) = -1.26e25 has more digits than a 28-digit context.
        code, out, _ = run(capsys, "table", "--lambda", "16", "--n-max", "60",
                           "--format", "csv")
        assert code == 0
        row = list(csv.reader(io.StringIO(out)))[-1]
        assert row[:2] == ["16", "60"]
        assert len(row[3].split(".")[1]) == 3
        _, full, _ = run(capsys, "entropy", "--lambda", "16", "--n", "60",
                         "--format", "decimal")
        assert Decimal(row[3]) == Decimal(full).quantize(
            Decimal("0.001"), rounding=ROUND_HALF_EVEN, context=Context(prec=100))

    def test_requires_positive_bounds(self, capsys):
        assert run(capsys, "table", "--lambda", "0", "--n-max", "3")[0] == 2
        assert run(capsys, "table", "--lambda", "2", "--n-max", "0")[0] == 2


class TestIntegralsCommand:
    def test_chebyshev_u_table(self, capsys):
        code, out, _ = run(capsys, "integrals", "--lambda", "1", "--n", "2",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["lambda", "n", "m", "exact", "decimal", "route"]
        assert [r[3] for r in rows[1:]] == ["0", "pi", "(1/2)*pi", "-(2/3)*pi"]
        assert all(r[5] == "series-log" for r in rows[1:])

    def test_log_row_lambda2_n1(self, capsys):
        code, out, _ = run(capsys, "integrals", "--lambda", "2", "--n", "1",
                           "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][3] == "2*pi*log(2)"
        assert rows[4][3] == "(1/3)*pi"  # m = 3

    def test_route_selection(self, capsys):
        for route in ("series-log", "faa-di-bruno", "standard-rep"):
            code, out, _ = run(capsys, "integrals", "--lambda", "3", "--n", "2",
                               "--route", route, "--format", "csv")
            assert code == 0
            rows = list(csv.reader(io.StringIO(out)))
            assert all(r[5] == route for r in rows[1:])

    def test_usage_errors(self, capsys):
        assert run(capsys, "integrals", "--lambda", "0", "--n", "3")[0] == 2
        assert run(capsys, "integrals", "--lambda", "2", "--n", "-1")[0] == 2


class TestVerifyCommand:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--lambda-max", "2",
                           "--n-max", "2", "--tol", "1e-8")
        assert code == 0
        assert "all ok" in out

    def test_trivial_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "--lambda-max", "1",
                           "--n-max", "1", "--tol", "1e-8")
        assert code == 0

    def test_flipped_beta_detected(self, capsys, monkeypatch):
        # Corrupt one assembly weight; the quadrature oracle must catch it.
        real = gegentropy.entropy.beta_vector

        def corrupted(spec):
            bv = real(spec)
            if (spec.lam, spec.n) == (2, 1):
                beta = list(bv)
                beta[1] = -beta[1]
                return tuple(beta)
            return bv

        monkeypatch.setattr(gegentropy.entropy, "beta_vector", corrupted)
        code, out, _ = run(capsys, "verify", "--lambda-max", "2",
                           "--n-max", "1", "--tol", "1e-8")
        assert code == 1
        assert "lambda=2 n=1" in out and "FAIL" in out

    @pytest.mark.parametrize("route", ["integrals_faa_di_bruno",
                                       "integrals_standard_rep"])
    def test_route_mismatch_names_entry(self, capsys, monkeypatch, route):
        # One entry scaled, then the table one entry short: each must fail
        # and name the entry and the route.
        real = getattr(cli, route)
        name = route.removeprefix("integrals_").replace("_", "-")
        for m, corrupt in [(2, lambda v: v[:2] + (v[2] * F(3),) + v[3:]),
                           (3, lambda v: v[:-1])]:
            def corrupted(spec, corrupt=corrupt):
                table = real(spec)
                if (spec.lam, spec.n) == (2, 1):
                    return IntegralTable(spec, corrupt(table.values), table.route)
                return table

            monkeypatch.setattr(cli, route, corrupted)
            code, out, _ = run(capsys, "verify", "--lambda-max", "2",
                               "--n-max", "1", "--tol", "1e-8",
                               "--skip-quadrature")
            assert code == 1
            assert f"lambda=2 n=1 m={m} (series-log vs {name})" in out

    def test_tolerance_not_met_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(gegentropy.quadrature, "_MAX_DEPTH", 0)
        code, out, _ = run(capsys, "verify", "--lambda-max", "1",
                           "--n-max", "1", "--tol", "1e-99")
        assert code == 1
        assert "lambda=1 n=1 routes=ok quad=TOLERANCE-NOT-MET" in out
        assert "FAIL quadrature tolerance not met lambda=1 n=1" in out

    def test_usage_errors(self, capsys):
        assert run(capsys, "verify", "--lambda-max", "0", "--n-max", "1")[0] == 2
        assert run(capsys, "verify", "--lambda-max", "1", "--n-max", "1",
                   "--precision", "49")[0] == 2
        # 1e-323 is > 0, but the oracle's tol/10 underflows to 0.
        for tol in ("-1", "nan", "inf", "1e-323"):
            assert run(capsys, "verify", "--lambda-max", "1", "--n-max", "1",
                       "--tol", tol)[0] == 2


class TestParser:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_module_entry_point(self):
        path = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        env.pop(cli.ENV_PRECISION, None)
        done = subprocess.run(
            [sys.executable, "-m", "gegentropy", "entropy", "--lambda", "4",
             "--n", "1"], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0
        assert done.stdout.strip() == "-7*pi*log(2) + (119/240)*pi"
