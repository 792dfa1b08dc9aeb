"""Command-line surface: entropy values, reference tables, verification sweeps.

Subcommands
-----------
entropy    one (lambda, n) entropy, exact / decimal / JSON
table      rows n = 1..n_max with exact values and 3-decimal numerics
integrals  the exact Fourier-cosine moment table for one (lambda, n)
verify     route-equality and quadrature-oracle sweep over a (lambda, n) grid

stdout carries data, stderr diagnostics.  Exit codes: 0 success,
1 verification failure, 2 usage error.  The environment variable
GEGENTROPY_PRECISION sets the default output digits of entropy, table and
integrals; --precision wins.  verify's --precision is the oracle's working
precision instead: it defaults to MIN_PRECISION and ignores the variable.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from itertools import zip_longest
from typing import List, Optional, Tuple

import mpmath as mp

from .exact import (DEFAULT_PRECISION, MIN_PRECISION, ExactEntropy, LogLinear,
                    decimal_string, dumps_json, entropy_to_json_dict)
from .entropy import (ROUTE_FAA_DI_BRUNO, ROUTE_SERIES_LOG, ROUTE_STANDARD_REP,
                      assemble_entropy, entropy_exact, integrals_faa_di_bruno,
                      integrals_series_log, integrals_standard_rep,
                      normalized_entropy_exact)
from .gegenbauer import GegenbauerSpec
from .quadrature import (QuadratureConfig, ToleranceNotMet, entropy_quadrature)

ENV_PRECISION = "GEGENTROPY_PRECISION"

#: Decimals of the paper's tables, which `table` reproduces.
_TABLE_PLACES = 3


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Exact-value text rendering
# ---------------------------------------------------------------------------

def _grouped_log_terms(v: LogLinear, pi: bool) -> List[Tuple[Fraction, str]]:
    """Render the prime map as c*log(k) with the smallest integer base k when
    all exponent-coefficients share a common rational factor of one sign;
    fall back to one term per prime otherwise."""
    wrap = (lambda s: f"pi*{s}") if pi else (lambda s: s)
    terms: List[Tuple[Fraction, str]] = []
    if v.log_terms:
        coeffs = list(v.log_terms.values())
        if all(c > 0 for c in coeffs) or all(c < 0 for c in coeffs):
            g = Fraction(math.gcd(*(abs(c.numerator) for c in coeffs)),
                         math.lcm(*(c.denominator for c in coeffs)))
            if coeffs[0] < 0:
                g = -g
            base = 1
            for p, e in v.log_terms.items():
                base *= p ** (e / g).numerator
            terms.append((g, wrap(f"log({base})")))
        else:
            terms.extend((e, wrap(f"log({p})")) for p, e in v.log_terms.items())
    if v.constant != 0:
        terms.append((v.constant, "pi" if pi else ""))
    return terms


def _term_text(magnitude: Fraction, symbol: str) -> str:
    if not symbol:
        return str(magnitude)
    if magnitude == 1:
        return symbol
    inner = str(magnitude) if magnitude.denominator == 1 else f"({magnitude})"
    return f"{inner}*{symbol}"


def format_exact_entropy(e: ExactEntropy) -> str:
    """Deterministic text form: pi-log terms, pi-rational, then plain terms."""
    terms = _grouped_log_terms(e.pi_part, pi=True)
    terms += _grouped_log_terms(e.plain_part, pi=False)
    if not terms:
        return "0"
    parts = []
    for i, (coeff, symbol) in enumerate(terms):
        text = _term_text(abs(coeff), symbol)
        if i == 0:
            parts.append(f"-{text}" if coeff < 0 else text)
        else:
            parts.append(f" - {text}" if coeff < 0 else f" + {text}")
    return "".join(parts)


def round_half_even(x: mp.mpf) -> str:
    """Fixed-point rendering with banker's rounding at the tables' 3 decimals,
    from 30 significant digits or 2 past the last kept decimal if more."""
    digits = max(30, len(str(int(abs(x)))) + _TABLE_PLACES + 2)
    return str(Decimal(mp.nstr(x, digits)).quantize(
        Decimal(1).scaleb(-_TABLE_PLACES), rounding=ROUND_HALF_EVEN,
        context=Context(prec=digits)))


# ---------------------------------------------------------------------------
# Records and tables
# ---------------------------------------------------------------------------

def _json_record(spec: GegenbauerSpec, normalized: bool, e: ExactEntropy,
                 precision: int, decimal: Optional[str] = None) -> dict:
    """The JSON record of one entropy, as entropy and table print it; its
    decimal is the exact value's own `precision`-digit one unless given."""
    exact = entropy_to_json_dict(e, precision)
    return {"lambda": spec.lam, "n": spec.n, "normalized": normalized,
            "exact": exact, "decimal": decimal or exact["decimal"],
            "route": "closed-form" if spec.lam == 0 else ROUTE_SERIES_LOG}


def _print_table(key: str, rows: List[Tuple[int, str, str]]) -> None:
    """Aligned text rows of (key, exact text, decimal)."""
    width = max(len(exact) for _, exact, _ in rows)
    print(f"{key:>3}  {'exact':<{width}}  value")
    for k, exact, dec in rows:
        print(f"{k:>3}  {exact:<{width}}  {dec}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _resolve_precision(args) -> int:
    if args.precision is not None:
        p = args.precision
    else:
        raw = os.environ.get(ENV_PRECISION, str(DEFAULT_PRECISION))
        try:
            p = int(raw)
        except ValueError:
            raise UsageError(f"{ENV_PRECISION}={raw!r} is not an integer")
    if p < MIN_PRECISION:
        raise UsageError(f"precision must be >= {MIN_PRECISION}, got {p}")
    return p


def cmd_entropy(args) -> int:
    if args.lam < 0 or args.n < 0:
        raise UsageError("--lambda and --n must be non-negative")
    if args.lam == 0 and not args.normalized:
        raise UsageError("--lambda 0 exposes only the normalized entropy; "
                         "pass --normalized")
    precision = _resolve_precision(args)
    spec = GegenbauerSpec(args.lam, args.n)
    e = normalized_entropy_exact(spec) if args.normalized else entropy_exact(spec)
    if args.fmt == "exact":
        print(format_exact_entropy(e))
    elif args.fmt == "decimal":
        print(decimal_string(e.evaluate(precision), precision))
    else:
        print(dumps_json(_json_record(spec, args.normalized, e, precision)))
    return 0


def cmd_table(args) -> int:
    if args.lam < 1:
        raise UsageError("--lambda must be >= 1 for table")
    if args.n_max < 1:
        raise UsageError("--n-max must be >= 1")
    precision = _resolve_precision(args)
    specs = [GegenbauerSpec(args.lam, n) for n in range(1, args.n_max + 1)]
    entropies = [entropy_exact(spec) for spec in specs]
    decimals = [round_half_even(e.evaluate(precision)) for e in entropies]
    if args.fmt == "json":
        for spec, e, dec in zip(specs, entropies, decimals):
            print(dumps_json(_json_record(spec, False, e, precision, dec)))
        return 0
    rows = [(spec.n, format_exact_entropy(e), dec)
            for spec, e, dec in zip(specs, entropies, decimals)]
    if args.fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["lambda", "n", "exact", "decimal"])
        writer.writerows((args.lam, *row) for row in rows)
    else:
        _print_table("n", rows)
    return 0


_ROUTES = {
    ROUTE_SERIES_LOG: integrals_series_log,
    ROUTE_FAA_DI_BRUNO: integrals_faa_di_bruno,
    ROUTE_STANDARD_REP: integrals_standard_rep,
}


def cmd_integrals(args) -> int:
    if args.lam < 1:
        raise UsageError("--lambda must be >= 1 for integrals")
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    precision = _resolve_precision(args)
    spec = GegenbauerSpec(args.lam, args.n)
    table = _ROUTES[args.route](spec)
    rows = []
    for m, value in enumerate(table.values):
        as_entropy = ExactEntropy(pi_part=value)
        rows.append((m, format_exact_entropy(as_entropy),
                     decimal_string(as_entropy.evaluate(precision), precision)))
    if args.fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["lambda", "n", "m", "exact", "decimal", "route"])
        writer.writerows((spec.lam, spec.n, *row, table.route) for row in rows)
    elif args.fmt == "json":
        for m, exact, dec in rows:
            print(dumps_json({"lambda": spec.lam, "n": spec.n, "m": m,
                              "exact": exact, "decimal": dec,
                              "route": table.route}))
    else:
        print(f"route: {table.route}")
        _print_table("m", rows)
    return 0


def cmd_verify(args) -> int:
    if args.lambda_max < 1 or args.n_max < 1:
        raise UsageError("--lambda-max and --n-max must be >= 1")
    if not 0 < args.tol / 10 < math.inf:
        raise UsageError(f"--tol must be finite with tol/10 > 0, got {args.tol}")
    precision = args.precision if args.precision is not None else MIN_PRECISION
    if precision < MIN_PRECISION:
        raise UsageError(f"precision must be >= {MIN_PRECISION}")
    cfg = QuadratureConfig(target_abs_tol=args.tol / 10,
                           working_precision=precision)
    failures: List[str] = []
    for lam in range(1, args.lambda_max + 1):
        for n in range(0, args.n_max + 1):
            spec = GegenbauerSpec(lam, n)
            reference = integrals_series_log(spec)
            # A missing entry (None) is a mismatch too.
            mismatches = [
                f"route mismatch lambda={lam} n={n} m={m} "
                f"({reference.route} vs {other.route})"
                for other in (integrals_faa_di_bruno(spec),
                              integrals_standard_rep(spec))
                for m, (a, b) in enumerate(zip_longest(reference.values,
                                                       other.values))
                if a != b]
            failures += mismatches
            status = "routes=FAIL" if mismatches else "routes=ok"
            if args.skip_quadrature:
                print(f"lambda={lam} n={n} {status} quad=skipped")
                continue
            exact = assemble_entropy(spec, reference)
            try:
                oracle = entropy_quadrature(spec, cfg)
                with mp.workdps(precision):
                    diff = abs(exact.evaluate(precision) - oracle)
                quad_ok = diff <= args.tol
                if not quad_ok:
                    failures.append(
                        f"oracle mismatch lambda={lam} n={n} "
                        f"|exact-quadrature|={mp.nstr(diff, 5)} > {args.tol}")
                print(f"lambda={lam} n={n} {status} "
                      f"|exact-quad|={mp.nstr(diff, 5)} "
                      f"{'ok' if quad_ok else 'FAIL'}")
            except ToleranceNotMet as exc:
                failures.append(
                    f"quadrature tolerance not met lambda={lam} n={n}: {exc}")
                print(f"lambda={lam} n={n} {status} quad=TOLERANCE-NOT-MET")
    total = args.lambda_max * (args.n_max + 1)
    print(f"checked {total} (lambda, n) pairs: "
          f"{'all ok' if not failures else f'{len(failures)} failure(s)'}")
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gegentropy",
        description="Exact Shannon entropy of Gegenbauer polynomials "
                    "of integer parameter.")
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("entropy", help="entropy of one (lambda, n)")
    pe.add_argument("--lambda", dest="lam", type=int, required=True)
    pe.add_argument("--n", dest="n", type=int, required=True)
    pe.add_argument("--normalized", action="store_true",
                    help="entropy of the orthonormalized polynomial")
    pe.add_argument("--precision", type=int, default=None,
                    help=f"decimal digits (default {DEFAULT_PRECISION} or "
                         f"${ENV_PRECISION})")
    pe.add_argument("--format", dest="fmt",
                    choices=["exact", "decimal", "json"], default="exact")
    pe.set_defaults(func=cmd_entropy)

    pt = sub.add_parser("table", help="exact + 3-decimal rows for n = 1..n_max")
    pt.add_argument("--lambda", dest="lam", type=int, required=True)
    pt.add_argument("--n-max", dest="n_max", type=int, required=True)
    pt.add_argument("--precision", type=int, default=None)
    pt.add_argument("--format", dest="fmt",
                    choices=["text", "csv", "json"], default="text")
    pt.set_defaults(func=cmd_table)

    pi = sub.add_parser("integrals",
                        help="exact cosine-moment table for one (lambda, n)")
    pi.add_argument("--lambda", dest="lam", type=int, required=True)
    pi.add_argument("--n", dest="n", type=int, required=True)
    pi.add_argument("--route", choices=sorted(_ROUTES), default=ROUTE_SERIES_LOG)
    pi.add_argument("--precision", type=int, default=None)
    pi.add_argument("--format", dest="fmt",
                    choices=["text", "csv", "json"], default="text")
    pi.set_defaults(func=cmd_integrals)

    pv = sub.add_parser("verify",
                        help="route-equality and quadrature sweep over a grid")
    pv.add_argument("--lambda-max", dest="lambda_max", type=int, required=True)
    pv.add_argument("--n-max", dest="n_max", type=int, required=True)
    pv.add_argument("--tol", type=float, default=1e-8,
                    help="largest accepted |exact - quadrature|, finite and > 0 "
                         "(default 1e-8; the oracle integrates to tol/10)")
    pv.add_argument("--precision", type=int, default=None,
                    help="quadrature working precision in decimal digits "
                         f"(default and minimum {MIN_PRECISION}; "
                         f"${ENV_PRECISION} is not read)")
    pv.add_argument("--skip-quadrature", action="store_true",
                    help="route-equality checks only")
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
