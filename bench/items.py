"""One benchmark item per workload, and the checks on its outputs.

Items reach the package only through `gegentropy.cli.main` and the library
API.  Every item function returns what the user of that operation would get;
`facts` then extracts, outside the timed region, the few values the checks
need, so that the worker keeps no full outputs in memory (which would show in
peak_rss_mb).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from decimal import Decimal
from fractions import Fraction

import mpmath as mp

# Functions are looked up on their modules at call time, so that the wrappers
# a traced run installs on those modules see every call.
from gegentropy import cli, entropy, exact as exact_mod, gegenbauer, quadrature

#: verify's defaults: --tol 1e-8, panel target tol/10, 50 working digits.
VERIFY_TOL = 1e-8
VERIFY_PRECISION = 50
#: Relative agreement required of the lam = 3 surd closed form.
LAM3_REL_TOL = mp.mpf(10) ** -30
#: Digits used when comparing against the lam = 3 closed form.
CHECK_PRECISION = 64


def _cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"gegentropy {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _routes(spec):
    """verify's route check: the three tables must agree entry by entry."""
    reference = entropy.integrals_series_log(spec)
    route_ok = all(other.values == reference.values
                   for other in (entropy.integrals_faa_di_bruno(spec),
                                 entropy.integrals_standard_rep(spec)))
    return reference, route_ok


def exact_large(lam, n):
    return _cli(["entropy", "--lambda", str(lam), "--n", str(n),
                 "--normalized", "--format", "json"])


def oracle_verify(lam, n):
    spec = gegenbauer.GegenbauerSpec(lam, n)
    reference, route_ok = _routes(spec)
    exact = entropy.assemble_entropy(spec, reference)
    cfg = quadrature.QuadratureConfig(target_abs_tol=VERIFY_TOL / 10,
                           working_precision=VERIFY_PRECISION)
    oracle = quadrature.entropy_quadrature(spec, cfg)
    with mp.workdps(VERIFY_PRECISION):
        diff = abs(exact.evaluate(VERIFY_PRECISION) - oracle)
    return route_ok, exact, diff


def route_crosscheck(lam, n):
    spec = gegenbauer.GegenbauerSpec(lam, n)
    reference, route_ok = _routes(spec)
    exact = entropy.assemble_entropy(spec, reference)
    line = f"lambda={lam} n={n} routes={'ok' if route_ok else 'FAIL'} quad=skipped\n"
    table = _cli(["integrals", "--lambda", str(lam), "--n", str(n),
                  "--format", "csv"])
    return route_ok, exact, line + table


ITEMS = {
    "exact-large": exact_large,
    "oracle-verify": oracle_verify,
    "route-crosscheck": route_crosscheck,
}


# ---------------------------------------------------------------------------
# Facts: the canonical text compared against the golden digests, plus what
# the remaining checks need.  The canonical text leaves out the oracle's
# |exact-quad|, which a faster oracle may legitimately change.
# ---------------------------------------------------------------------------

def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def facts(workload: str, lam: int, n: int, result) -> dict:
    if workload == "exact-large":
        record = json.loads(result)
        exact = exact_mod.entropy_from_json_dict(record["exact"])
        canonical = result
        f = {"nonpositive": Decimal(record["decimal"]) <= 0}
    elif workload == "oracle-verify":
        route_ok, exact, diff = result
        canonical = cli.format_exact_entropy(exact) + "\n"
        f = {"route_ok": route_ok, "diff": float(diff)}
    else:
        route_ok, exact, stdout = result
        canonical = cli.format_exact_entropy(exact) + "\n" + stdout
        f = {"route_ok": route_ok}
    f["digest"] = digest(canonical)
    f["primes"] = len(exact.pi_part.log_terms) + len(exact.plain_part.log_terms)
    if lam <= 3:
        f["exact"] = exact
    return f


def _normalized_from_raw(lam: int, n: int, raw: mp.mpf) -> mp.mpf:
    """E(normalized) = log(lam (2lam)_n / ((n+lam) n!)) + kappa E(C_n) / pi,
    written out here so that the lam = 3 check does not lean on the
    package's own normalization."""
    poch2 = math.prod(range(2 * lam, 2 * lam + n))
    kappa = Fraction(math.factorial(lam - 1) * (n + lam) * math.factorial(n)
                     * 4 ** lam * math.factorial(lam),
                     math.factorial(2 * lam) * poch2)
    ratio = Fraction(lam * poch2, (n + lam) * math.factorial(n))
    return (mp.log(mp.mpf(ratio.numerator) / ratio.denominator)
            + mp.mpf(kappa.numerator) / kappa.denominator * raw / mp.pi)


def check(workload: str, lam: int, n: int, f: dict, golden: dict) -> list:
    """Failure messages for one item; empty when every check passes."""
    where = f"lambda={lam} n={n}"
    failures = []
    if not f.get("route_ok", True):
        failures.append(f"route mismatch {where}")
    if f.get("diff", 0.0) > VERIFY_TOL:
        failures.append(f"oracle mismatch {where}: |exact-quad|={f['diff']:.3g}")
    if not f.get("nonpositive", True):
        failures.append(f"normalized entropy > 0 at {where}")
    expected = golden.get(f"{lam},{n}")
    if expected is None:
        failures.append(f"no golden output recorded for {where}")
    elif expected != f["digest"]:
        failures.append(f"output differs from the golden bytes at {where}")
    if lam <= 3:
        failures += _closed_form_failures(workload, lam, n, f["exact"])
    return failures


def _closed_form_failures(workload, lam, n, exact) -> list:
    spec = gegenbauer.GegenbauerSpec(lam, n)
    normalized = workload == "exact-large"
    closed = entropy.entropy_closed_form(spec, CHECK_PRECISION)
    if lam <= 2:
        expected = entropy.normalize_entropy(spec, closed) if normalized else closed
        if exact != expected:
            return [f"closed form differs at lambda={lam} n={n}"]
        return []
    with mp.workdps(CHECK_PRECISION + 10):
        expected = _normalized_from_raw(lam, n, closed) if normalized else closed
        got = exact.evaluate(CHECK_PRECISION)
        if abs(got - expected) > LAM3_REL_TOL * abs(expected):
            return [f"lambda=3 closed form differs at n={n}: "
                    f"{mp.nstr(got, 20)} vs {mp.nstr(expected, 20)}"]
    return []
