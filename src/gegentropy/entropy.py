"""Exact entropy of Gegenbauer polynomials of integer parameter.

The entropy integral

    E(C_n) = -integral_{-1}^{1} C_n(x)^2 log(C_n(x)^2) (1-x^2)^(lam-1/2) dx

reduces, through the trigonometric representations, to an exact rational
combination of the Fourier-cosine moments

    I_m = integral_0^pi cos(2m t) log(C_n(cos t))^2 dt,   m = 0 .. n + lam:

    E(C_n) = -(c/2) * sum_{m=0}^{n+lam} beta_m I_m,

where beta_m is the coefficient of w^m in the product A(w) (1-w) D(w) of the
szego sine coefficients, A(w) = sum_v a_v w^v, and the first differences of
the standard cosine coefficients, D(w) = sum_j d_j w^j.

Every I_m is pi times an exact rational for m >= 1, and
I_0 = 2 pi log((lam)_n / n!).  Three independent routes compute the same
table:

  series-log     residue calculus turns I_m (m >= 1) into
                 (2 lam - 1)/m plus the m-th Taylor coefficient of
                 log(Q(w)/Q(0)) where, in w = z^2,
                 Q(w) = sum_v a_v (w^(n+lam+v) - w^(lam-1-v));
                 the coefficients follow from the standard exact
                 recurrence for the logarithm of a power series.

  faa-di-bruno   Faa di Bruno's formula for the same Taylor coefficients:
                 one sum over the partitions of m into parts 1 .. lam - 1,
                 the same recursion for every lam (for lam = 1 there are
                 no parts and the sum is 0).

  standard-rep   the same residue argument applied to the standard
                 representation's polynomial R(w) = sum_j d_j w^(n-j);
                 here no (2 lam - 1)/m term appears because R carries no
                 (1 - z^2) factor.

The routes must agree entry by entry, in exact arithmetic; `verify` sweeps
exercise exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple, Union

import mpmath as mp

from .exact import (DEFAULT_PRECISION, MIN_PRECISION, ExactEntropy, LogLinear,
                    ZERO, log_linear_from, require_instance, require_int, to_mpf)
from .gegenbauer import (GegenbauerSpec, orthonormal_scales, standard_coeffs,
                         szego_coeffs)

ROUTE_SERIES_LOG = "series-log"
ROUTE_FAA_DI_BRUNO = "faa-di-bruno"
ROUTE_STANDARD_REP = "standard-rep"


@dataclass(frozen=True)
class IntegralTable:
    """Exact values I_m / pi for m = 0 .. n + lam, tagged with their route.

    Entry 0 carries the log term 2 log((lam)_n / n!); entries m >= 1 are pure
    rationals (empty log map).
    """

    spec: GegenbauerSpec
    values: Tuple[LogLinear, ...]
    route: str


def _require_integer_parameter(spec: GegenbauerSpec) -> None:
    require_instance("spec", spec, GegenbauerSpec)
    if spec.lam < 1:
        raise ValueError(
            "entropy assembly requires parameter >= 1 "
            "(the Chebyshev-T limit is exposed in normalized form only)")


def beta_vector(spec: GegenbauerSpec) -> Tuple[Fraction, ...]:
    """Weights beta_0 .. beta_{n+lam} of I_0 .. I_{n+lam} in the assembly.

    beta is the coefficient list of A(w) (1-w) D(w), with
    A(w) = sum_v a_v w^v and D(w) = sum_j d_j w^j: beta_m = sum_v a_v
    (d_{m-v} - d_{m-v-1}), d_j read as 0 for j outside 0..n.
    """
    _require_integer_parameter(spec)
    lam, n = spec.lam, spec.n
    _, alphas = szego_coeffs(spec)
    d = standard_coeffs(spec)
    zero = Fraction(0)
    # (1-w) D(w): d_0, d_1 - d_0, ..., d_n - d_{n-1}, -d_n.
    diff = [b - a for a, b in zip((zero,) + d, d + (zero,))]
    return tuple(sum((alphas[v] * diff[m - v]
                      for v in range(max(0, m - n - 1), min(lam, m + 1))), zero)
                 for m in range(n + lam + 1))


def _log_series(coeffs: Dict[int, Fraction], order: int) -> List[Fraction]:
    """Taylor coefficients b_1..b_order of log(A(w)) for A = 1 + sum a_i w^i.

    `coeffs` maps exponent i >= 1 to a_i (sparse).  Recurrence:
    b_k = a_k - (1/k) * sum_{i>=1} a_i (k-i) b_{k-i}.
    """
    b = [Fraction(0)] * (order + 1)
    nonzero = sorted(coeffs.items())
    for k in range(1, order + 1):
        acc = coeffs.get(k, Fraction(0))
        corr = Fraction(0)
        for i, a_i in nonzero:
            if i >= k:
                break
            corr += a_i * (k - i) * b[k - i]
        b[k] = acc - corr / k
    return b


def _log_value(spec: GegenbauerSpec) -> LogLinear:
    """I_0 / pi = 2 log((lam)_n / n!) in canonical form."""
    # (lam)_n / n! = C(n + lam - 1, n)
    return log_linear_from(2, math.comb(spec.n + spec.lam - 1, spec.n))


def _as_table(spec: GegenbauerSpec, rationals: List[Fraction], route: str) -> IntegralTable:
    values = [_log_value(spec)]
    values.extend(LogLinear(r) for r in rationals)
    return IntegralTable(spec, tuple(values), route)


def integrals_series_log(spec: GegenbauerSpec) -> IntegralTable:
    """Production route: log-series recurrence on the szego polynomial."""
    _require_integer_parameter(spec)
    lam, n = spec.lam, spec.n
    _, alphas = szego_coeffs(spec)
    order = n + lam
    # Q(w)/Q(0) up to w^order, Q(0) = -a_{lam-1}: no a_v vanishes for v < lam.
    normalized = {lam - 1 - v: alphas[v] / alphas[lam - 1] for v in range(lam - 1)}
    normalized[order] = -alphas[0] / alphas[lam - 1]
    b = _log_series(normalized, order)
    rationals = [Fraction(2 * lam - 1, m) + b[m] for m in range(1, order + 1)]
    return _as_table(spec, rationals, ROUTE_SERIES_LOG)


def integrals_standard_rep(spec: GegenbauerSpec) -> IntegralTable:
    """Verification route: same recurrence on the standard-rep polynomial.

    R(w) = sum_j d_j w^(n-j) has constant term d_n = (lam)_n/n! > 0 and no
    (1-z^2) factor, so the table entries are the bare Taylor coefficients.
    """
    _require_integer_parameter(spec)
    n = spec.n
    d = standard_coeffs(spec)
    b = _log_series({n - j: d[j] / d[n] for j in range(n)}, n + spec.lam)
    return _as_table(spec, b[1:], ROUTE_STANDARD_REP)


def integrals_faa_di_bruno(spec: GegenbauerSpec) -> IntegralTable:
    """Verification route: Faa di Bruno's partition sum, one for every lam.

    For m < n + lam only the low part of Q counts, and with
    r_j = a_{lam-1-j} / a_{lam-1} the m-th Taylor coefficient of
    log(1 + sum_{j=1}^{lam-1} r_j w^j) is the sum over multiplicities
    k_j >= 0 with sum_j j k_j = m of (-1)^(k+1) (k-1)! prod_j r_j^k_j / k_j!,
    where k = sum_j k_j.  The m = n + lam entry picks up the extra
    -a_0/a_{lam-1} = -r_{lam-1} from the top-degree monomial.
    """
    _require_integer_parameter(spec)
    lam, top = spec.lam, spec.n + spec.lam
    _, alphas = szego_coeffs(spec)
    # r_0 .. r_{lam-1}, then a zero so that r_1 exists (and vanishes) at lam = 1.
    r = [alphas[lam - 1 - j] / alphas[lam - 1] for j in range(lam)] + [Fraction(0)]
    ones = [Fraction(1)]  # ones[e] = r_1^e / e!
    for e in range(1, top + 1):
        ones.append(ones[-1] * r[1] / e)

    def partition_sum(j: int, rest: int, k: int, weight: Fraction) -> Fraction:
        # Parts of size > j are placed: k of them, weight prod r_i^k_i / k_i!.
        if j < 2:
            k += rest
            term = math.factorial(k - 1) * weight * ones[rest]
            return term if k % 2 else -term
        total = Fraction(0)
        for k_j in range(rest // j + 1):
            total += partition_sum(j - 1, rest - j * k_j, k + k_j, weight)
            weight = weight * r[j] / (k_j + 1)
        return total

    rationals = [Fraction(2 * lam - 1, m) + partition_sum(lam - 1, m, 0, Fraction(1))
                 for m in range(1, top + 1)]
    rationals[-1] -= r[lam - 1]
    return _as_table(spec, rationals, ROUTE_FAA_DI_BRUNO)


def assemble_entropy(spec: GegenbauerSpec, table: IntegralTable) -> ExactEntropy:
    """Combine an integral table into E(C_n) = pi * (exact log-linear)."""
    require_instance("table", table, IntegralTable)
    if table.spec != spec:
        raise ValueError(f"integral table is for {table.spec}, not {spec}")
    c, _ = szego_coeffs(spec)
    weights = zip(table.values, beta_vector(spec), strict=True)
    total = sum((v * b for v, b in weights), ZERO)
    return ExactEntropy(pi_part=total * (Fraction(-1, 2) * c), plain_part=ZERO)


def entropy_exact(spec: GegenbauerSpec) -> ExactEntropy:
    """Exact unnormalized entropy E(C_n^(lam)), lam >= 1."""
    return assemble_entropy(spec, integrals_series_log(spec))


def entropy_closed_form(spec: GegenbauerSpec,
                        precision: int = DEFAULT_PRECISION
                        ) -> Union[ExactEntropy, mp.mpf]:
    """Independent closed forms for lam in {1, 2, 3}.

    lam = 1, 2 return the exact entropy; lam = 3 returns a high-precision
    float: its closed form carries surds via the complex
    number f = ((n+1)(n+5) + i sqrt(3(n+1)(n+5))) / ((n+1)(n+2)), whose power
    f^(n+1) is evaluated in floating point, keeping this check independent of
    the rational route.
    """
    require_instance("spec", spec, GegenbauerSpec)
    require_int("precision", precision, MIN_PRECISION)
    lam, n = spec.lam, spec.n
    if lam == 1:
        return ExactEntropy(
            pi_part=LogLinear(Fraction(1, 2) * (Fraction(1, n + 1) - 1)))
    if lam == 2:
        logs = log_linear_from(-Fraction((n + 1) * (n + 3), 4), n + 1)
        const = (Fraction(n ** 3 - 5 * n ** 2 - 29 * n - 27, n + 2)
                 + Fraction((n + 3) ** (n + 3), (n + 2) * (n + 1) ** (n + 1)))
        return ExactEntropy(pi_part=logs + LogLinear(-const / 8))
    if lam == 3:
        with mp.workdps(precision + 10):
            a = (n + 1) * (n + 5)
            f = mp.mpc(a, mp.sqrt(3 * a)) / ((n + 1) * (n + 2))
            tail = mp.mpc(2 * n * n + 13 * n + 14,
                          -(n + 1) * (n + 6) * mp.sqrt(mp.mpf(a) / 3))
            real_part = (f ** (n + 1) * tail).real
            total = (2 * (n + 1) * (n + 2) * (n + 4) * (n + 5)
                     * mp.log(mp.mpf((n + 1) * (n + 2)) / 2))
            total += to_mpf(Fraction(
                n ** 5 - 16 * n ** 4 - 269 * n ** 3 - 1200 * n ** 2
                - 2102 * n - 1250, n + 3))
            total += (2 * (n + 5) ** 2 * real_part
                      / ((n + 2) * (n + 3)))
            return -mp.pi * total / 128
    raise ValueError(f"no closed form for parameter {lam}")


def normalize_entropy(spec: GegenbauerSpec, e: ExactEntropy) -> ExactEntropy:
    """Entropy of the orthonormalized polynomial, from the raw entropy.

    sqrt(s2) C_n has unit norm for the probability weight
    (k_pi/pi) sin(t)^(2 lam) dt of orthonormal_scales, so
    E(normalized) = -log(s2) + s2 k_pi (E(C_n) / pi), and the pi cancels.
    """
    _require_integer_parameter(spec)
    require_instance("entropy", e, ExactEntropy)
    if not e.plain_part.is_zero():
        raise ValueError("expected an unnormalized entropy (pure pi-multiple)")
    s2, k_pi = orthonormal_scales(spec)
    plain = log_linear_from(-1, s2) + e.pi_part * (s2 * k_pi)
    return ExactEntropy(pi_part=ZERO, plain_part=plain)


def normalized_entropy_exact(spec: GegenbauerSpec) -> ExactEntropy:
    """Exact entropy of the orthonormalized polynomial, lam >= 0.

    For the Chebyshev-T limit lam = 0 it is 0 at n = 0 and log 2 - 1 else.
    """
    require_instance("spec", spec, GegenbauerSpec)
    if spec.lam == 0:
        if spec.n == 0:
            return ExactEntropy()
        return ExactEntropy(plain_part=log_linear_from(1, 2) + LogLinear(Fraction(-1)))
    return normalize_entropy(spec, entropy_exact(spec))
