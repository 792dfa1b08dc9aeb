"""Independent numerical oracle for the entropy integrals.

Everything here integrates in theta-space (x = cos theta), where the
integrands are built from the standard trigonometric representation: its
coefficients are uniformly bounded on the circle, unlike the x-space weight
(1-x^2)^(lam-1/2), which is singularity-prone at the endpoints.

Every integrand is symmetric about pi/2, since C_n(cos(pi - t))^2 =
C_n(cos t)^2 and sin t and cos(2mt) are, so each integral over [0, pi] is
twice the integral over [0, pi/2].  The integrands are smooth except at the
zero angles of C_n, where they behave like t^2 log t (entropy weights) or
log t (bare log moments).  [0, pi/2] is split at those angles (pi/2 is one
for odd n) and each panel is handled by a tanh-sinh rule, which absorbs
endpoint singularities of exactly this kind; a panel whose error estimate
exceeds its share of the budget is bisected recursively.  The zero angles
come from Newton steps on the standard representation.  Each node of a
weighted integrand costs one mpf_cos_sin and one mpf_log: the folded cosine
series is a Clenshaw sum in Python integers with 10 guard bits (see
gegenbauer), and C^2, the weight sin(t)^(2 lam) and their product are
integer operations too, rounded to an mpf once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import mpmath as mp
from mpmath import libmp

from .exact import MIN_PRECISION, require_int, to_mpf
from .gegenbauer import (GegenbauerSpec, _cos_sin_fixed, _folded_series,
                         _folded_weights, pochhammer, standard_representation,
                         zero_angles)


@dataclass(frozen=True)
class QuadratureConfig:
    target_abs_tol: float = 1e-10
    working_precision: int = MIN_PRECISION

    def __post_init__(self):
        tol = self.target_abs_tol
        if (not isinstance(tol, (int, float)) or isinstance(tol, bool)
                or not 0 < tol < math.inf):
            raise ValueError(
                f"target_abs_tol must be a finite number > 0, got {tol!r}")
        require_int("working_precision", self.working_precision, MIN_PRECISION)


#: Times a panel may be bisected before the oracle gives up on its budget.
_MAX_DEPTH = 10


class ToleranceNotMet(Exception):
    """Raised when panel subdivision exhausts its depth; carries the best estimate."""

    def __init__(self, estimate, error):
        super().__init__(
            f"quadrature error estimate {mp.nstr(error, 5)} exceeds target; "
            f"best estimate {mp.nstr(estimate, 20)}")
        self.estimate = estimate
        self.error = error


def _panel_knots(spec: GegenbauerSpec, cfg: QuadratureConfig) -> List[mp.mpf]:
    """0, the zero angles in (0, pi/2), and pi/2."""
    inner = zero_angles(spec, cfg.working_precision) if spec.n else []
    return [mp.mpf(0)] + inner[:spec.n // 2] + [mp.pi / 2]


def _adaptive_panel(f, a, b, budget, depth_left) -> Tuple[mp.mpf, mp.mpf]:
    value, err = mp.quad(f, [a, b], error=True)
    if err <= budget or depth_left <= 0:
        return value, err
    mid = (a + b) / 2
    v1, e1 = _adaptive_panel(f, a, mid, budget / 2, depth_left - 1)
    v2, e2 = _adaptive_panel(f, mid, b, budget / 2, depth_left - 1)
    return v1 + v2, e1 + e2


def _integrate(f, knots: List[mp.mpf], cfg: QuadratureConfig) -> mp.mpf:
    """Twice the panel sum over the half range, panels in index order.

    The half range gets half the budget; raise if the doubled estimate
    misses the whole of it.
    """
    tol = mp.mpf(cfg.target_abs_tol)
    per_panel = tol / 2 / (len(knots) - 1)
    total = mp.mpf(0)
    err_total = mp.mpf(0)
    for a, b in zip(knots, knots[1:]):
        value, err = _adaptive_panel(f, a, b, per_panel, _MAX_DEPTH)
        total += value
        err_total += err
    total, err_total = 2 * total, 2 * err_total
    if err_total > tol:
        raise ToleranceNotMet(total, err_total)
    return total


def _weighted_integral(spec: GegenbauerSpec, cfg: QuadratureConfig,
                       scale=1, weight=1, log: bool = False) -> mp.mpf:
    """int_0^pi weight g [log g] sin(t)^(2 lam) dt, g = scale C_n(cos t)^2.

    Twice the half range; the log factor is taken when `log` is set, and a
    node where g = 0 adds its limit value 0.  Per node g and its weighted
    product are exact integers over powers of two, built from the
    fixed-point cos_sin and Clenshaw sum; then one mpf_log and one rounding
    to an mpf.  The caller holds cfg's working precision.
    """
    poly = _folded_series(spec.n, _folded_weights(spec))
    two_lam = 2 * spec.lam
    scale_man, scale_exp = mp.mpf(scale).man_exp  # both constants are > 0
    weight_man, weight_exp = mp.mpf(weight).man_exp

    def f(theta):
        c, s, bits = _cos_sin_fixed(theta)
        p = poly(c, s, bits)
        g = scale_man * p * p
        if not g:
            return mp.mpf(0)
        g_exp = scale_exp - 2 * bits
        man = weight_man * g * s ** two_lam
        exp = weight_exp + g_exp - two_lam * bits
        if log:
            sign, log_man, log_exp, _ = libmp.mpf_log(
                libmp.from_man_exp(g, g_exp), mp.mp.prec)
            man, exp = (-man if sign else man) * log_man, exp + log_exp
        return mp.make_mpf(libmp.from_man_exp(man, exp, mp.mp.prec,
                                              libmp.round_nearest))

    return _integrate(f, _panel_knots(spec, cfg), cfg)


def entropy_quadrature(spec: GegenbauerSpec,
                       cfg: QuadratureConfig = QuadratureConfig()) -> mp.mpf:
    """Direct estimate of E(C_n^(lam)) within cfg.target_abs_tol.

    Integrates -C^2 log(C^2) sin(theta)^(2 lam) over (0, pi), as twice the
    half range split at the zero angles, where the integrand has its
    t^2 log t^2 kinks.
    """
    with mp.workdps(cfg.working_precision):
        return -_weighted_integral(spec, cfg, log=True)


def integral_I_quadrature(spec: GegenbauerSpec, m: int,
                          cfg: QuadratureConfig = QuadratureConfig()) -> mp.mpf:
    """Direct estimate of I_m = int_0^pi cos(2m t) log(C_n(cos t))^2 dt."""
    require_int("m", m, 0)
    if m > spec.n + spec.lam:
        raise ValueError(f"moment index {m} outside 0..{spec.n + spec.lam}")
    with mp.workdps(cfg.working_precision):
        poly = standard_representation(spec)
        # Floor keeps an exact-zero hit finite; the value matches the scale
        # of legitimate evaluations exponentially close to a zero angle.
        floor = mp.mpf(10) ** (-40 * cfg.working_precision)

        def f(theta):
            csq = poly(theta) ** 2
            return mp.cos(2 * m * theta) * mp.log(csq if csq > floor else floor)

        return _integrate(f, _panel_knots(spec, cfg), cfg)


def _orthonormal_scales(spec: GegenbauerSpec) -> Tuple[mp.mpf, mp.mpf]:
    """(s2, K/pi) at the current precision.

    The orthonormalized polynomial is sqrt(s2) * C_n and the probability
    weight in theta-space is (K/pi) * sin(theta)^(2 lam) d theta, with the
    rational K*pi = (lam!)^2 4^lam / (2 lam)!.  For the Chebyshev-T limit, s2
    degenerates to 2 (n >= 1) or 1 (n = 0) and the weight to 1/pi.
    """
    lam, n = spec.lam, spec.n
    if lam == 0:
        s2, k_pi = Fraction(2 if n else 1), Fraction(1)
    else:
        s2 = Fraction((n + lam) * math.factorial(n)) / (lam * pochhammer(2 * lam, n))
        k_pi = Fraction(math.factorial(lam) ** 2 * 4 ** lam, math.factorial(2 * lam))
    return to_mpf(s2), to_mpf(k_pi) / mp.pi


def normalized_entropy_quadrature(spec: GegenbauerSpec,
                                  cfg: QuadratureConfig = QuadratureConfig()) -> mp.mpf:
    """Direct estimate of the orthonormalized entropy within cfg.target_abs_tol."""
    with mp.workdps(cfg.working_precision):
        return -_weighted_integral(spec, cfg, *_orthonormal_scales(spec), log=True)


def orthonormality_quadrature(spec: GegenbauerSpec,
                              cfg: QuadratureConfig = QuadratureConfig()) -> mp.mpf:
    """int of (orthonormalized C_n)^2 against its weight; exactly 1 when sound."""
    with mp.workdps(cfg.working_precision):
        return _weighted_integral(spec, cfg, *_orthonormal_scales(spec))
