"""Independent numerical oracle for the entropy integrals.

Everything here integrates in theta-space (x = cos theta), where the
integrands are built from the folded cosine series of gegenbauer: its
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
come from mp.findroot on the cosine series.  The panel rule is mp.quad's
tanh-sinh rule, with its nodes, degree schedule and error estimate, summed in
fixed point: a node's angle, weight and value are Python integers with 10
guard bits (see gegenbauer), and it costs one fixed-point cos/sin and, in the
log integrands, one mpf_log; C_n and cos(2mt) are Clenshaw sums.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Tuple

import mpmath as mp
from mpmath import libmp
from mpmath.calculus.quadrature import TanhSinh
# The fixed-point cos/sin behind libmp.mpf_cos_sin, for angles in [0, pi/2].
from mpmath.libmp.libelefun import cos_sin_basecase

from .exact import MIN_PRECISION, require_instance, require_int, to_mpf
from .gegenbauer import (_GUARD_BITS, GegenbauerSpec, _folded_series,
                         _folded_weights, orthonormal_scales, zero_angles)


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
    inner = zero_angles(spec, cfg.working_precision)
    return [mp.mpf(0)] + inner[:spec.n // 2] + [mp.pi / 2]


#: mp.quad's tanh-sinh rule, for its nodes, degree schedule and error estimate.
_RULE = TanhSinh(mp.mp)


@functools.lru_cache(maxsize=None)
def _fixed_nodes(degree: int, prec: int) -> Tuple[Tuple[int, int], ...]:
    """mp.quad's new (x_k, w_k) on [-1, 1] at this degree, fixed as in _tanh_sinh."""
    with mp.workprec(prec + 20):
        bits = mp.mp.prec + _GUARD_BITS
        return tuple((libmp.to_fixed(x._mpf_, bits), libmp.to_fixed(w._mpf_, bits))
                     for x, w in _RULE.calc_nodes(degree, prec))


def _tanh_sinh(f, a, b) -> Tuple[mp.mpf, mp.mpf]:
    """mp.quad(f, [a, b], error=True) summed in fixed point, 0 <= a < b <= pi/2.

    f(theta, bits) maps a fixed-point angle to a fixed-point value, both with
    bits = mp.prec + 20 + _GUARD_BITS.  Degree k's result, C 2^-k times the
    sum of w_k f(D + C x_k) over the nodes of degrees 1..k (C = (b-a)/2,
    D = (b+a)/2), is exact in integers.  The schedule, the estimates at
    mp.prec + 20 and the eps/8 stop are mp.quad's; the value is rounded once.
    """
    prec = mp.mp.prec
    eps = mp.eps / 8
    with mp.workprec(prec + 20):
        bits = mp.mp.prec + _GUARD_BITS
        lo, hi = libmp.to_fixed(a._mpf_, bits), libmp.to_fixed(b._mpf_, bits)
        width, mid = hi - lo, hi + lo  # 2C and 2D
        total = 0  # sum of w_k f(theta_k), with 2 * bits fraction bits
        results = []
        for degree in range(1, _RULE.guess_degree(prec) + 1):
            total += sum(w * f((mid + (width * x >> bits)) >> 1, bits)
                         for x, w in _fixed_nodes(degree, prec))
            man, exp = width * total, -(3 * bits + 1 + degree)
            results.append(mp.mpf((man, exp)))
            if degree > 1:
                err = _RULE.estimate_error(results, prec, eps)
                if err <= eps:
                    break
    return mp.make_mpf(libmp.from_man_exp(man, exp, prec, libmp.round_nearest)), err


def _adaptive_panel(f, a, b, budget, depth_left) -> Tuple[mp.mpf, mp.mpf]:
    value, err = _tanh_sinh(f, a, b)
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


def _times_log(man: int, exp: int, g: int, g_exp: int, bits: int) -> int:
    """man 2^exp log(g 2^g_exp), g > 0, with `bits` fraction bits, from one mpf_log."""
    sign, log_man, log_exp, _ = libmp.mpf_log(libmp.from_man_exp(g, g_exp), bits)
    return (-man if sign else man) * log_man >> -(exp + log_exp) - bits


def _weighted_integral(spec: GegenbauerSpec, cfg: QuadratureConfig,
                       orthonormal: bool = False, log: bool = False) -> mp.mpf:
    """int_0^pi weight g [-log g] sin(t)^(2 lam) dt, g = scale C_n(cos t)^2.

    (scale, weight) is (1, 1), or (s2, k_pi/pi) of orthonormal_scales when
    `orthonormal` is set; a node where g = 0 adds its limit value 0.  It runs
    at cfg's working precision.
    """
    require_instance("cfg", cfg, QuadratureConfig)
    with mp.workdps(cfg.working_precision):
        scale = weight = mp.mpf(1)
        if orthonormal:
            s2, k_pi = orthonormal_scales(spec)
            scale, weight = to_mpf(s2), to_mpf(k_pi) / mp.pi
        poly = _folded_series(spec.n, _folded_weights(spec))
        two_lam = 2 * spec.lam
        scale_man, scale_exp = scale.man_exp  # both constants are > 0
        weight_man, weight_exp = weight.man_exp

        def f(theta, bits):
            c, s = cos_sin_basecase(theta, bits)
            p = poly(c, s, bits)
            g = scale_man * p * p
            if not g:
                return 0
            g_exp = scale_exp - 2 * bits
            man = weight_man * g * s ** two_lam
            exp = weight_exp + g_exp - two_lam * bits
            if log:
                return _times_log(-man, exp, g, g_exp, bits)
            return man >> -exp - bits

        return _integrate(f, _panel_knots(spec, cfg), cfg)


def entropy_quadrature(spec: GegenbauerSpec,
                       cfg: QuadratureConfig = QuadratureConfig()) -> mp.mpf:
    """Direct estimate of E(C_n^(lam)) within cfg.target_abs_tol.

    Integrates -C^2 log(C^2) sin(theta)^(2 lam) over (0, pi), as twice the
    half range split at the zero angles, where the integrand has its
    t^2 log t^2 kinks.
    """
    return _weighted_integral(spec, cfg, log=True)


def integral_I_quadrature(spec: GegenbauerSpec, m: int,
                          cfg: QuadratureConfig = QuadratureConfig()) -> mp.mpf:
    """Direct estimate of I_m = int_0^pi cos(2m t) log(C_n(cos t))^2 dt.

    cos(2m t) is the folded cosine series of 2m with one weight.  A node where
    the fixed-point C_n is 0 takes C_n^2 = 2^(-2 bits), one unit in its last place.
    """
    require_instance("spec", spec, GegenbauerSpec)
    require_instance("cfg", cfg, QuadratureConfig)
    require_int("m", m, 0)
    if m > spec.n + spec.lam:
        raise ValueError(f"moment index {m} outside 0..{spec.n + spec.lam}")
    with mp.workdps(cfg.working_precision):
        poly = _folded_series(spec.n, _folded_weights(spec))
        wave = _folded_series(2 * m, [0] * m + [1])

        def f(theta, bits):
            c, s = cos_sin_basecase(theta, bits)
            p = poly(c, s, bits)
            return _times_log(wave(c, s, bits), -bits, p * p or 1, -2 * bits, bits)

        return _integrate(f, _panel_knots(spec, cfg), cfg)


def normalized_entropy_quadrature(spec: GegenbauerSpec,
                                  cfg: QuadratureConfig = QuadratureConfig()) -> mp.mpf:
    """Direct estimate of the orthonormalized entropy within cfg.target_abs_tol."""
    return _weighted_integral(spec, cfg, orthonormal=True, log=True)


def orthonormality_quadrature(spec: GegenbauerSpec,
                              cfg: QuadratureConfig = QuadratureConfig()) -> mp.mpf:
    """int of (orthonormalized C_n)^2 against its weight; exactly 1 when sound."""
    return _weighted_integral(spec, cfg, orthonormal=True)
