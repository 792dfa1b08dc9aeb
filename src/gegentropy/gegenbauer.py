"""Gegenbauer (ultraspherical) polynomials C_n^(lam) of integer parameter.

Provides exact coefficients for the two trigonometric representations used by
the entropy engine, a high-precision evaluator theta -> C_n(cos theta) for
each, point evaluation (exact rational or high-precision float), and zero
finding on (-1, 1).

Representations, with x = cos(theta):

  standard:  C_n(cos t) = sum_{m=0}^{n} d_m * cos((n-2m) t)
             d_m = (lam)_m (lam)_{n-m} / (m! (n-m)!)

  szego:     C_n(cos t) = c / (sin t)^(2 lam - 1)
                          * sum_{v=0}^{lam-1} a_v * sin((n+2v+1) t)
             c   = 2^(2-2lam) (n+2lam-1)! / ((lam-1)! (n+lam)!)
             a_v = (1-lam)_v (n+1)_v / (v! (n+lam+1)_v)

The szego sine series terminates after lam terms exactly because
(1-lam)_v = 0 for v >= lam when lam is a positive integer.

The evaluators sum both series by Clenshaw's recurrence in 2 cos(2t), in
fixed point: Python integers with mp.prec + 10 fraction bits, that is 10
guard bits beyond the working precision, rounded to an mpf once at the end.
The standard form costs one mpf_cos_sin per evaluation whatever its length.

lam = 0 denotes the Chebyshev-T limit and is represented explicitly
(T_n(cos t) = cos(n t)) instead of through coefficient limits, which would
involve 0/0 rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple, Union

import mpmath as mp
from mpmath import libmp

from .exact import DEFAULT_PRECISION, MIN_PRECISION, RationalLike, require_int, to_mpf

Numeric = Union[Fraction, int, mp.mpf]


@dataclass(frozen=True)
class GegenbauerSpec:
    """The pair (lam, n): parameter lam >= 0 (0 = Chebyshev T), degree n >= 0."""

    lam: int
    n: int

    def __post_init__(self):
        require_int("parameter", self.lam, 0)
        require_int("degree", self.n, 0)


def pochhammer(a: RationalLike, k: int) -> Fraction:
    """Rising factorial a (a+1) ... (a+k-1); empty product 1 for k = 0."""
    if k < 0:
        raise ValueError(f"pochhammer needs k >= 0, got {k}")
    result = Fraction(1)
    a = Fraction(a)
    for i in range(k):
        result *= a + i
    return result


def standard_coeffs(spec: GegenbauerSpec) -> Tuple[Fraction, ...]:
    """The cosine coefficients (d_0, ..., d_n)."""
    lam, n = spec.lam, spec.n
    if lam == 0:
        # Chebyshev-T limit: cos(n t) itself.
        if n == 0:
            return (Fraction(1),)
        return (Fraction(1, 2),) + (Fraction(0),) * (n - 1) + (Fraction(1, 2),)
    return tuple(pochhammer(lam, m) * pochhammer(lam, n - m)
                 / (math.factorial(m) * math.factorial(n - m))
                 for m in range(n + 1))


def szego_coeffs(spec: GegenbauerSpec) -> Tuple[Fraction, List[Fraction]]:
    """Prefactor c and sine coefficients [a_0, ..., a_{lam-1}], lam >= 1."""
    lam, n = spec.lam, spec.n
    if lam < 1:
        raise ValueError("szego representation requires parameter >= 1")
    c = (Fraction(4, 4 ** lam) * math.factorial(n + 2 * lam - 1)
         / (math.factorial(lam - 1) * math.factorial(n + lam)))
    alphas = [
        pochhammer(1 - lam, v) * pochhammer(n + 1, v)
        / (math.factorial(v) * pochhammer(n + lam + 1, v))
        for v in range(lam)
    ]
    return c, alphas


#: Fraction bits the fixed-point series carry beyond the working precision.
_GUARD_BITS = 10


def _cos_sin_fixed(theta) -> Tuple[int, int, int]:
    """(cos theta, sin theta, bits), fixed point with mp.prec + 10 fraction bits."""
    bits = mp.mp.prec + _GUARD_BITS
    c, s = libmp.mpf_cos_sin(mp.convert(theta)._mpf_, bits)
    return libmp.to_fixed(c, bits), libmp.to_fixed(s, bits), bits


def _from_fixed(value: int, bits: int) -> mp.mpf:
    """The fixed-point value / 2^bits, rounded to the current precision."""
    return mp.make_mpf(
        libmp.from_man_exp(value, -bits, mp.mp.prec, libmp.round_nearest))


def _clenshaw(weights: List[int], x2: int, phi0: int, phi1: int, bits: int) -> int:
    """sum_k weights[k] phi_k for phi_(k+1) = x2 phi_k - phi_(k-1), backwards.

    Every argument and the result are fixed-point with `bits` fraction bits.
    """
    b1 = b2 = 0
    for w in weights[:0:-1]:
        b1, b2 = w + (x2 * b1 >> bits) - b2, b1
    return weights[0] * phi0 + b1 * phi1 - b2 * phi0 >> bits


def _fixed_weights(weights: List[mp.mpf]) -> Callable[[int], List[int]]:
    """bits -> the weights as fixed-point integers, converted once per bits."""
    cache = {}

    def at(bits):
        if bits not in cache:
            cache[bits] = [libmp.to_fixed(w._mpf_, bits) for w in weights]
        return cache[bits]

    return at


def _folded_weights(spec: GegenbauerSpec) -> List[mp.mpf]:
    """Weights of 1 or cos(t), then cos(2t) or cos(3t), ..., cos(n t) in C_n(cos t).

    d_m = d_{n-m} pairs the frequencies n-2m and -(n-2m), so each pair
    weighs 2 d_m; for even n the middle d_{n/2} stands alone.
    """
    d = standard_coeffs(spec)
    half = (spec.n + 1) // 2
    weights = [2 * to_mpf(dm) for dm in d[:half]]
    if spec.n % 2 == 0:
        weights.append(to_mpf(d[half]))
    return weights[::-1]


def _folded_series(n: int, weights: List[mp.mpf],
                   sine: bool = False) -> Callable[[int, int, int], int]:
    """(cos t, sin t, bits) -> sum_k weights[k] wave((2k + n mod 2) t), wave cos or sin.

    Arguments and result are fixed-point with `bits` fraction bits (see
    _cos_sin_fixed).  The waves obey _clenshaw's recurrence with x2 = 2 cos 2t.
    """
    fixed = _fixed_weights(weights)

    def evaluate(c, s, bits):
        one = 1 << bits
        x2 = (2 << bits) - (s * s >> bits - 2)  # 2 cos 2t, accurate as t -> 0
        if n % 2:
            seeds = ((s, s * (x2 + one) >> bits) if sine
                     else (c, c * (x2 - one) >> bits))
        else:
            seeds = (0, s * c >> bits - 1) if sine else (one, x2 >> 1)
        return _clenshaw(fixed(bits), x2, *seeds, bits)

    return evaluate


def _at_angle(series: Callable[[int, int, int], int]) -> Callable[[mp.mpf], mp.mpf]:
    """theta -> a _folded_series at theta, as an mpf at the current precision."""
    def evaluate(theta):
        c, s, bits = _cos_sin_fixed(theta)
        return _from_fixed(series(c, s, bits), bits)

    return evaluate


def standard_representation(spec: GegenbauerSpec) -> Callable[[mp.mpf], mp.mpf]:
    """theta -> C_n(cos theta) from the cosine series.

    The coefficients are rounded once, at the mpmath precision current at
    this call.  The sum walks the folded frequencies n mod 2, ..., n-2, n
    in fixed point from one cos_sin per evaluation.
    """
    return _at_angle(_folded_series(spec.n, _folded_weights(spec)))


def _standard_slope(n: int, weights: List[mp.mpf]) -> Callable[[mp.mpf], mp.mpf]:
    """theta -> d/dtheta of the folded cosine series: its sine series."""
    return _at_angle(_folded_series(
        n, [-(2 * k + n % 2) * w for k, w in enumerate(weights)], sine=True))


def szego_representation(spec: GegenbauerSpec) -> Callable[[mp.mpf], mp.mpf]:
    """theta -> C_n(cos theta) from the szego sine series, lam >= 1.

    The coefficients are rounded once, at the mpmath precision current at
    this call.  The series is divided by (sin theta)^(2 lam - 1), so it is
    singular at theta = 0 and theta = pi; use the standard form there.
    """
    c, alphas = szego_coeffs(spec)
    prefactor = to_mpf(c)
    fixed = _fixed_weights([to_mpf(a) for a in alphas])
    n, power = spec.n, 2 * spec.lam - 1

    def evaluate(theta):
        theta = mp.convert(theta)
        s = mp.sin(theta)
        if s == 0:
            raise ValueError("szego representation is singular at theta = 0, pi")
        cos_t, sin_t, bits = _cos_sin_fixed(theta)
        cos_n, sin_n = (libmp.to_fixed(v, bits) for v in libmp.mpf_cos_sin(
            libmp.mpf_mul_int(theta._mpf_, n + 1, bits + n.bit_length()), bits))
        x2 = (2 << bits) - (sin_t * sin_t >> bits - 2)
        # Ascending frequencies n+1, n+3, ...: sin((n+3)t) from the angle sum.
        seeds = (sin_n,
                 (sin_n * x2 >> 1) + cos_n * (sin_t * cos_t >> bits - 1) >> bits)
        total = _clenshaw(fixed(bits), x2, *seeds, bits)
        return prefactor * _from_fixed(total, bits) / s ** power

    return evaluate


def gegenbauer_value(spec: GegenbauerSpec, x: Numeric) -> Numeric:
    """C_n^(lam)(x) by the three-term recurrence; T_n(x) when lam = 0.

    Exact (Fraction in, Fraction out) for rational x, floating at the ambient
    mpmath precision otherwise.
    """
    lam, n = spec.lam, spec.n
    exact = isinstance(x, (int, Fraction))
    one = Fraction(1) if exact else mp.mpf(1)
    if exact:
        x = Fraction(x)
    if n == 0:
        return one
    if lam == 0:
        prev, cur = one, x * one
        for _ in range(n - 1):
            prev, cur = cur, 2 * x * cur - prev
        return cur
    prev, cur = one, 2 * lam * x * one
    for k in range(2, n + 1):
        prev, cur = cur, (2 * x * (k + lam - 1) * cur - (k + 2 * lam - 2) * prev) / k
    return cur


#: Newton steps allowed per zero before the bracket is bisected instead.
_NEWTON_STEPS = 30


def _newton(g, slope, a, b, fa, fb, tol) -> Optional[mp.mpf]:
    """Newton's root of g in the sign-change bracket [a, b], or None.

    Starts from the secant point.  The root is accepted only if every step
    stays in the bracket and g changes sign across root -+ tol/2.
    """
    t = a + (b - a) * fa / (fa - fb)
    for _ in range(_NEWTON_STEPS):
        s = slope(t)
        if s == 0:
            return None
        dt = g(t) / s
        t -= dt
        if not a <= t <= b:
            return None
        if abs(dt) <= tol:
            break
    else:
        return None
    if g(t - tol / 2) * g(t + tol / 2) > 0:
        return None
    return t


def _bisect(g, a, b, fa, tol) -> mp.mpf:
    """Midpoint of the sign-change bracket (a, b) halved to width tol."""
    while b - a > tol:
        mid = (a + b) / 2
        fm = g(mid)
        if fm == 0:
            return mid
        if fa * fm < 0:
            b = mid
        else:
            a, fa = mid, fm
    return (a + b) / 2


def zero_angles(spec: GegenbauerSpec, precision: int = DEFAULT_PRECISION) -> List[mp.mpf]:
    """Angles theta in (0, pi) with C_n(cos theta) = 0, ascending.

    C_n(cos(pi - t)) = (-1)^n C_n(cos t), so only (0, pi/2) is searched:
    sign changes of the standard representation are bracketed on a uniform
    grid of step pi/(8n+9), each bracket is polished by Newton steps (the
    derivative is the sine series of the same coefficients) to within
    10^(2-precision), and the bracket is bisected to that width instead when
    Newton leaves it or misses the sign change.  pi/2 is a zero for odd n;
    the zeros above it are the mirror images pi - t.  The trig form is
    uniformly well conditioned on the circle, so no eigenvalue machinery is
    needed.
    """
    require_int("precision", precision, MIN_PRECISION)
    n = spec.n
    if n == 0:
        return []
    with mp.workdps(precision + 10):
        weights = _folded_weights(spec)
        g = _at_angle(_folded_series(n, weights))
        slope = _standard_slope(n, weights)
        # The points pi i / (8n+9) of the full-range grid below pi/2, which
        # miss the zeros of T_n and U_n and put pi/2 mid-cell; pi/2 itself
        # closes the grid for even n, and is the known zero for odd n.
        cells = 8 * (n + 1) + 1
        grid = [mp.pi * i / cells for i in range(cells // 2 + 1)]
        if n % 2 == 0:
            grid.append(mp.pi / 2)
        values = [g(t) for t in grid]
        tol = mp.mpf(10) ** (2 - precision)
        found: List[mp.mpf] = []
        for a, b, fa, fb in zip(grid, grid[1:], values, values[1:]):
            if fa == 0:
                # Grid hit a zero exactly (practically unreachable in binary).
                if not found or a - found[-1] > tol:
                    found.append(a)
                continue
            if fa * fb >= 0:
                continue
            root = _newton(g, slope, a, b, fa, fb, tol)
            found.append(_bisect(g, a, b, fa, tol) if root is None else root)
        if len(found) != n // 2:
            raise RuntimeError(
                f"expected {n // 2} zeros of {spec} in (0, pi/2), "
                f"bracketed {len(found)}")
        middle = [mp.pi / 2] if n % 2 else []
        return found + middle + [mp.pi - t for t in reversed(found)]


def zeros(spec: GegenbauerSpec, precision: int = DEFAULT_PRECISION) -> List[mp.mpf]:
    """The n zeros of C_n^(lam) in (-1, 1), ascending."""
    angles = zero_angles(spec, precision)
    with mp.workdps(precision + 10):
        return [mp.cos(t) for t in reversed(angles)]
