"""Gegenbauer (ultraspherical) polynomials C_n^(lam) of integer parameter.

Provides exact coefficients for the two trigonometric representations used by
the entropy engine, built once per spec and shared by every caller, a
high-precision evaluator theta -> C_n(cos theta) for each, the exact
orthonormal norm, point evaluation (exact rational or high-precision float),
and zero finding on (-1, 1).

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
fixed point: the exact coefficients, cos t and sin t become Python integers
with 10 guard bits beyond the precision current at each evaluation, and the
sum is rounded to an mpf once.  The szego sum is the folded sine series of
n+1 with its first (n+1)//2 weights zero, so each form costs one mpf_cos_sin.

lam = 0 denotes the Chebyshev-T limit and is represented explicitly
(T_n(cos t) = cos(n t)) instead of through coefficient limits, which would
involve 0/0 rational arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Tuple, Union

import mpmath as mp
from mpmath import libmp

from .exact import (DEFAULT_PRECISION, MIN_PRECISION, RationalLike, require_instance,
                    require_int)

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


#: Specs whose coefficients are kept.  The routes, beta, the assembly and
#: the oracle of one spec all read the same d_m, c and a_v.
_COEFF_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_COEFF_CACHE_SIZE)
def _standard_coeffs(spec: GegenbauerSpec) -> Tuple[Fraction, ...]:
    lam, n = spec.lam, spec.n
    if lam == 0:
        # Chebyshev-T limit: cos(n t) itself.
        if n == 0:
            return (Fraction(1),)
        return (Fraction(1, 2),) + (Fraction(0),) * (n - 1) + (Fraction(1, 2),)
    return tuple(pochhammer(lam, m) * pochhammer(lam, n - m)
                 / (math.factorial(m) * math.factorial(n - m))
                 for m in range(n + 1))


def standard_coeffs(spec: GegenbauerSpec) -> Tuple[Fraction, ...]:
    """The cosine coefficients (d_0, ..., d_n), built once per spec."""
    require_instance("spec", spec, GegenbauerSpec)
    return _standard_coeffs(spec)


@functools.lru_cache(maxsize=_COEFF_CACHE_SIZE)
def _szego_coeffs(spec: GegenbauerSpec) -> Tuple[Fraction, Tuple[Fraction, ...]]:
    lam, n = spec.lam, spec.n
    if lam < 1:
        raise ValueError("szego representation requires parameter >= 1")
    c = (Fraction(4, 4 ** lam) * math.factorial(n + 2 * lam - 1)
         / (math.factorial(lam - 1) * math.factorial(n + lam)))
    alphas = tuple(
        pochhammer(1 - lam, v) * pochhammer(n + 1, v)
        / (math.factorial(v) * pochhammer(n + lam + 1, v))
        for v in range(lam)
    )
    return c, alphas


def szego_coeffs(spec: GegenbauerSpec) -> Tuple[Fraction, Tuple[Fraction, ...]]:
    """Prefactor c and sine coefficients (a_0, ..., a_{lam-1}), lam >= 1.

    Built once per spec, like standard_coeffs.
    """
    require_instance("spec", spec, GegenbauerSpec)
    return _szego_coeffs(spec)


def orthonormal_scales(spec: GegenbauerSpec) -> Tuple[Fraction, Fraction]:
    """Exact (s2, k_pi), k_pi the rational (lam!)^2 4^lam / (2 lam)!.

    The probability weight on (0, pi) is (k_pi/pi) sin(t)^(2 lam) dt, and
    sqrt(s2) C_n has unit norm for it: s2 = (n+lam) n! / (lam (2 lam)_n), or
    in the Chebyshev-T limit lam = 0, where k_pi = 1, s2 = 2 (1 at n = 0).
    """
    require_instance("spec", spec, GegenbauerSpec)
    lam, n = spec.lam, spec.n
    k_pi = Fraction(math.factorial(lam) ** 2 * 4 ** lam, math.factorial(2 * lam))
    if lam == 0:
        return Fraction(2 if n else 1), k_pi
    # (2 lam)_n = (n + 2 lam - 1)! / (2 lam - 1)!
    rising = math.perm(n + 2 * lam - 1, n)
    return Fraction((n + lam) * math.factorial(n), lam * rising), k_pi


#: Fraction bits the fixed-point series carry beyond the working precision.
_GUARD_BITS = 10


def _clenshaw(weights: List[int], x2: int, phi0: int, phi1: int, bits: int) -> int:
    """sum_k weights[k] phi_k for phi_(k+1) = x2 phi_k - phi_(k-1), backwards.

    Every argument and the result are fixed-point with `bits` fraction bits.
    """
    b1 = b2 = 0
    for w in weights[:0:-1]:
        b1, b2 = w + (x2 * b1 >> bits) - b2, b1
    return weights[0] * phi0 + b1 * phi1 - b2 * phi0 >> bits


def _folded_weights(spec: GegenbauerSpec) -> List[Fraction]:
    """Weights of 1 or cos(t), then cos(2t) or cos(3t), ..., cos(n t) in C_n(cos t).

    d_m = d_{n-m} pairs the frequencies n-2m and -(n-2m), so each pair
    weighs 2 d_m; for even n the middle d_{n/2} stands alone.
    """
    d = standard_coeffs(spec)
    half = (spec.n + 1) // 2
    weights = [2 * dm for dm in d[:half]]
    if spec.n % 2 == 0:
        weights.append(d[half])
    return weights[::-1]


def _folded_series(n: int, weights: List[RationalLike],
                   sine: bool = False) -> Callable[[int, int, int], int]:
    """(cos t, sin t, bits) -> sum_k weights[k] wave((2k + n mod 2) t), wave cos or sin.

    Arguments and result are fixed-point with `bits` fraction bits.  The
    waves obey _clenshaw's recurrence with x2 = 2 cos 2t.  The exact weights
    become fixed-point integers, floor(w 2^bits), once per bits.
    """
    fixed = {}

    def evaluate(c, s, bits):
        if bits not in fixed:
            fixed[bits] = [(w.numerator << bits) // w.denominator for w in weights]
        one = 1 << bits
        x2 = (2 << bits) - (s * s >> bits - 2)  # 2 cos 2t, accurate as t -> 0
        if n % 2:
            seeds = ((s, s * (x2 + one) >> bits) if sine
                     else (c, c * (x2 - one) >> bits))
        else:
            seeds = (0, s * c >> bits - 1) if sine else (one, x2 >> 1)
        return _clenshaw(fixed[bits], x2, *seeds, bits)

    return evaluate


def _at_angle(series: Callable[[int, int, int], int]) -> Callable[[mp.mpf], mp.mpf]:
    """theta -> a fixed-point series at theta, as an mpf at the current precision.

    The module's one mpf <-> fixed-point boundary: cos and sin of theta enter
    with mp.prec + 10 fraction bits, and the series' value is rounded once.
    """
    def evaluate(theta):
        bits = mp.mp.prec + _GUARD_BITS
        c, s = libmp.mpf_cos_sin(mp.convert(theta)._mpf_, bits)
        value = series(libmp.to_fixed(c, bits), libmp.to_fixed(s, bits), bits)
        return mp.mpf((value, -bits))

    return evaluate


def standard_representation(spec: GegenbauerSpec) -> Callable[[mp.mpf], mp.mpf]:
    """theta -> C_n(cos theta) from the cosine series.

    The coefficients are exact, and each evaluation runs at the mpmath
    precision current when it is made.  The sum walks the folded
    frequencies n mod 2, ..., n-2, n in fixed point from one cos_sin.
    """
    require_instance("spec", spec, GegenbauerSpec)
    return _at_angle(_folded_series(spec.n, _folded_weights(spec)))


def szego_representation(spec: GegenbauerSpec) -> Callable[[mp.mpf], mp.mpf]:
    """theta -> C_n(cos theta) from the szego sine series, lam >= 1.

    The coefficients are exact, and each evaluation runs at the mpmath
    precision current when it is made.  sum_v c a_v sin((n+1+2v) t) is the
    folded sine series of n+1 whose first (n+1)//2 weights are zero, divided
    by (sin t)^(2 lam - 1) in fixed point.  Above pi/2 it is evaluated as
    (-1)^n times its value at pi - theta, so it raises ValueError at theta = 0
    and theta = pi alike; use the standard form there.
    """
    c, alphas = szego_coeffs(spec)
    n, power = spec.n, 2 * spec.lam - 1
    series = _folded_series(n + 1, [0] * ((n + 1) // 2) + [c * a for a in alphas],
                            sine=True)

    def divided(cos_t, sin_t, bits):
        if not sin_t:
            raise ValueError("szego representation is singular at theta = 0, pi")
        return (series(cos_t, sin_t, bits) << power * bits) // sin_t ** power

    at_angle = _at_angle(divided)

    def evaluate(theta):
        if theta > mp.pi / 2:
            return (-1) ** n * at_angle(mp.pi - theta)
        return at_angle(theta)

    return evaluate


def gegenbauer_value(spec: GegenbauerSpec, x: Numeric) -> Numeric:
    """C_n^(lam)(x) by the three-term recurrence; T_n(x) when lam = 0.

    Exact (Fraction in, Fraction out) for rational x, floating at the ambient
    mpmath precision otherwise.
    """
    require_instance("spec", spec, GegenbauerSpec)
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


def zero_angles(spec: GegenbauerSpec, precision: int = DEFAULT_PRECISION) -> List[mp.mpf]:
    """Angles theta in (0, pi) with C_n(cos theta) = 0, ascending.

    C_n(cos(pi - t)) = (-1)^n C_n(cos t), so only (0, pi/2) is searched:
    mp.findroot's Anderson-Bjorck method runs once in each sign change of
    the standard representation on a uniform grid of step pi/(8n+9).  The
    series sums weights up to C_n(1) down to values near 0, so it runs with
    as many extra digits as C_n(1) has.  Each root is rounded to precision +
    10 digits and must show a sign change across root -+ 10^(2-precision)/2.
    pi/2 is a zero for odd n; the zeros above it are the mirror images pi - t.
    """
    require_instance("spec", spec, GegenbauerSpec)
    require_int("precision", precision, MIN_PRECISION)
    n = spec.n
    if n == 0:
        return []
    # C_n(1) = (2 lam)_n / n!, which reads 0 in the Chebyshev-T limit.
    with mp.workdps(precision + 10 + len(str(math.comb(n + 2 * spec.lam - 1, n)))):
        g = standard_representation(spec)
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
            if fa == 0 or fa * fb < 0:  # findroot returns a if g(a) is 0
                root = mp.findroot(g, (a, b), solver="anderson",
                                   tol=mp.mpf(10) ** -(precision + 12), verify=False)
                with mp.workdps(precision + 10):
                    found.append(+root)
                if g(found[-1] - tol / 2) * g(found[-1] + tol / 2) > 0:
                    raise RuntimeError(f"{spec} keeps its sign across {found[-1]}")
        if len(found) != n // 2:
            raise RuntimeError(f"{spec}: {len(found)} of {n // 2} zeros in (0, pi/2)")
    with mp.workdps(precision + 10):
        return found + [mp.pi / 2] * (n % 2) + [mp.pi - t for t in reversed(found)]


def zeros(spec: GegenbauerSpec, precision: int = DEFAULT_PRECISION) -> List[mp.mpf]:
    """The n zeros of C_n^(lam) in (-1, 1), ascending."""
    angles = zero_angles(spec, precision)
    with mp.workdps(precision + 10):
        return [mp.cos(t) for t in reversed(angles)]
