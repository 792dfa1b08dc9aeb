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

The evaluators sum both series by Clenshaw's recurrence in 2 cos(2t), so the
standard form costs one mp.cos_sin per evaluation whatever its length.

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


def standard_coeff(spec: GegenbauerSpec, m: int) -> Fraction:
    """Cosine-series coefficient d_m of the standard representation, 0 <= m <= n."""
    lam, n = spec.lam, spec.n
    if not 0 <= m <= n:
        raise ValueError(f"coefficient index {m} outside 0..{n} for {spec}")
    if lam == 0:
        # Chebyshev-T limit: cos(n t) itself.
        if n == 0:
            return Fraction(1)
        return Fraction(1, 2) if m in (0, n) else Fraction(0)
    return (pochhammer(lam, m) * pochhammer(lam, n - m)
            / (math.factorial(m) * math.factorial(n - m)))


def standard_coeffs(spec: GegenbauerSpec) -> Tuple[Fraction, ...]:
    """The cosine coefficients (d_0, ..., d_n)."""
    return tuple(standard_coeff(spec, m) for m in range(spec.n + 1))


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


def _clenshaw(weights: List[mp.mpf], x2, phi0, phi1) -> mp.mpf:
    """sum_k weights[k] phi_k for phi_(k+1) = x2 phi_k - phi_(k-1), backwards."""
    b1 = b2 = 0
    for w in weights[:0:-1]:
        b1, b2 = w + x2 * b1 - b2, b1
    return weights[0] * phi0 + b1 * phi1 - b2 * phi0


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
                   sine: bool = False) -> Callable[[mp.mpf, mp.mpf], mp.mpf]:
    """(cos t, sin t) -> sum_k weights[k] wave((2k + n mod 2) t), wave cos or sin.

    The waves obey _clenshaw's recurrence with x2 = 2 cos 2t.
    """
    def evaluate(c, s):
        x2 = 2 - 4 * s * s  # 2 cos 2t, accurate to rounding as t -> 0
        if n % 2:
            seeds = (s, s * (x2 + 1)) if sine else (c, c * (x2 - 1))
        else:
            seeds = (0, 2 * s * c) if sine else (1, x2 / 2)
        return _clenshaw(weights, x2, *seeds)

    return evaluate


def standard_representation(spec: GegenbauerSpec) -> Callable[[mp.mpf], mp.mpf]:
    """theta -> C_n(cos theta) from the cosine series.

    The coefficients are rounded once, at the mpmath precision current at
    this call.  The sum walks the folded frequencies n mod 2, ..., n-2, n
    from one mp.cos_sin per evaluation.
    """
    series = _folded_series(spec.n, _folded_weights(spec))
    return lambda theta: series(*mp.cos_sin(theta))


def _standard_slope(n: int, weights: List[mp.mpf]) -> Callable[[mp.mpf], mp.mpf]:
    """theta -> d/dtheta of the folded cosine series: its sine series."""
    series = _folded_series(
        n, [-(2 * k + n % 2) * w for k, w in enumerate(weights)], sine=True)
    return lambda theta: series(*mp.cos_sin(theta))


def szego_representation(spec: GegenbauerSpec) -> Callable[[mp.mpf], mp.mpf]:
    """theta -> C_n(cos theta) from the szego sine series, lam >= 1.

    The coefficients are rounded once, at the mpmath precision current at
    this call.  The series is divided by (sin theta)^(2 lam - 1), so it is
    singular at theta = 0 and theta = pi; use the standard form there.
    """
    c, alphas = szego_coeffs(spec)
    prefactor = to_mpf(c)
    weights = [to_mpf(a) for a in alphas]
    n, power = spec.n, 2 * spec.lam - 1

    def evaluate(theta):
        s = mp.sin(theta)
        if s == 0:
            raise ValueError("szego representation is singular at theta = 0, pi")
        # Ascending frequencies n+1, n+3, ...
        return prefactor * _clenshaw(weights, 2 - 4 * s * s, mp.sin((n + 1) * theta),
                                     mp.sin((n + 3) * theta)) / s ** power

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
        series = _folded_series(n, weights)
        g = lambda t: series(*mp.cos_sin(t))
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
