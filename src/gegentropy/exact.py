"""Exact rational arithmetic and the canonical value form q + sum_p e_p*log(p).

All closed-form entropies handled by this package are rational combinations of
logarithms of positive rationals, optionally multiplied by pi.  Because the set
{log p : p prime} is linearly independent over the rationals, reducing every
log argument to its prime factorization gives a *canonical* form on which
equality is decidable exactly:

    LogLinear   =  constant + sum over primes p of  e_p * log(p)

with rational constant and rational exponent-coefficients e_p.  ExactEntropy
pairs two such values, one multiplying pi and one standing alone.

Rationals are ``fractions.Fraction`` (always in lowest terms, denominator > 0).
High-precision floating evaluation uses mpmath; ``precision`` arguments are
decimal digits and must be at least 50.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Mapping, Union

import mpmath as mp

RationalLike = Union[Fraction, int]

#: Decimal digits used when no precision is requested explicitly.
DEFAULT_PRECISION = 64

#: Contract floor for every evaluation precision in this package.
MIN_PRECISION = 50


def require_int(name: str, value, floor: int) -> None:
    """Raise ValueError unless value is an int (bool is not) and >= floor."""
    if not isinstance(value, int) or isinstance(value, bool) or value < floor:
        raise ValueError(f"{name} must be an int >= {floor}, got {value!r}")


def require_rational(name: str, value) -> None:
    """Raise ValueError unless value is an int (bool is not) or a Fraction."""
    if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int or Fraction, got {value!r}")


def require_instance(name: str, value, kind: type) -> None:
    """Raise ValueError unless value is a `kind`."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")


def to_mpf(q: RationalLike) -> mp.mpf:
    """Convert an exact rational to mpf at the *current* mpmath precision."""
    if isinstance(q, Fraction):
        return mp.mpf(q.numerator) / q.denominator
    return mp.mpf(q)


def factorize(n: int) -> Dict[int, int]:
    """Prime factorization of a positive integer by trial division.

    Log arguments in this package are products of small integers, so trial
    division (2, 3, then a 6k+-1 wheel) is never a bottleneck.
    """
    if n <= 0:
        raise ValueError(f"can only factor positive integers, got {n}")
    factors: Dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    p = 5
    while p * p <= n:
        for q in (p, p + 2):
            while n % q == 0:
                factors[q] = factors.get(q, 0) + 1
                n //= q
        p += 6
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


class _ReadOnlyDict(dict):
    """A dict whose mutators raise TypeError; repr and equality are dict's."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("LogLinear log terms are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild it whole instead of item by item.
        return type(self), (dict(self),)


@dataclass(frozen=True)
class LogLinear:
    """Canonical exact value ``constant + sum_p log_terms[p] * log(p)``.

    Keys of ``log_terms`` are primes; zero coefficients are dropped on
    construction, so dataclass equality is exact mathematical equality.
    The stored map is read-only, so values such as ZERO can be shared.
    """

    constant: Fraction = Fraction(0)
    log_terms: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        require_rational("constant", self.constant)
        for p, e in self.log_terms.items():
            require_int("log-term key", p, 2)
            require_rational("log-term coefficient", e)
        cleaned = _ReadOnlyDict(
            (p, Fraction(e))
            for p, e in sorted(self.log_terms.items())
            if e != 0
        )
        for p in cleaned:
            # Equality decidability rests on the keys being prime.
            if factorize(p) != {p: 1}:
                raise ValueError(f"log-term key {p} is not prime")
        object.__setattr__(self, "constant", Fraction(self.constant))
        object.__setattr__(self, "log_terms", cleaned)

    def is_zero(self) -> bool:
        return self.constant == 0 and not self.log_terms

    def __add__(self, other: "LogLinear") -> "LogLinear":
        if not isinstance(other, LogLinear):
            return NotImplemented
        terms = dict(self.log_terms)
        for p, e in other.log_terms.items():
            terms[p] = terms.get(p, Fraction(0)) + e
        return LogLinear(self.constant + other.constant, terms)

    def __sub__(self, other: "LogLinear") -> "LogLinear":
        if not isinstance(other, LogLinear):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LogLinear":
        return self * Fraction(-1)

    def __mul__(self, scalar: RationalLike) -> "LogLinear":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return LogLinear(
            self.constant * scalar,
            {p: e * scalar for p, e in self.log_terms.items()},
        )

    __rmul__ = __mul__


ZERO = LogLinear()


def log_linear_from(coeff: RationalLike, arg: RationalLike) -> LogLinear:
    """Canonicalize ``coeff * log(arg)`` for a positive rational ``arg``.

    The prime map sends p to coeff * (multiplicity of p in arg's numerator
    minus multiplicity in its denominator); the constant is zero.
    """
    require_rational("log coefficient", coeff)
    require_rational("log argument", arg)
    coeff, arg = Fraction(coeff), Fraction(arg)
    if arg <= 0:
        raise ValueError(f"log argument must be positive, got {arg}")
    terms: Dict[int, Fraction] = {}
    for p, e in factorize(arg.numerator).items():
        terms[p] = coeff * e
    for p, e in factorize(arg.denominator).items():
        terms[p] = terms.get(p, Fraction(0)) - coeff * e
    return LogLinear(Fraction(0), terms)


@dataclass(frozen=True)
class ExactEntropy:
    """Exact entropy value ``pi * pi_part + plain_part``.

    Entropies of the raw polynomials are pure pi-multiples (plain_part = 0);
    entropies of the orthonormalized polynomials are pi-free (pi_part = 0).
    """

    pi_part: LogLinear = ZERO
    plain_part: LogLinear = ZERO

    def __post_init__(self):
        if not all(isinstance(p, LogLinear) for p in (self.pi_part, self.plain_part)):
            raise ValueError(f"ExactEntropy parts must be LogLinear, got {self!r}")

    def is_zero(self) -> bool:
        return self.pi_part.is_zero() and self.plain_part.is_zero()

    def evaluate(self, precision: int = DEFAULT_PRECISION) -> mp.mpf:
        """Numeric value pi*pi_part + plain_part at `precision` digits."""
        require_int("precision", precision, MIN_PRECISION)
        with mp.workdps(precision + 10):
            pi_total, total = (
                sum((to_mpf(e) * mp.log(p) for p, e in part.log_terms.items()),
                    to_mpf(part.constant))
                for part in (self.pi_part, self.plain_part))
            return pi_total * mp.pi + total


def decimal_string(x: mp.mpf, precision: int) -> str:
    """Decimal rendering with `precision` significant digits."""
    return mp.nstr(x, precision, strip_zeros=False)


# ---------------------------------------------------------------------------
# JSON interchange.  Rationals travel as exact "p/q" strings, never floats.
# ---------------------------------------------------------------------------

def _log_list(v: LogLinear) -> list:
    return [{"prime": p, "coeff": str(e)} for p, e in v.log_terms.items()]


def entropy_to_json_dict(e: ExactEntropy, precision: int = DEFAULT_PRECISION) -> dict:
    return {
        "pi_log": _log_list(e.pi_part),
        "pi_const": str(e.pi_part.constant),
        "plain_log": _log_list(e.plain_part),
        "plain_const": str(e.plain_part.constant),
        "decimal": decimal_string(e.evaluate(precision), precision),
    }


def _rational(text) -> Fraction:
    """A "p/q" or "p" string as str(Fraction) writes it; ValueError for
    anything else, decimal and exponent notation included."""
    try:
        if isinstance(text, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
            return Fraction(text)
    except ZeroDivisionError:
        pass
    raise ValueError(f"expected a 'p/q' string with q != 0, got {text!r}")


def _field(d, key: str, kind: type = object):
    """d[key]; ValueError unless d is a dict holding a `kind` under key."""
    if isinstance(d, dict) and key in d and isinstance(d[key], kind):
        return d[key]
    raise ValueError(f"expected an object with a {kind.__name__} {key!r}")


def _log_linear(d: dict, part: str) -> LogLinear:
    terms = _field(d, part + "_log", list)
    logs = {}
    for t in terms:
        require_int("prime", _field(t, "prime"), 2)
        logs[t["prime"]] = _rational(_field(t, "coeff"))
    if len(logs) < len(terms):
        raise ValueError(f"a prime is listed twice in {part}_log")
    return LogLinear(_rational(_field(d, part + "_const")), logs)


def entropy_from_json_dict(d: dict) -> ExactEntropy:
    """Inverse of entropy_to_json_dict; ValueError on a malformed value."""
    return ExactEntropy(_log_linear(d, "pi"), _log_linear(d, "plain"))


def dumps_json(obj) -> str:
    """The one JSON writer of this package; byte-stable for round-trips."""
    return json.dumps(obj, separators=(", ", ": "), sort_keys=False)
