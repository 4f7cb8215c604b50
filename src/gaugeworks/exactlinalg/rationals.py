"""Scalars for exact p-local linear algebra.

Everything integral in this package lives in Z_(p), the localization of the
integers at a fixed prime p: exact rationals whose denominator (in lowest
terms) is coprime to p.  We represent them with :class:`fractions.Fraction`
and keep the prime as an explicit argument; a value is "p-local" when
``is_p_local(x, p)`` holds.  The valuation of zero is the distinguished
sentinel :data:`INF`, never a number.
"""

from __future__ import annotations

import re
from fractions import Fraction


class _Infinity:
    """Order-top sentinel returned as the p-adic valuation of zero."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("gaugeworks-valuation-infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__


INF = _Infinity()

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


def check_prime(p: int) -> int:
    """Return p if it is a prime >= 2, else raise ValueError."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be a prime >= 2, got {p!r}")
    k = 2
    while k * k <= p:
        if p % k == 0:
            raise ValueError(f"p must be prime, got {p} = {k}*{p // k}")
        k += 1
    return p


def vp(x, p: int):
    """p-adic valuation of a rational; ``INF`` for zero.

    >>> vp(Fraction(18), 3)
    2
    >>> vp(Fraction(5, 9), 3)
    -2
    >>> vp(0, 3)
    INF
    """
    x = Fraction(x)
    if x == 0:
        return INF
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def is_p_local(x, p: int) -> bool:
    """True when x lies in Z_(p), i.e. its reduced denominator is prime to p."""
    return Fraction(x).denominator % p != 0


def unit_part(x, p: int) -> Fraction:
    """Write a nonzero rational as p^v * u with u a p-unit and return u."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("zero has no unit part")
    return x / Fraction(p) ** vp(x, p)


def parse_rational(text: str) -> Fraction:
    """Parse the bit-exact rational syntax ``[-]digits[/digits]``.

    Raises ValueError on anything else (including whitespace and zero
    denominators); rationals must never pass through floating point.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(x) -> str:
    """Inverse of :func:`parse_rational`; integers print without a slash."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
