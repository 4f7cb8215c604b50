"""Scalars for exact p-local linear algebra.

Everything integral in this package lives in Z_(p), the localization of the
integers at a fixed prime p: exact rationals whose denominator (in lowest
terms) is coprime to p.  We represent them with :class:`fractions.Fraction`
and keep the prime as an explicit argument; a value is "p-local" when
``is_p_local(x, p)`` holds.  The valuation of zero is the distinguished
sentinel :data:`INF`, never a number.  ``vp``, ``is_p_local``, ``unit_part``
and ``format_rational`` read x by :func:`rational_entry`: a float raises.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt


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

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    for k in range(2, isqrt(n) + 1):
        if sieve[k]:
            sieve[k * k::k] = bytes(len(range(k * k, n, k)))
    return tuple(k for k in range(2, n) if sieve[k])


# Trial division by the primes below 1000 names a composite's smallest factor
# when it is one of them; Miller--Rabin to the first 13 prime bases decides
# the rest and is exact below _MR_LIMIT (Sorenson and Webster, Math. Comp.
# 86, 2017).
_SMALL_PRIMES = _primes_below(1000)
_MR_BASES = _SMALL_PRIMES[:13]
_MR_LIMIT = 3317044064679887385961981
_KNOWN_PRIMES: set[int] = set()


def check_prime(p: int) -> int:
    """Return p if it is a prime >= 2, else raise ValueError.

    Primality is decided below 3.3 * 10^24; a larger p is rejected.  Primes
    already accepted are remembered, since constructors check theirs again.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be a prime >= 2, got {p!r}")
    if p in _KNOWN_PRIMES:
        return p
    for k in _SMALL_PRIMES:
        if k * k > p:
            break
        if p % k == 0:
            raise ValueError(f"p must be prime, got {p} = {k}*{p // k}")
    else:
        if p >= _MR_LIMIT:
            raise ValueError(f"p must be below {_MR_LIMIT} for an exact primality "
                             f"test, got {p}")
        if not all(_strong_probable_prime(p, a) for a in _MR_BASES):
            raise ValueError(f"p must be prime, got {p}")
    _KNOWN_PRIMES.add(p)
    return p


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller--Rabin round: n odd, n - 1 = 2^s d, and a^d = 1 or a^(2^r d) = -1."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    x = pow(a, d >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer.

    Divides by the largest p^(2^k) that divides n and then by the smaller
    squares in turn, so the cost grows with log v, not with v.
    """
    if n % p:
        return 0
    squares = [p]
    while n % squares[-1] == 0:
        squares.append(squares[-1] * squares[-1])
    v = 0
    for k in range(len(squares) - 2, -1, -1):
        if n % squares[k] == 0:
            n //= squares[k]
            v += 1 << k
    return v


def vp(x, p: int):
    """p-adic valuation of a rational; ``INF`` for zero.

    >>> vp(Fraction(18), 3)
    2
    >>> vp(Fraction(5, 9), 3)
    -2
    >>> vp(0, 3)
    INF
    """
    num, den = rational_entry(x)
    if num == 0:
        return INF
    return vp_int(num, p) - vp_int(den, p)


def is_p_local(x, p: int) -> bool:
    """True when x lies in Z_(p), i.e. its reduced denominator is prime to p."""
    return rational_entry(x)[1] % p != 0


def unit_part(x, p: int) -> Fraction:
    """Write a nonzero rational as p^v * u with u a p-unit and return u."""
    num, den = rational_entry(x)
    if num == 0:
        raise ValueError("zero has no unit part")
    return Fraction(num // p ** vp_int(num, p), den // p ** vp_int(den, p))


def rational_pair(text: str) -> tuple[int, int]:
    """The value of the literal ``[-]digits[/digits]`` as ``(num, den)`` in lowest terms.

    Digits are ASCII 0-9 and the whole string must match: whitespace, a
    trailing newline or any other character raises ValueError, and so do a
    zero denominator and a part past the interpreter's digit limit for
    ``int``.  ``den > 0``, and an integer literal has ``den == 1``.
    """
    m = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = m.groups()
    if den is None:
        return int(num), 1
    den = int(den)  # before num: of two parts past the digit limit, den is named
    if not den:
        raise ValueError(f"zero denominator: {text!r}")
    num = int(num)
    g = gcd(num, den)
    return (num, den) if g == 1 else (num // g, den // g)


def rational_entry(x) -> tuple[int, int]:
    """The one rule that reads a rational entry: ``(num, den)`` in lowest terms of an
    ``int`` (not a bool), a Fraction or a :func:`rational_pair` literal; anything
    else, a float or a ``Decimal`` included, raises ValueError."""
    if type(x) is int:
        return x, 1
    if isinstance(x, str):
        return rational_pair(x)
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise ValueError(f"expected a rational string, got {x!r}")


def exact_int(x) -> int:
    """``x`` if it is an ``int`` (not a bool), else ValueError: a float, a Fraction or
    a string is never truncated to a size, an exponent or a degree."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def parse_rational(text: str) -> Fraction:
    """The :class:`Fraction` of a literal read by :func:`rational_pair`.

    Rationals must never pass through floating point.
    """
    return Fraction(*rational_pair(text))


def format_rational(x) -> str:
    """Inverse of :func:`parse_rational`; integers print without a slash.

    Exact at any size, through :func:`format_ratio`.
    """
    return format_ratio(*rational_entry(x))


def format_ratio(num: int, den: int) -> str:
    """``num / den`` (den > 0) in lowest terms, as :func:`format_rational` prints it.

    One gcd, and no Fraction.  Each part is ``str`` of an int, or past the
    interpreter's 4300-digit limit, where ``str`` raises, ``Decimal``'s
    exact print of it.
    """
    g = gcd(num, den)
    if g > 1:
        num, den = num // g, den // g
    return _digits(num) if den == 1 else f"{_digits(num)}/{_digits(den)}"


def _digits(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # past the digit limit
        return str(Decimal(n))
