"""Exact rational arithmetic and elementary number-theoretic functions.

Every coefficient in this package lives in Q.  ``QQ`` is the stdlib
``fractions.Fraction``: arbitrary precision, gcd(num, den) = 1 and
den >= 1 kept automatically, and interoperable with plain ``int``.

The number-theoretic functions below memoize with ``functools.lru_cache``
bounded by ``CACHE_SIZE``, which is safe under threads.
"""

from __future__ import annotations

from fractions import Fraction as QQ
from functools import lru_cache
from math import comb, isqrt

__all__ = [
    "QQ",
    "qq_str",
    "divisors",
    "mobius",
    "totient",
    "bernoulli",
    "binomial",
]

# maxsize of every memo in the package; the keys are integers up to about
# twice the truncation order, so no run in reach fills one
CACHE_SIZE = 1024


def qq_str(value) -> str:
    """Render a rational as 'num' or 'num/den'."""
    q = QQ(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@lru_cache(maxsize=CACHE_SIZE)
def divisors(n: int) -> tuple[int, ...]:
    """Sorted positive divisors of n >= 1."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small, large = [], []
    for a in range(1, isqrt(n) + 1):
        if n % a == 0:
            small.append(a)
            if a != n // a:
                large.append(n // a)
    return tuple(small + large[::-1])


@lru_cache(maxsize=CACHE_SIZE)
def mobius(n: int) -> int:
    """Moebius mu(n): 0 if n has a squared prime factor, else (-1)^(#primes)."""
    if n < 1:
        raise ValueError(f"mobius requires n >= 1, got {n}")
    m, factors = n, 0
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            factors += 1
        else:
            p += 1 if p == 2 else 2
    if m > 1:
        factors += 1
    return -1 if factors % 2 else 1


@lru_cache(maxsize=CACHE_SIZE)
def totient(n: int) -> int:
    """Euler phi(n) = sum over divisors a of n of mu(a) * n / a."""
    if n < 1:
        raise ValueError(f"totient requires n >= 1, got {n}")
    return sum(mobius(a) * (n // a) for a in divisors(n))


@lru_cache(maxsize=CACHE_SIZE)
def bernoulli(p: int) -> QQ:
    """Bernoulli number B_p with sum_{p>=0} B_p x^p / p! = x / (e^x - 1).

    This convention gives B_1 = -1/2 (the other common one uses +1/2);
    the power-sum polynomials in :mod:`linkchi.special` carry explicit
    (-1)^p factors that presuppose it.  Computed by the recurrence
    sum_{i=0}^{p} C(p+1, i) B_i = 0 for p >= 1.  The terms are read in
    increasing i, so each B_i finds B_0..B_{i-1} cached and the recursion
    is never deeper than two calls.
    """
    if p < 0:
        raise ValueError(f"bernoulli requires p >= 0, got {p}")
    if p == 0:
        return QQ(1)
    acc = QQ(0)
    for i in range(p):
        acc += comb(p + 1, i) * bernoulli(i)
    return -acc / (p + 1)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient; for n < 0 the generalized n(n-1)...(n-k+1)/k!."""
    if k < 0:
        raise ValueError(f"binomial requires k >= 0, got {k}")
    if n >= 0:
        return comb(n, k)
    # C(n, k) = (-1)^k C(k - n - 1, k) for negative n
    return (-1 if k % 2 else 1) * comb(k - n - 1, k)
