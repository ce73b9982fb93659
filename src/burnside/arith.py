"""Small integer helpers used across the package."""

from __future__ import annotations

from math import log


def _least_prime_factor(n: int, start: int = 3) -> int:
    """The least prime dividing n >= 2 (n itself if prime); odd trial divisors
    start at ``start``, which must not exceed the least odd prime factor of n."""
    if n % 2 == 0:
        return 2
    d = start
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and _least_prime_factor(n) == n


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p**k and k >= 1, or None if n is not a prime power.

    k is read off the size of n, as the integer nearest log_p(n), and checked."""
    if n < 2:
        return None
    p = _least_prime_factor(n)
    k = round(log(n, p))
    return (p, k) if p**k == n else None


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs in ascending prime order."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: list[tuple[int, int]] = []
    p = 3
    while n > 1:
        p = _least_prime_factor(n, max(p, 3))
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        out.append((p, k))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order."""
    if n < 1:
        raise ValueError(f"divisors of {n} undefined")
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as tuples in weakly decreasing order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(largest, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return out
