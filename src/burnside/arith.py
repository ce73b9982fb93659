"""Small integer helpers used across the package: primality, prime powers
and factorization for the spec parser and the solvability test, the
divisors of a group order or of an exponent, and the partitions that
list the abelian catalog types. ``divisors`` and ``partitions`` follow
their definitions, as their inputs are small."""

from __future__ import annotations

from itertools import accumulate
from math import isqrt, log


# Miller-Rabin to the first 13 prime bases is exact below _MR_BOUND
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981
# trial division stops at this divisor, so no number takes longer than
# 2**19 trial divisions to factor or to be given up on
_TRIAL_BOUND = 2**20


def _least_prime_factor(n: int, start: int = 3) -> int:
    """The least prime dividing n >= 2 (n itself if prime, found at once
    below _MR_BOUND); odd trial divisors start at ``start``, which must not
    exceed the least odd prime factor of n. A number above _TRIAL_BOUND**2
    with no prime factor up to _TRIAL_BOUND raises ValueError."""
    if n % 2 == 0:
        return 2
    if n < _MR_BOUND and is_prime(n):
        return n
    for d in range(start, min(isqrt(n), _TRIAL_BOUND) + 1, 2):
        if n % d == 0:
            return d
    if n > _TRIAL_BOUND**2:
        raise ValueError(
            f"cannot factor a {n.bit_length()}-bit number with no prime factor up to 2^20"
        )
    return n


def is_prime(n: int) -> bool:
    """Exact: by Miller-Rabin below _MR_BOUND, by trial division above it
    (ValueError if that finds no factor up to _TRIAL_BOUND)."""
    if n >= _MR_BOUND:
        return _least_prime_factor(n) == n
    if n < 2 or n % 2 == 0 or n in _MR_BASES:
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        # n is a strong probable prime to base a iff x = a^d is 1 or one of
        # x, x^2, ..., x^(2^(s-1)) is -1
        x = pow(a, d, n)
        if x != 1 and n - 1 not in accumulate(range(s - 1), lambda y, _: y * y % n, initial=x):
            return False
    return True


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
    """All positive divisors of n in ascending order, by trying every d up
    to n: each caller passes a divisor of a group order, and the group's
    multiplication table alone already holds n**2 entries."""
    if n < 1:
        raise ValueError(f"divisors of {n} undefined")
    return [d for d in range(1, n + 1) if n % d == 0]


def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as tuples in weakly decreasing order, the largest
    first part first."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out: list[tuple[int, ...]] = []
    _extend_partitions(out, n, n, ())
    return out


def _extend_partitions(
    out: list[tuple[int, ...]], remaining: int, largest: int, prefix: tuple[int, ...]
) -> None:
    """Append to ``out`` every partition of ``remaining`` into parts of at
    most ``largest``, each after ``prefix``, the largest first part first."""
    if remaining == 0:
        out.append(prefix)
    for part in range(min(largest, remaining), 0, -1):
        _extend_partitions(out, remaining - part, part, prefix + (part,))
