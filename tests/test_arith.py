"""The parser's integer arithmetic against brute force.

``is_prime``, ``prime_power`` and ``factorize`` share one least-prime-factor
search, and ``prime_power`` reads the exponent off the size of n, so the
checks cover every n below 20000 and, for large k, the numbers p**k,
p**k + 1 and p**k * q, where dividing out one factor at a time was slow.
Primes below 3317044064679887385961981 are found by Miller-Rabin, so
strong pseudoprimes to many of its bases are checked too. ``totient``,
read off ``factorize``, is checked against counting the residues prime
to n for every n below 2000.
"""

from __future__ import annotations

import time
from math import gcd

import pytest

from burnside.arith import factorize, is_prime, prime_power, totient
from burnside.catalog import GroupSpec, SpecParseError, parse_group_spec


def _brute_factorize(n: int) -> list[tuple[int, int]]:
    """Plain trial division by every d up to the square root of what is left."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1
    return out + [(n, 1)] * (n > 1)


def test_small_numbers_match_brute_force():
    assert factorize(1) == [] and prime_power(1) is None and not is_prime(1)
    for n in range(2, 20000):
        factors = _brute_factorize(n)
        assert factorize(n) == factors
        assert is_prime(n) == (factors == [(n, 1)])
        assert prime_power(n) == (factors[0] if len(factors) == 1 else None)


def test_totient_counts_the_residues_prime_to_n():
    for n in range(1, 2000):
        assert totient(n) == sum(gcd(k, n) == 1 for k in range(1, n + 1)), n


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
@pytest.mark.parametrize("k", [2, 63, 64, 1001, 5003])
def test_large_powers_match_brute_force(p, k):
    n = p**k
    assert prime_power(n) == (p, k)
    assert factorize(n) == [(p, k)]
    assert not is_prime(n)
    # p**k + 1 is even for odd p and divisible by 3 for p = 2 and odd k;
    # dividing that factor out leaves a cofactor above 1, so it is neither
    # a prime nor a prime power
    if p % 2 or k % 2:
        plus = n + 1
        f = 2 if p % 2 else 3
        rest = plus
        while rest % f == 0:
            rest //= f
        assert rest < plus and rest > 1
        assert prime_power(plus) is None
        assert not is_prime(plus)
    for q in (2, 3, 11, 10007):
        if q != p:
            assert prime_power(n * q) is None
            assert factorize(n * q) == sorted([(p, k), (q, 1)])


def test_huge_cyclic_power_parses_quickly():
    start = time.perf_counter()
    assert parse_group_spec("C(2^100000)xC1") == GroupSpec("cyclic", (2, 100000))
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "n", [3215031751, 3825123056546413051, 318665857834031151167461]
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    """Strong pseudoprimes to the first 4, 11 and 12 prime bases."""
    assert not is_prime(n)


def test_large_prime_literal_parses_quickly_without_a_cap():
    start = time.perf_counter()
    assert parse_group_spec("C100000000000031") == GroupSpec("cyclic", (100000000000031, 1))
    assert time.perf_counter() - start < 0.5


def test_trial_division_stops_past_its_bound():
    """A number with no prime factor up to 2^20 that Miller-Rabin does not
    prove prime is given up on, not trial-divided for hours: the literal
    factors as 399165290221 * 798330580441. Below the bound it factors."""
    start = time.perf_counter()
    with pytest.raises(SpecParseError, match="no prime factor up to 2\\^20"):
        parse_group_spec("C318665857834031151167461")
    for n in (318665857834031151167461, 2**89 - 1):
        with pytest.raises(ValueError):
            prime_power(n)
        with pytest.raises(ValueError):
            factorize(n)
    assert time.perf_counter() - start < 2
    assert factorize(1048573 * 1048571 * 3) == [(3, 1), (1048571, 1), (1048573, 1)]
    assert prime_power(1048573**2) == (1048573, 2)
