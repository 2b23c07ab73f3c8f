"""The integer helpers against brute force: trial by every candidate."""

import pytest

from tsppcong.arith import divisors, factorize, prime_factors, prime_power

LIMIT = 2_000


def brute_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, n))


PRIMES = [p for p in range(2, LIMIT + 1) if brute_is_prime(p)]
PRIME_POWERS = {p**a: (p, a) for p in PRIMES for a in range(1, LIMIT.bit_length()) if p**a <= LIMIT}


def valuation(n, p):
    e = 0
    while n % p**(e + 1) == 0:
        e += 1
    return e


def test_against_brute_force():
    for n in range(1, LIMIT + 1):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n
        fac = [(p, valuation(n, p)) for p in PRIMES if n % p == 0]
        assert factorize(n) == fac, n
        assert prime_factors(n) == [p for p, _ in fac], n
        assert (prime_power(n) == (n, 1)) == brute_is_prime(n), n
        assert prime_power(n) == PRIME_POWERS.get(n), n


@pytest.mark.parametrize("n", [0, -1, -12])
def test_refusals_below_one(n):
    for helper in (divisors, factorize, prime_factors):
        with pytest.raises(ValueError):
            helper(n)
    assert (prime_power(n) == (n, 1)) == brute_is_prime(n)
    assert prime_power(n) is None


def test_prime_power_with_a_bound_on_the_prime():
    # with top, a prime power whose prime exceeds top is refused like any
    # other n, and top below 2 refuses every n
    for top in (None, -1, 0, 1, 2, 3, 10, 50):
        for n in range(-3, LIMIT + 1):
            expected = PRIME_POWERS.get(n)
            if expected and top is not None and expected[0] > top:
                expected = None
            assert prime_power(n, top) == expected, (n, top)
