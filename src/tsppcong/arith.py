"""Small integer helpers shared across the package, and the one rule for
integer arguments: an int other than a bool, never coerced.

prime_power is the one test of whether a modulus is p**alpha, and for
which p; it stops at the least prime factor, so a modulus is never
factored.  factorize, divisors and prime_factors serve the verifier's small
numbers (m, 24m, the level N)."""

from __future__ import annotations

from math import isqrt


def is_int(value) -> bool:
    """Whether value is an int other than a bool; a float, a string or a
    numpy integer is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_int(value, name: str, low: int | None = None) -> int:
    """Return value unchanged if it is an int (is_int) of at least low, when
    low is given; otherwise raise ValueError naming the parameter."""
    if is_int(value) and (low is None or value >= low):
        return value
    least = "" if low is None else f" of at least {low}"
    raise ValueError(f"{name} must be an integer{least}, got {value!r}")


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**j for d in out for j in range(e + 1)]
    return sorted(out)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, ascending."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    return [p for p, _ in factorize(n)]


def prime_power(n: int, top: int | None = None) -> tuple[int, int] | None:
    """(p, alpha) with p**alpha == n for a prime p, else None; also None
    when top is given and p > top.

    p is the first d = 2, 3, ... that divides n, tried only up to isqrt(n),
    or up to top when that is smaller; if none does, p is n itself.  n is
    then checked to be a power of p, so it is never factored past its least
    prime factor.
    """
    if n < 2:
        return None
    limit = isqrt(n) if top is None else min(isqrt(n), top)
    p = next((d for d in range(2, limit + 1) if n % d == 0), n)
    if top is not None and p > top:
        return None
    alpha = 0
    while n % p == 0:
        n, alpha = n // p, alpha + 1
    return (p, alpha) if n == 1 else None
