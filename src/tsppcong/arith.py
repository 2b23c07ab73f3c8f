"""Small integer helpers shared across the package, and the one rule for
integer arguments: an int other than a bool, never coerced."""

from __future__ import annotations


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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return factorize(n) == [(n, 1)]


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, alpha) with p**alpha == n, or None if n is not a prime power."""
    if n < 2:
        return None
    fac = factorize(n)
    if len(fac) != 1:
        return None
    return fac[0]
