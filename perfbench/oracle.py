"""Reference values for the sweep's correctness gate, computed without the
package under test.

The counting series is f(q) = 1 + sum_{n>=1} q^(3n-2) prod_{i=0}^{n-2} (1 + q^(6i+3)).
With y = q^3 the non-constant part is q * F(y), where

    F(y) = sum_{j>=0} y^j prod_{i<j} (1 + y^(2i+1))
         = 1 + y (1 + y) (1 + y (1 + y^3) (1 + y (1 + y^5) (...)))

This module evaluates the nested form from the inside out (the package
accumulates the sum from the outside in), modulo the product of every
modulus the sweep draws, so one table serves every claim.  It also decides,
for each sweep claim, what Radu's finite check must conclude (finite_check),
from the criterion itself in exact integer and fraction arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import floor, gcd

import numpy as np

# 5^2 * 7^2 * 11 * 13: every modulus p^alpha the sweep can draw divides it
SWEEP_MODULUS = 25 * 49 * 11 * 13


def counting_series_mod(top: int, modulus: int = SWEEP_MODULUS) -> list[int]:
    """f(0..top) reduced modulo `modulus`, as a list of Python ints."""
    if top < 0:
        raise ValueError(f"top must be nonnegative, got {top}")
    # F is needed through y^D with 3D + 1 <= top
    D = (top - 1) // 3 if top >= 1 else -1
    out = [0] * (top + 1)
    out[0] = 1 % modulus
    if D < 0:
        return out
    # G_j = 1 + y G_{j+1} + y^(2j+2) G_{j+1}, F = G_0; G_j is only needed
    # through degree D - j because it enters F multiplied by y^j
    cur = np.zeros(D + 1, dtype=np.int64)
    nxt = np.zeros(D + 1, dtype=np.int64)
    cur[0] = 1
    for j in range(D, -1, -1):
        n = D - j + 1
        nxt[0] = 1
        nxt[1:n] = cur[: n - 1]
        shift = 2 * j + 2
        if shift < n:
            nxt[shift:n] += cur[: n - shift]
        cur, nxt = nxt, cur
        if j % 32 == 0:
            # each step at most doubles the largest entry plus one, so 32
            # steps stay far below the int64 limit for this modulus
            np.remainder(cur[:n], modulus, out=cur[:n])
    np.remainder(cur, modulus, out=cur)
    for j, c in enumerate(cur.tolist()):
        out[3 * j + 1] = c
    return out


def counting_series_brute(top: int) -> list[int]:
    """f(0..top) exactly, by multiplying out the definition term by term."""
    out = [0] * (top + 1)
    out[0] = 1
    n = 1
    while 3 * n - 2 <= top:
        prod = [1] + [0] * top
        for i in range(n - 1):
            e = 6 * i + 3
            for k in range(top, e - 1, -1):
                prod[k] += prod[k - e]
        shift = 3 * n - 2
        for k in range(top - shift + 1):
            out[shift + k] += prod[k]
        n += 1
    return out


# ---------------------------------------------------------------------------
# the finite check for the sweep's claims, decided from the criterion
# ---------------------------------------------------------------------------
#
# A sweep claim f(A n + B) = 0 (mod p^alpha) splits along n mod 3.  A class
# n = 3j + s whose indices A s + B are 1 (mod 6) becomes the claim that the
# slice variant g, the eta quotient with exponents (p^alpha - 2, 3,
# -p^(alpha-1)) over the divisors (1, 2, p), vanishes mod p^alpha at the
# indices m j + t, with m = A/2 and t = (A s + B - 1)/6.  Its coefficient at i
# is f(6i + 1) mod p^alpha.  The verifier then decides, in this order: five
# admissibility conditions on (m, N, t, r), a nonnegative order at every
# cusp (1 0; c 1), c | N, and zero coefficients at m n + t' for every t' in
# the orbit of t and every n up to the floor of the bound v.


def _primes(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + ([n] if n > 1 else [])


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def _unit_squares(modulus: int) -> tuple[int, ...]:
    return tuple(sorted({x * x % modulus for x in range(1, modulus) if gcd(x, modulus) == 1}))


@lru_cache(maxsize=None)
def _eta_cusp_orders(m: int, N: int, r: tuple) -> tuple[Fraction, ...]:
    """For each c | N: the least over lambda in [0, m) of
    (1/24) sum_d r_d gcd(d (1 + kappa lambda c), m c)^2 / (d m)."""
    kap = gcd(m * m - 1, 24)
    return tuple(
        min(sum(Fraction(rd * gcd(d * (1 + kap * lam * c), m * c) ** 2, 24 * d * m) for d, rd in r)
            for lam in range(m))
        for c in _divisors(N)
    )


def finite_check(A: int, B: int, p: int, alpha: int, k_prime: int, f_table: list[int]) -> list[dict]:
    """What the verifier must certify for each verified class of the claim
    f(A n + B) = 0 (mod p^alpha) with group level N = 2p and r' = {1: k'},
    in the order of the classes.  Each entry gives m, t, the orbit, whether
    the admissibility conditions and the cusp orders hold, the floor of v,
    the first nonzero coefficient on each orbit member (None when all vanish)
    and `stop`: the first check that fails, or None."""
    u, N, m = p**alpha, 2 * p, A // 2
    r = ((1, u - 2), (2, 3), (p, -(p ** (alpha - 1))))
    r_sum = sum(rd for _, rd in r)
    w = sum(d * rd for d, rd in r)
    kap = gcd(m * m - 1, 24)
    out = []
    for s in range(3):
        b = A * s + B
        if b % 3 != 1:
            continue
        t = (b - 1) // 6
        orbit = sorted({(t * sq + (sq - 1) // 24 * w) % m for sq in _unit_squares(24 * m)})
        weighted = kap * N * sum(Fraction(rd * m * N, d) for d, rd in r)
        admissible = (
            all(N % q == 0 for q in _primes(m))
            and all(m * N % d == 0 for d, _ in r)
            and weighted.denominator == 1 and weighted.numerator % 24 == 0
            and kap * N * r_sum % 8 == 0
            and N % (24 * m // gcd(kap * (-24 * t - w), 24 * m)) == 0
        )
        # r' = {1: k'} has order k'/24 at every cusp
        cusp_ok = all(e + Fraction(k_prime, 24) >= 0 for e in _eta_cusp_orders(m, N, r))
        # v = ((sum r + sum r') [SL2(Z) : Gamma0(N)] - sum d r'_d) / 24
        #     - sum d r_d / (24 m) - (least orbit member) / m
        index = N
        for q in _primes(N):
            index = index // q * (q + 1)
        v = Fraction((r_sum + k_prime) * index - k_prime, 24) - Fraction(w, 24 * m) - Fraction(orbit[0], m)
        v_floor = floor(v)
        violations = []
        if admissible and cusp_ok:
            for tp in orbit:
                indices = (m * n + tp for n in range(v_floor + 1))
                violations.append(next((i for i in indices if f_table[6 * i + 1] % u), None))
        if not admissible:
            stop = "admissibility"
        elif not cusp_ok:
            stop = "cusp"
        elif any(i is not None for i in violations):
            stop = "coefficient"
        else:
            stop = None
        out.append({"m": m, "t": t, "orbit": orbit, "admissible": admissible, "cusp_ok": cusp_ok,
                    "bound_floor": v_floor, "violations": violations, "stop": stop})
    return out
