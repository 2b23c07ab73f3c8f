"""Counting series for 1-shell totally symmetric plane partitions and the
reduction of congruence claims about them.

The counting sequence lives on indices congruent to 0 or 1 mod 3 only (the
count vanishes elsewhere), and on indices 6n+1 it agrees with a fixed eta
quotient, here called the slice series.  reduce_claim turns a claim
"f(An+B) = 0 (mod u)" into claims about the slice series on arithmetic
progressions, which is what the verifier in the verification module consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import is_prime, prime_power
from .series import (
    INTEGERS,
    CoefficientRing,
    EtaQuotientSpec,
    TruncatedSeries,
    eta_quotient,
)


class NotReducibleError(ValueError):
    """A claim cannot be rewritten in terms of the slice series."""


@dataclass(frozen=True)
class CongruenceClaim:
    """The assertion sequence(step*n + offset) = 0 (mod modulus) for all n >= 0.

    sequence is "f" (the shell partition counts) or "gap" (the slice
    variant, which also needs alpha and p).
    """

    sequence: str
    step: int
    offset: int
    modulus: int
    alpha: int | None = None
    p: int | None = None

    def __post_init__(self):
        if self.sequence not in ("f", "gap"):
            raise ValueError(f"unknown sequence {self.sequence!r}")
        if self.step < 1:
            raise ValueError(f"step must be positive, got {self.step}")
        if not 0 <= self.offset < self.step:
            raise ValueError(f"offset {self.offset} outside [0, {self.step})")
        if self.modulus < 2:
            raise ValueError(f"modulus must be at least 2, got {self.modulus}")
        if self.sequence == "gap":
            if self.alpha is None or self.p is None:
                raise ValueError("the slice variant needs alpha and p")
        elif self.alpha is not None or self.p is not None:
            raise ValueError(f"alpha/p make no sense for sequence {self.sequence!r}")

    def describe(self) -> str:
        name = "f" if self.sequence == "f" else f"g[{self.alpha},{self.p}]"
        return f"{name}({self.step}n+{self.offset}) = 0 (mod {self.modulus})"

    def contains(self, other: CongruenceClaim) -> bool:
        """Whether other's progression lies inside this claim's, on the same sequence."""
        return (
            (self.sequence, self.alpha, self.p) == (other.sequence, other.alpha, other.p)
            and other.step % self.step == 0
            and other.offset % self.step == self.offset
        )


@dataclass(frozen=True)
class ReductionStep:
    """One residue class of the split n = 3k + residue_class.

    Either the induced indices fall in a vanishing class (outcome
    "trivially-zero") or they match the slice identity and carry a claim
    about the slice variant (outcome "verify").
    """

    residue_class: int
    step: int
    offset: int
    outcome: str
    reason: str
    g_claim: CongruenceClaim | None = None


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a bulk coefficient check."""

    name: str
    checked: int
    passed: bool
    first_violation: int | None = None
    detail: str = ""


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------


def tspp_series(order: int, ring: CoefficientRing = INTEGERS) -> TruncatedSeries:
    """Counting series of 1-shell totally symmetric plane partitions by weight.

    Expands 1 + sum_{n>=1} q^(3n-2) * prod_{i=0}^{n-2} (1 + q^(6i+3))
    incrementally: the running product is kept on the grid of multiples of 3
    and every new factor is one shifted addition.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    modulus = ring.modulus
    out = [0] * (order + 1)
    out[0] = 1
    if order < 1:
        return TruncatedSeries(ring, tuple(out))
    # slot j of the compressed arrays is the coefficient of q^(3j+1)
    lc = (order - 1) // 3 + 1
    # values at most double per factor; reducing every 16 steps keeps
    # residues below 2**20 far from the int64 limit
    small = modulus is not None and modulus <= 2**20
    acc = np.zeros(lc, dtype=np.int64 if small else object)
    prod = np.zeros_like(acc)
    prod[0] = 1
    for n in range(1, lc + 1):
        if n >= 2:
            e = 2 * n - 3
            if e < lc:
                prod[e:] = prod[e:] + prod[: lc - e]
        acc[n - 1 :] += prod[: lc - n + 1]
        if modulus is not None and n % 16 == 0:
            np.remainder(prod, modulus, out=prod)
            np.remainder(acc, modulus, out=acc)
    if modulus is not None:
        np.remainder(acc, modulus, out=acc)
    out[1::3] = acc.tolist()
    return TruncatedSeries(ring, tuple(out))


def slice_series(order: int, ring: CoefficientRing = INTEGERS) -> TruncatedSeries:
    """The eta quotient (q^2; q^2)^3 / (q; q)^2.

    Its n-th coefficient equals the shell partition count at index 6n+1,
    which check_slice_identity exercises.
    """
    return eta_quotient(EtaQuotientSpec(2, {1: -2, 2: 3}), order, ring)


def slice_variant_spec(alpha: int, p: int) -> EtaQuotientSpec:
    """Exponent vector of the slice variant for the modulus p**alpha.

    Over the divisors (1, 2, p, 2p) the exponents are
    (p**alpha - 2, 3, -p**(alpha-1), 0).  For p = 2 the divisors 2 and p
    coincide and the two exponents merge onto level 4.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be at least 1, got {alpha}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p == 2:
        return EtaQuotientSpec(4, {1: 2**alpha - 2, 2: 3 - 2 ** (alpha - 1), 4: 0})
    return EtaQuotientSpec(2 * p, {1: p**alpha - 2, 2: 3, p: -(p ** (alpha - 1)), 2 * p: 0})


def slice_variant_series(alpha: int, p: int, order: int, ring: CoefficientRing = INTEGERS) -> TruncatedSeries:
    """Expansion of the slice variant; congruent to slice_series mod p**alpha."""
    return eta_quotient(slice_variant_spec(alpha, p), order, ring)


# ---------------------------------------------------------------------------
# sanity checks on the generating functions
# ---------------------------------------------------------------------------


def check_support(order: int) -> CheckReport:
    """Assert that the count vanishes on indices congruent to 0 or 2 mod 3.

    Runs in exact arithmetic.  A counterexample is reported, not raised.
    """
    f = tspp_series(order, INTEGERS)
    checked = 0
    for n in range(1, order + 1):
        if n % 3 == 1:
            continue
        checked += 1
        if f[n] != 0:
            return CheckReport(
                "support", checked, False, n, f"count at index {n} is {f[n]}, expected 0"
            )
    return CheckReport("support", checked, True, None, f"indices 1..{order}")


def check_slice_identity(order: int) -> CheckReport:
    """Assert count(6n+1) equals the slice series coefficient, exactly."""
    f = tspp_series(order, INTEGERS)
    top = (order - 1) // 6 if order >= 1 else -1
    checked = 0
    if top >= 0:
        g = slice_series(top, INTEGERS)
        for n in range(top + 1):
            checked += 1
            if f[6 * n + 1] != g[n]:
                return CheckReport(
                    "slice-identity",
                    checked,
                    False,
                    6 * n + 1,
                    f"count({6 * n + 1}) = {f[6 * n + 1]} but slice({n}) = {g[n]}",
                )
    return CheckReport("slice-identity", checked, True, None, f"n <= {top}")


# ---------------------------------------------------------------------------
# claim reduction
# ---------------------------------------------------------------------------


def reduce_claim(claim: CongruenceClaim) -> tuple[ReductionStep, ...]:
    """Split an "f" claim along n mod 3 and rewrite it in slice-variant terms.

    Classes whose indices land on the vanishing support are closed outright.
    A remaining class must have indices of the shape 6(mk+t)+1; it then
    yields the claim "g[alpha,p](mk+t) = 0 (mod u)" with p**alpha = u.
    Anything else cannot be handled and raises NotReducibleError.
    """
    if claim.sequence != "f":
        raise ValueError(f"can only reduce claims about the counting sequence, got {claim.sequence!r}")
    pp = prime_power(claim.modulus)
    if pp is None:
        raise NotReducibleError(f"modulus {claim.modulus} is not a prime power")
    p, alpha = pp
    big_step = 3 * claim.step
    steps = []
    for r3 in (0, 1, 2):
        b = claim.step * r3 + claim.offset
        if b % 3 != 1:
            steps.append(
                ReductionStep(
                    r3,
                    big_step,
                    b,
                    "trivially-zero",
                    f"indices are {b % 3} (mod 3), where the count vanishes",
                )
            )
            continue
        if b % 6 != 1:
            raise NotReducibleError(
                f"class n = 3k+{r3}: indices are 4 (mod 6), not covered by the slice identity"
            )
        if big_step % 6 != 0:
            raise NotReducibleError(
                f"class n = 3k+{r3}: induced step {big_step} is not divisible by 6"
            )
        m = big_step // 6
        t = (b - 1) // 6
        g_claim = CongruenceClaim("gap", m, t, claim.modulus, alpha=alpha, p=p)
        steps.append(
            ReductionStep(
                r3,
                big_step,
                b,
                "verify",
                f"indices are 6({m}k+{t})+1, matching the slice identity",
                g_claim,
            )
        )
    return tuple(steps)
