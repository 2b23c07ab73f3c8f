"""Counting series for 1-shell totally symmetric plane partitions and the
reduction of congruence claims about them.

Past f(0) = 1 the counting sequence lives on indices congruent to 1 mod 3
only (it vanishes on indices congruent to 0 or 2 mod 3), and on indices 6n+1
it agrees with a fixed eta quotient, here called the slice series.
reduce_claim turns a CongruenceClaim "f(An+B) = 0 (mod u)" into SliceClaims
about the slice variant on arithmetic progressions, which is what the
verifier in the verification module consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import is_prime, prime_power
from .series import (
    INTEGERS,
    CoefficientRing,
    EtaQuotientSpec,
    TruncatedSeries,
    _is_int,
    array_dtype,
    eta_quotient,
)


class NotReducibleError(ValueError):
    """A claim cannot be rewritten in terms of the slice series."""


@dataclass(frozen=True)
class CongruenceClaim:
    """The assertion f(step*n + offset) = 0 (mod modulus) for all n >= 0.

    sequence must be "f", the shell partition counts; reduce_claim rewrites
    such a claim into SliceClaims about the slice variant.  The step, offset
    and modulus must be ints other than bools; nothing is coerced.
    """

    sequence: str
    step: int
    offset: int
    modulus: int

    def __post_init__(self):
        if self.sequence != "f":
            raise ValueError(f"unknown sequence {self.sequence!r}: a claim's sequence must be 'f'")
        bad = [x for x in (self.step, self.offset, self.modulus) if not _is_int(x)]
        if bad:
            raise ValueError(f"every step, offset and modulus must be an integer, got {bad[0]!r}")
        if self.step < 1:
            raise ValueError(f"step must be positive, got {self.step}")
        if not 0 <= self.offset < self.step:
            raise ValueError(f"offset {self.offset} outside [0, {self.step})")
        if self.modulus < 2:
            raise ValueError(f"modulus must be at least 2, got {self.modulus}")

    def describe(self) -> str:
        return f"f({self.step}n+{self.offset}) = 0 (mod {self.modulus})"

    def contains(self, other: CongruenceClaim) -> bool:
        """Whether other's progression lies inside this claim's."""
        return other.step % self.step == 0 and other.offset % self.step == self.offset


@dataclass(frozen=True)
class SliceClaim:
    """The assertion g[alpha,p](step*n + offset) = 0 (mod p**alpha), as
    reduce_claim emits it for the verifier."""

    step: int
    offset: int
    alpha: int
    p: int

    @property
    def modulus(self) -> int:
        return self.p**self.alpha


@dataclass(frozen=True)
class ReductionStep:
    """One residue class of the split n = 3k + residue_class.

    Either the induced indices fall in a vanishing class (outcome
    "trivially-zero") or they match the slice identity and carry a
    SliceClaim about the slice variant (outcome "verify").
    """

    residue_class: int
    step: int
    offset: int
    reason: str
    g_claim: SliceClaim | None = None

    @property
    def outcome(self) -> str:
        return "trivially-zero" if self.g_claim is None else "verify"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a bulk coefficient check; it passed when no index
    violated it."""

    name: str
    checked: int
    first_violation: int | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.first_violation is None


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------


def tspp_series(order: int, ring: CoefficientRing = INTEGERS) -> TruncatedSeries:
    """Counting series of 1-shell totally symmetric plane partitions by weight.

    Expands 1 + sum_{n>=1} q^(3n-2) * prod_{i=0}^{n-2} (1 + q^(6i+3)).  One
    array holds the coefficients of q^(3j+1), which in x = q^3 form
    U_0 = sum_n x^n (-x; x^2)_n.  Since (-x; x^2)_n = sum_j x^(j^2) [n, j]
    in x^2-binomials, and sum_{n>=j} [n, j]_Q t^n = t^j / (t; Q)_(j+1)
    (Andrews, The Theory of Partitions, ch. 3),

        U_0 = sum_{j>=0} x^(j(j+1)) T_j,   T_j = 1 / prod_{i=0}^{j} (1 - x^(2i+1)).

    T_0 is all ones and T_j = T_(j-1) / (1 - x^(2j+1)) is one cumulative
    sum down the columns of a (rows, 2j+1) view, taken over the first
    lc - j(j+1) slots that the sum reads from offset j(j+1); so about
    sqrt(lc) steps expand lc slots.  Over Z/u each T_j is reduced and the
    total once at the end: a column sums at most lc residues and the total
    at most lc + 1, so u * (lc + 1) picks the array's dtype.
    """
    if not _is_int(order) or order < 0:
        raise ValueError(f"order must be a nonnegative integer, got {order!r}")
    u = ring.modulus
    lc = (order + 2) // 3
    dtype = array_dtype(None if u is None else u * (lc + 1))
    total = np.ones(lc, dtype=dtype)
    term = np.ones(lc, dtype=dtype)
    j = 1
    while (start := j * (j + 1)) < lc:
        # rows * (2j+1) <= lc - j(j-1), the slots on which T_(j-1) is known
        width = 2 * j + 1
        rows = -(-(lc - start) // width)
        block = term[: rows * width].reshape(rows, width)
        np.cumsum(block, axis=0, dtype=dtype, out=block)
        if u is not None:
            np.remainder(block, u, out=block)
        total[start:] += term[: lc - start]
        j += 1
    if u is not None:
        np.remainder(total, u, out=total)
    out = [1] + [0] * order
    out[1::3] = total.tolist()
    return TruncatedSeries(ring, tuple(out))


def slice_series(order: int, ring: CoefficientRing = INTEGERS) -> TruncatedSeries:
    """The eta quotient (q^2; q^2)^3 / (q; q)^2.

    Its n-th coefficient equals the shell partition count at index 6n+1,
    which check_slice_identity exercises.
    """
    return eta_quotient(EtaQuotientSpec(2, {1: -2, 2: 3}), order, ring)


@lru_cache(maxsize=64, typed=True)
def slice_variant_spec(alpha: int, p: int) -> EtaQuotientSpec:
    """Exponent vector of the slice variant for the modulus p**alpha.

    Over the divisors (1, 2, p, 2p) the exponents are
    (p**alpha - 2, 3, -p**(alpha-1), 0).  For p = 2 the divisors 2 and p
    coincide and the two exponents merge onto level 4.  The spec is
    immutable, so one is built per (alpha, p) and shared: each proof builds
    it once for the verifier and once more to check each certificate.
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
    f = tspp_series(order, INTEGERS).coeffs
    checked = 0
    for n in range(1, order + 1):
        if n % 3 == 1:
            continue
        checked += 1
        if f[n] != 0:
            return CheckReport("support", checked, n, f"count at index {n} is {f[n]}, expected 0")
    return CheckReport("support", checked, None, f"indices 1..{order}")


def check_slice_identity(order: int) -> CheckReport:
    """Assert count(6n+1) equals the slice series coefficient, exactly."""
    f = tspp_series(order, INTEGERS).coeffs
    top = (order - 1) // 6 if order >= 1 else -1
    checked = 0
    if top >= 0:
        g = slice_series(top, INTEGERS).coeffs
        for n, (count, slice_n) in enumerate(zip(f[1::6], g)):
            checked += 1
            if count != slice_n:
                return CheckReport(
                    "slice-identity",
                    checked,
                    6 * n + 1,
                    f"count({6 * n + 1}) = {count} but slice({n}) = {slice_n}",
                )
    return CheckReport("slice-identity", checked, None, f"n <= {top}")


# ---------------------------------------------------------------------------
# claim reduction
# ---------------------------------------------------------------------------


def reduce_claim(claim: CongruenceClaim) -> tuple[ReductionStep, ...]:
    """Split a claim along n mod 3 and rewrite it in slice-variant terms.

    Classes whose indices land on the vanishing support, the indices n >= 1
    with n != 1 (mod 3), are closed outright; a class that starts at index
    0, where f(0) = 1, cannot be.  A remaining class must have indices of
    the shape 6(mk+t)+1; it then yields the SliceClaim
    "g[alpha,p](mk+t) = 0 (mod u)" with p**alpha = u.  Anything else cannot
    be handled and raises NotReducibleError.
    """
    pp = prime_power(claim.modulus)
    if pp is None:
        raise NotReducibleError(f"modulus {claim.modulus} is not a prime power")
    p, alpha = pp
    big_step = 3 * claim.step
    steps = []
    for r3 in (0, 1, 2):
        b = claim.step * r3 + claim.offset
        if b == 0:
            raise NotReducibleError(f"class n = 3k+{r3}: the progression contains index 0, and f(0) = 1")
        if b % 3 != 1:
            steps.append(
                ReductionStep(r3, big_step, b, f"indices are {b % 3} (mod 3), where the count vanishes")
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
        steps.append(
            ReductionStep(
                r3,
                big_step,
                b,
                f"indices are 6({m}k+{t})+1, matching the slice identity",
                SliceClaim(m, t, alpha, p),
            )
        )
    return tuple(steps)
