"""Counting series for 1-shell totally symmetric plane partitions and the
reduction of congruence claims about them.

A 1-shell totally symmetric plane partition is read here as a finite
S3-invariant order ideal of {1, 2, ...}^3 every cell of which has a
coordinate equal to 1, and f(n) counts those of n cells.  The generating
function is 1 + sum_{n>=1} q^(3n-2) prod_{i=0}^{n-2} (1 + q^(6i+3)), due
to A. Blecher (Utilitas Math. 88, 2012; definition and source to confirm).
Bijection: the cells with first coordinate 1 form a self-conjugate
partition lambda with lambda_1 = n, and the object is the union of
lambda's three images on the coordinate faces, so it has
3|lambda| - 3n + 1 cells (inclusion-exclusion over the n cells of each
axis).  lambda's diagonal hooks are distinct odd numbers, the largest
2n - 1 and the others any subset of {2i + 1 : i <= n - 2}, so the weight
is 3n - 2 + sum (6i + 3) over that subset; the empty object gives the 1.
tests/oracles.shell_tspp_counts enumerates the objects themselves.

Past f(0) = 1 the counting sequence lives on indices congruent to 1 mod 3
only (it vanishes on indices congruent to 0 or 2 mod 3), and on indices 6n+1
it agrees with a fixed eta quotient, here called the slice series.

In x = q^3, sum_n f(3n+1) x^n = nu(-x), where nu(q) = sum_n q^(n(n+1)) /
(-q; q^2)_(n+1) is one of Ramanujan's third-order mock theta functions.
Its 2-dissection nu(-q) = (q^4;q^4)^3 / (q^2;q^2)^2 + q*omega(q^2) splits
the indices: 6n+1 carry the slice series, and 6n+4 carry the mock theta
function omega(q) = sum_n q^(2n(n+1)) / (q; q^2)_(n+1)^2, which is not an
eta quotient.  Sources, to confirm: N. J. Fine, Basic Hypergeometric Series
and Applications (AMS, 1988); G. E. Andrews and B. C. Berndt, Ramanujan's
Lost Notebook, Part II (Springer, 2009).

check_slice_identity tests that agreement exactly without inverting
anything: with A the read slice f(6n+1) and B = (q^2;q^2)^3, whose terms
Jacobi's identity gives, it forms C = A*(q;q)^2 by two pentagonal passes
and compares C with B.  Since (q;q)^2 = 1 + O(q), A agrees with the slice
series B/(q;q)^2 below k exactly when C agrees with B there, and then
C_k - B_k = A_k - G_k for G the slice series.

tspp_series returns one progression f(step*n + offset) of the counting
series, read off one memoized expansion per order and ring, so checks that
read different progressions of one expansion share its kernel run.

reduce_claim turns a CongruenceClaim "f(An+B) = 0 (mod u)" into SliceClaims
about the slice variant on arithmetic progressions, which is what the
verifier in the verification module consumes.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import prime_power, require_int
from .series import (
    INTEGERS,
    CoefficientRing,
    EtaQuotientSpec,
    TruncatedSeries,
    _require_progression,
    _sparse_passes,
    _staircase,
    eta_quotient,
    jacobi_terms,
    pentagonal_terms,
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
        require_int(self.step, "step", 1)
        require_int(self.offset, "offset")
        if not 0 <= self.offset < self.step:
            raise ValueError(f"offset {self.offset} outside [0, {self.step})")
        require_int(self.modulus, "modulus", 2)

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


def scan(pairs: Iterable[tuple[int, bool]]) -> tuple[int, int | None]:
    """Read (index, holds) pairs in order up to the first that does not hold.

    Returns the number of pairs read, the failing one included, and the
    failing pair's index, or None when every pair held: a CheckReport's
    checked and first_violation.  Nothing past the first failure is read.
    """
    checked = 0
    for index, holds in pairs:
        checked += 1
        if not holds:
            return checked, index
    return checked, None


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------


def tspp_series(order: int, ring: CoefficientRing = INTEGERS, step: int = 1, offset: int = 0) -> TruncatedSeries:
    """Counting series of 1-shell totally symmetric plane partitions by
    weight, through q**order, as the series whose n-th coefficient is
    f(step*n + offset).

    The defaults step=1, offset=0 give the whole series; step, offset and
    their refusals are those of series.eta_quotient.  The kernel's slots are
    computed once per order and ring (a memo) and laid into one array, of
    which only the progression becomes Python ints.
    """
    _require_progression(order, step, offset)
    slots = _slots(order, ring.modulus)
    out = np.zeros(order + 1, dtype=slots.dtype)
    out[0] = 1
    out[1::3] = slots
    return TruncatedSeries(ring, tuple(out[offset::step].tolist()))


@lru_cache(maxsize=4)
def _slots(order: int, u: int | None) -> np.ndarray:
    """The coefficients of q^(3j+1), j < lc = (order + 2) // 3, in
    1 + sum_{n>=1} q^(3n-2) * prod_{i=0}^{n-2} (1 + q^(6i+3)), exactly or
    mod u, as one read-only array; the other coefficients past q^0 vanish.

    In x = q^3 they form U_0 = sum_n x^n (-x; x^2)_n.  Since
    (-x; x^2)_n = sum_j x^(j^2) [n, j] in x^2-binomials, and
    sum_{n>=j} [n, j]_Q t^n = t^j / (t; Q)_(j+1) (Andrews, The Theory of
    Partitions, ch. 3),

        U_0 = sum_{j>=0} x^(j(j+1)) T_j,   T_j = 1 / prod_{i=0}^{j} (1 - x^(2i+1)).

    That is U_0 = nu(-x) for the mock theta function nu, whose 2-dissection
    nu(-q) = (q^4;q^4)^3 / (q^2;q^2)^2 + q*omega(q^2) is in Fine (1988) and
    in Andrews and Berndt, Lost Notebook II (sources to confirm; see the
    module docstring).

    T_0 is all ones and T_j = T_(j-1) / (1 - x^(2j+1)) is one cumulative
    sum down the columns of a (rows, 2j+1) view, taken over the first
    lc - j(j+1) slots that the sum reads from offset j(j+1): one
    series._staircase with s_j = j(j+1), w_j = 2j+1 and t = 1, so about
    sqrt(lc) steps expand lc slots.  Over Z/u it reduces each T_j and the
    total by series.reduce_mod, in the dtype that u * (lc + 1) picks.
    """
    total = _staircase(np.ones((order + 2) // 3, dtype=np.int8), lambda j: (j * (j + 1), 2 * j + 1), 1, u)
    total.flags.writeable = False
    return total


# the slice series (q^2; q^2)^3 / (q; q)^2
SLICE_SPEC = EtaQuotientSpec(2, {1: -2, 2: 3})


def slice_series(order: int, ring: CoefficientRing = INTEGERS) -> TruncatedSeries:
    """The eta quotient SLICE_SPEC, (q^2; q^2)^3 / (q; q)^2.

    Its n-th coefficient equals the shell partition count at index 6n+1,
    which check_slice_identity tests without expanding it.
    """
    return eta_quotient(SLICE_SPEC, order, ring)


def slice_variant_spec(alpha: int, p: int) -> EtaQuotientSpec:
    """Exponent vector of the slice variant for the modulus p**alpha.

    Over the divisors (1, 2, p, 2p) the exponents are
    (p**alpha - 2, 3, -p**(alpha-1), 0).  For p = 2 the divisors 2 and p
    coincide and the two exponents merge onto level 4.  The spec is
    immutable, so one is built per (alpha, p) and shared by its callers:
    prover.build_instance, once per class a proof verifies, and
    slice_variant_series and check_variant_congruence.
    """
    return _slice_variant_spec(require_int(alpha, "alpha", 1), require_int(p, "p"))


@lru_cache(maxsize=64)
def _slice_variant_spec(alpha: int, p: int) -> EtaQuotientSpec:
    if prime_power(p) != (p, 1):
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
    checked, n = scan((n, f[n] == 0) for n in range(1, order + 1) if n % 3 != 1)
    detail = f"indices 1..{order}" if n is None else f"count at index {n} is {f[n]}, expected 0"
    return CheckReport("support", checked, n, detail)


def check_slice_identity(order: int) -> CheckReport:
    """Assert count(6n+1) equals the slice series coefficient G_n, exactly,
    for n <= top = (order - 1) // 6.

    With A_n = count(6n+1), the product C = A*(q;q)^2 is two pentagonal
    passes and B = (q^2;q^2)^3 = G*(q;q)^2 is Jacobi's identity, so nothing
    is inverted.  (q;q)^2 = 1 + O(q), so A and G agree below k exactly when
    C and B do, and then C_k - B_k = A_k - G_k: the first violation, and
    G_n = A_n - (C_n - B_n) in its detail, are read off C and B.
    """
    f = tspp_series(order, INTEGERS).coeffs
    top = (order - 1) // 6  # -1 at order 0, where f[1::6] is empty
    a = f[1::6]
    c = _sparse_passes(a, pentagonal_terms(1, top), 2, None) if a else ()
    b = dict(jacobi_terms(2, max(top, 0)))
    checked, n = scan((n, c_n == b.get(n, 0)) for n, c_n in enumerate(c))
    if n is None:
        return CheckReport("slice-identity", checked, None, f"n <= {top}")
    g_n = a[n] - (c[n] - b.get(n, 0))
    return CheckReport("slice-identity", checked, 6 * n + 1, f"count({6 * n + 1}) = {a[n]} but slice({n}) = {g_n}")


def check_variant_congruence(alpha: int, p: int) -> CheckReport:
    """Prove g[alpha,p] = g (mod u), u = p**alpha, for the spec the verifier
    expands, by one polynomial identity.

    The variant divided by the slice series is prod_d (q^d; q^d)^e_d, with e
    the exponents of slice_variant_spec(alpha, p) minus those of SLICE_SPEC.
    That is prod_{n>=1} L(q^n) / R(q^n) for the polynomials
    L = prod_{e_d>0} (1 - x^d)^e_d and R = prod_{e_d<0} (1 - x^d)^-e_d.  If
    L = R (mod u), then L / R lies in 1 + u*Z[[x]], since R(0) = 1, so the
    product does too and the variant is congruent to g mod u.  For every
    prime p and alpha >= 1, e is {1: p**alpha, p: -p**(alpha-1)} and the
    identity reads (1-q)^(p**alpha) = (1-q^p)^(p**(alpha-1)) (mod p**alpha).
    L and R are expanded exactly over Z through the larger of their degrees;
    the report names the identity, or the first coefficient where the two
    differ mod u.

    The verifier's expansion of the variant mod u rests on the same
    congruence: series.eta_quotient rewrites the exponent p**alpha - 2 on
    (q; q) through (q; q)^p = (q^p; q^p) (mod p) where that saves passes,
    and, since u is at most the sum p**alpha + 1 of the positive exponents,
    converts each negative exponent on (q^d; q^d) through this identity
    dilated by d, (q^d; q^d)^u = (q^pd; q^pd)^(u/p) (mod u), so that
    nothing is divided by (q^d; q^d); see the series module.
    """
    ratio = dict(slice_variant_spec(alpha, p).exponents)
    for d, e in SLICE_SPEC.exponents:
        ratio[d] -= e
    sides = [(d, e) for d, e in ratio.items() if e > 0], [(d, -e) for d, e in ratio.items() if e < 0]
    degree = max(sum(d * e for d, e in side) for side in sides)
    (left, lhs), (right, rhs) = (_binomial_product(side, degree) for side in sides)
    u = p**alpha
    name = f"congruence g[{alpha},{p}] = g (mod {u})"
    checked, n = scan((n, (a - b) % u == 0) for n, (a, b) in enumerate(zip(left, right)))
    if n is None:
        return CheckReport(name, checked, None, f"{lhs} = {rhs} (mod {u})")
    a, b = left[n] % u, right[n] % u
    return CheckReport(name, checked, n, f"coefficient {n} is {a} in {lhs} but {b} in {rhs} (mod {u})")


def _binomial_product(factors: list[tuple[int, int]], degree: int) -> tuple[list[int], str]:
    """prod (1 - q^d)^e over the (d, e) factors, each e >= 1, exactly through
    q^degree, by e sparse passes per factor; and the product as text."""
    coeffs = [1] + [0] * degree
    for d, e in factors:
        coeffs = _sparse_passes(coeffs, [(0, 1), (d, -1)], e, None)
    text = "".join(("(1-q)" if d == 1 else f"(1-q^{d})") + (f"^{e}" if e > 1 else "") for d, e in factors)
    return list(coeffs), text or "1"


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
    be handled and raises NotReducibleError.  The modulus is tested by
    arith.prime_power, which stops at its least prime factor p: a
    composite modulus is refused once p is divided out, never factored.
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
                f"class n = 3k+{r3}: indices are 4 (mod 6): their series is the mock theta "
                "function omega(q), not an eta quotient"
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
