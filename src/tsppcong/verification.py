"""Finite verification of eta-quotient congruences on arithmetic progressions.

Given an eta quotient f_r(q) = prod (q^d; q^d)^r_d with coefficients c(n),
a progression step m, a seed residue t and a modulus u, the criterion
implemented here reduces "c(mn + t') = 0 (mod u) for every n and every t' in
the orbit of t" to finitely many coefficient checks:

  * an admissibility checklist ties (m, M, N, t, r) to the group level N;
  * at every cusp representative a rational lower bound must be nonnegative;
  * a rational bound v is computed, and the coefficients c(mn + t') for
    n <= floor(v) decide the congruence for all n.

All decision arithmetic is exact (integers and fractions); the only large
computation is the series expansion itself, done modulo u.  verify_instance
records every intermediate quantity in a Certificate so the run can be
audited or reproduced byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import floor, gcd
from typing import NamedTuple

from .arith import divisors, prime_factors
from .series import EtaQuotientSpec, eta_quotient, residues_mod


class UnsupportedInstanceError(ValueError):
    """The admissibility checklist does not cover this instance shape."""


@dataclass(frozen=True)
class CosetRep:
    """An integer matrix (a b; c d) of determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant of {self} must be 1")


@dataclass(frozen=True)
class VerificationInstance:
    """Complete input to the finite verification check.

    m        progression step; the claim is about coefficients c(m*n + t').
    M        level of the eta quotient whose coefficients are checked.
    N        level of the congruence subgroup carrying the cusp conditions.
    t        seed residue, 0 <= t < m.
    r        eta-quotient exponent vector over the divisors of M.
    r_prime  auxiliary exponent vector over the divisors of N.
    u        modulus of the congruence.
    """

    m: int
    M: int
    N: int
    t: int
    r: EtaQuotientSpec
    r_prime: EtaQuotientSpec
    u: int

    def __post_init__(self):
        if self.m < 1 or self.M < 1 or self.N < 1:
            raise ValueError("m, M and N must be positive")
        if not 0 <= self.t < self.m:
            raise ValueError(f"seed residue {self.t} outside [0, {self.m})")
        if self.u < 2:
            raise ValueError(f"modulus must be at least 2, got {self.u}")
        if self.r.level != self.M:
            raise ValueError(f"exponent vector has level {self.r.level}, expected {self.M}")
        if self.r_prime.level != self.N:
            raise ValueError(
                f"auxiliary vector has level {self.r_prime.level}, expected {self.N}"
            )


@dataclass(frozen=True)
class InstanceHints:
    """The verifier parameters that accompany a claim: the group level N and
    the auxiliary exponent vector r'.  Everything else is derived from the
    reduced claim."""

    group_level: int
    r_prime: EtaQuotientSpec

    def __post_init__(self):
        if self.r_prime.level != self.group_level:
            raise ValueError(
                f"auxiliary vector has level {self.r_prime.level}, "
                f"expected the group level {self.group_level}"
            )


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    witness: dict[str, object]


@dataclass(frozen=True)
class AdmissibilityReport:
    conditions: tuple[ConditionCheck, ...]
    passed: bool

    def failing(self) -> list[str]:
        return [c.name for c in self.conditions if not c.passed]


class CuspBound(NamedTuple):
    value: Fraction
    lam: int


@dataclass(frozen=True)
class CuspEntry:
    rep: CosetRep
    eta_order: Fraction
    aux_order: Fraction
    total: Fraction
    lam: int


class VerificationBound(NamedTuple):
    v: Fraction
    v_floor: int
    orbit: tuple[int, ...]

    @property
    def t_min(self) -> int:
        return self.orbit[0]


@dataclass(frozen=True)
class ProgressionCheck:
    t_prime: int
    indices: tuple[int, ...]
    all_zero: bool
    first_violation: int | None


@dataclass(frozen=True)
class Certificate:
    """Full transcript of one verification run."""

    instance: VerificationInstance
    kappa: int
    orbit: tuple[int, ...]
    t_min: int
    admissibility: AdmissibilityReport
    group_index: int
    cusps: tuple[CuspEntry, ...]
    bound: Fraction
    bound_floor: int
    expansion_order: int | None
    checked: tuple[ProgressionCheck, ...]
    verdict: str
    failure: str | None


# ---------------------------------------------------------------------------
# elementary quantities
# ---------------------------------------------------------------------------


def kappa(m: int) -> int:
    """gcd(m^2 - 1, 24), the twisting constant of the orbit map."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    return gcd(m * m - 1, 24)


def squares_mod(modulus: int) -> tuple[int, ...]:
    """All squares of units modulo the given modulus, sorted."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    return tuple(sorted({x * x % modulus for x in range(modulus) if gcd(x, modulus) == 1}))


def orbit(instance: VerificationInstance) -> tuple[int, ...]:
    """Residues reachable from t under the square-class action, sorted.

    Each square s of a unit mod 24m sends t to t*s + (s-1)/24 * sum(d*r_d),
    taken mod m.  A unit mod 24 squares to 1 mod 24, so (s-1)/24 is an
    integer.
    """
    w = instance.r.weighted_exponent_sum()
    m = instance.m
    members = {(instance.t * s + (s - 1) // 24 * w) % m for s in squares_mod(24 * m)}
    return tuple(sorted(members))


def coset_reps(N: int) -> tuple[CosetRep, ...]:
    """The matrices (1 0; d 1) for the divisors d of N, ascending.

    Gamma0(N) has sum over d | N of phi(gcd(d, N/d)) cusps, and (1 0; d 1)
    stands for the cusp 1/d.  So these matrices meet every cusp exactly when
    each gcd(d, N/d) is 1 or 2; any other level (9, 16, 25, 50, ...) raises
    UnsupportedInstanceError rather than skip cusp conditions.
    """
    wide = [d for d in divisors(N) if gcd(d, N // d) > 2]
    if wide:
        raise UnsupportedInstanceError(
            f"group level {N} is not supported: each divisor d in {wide} carries "
            "phi(gcd(d, N/d)) > 1 cusps, but only the cusp 1/d is enumerated"
        )
    return tuple(CosetRep(1, 0, d, 1) for d in divisors(N))


def index_gamma0(N: int) -> int:
    """Index of the level-N congruence subgroup: N * prod_{p | N} (1 + 1/p).

    Computed exactly: divide by each prime first, then multiply.
    """
    out = N
    for p in prime_factors(N):
        out = out // p * (p + 1)
    return out


# ---------------------------------------------------------------------------
# cusp quantities
# ---------------------------------------------------------------------------


def cusp_order_bound(rep: CosetRep, m: int, r: EtaQuotientSpec, kap: int) -> CuspBound:
    """Minimum over lambda in [0, m) of
    (1/24) * sum_d r_d * gcd(d*(a + kap*lambda*c), m*c)^2 / (d*m),
    together with the smallest minimizing lambda.

    The scan keeps a common denominator 24*m*level so the comparison is a
    pure integer one; the result is returned as an exact fraction.
    """
    a, c = rep.a, rep.c
    mc = m * c
    level = r.level
    terms = r.nonzero()
    best_num = None
    best_lam = 0
    for lam in range(m):
        num = 0
        for d, rd in terms:
            g = gcd(d * (a + kap * lam * c), mc)
            num += rd * g * g * (level // d)
        if best_num is None or num < best_num:
            best_num = num
            best_lam = lam
    return CuspBound(Fraction(best_num, 24 * m * level), best_lam)


def aux_cusp_order(rep: CosetRep, r_prime: EtaQuotientSpec) -> Fraction:
    """(1/24) * sum over divisors d of the auxiliary level of
    r'_d * gcd(d, c)^2 / d."""
    c = rep.c
    level = r_prime.level
    num = 0
    for d, rd in r_prime.nonzero():
        g = gcd(d, c)
        num += rd * g * g * (level // d)
    return Fraction(num, 24 * level)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def admissibility_check(instance: VerificationInstance) -> AdmissibilityReport:
    """Checklist tying (m, M, N, t, r) together.

    Only odd progression steps are supported; the even case needs extra side
    conditions that nothing in this package exercises, so it is rejected
    loudly instead of guessed at.
    """
    m, M, N, t = instance.m, instance.M, instance.N, instance.t
    if m % 2 == 0:
        raise UnsupportedInstanceError(
            f"progression step {m} is even; only odd steps are supported"
        )
    kap = kappa(m)
    w = instance.r.weighted_exponent_sum()
    total = instance.r.exponent_sum()
    conditions = []

    bad_primes = [p for p in prime_factors(m) if N % p != 0]
    conditions.append(
        ConditionCheck(
            "m_primes_divide_group_level",
            not bad_primes,
            {"primes_of_m": prime_factors(m), "not_dividing_N": bad_primes},
        )
    )

    bad_divs = [d for d, rd in instance.r.nonzero() if (m * N) % d != 0]
    conditions.append(
        ConditionCheck(
            "eta_divisors_divide_mN",
            not bad_divs,
            {"m_times_N": m * N, "not_dividing": bad_divs},
        )
    )

    weighted = Fraction(0)
    for d, rd in instance.r.nonzero():
        weighted += Fraction(rd * m * N, d)
    val3 = kap * N * weighted
    ok3 = val3.denominator == 1 and val3.numerator % 24 == 0
    conditions.append(
        ConditionCheck(
            "kappa_weighted_sum_divisible_by_24",
            ok3,
            {"value": f"{val3.numerator}/{val3.denominator}"},
        )
    )

    val4 = kap * N * total
    conditions.append(
        ConditionCheck(
            "kappa_exponent_sum_divisible_by_8",
            val4 % 8 == 0,
            {"value": val4, "residue_mod_8": val4 % 8},
        )
    )

    g5 = gcd(kap * (-24 * t - w), 24 * m)
    need = 24 * m // g5
    conditions.append(
        ConditionCheck(
            "orbit_step_divides_group_level",
            N % need == 0,
            {"gcd": g5, "required_divisor": need},
        )
    )

    return AdmissibilityReport(tuple(conditions), all(c.passed for c in conditions))


# ---------------------------------------------------------------------------
# the bound and the finite check
# ---------------------------------------------------------------------------


def verification_bound(instance: VerificationInstance) -> VerificationBound:
    """The rational bound v; coefficients up to floor(v) decide the claim.

    v = (1/24)*((sum r + sum r')*index - sum d*r') - (1/(24m))*sum d*r
        - t_min/m
    with t_min the smallest orbit member.  Everything is exact; the floor is
    integer division, correct for negative values too.  The sorted orbit is
    returned with the bound.
    """
    members = orbit(instance)
    idx = index_gamma0(instance.N)
    total = instance.r.exponent_sum() + instance.r_prime.exponent_sum()
    v = (
        Fraction(total * idx - instance.r_prime.weighted_exponent_sum(), 24)
        - Fraction(instance.r.weighted_exponent_sum(), 24 * instance.m)
        - Fraction(members[0], instance.m)
    )
    return VerificationBound(v, floor(v), members)


@lru_cache(maxsize=6)
def _expansion(spec: EtaQuotientSpec, order: int, u: int):
    return eta_quotient(spec, order, residues_mod(u))


def clear_expansion_cache():
    """Drop memoized eta expansions (used to prove determinism in tests)."""
    _expansion.cache_clear()


def verify_instance(instance: VerificationInstance) -> Certificate:
    """Run the whole finite check and return a Certificate.

    Failures of the admissibility checklist, of the cusp bounds or of the
    coefficient checks are certificate outcomes, not exceptions; only an
    even progression step raises.  The expansion runs modulo u up to
    m*floor(v) + max(orbit) and is shared across the orbit members.
    """
    report = admissibility_check(instance)
    kap = kappa(instance.m)
    reps = coset_reps(instance.N)
    cusps = []
    for rep in reps:
        eta_ord, lam = cusp_order_bound(rep, instance.m, instance.r, kap)
        aux = aux_cusp_order(rep, instance.r_prime)
        cusps.append(CuspEntry(rep, eta_ord, aux, eta_ord + aux, lam))
    bound = verification_bound(instance)
    members = bound.orbit

    failure = None
    if not report.passed:
        failure = "admissibility condition failed: " + ", ".join(report.failing())
    else:
        for entry in cusps:
            if entry.total < 0:
                failure = (
                    f"cusp bound negative at c={entry.rep.c}: "
                    f"{entry.total.numerator}/{entry.total.denominator}"
                )
                break

    checked: tuple[ProgressionCheck, ...] = ()
    expansion_order = None
    if failure is None:
        if bound.v_floor >= 0:
            expansion_order = instance.m * bound.v_floor + max(members)
            series = _expansion(instance.r, expansion_order, instance.u)
            results = []
            for t_prime in members:
                indices = tuple(
                    instance.m * n + t_prime for n in range(bound.v_floor + 1)
                )
                violation = None
                for i in indices:
                    if series[i] != 0:
                        violation = i
                        break
                results.append(
                    ProgressionCheck(t_prime, indices, violation is None, violation)
                )
                if violation is not None and failure is None:
                    failure = (
                        f"coefficient at index {violation} is "
                        f"{series[violation]} (mod {instance.u}), expected 0"
                    )
            checked = tuple(results)
        else:
            # nothing to check: the bound is negative, the claim follows outright
            checked = tuple(ProgressionCheck(tp, (), True, None) for tp in members)

    return Certificate(
        instance=instance,
        kappa=kap,
        orbit=members,
        t_min=bound.t_min,
        admissibility=report,
        group_index=index_gamma0(instance.N),
        cusps=tuple(cusps),
        bound=bound.v,
        bound_floor=bound.v_floor,
        expansion_order=expansion_order,
        checked=checked,
        verdict="VERIFIED" if failure is None else "FAILED",
        failure=failure,
    )
