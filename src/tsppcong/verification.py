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
computation is the series expansion itself, done modulo u.  None of it scans
a whole range: the unit squares mod 24m that act on the orbit are joined by
the Chinese remainder theorem from those modulo each prime power, and each
cusp minimum over lambda in [0, m) is the least value at one representative
of each valuation class of a + kap*lambda*c, after which lambda is the first
one, counting up from 0, that attains it (see squares_mod and
cusp_order_bound).  verify_instance records every intermediate quantity in a
Certificate so the run can be audited or reproduced byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import floor, gcd
from typing import NamedTuple

from .arith import divisors, factorize, prime_factors
from .series import EtaQuotientSpec, _is_int, eta_quotient, residues_mod


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
    t        seed residue, 0 <= t < m.
    r        eta-quotient exponent vector; its level is M.
    r_prime  auxiliary exponent vector; its level is the group level N.
    u        modulus of the congruence.

    m, t and u must be ints other than bools; nothing is coerced.
    """

    m: int
    t: int
    r: EtaQuotientSpec
    r_prime: EtaQuotientSpec
    u: int

    def __post_init__(self):
        bad = [x for x in (self.m, self.t, self.u) if not _is_int(x)]
        if bad:
            raise ValueError(f"every m, t and u must be an integer, got {bad[0]!r}")
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        if not 0 <= self.t < self.m:
            raise ValueError(f"seed residue {self.t} outside [0, {self.m})")
        if self.u < 2:
            raise ValueError(f"modulus must be at least 2, got {self.u}")

    @property
    def M(self) -> int:
        """Level of the eta quotient whose coefficients are checked."""
        return self.r.level

    @property
    def N(self) -> int:
        """Level of the congruence subgroup carrying the cusp conditions."""
        return self.r_prime.level


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

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

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
    lam: int

    @property
    def total(self) -> Fraction:
        return self.eta_order + self.aux_order


class VerificationBound(NamedTuple):
    v: Fraction
    orbit: tuple[int, ...]


@dataclass(frozen=True)
class ProgressionCheck:
    t_prime: int
    indices: tuple[int, ...]
    first_violation: int | None

    @property
    def all_zero(self) -> bool:
        return self.first_violation is None


@dataclass(frozen=True)
class Certificate:
    """Full transcript of one verification run.

    The fields are what the run computed; kappa, t_min, group_index,
    bound_floor, expansion_order and verdict are properties read off them:
    kappa(m), orbit[0], index_gamma0(N), floor(bound), the order the scan
    needs, and "VERIFIED" exactly when failure is None.  expansion_order is
    m*bound_floor + max(orbit) when the scan ran (checked is not empty) and
    read a coefficient (bound_floor >= 0), else None; a claim that fails at
    n = 0 on every orbit member is decided by a shorter expansion (see
    verify_instance).
    """

    instance: VerificationInstance
    orbit: tuple[int, ...]
    admissibility: AdmissibilityReport
    cusps: tuple[CuspEntry, ...]
    bound: Fraction
    checked: tuple[ProgressionCheck, ...]
    failure: str | None

    @property
    def kappa(self) -> int:
        return kappa(self.instance.m)

    @property
    def t_min(self) -> int:
        return self.orbit[0]

    @property
    def group_index(self) -> int:
        return index_gamma0(self.instance.N)

    @property
    def bound_floor(self) -> int:
        return floor(self.bound)

    @property
    def expansion_order(self) -> int | None:
        if not self.checked or self.bound_floor < 0:
            return None
        return self.instance.m * self.bound_floor + max(self.orbit)

    @property
    def verdict(self) -> str:
        return "VERIFIED" if self.failure is None else "FAILED"


# ---------------------------------------------------------------------------
# elementary quantities
# ---------------------------------------------------------------------------


def kappa(m: int) -> int:
    """gcd(m^2 - 1, 24), the twisting constant of the orbit map; m must be
    a positive int other than a bool."""
    if not _is_int(m) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    return gcd(m * m - 1, 24)


def squares_mod(modulus: int) -> tuple[int, ...]:
    """All squares of units modulo the given modulus, sorted.

    x is a unit mod n exactly when it is one modulo each prime power
    q = l^e exactly dividing n, so by the Chinese remainder theorem the unit
    squares mod n are the CRT lifts of the tuples of unit squares
    {x^2 mod q : l does not divide x}.  Each prime power's set is formed on
    its own and joined to the lifts so far; the work is the sum of the q
    plus the size of the result, not n gcds (for 24*1375: 8 + 3 + 125 + 11
    residues and 250 squares, against 33 000 gcds).
    """
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    lifts, size = [0], 1
    for p, e in factorize(modulus):
        q = p**e
        units = {x * x % q for x in range(1, q) if x % p}
        # s mod size and x mod q lift to s*q*(q^-1 mod size) + x*size*(size^-1 mod q)
        keep, add = q * pow(q, -1, size), size * pow(size, -1, q)
        size *= q
        lifts = [(s * keep + x * add) % size for s in lifts for x in units]
    return tuple(sorted(lifts))


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


def _cusp_sum(terms, level: int, mc: int, x: int) -> int:
    """The integer sum_d r_d * gcd(d*x, mc)^2 * (level/d) over the (d, r_d)
    in terms.  Both cusp orders are this sum over 24*level*(mc/c)."""
    num = 0
    for d, rd in terms:
        g = gcd(d * x, mc)
        num += rd * g * g * (level // d)
    return num


def cusp_order_bound(rep: CosetRep, m: int, r: EtaQuotientSpec) -> CuspBound:
    """Minimum over lambda in [0, m) of
    (1/24) * sum_d r_d * gcd(d*x, m*c)^2 / (d*m),  x = a + kap*lambda*c,
    kap = kappa(m), together with the smallest minimizing lambda.

    The minimum comes from the factorization of m rather than a scan of
    every lambda.  Since ad - bc = 1, a is a unit modulo every prime l | c,
    and so is x.  At a prime l | m with l not dividing c, gcd(d*x, m*c)
    sees only min(v_l(x), v_l(m)); and kap*c is a unit mod l, because kap
    divides m^2 - 1, so as lambda runs over [0, m) the residues of x modulo
    the l^v_l(m) take every value, jointly by the Chinese remainder theorem.
    The sum thus takes exactly the values it has at the products
    x = prod l^j_l with 0 <= j_l <= v_l(m), and the least of those is the
    minimum: 8 candidates for m = 1375, against 1375 lambdas.

    Then lambda is found by evaluating the sum from lambda = 0 upward until
    it equals that minimum, so the returned value and lambda are ones the
    scan produced.  A sum below the minimum, or none equal to it, raises
    RuntimeError; since kap is coprime to m, neither happens.
    """
    kap = kappa(m)
    a, c = rep.a, rep.c
    level = r.level
    numerator = partial(_cusp_sum, r.nonzero(), level, m * c)
    least = _least_over_valuation_classes(numerator, m, c)
    for lam in range(m):
        num = numerator(a + kap * lam * c)
        if num < least:
            raise RuntimeError(f"cusp sum {num} at c={c}, lambda={lam} is below its minimum {least}")
        if num == least:
            return CuspBound(Fraction(num, 24 * m * level), lam)
    raise RuntimeError(f"no lambda in [0, {m}) attains the cusp minimum {least} at c={c}")


def _least_over_valuation_classes(numerator, m: int, c: int) -> int:
    """Least numerator(x) over x = prod l^j_l, 0 <= j_l <= v_l(m), for the
    primes l of m that do not divide c."""
    classes = [1]
    for p, e in factorize(m):
        if c % p:
            classes = [x * p**j for x in classes for j in range(e + 1)]
    return min(map(numerator, classes))


def aux_cusp_order(rep: CosetRep, r_prime: EtaQuotientSpec) -> Fraction:
    """(1/24) * sum over divisors d of the auxiliary level of
    r'_d * gcd(d, c)^2 / d: the cusp sum at x = 1 modulo c."""
    level = r_prime.level
    return Fraction(_cusp_sum(r_prime.nonzero(), level, rep.c, 1), 24 * level)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def admissibility_check(instance: VerificationInstance) -> AdmissibilityReport:
    """Checklist tying (m, M, N, t, r) together.

    Only odd progression steps are supported; the even case needs extra side
    conditions that nothing in this package exercises, so it is rejected
    loudly instead of guessed at.
    """
    m, N, t = instance.m, instance.N, instance.t
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

    return AdmissibilityReport(tuple(conditions))


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
    return VerificationBound(v, members)


@lru_cache(maxsize=6)
def _expansion(spec: EtaQuotientSpec, order: int, u: int, step: int, offset: int):
    return eta_quotient(spec, order, residues_mod(u), step, offset)


def clear_expansion_cache():
    """Drop memoized eta expansions (used to prove determinism in tests)."""
    _expansion.cache_clear()


def verify_instance(instance: VerificationInstance) -> Certificate:
    """Run the whole finite check and return a Certificate.

    Failures of the admissibility checklist, of the cusp bounds or of the
    coefficient checks are certificate outcomes, not exceptions.  Only an
    unsupported shape raises UnsupportedInstanceError: an even progression
    step (admissibility_check) or a group level whose cusps coset_reps does
    not enumerate, such as 9, 16, 25 or 50.

    The check reads c(m*n + t') for every orbit member t' and n <= floor(v),
    and all of these indices lie in one progression: step*n + offset with
    step = gcd(m, t' - t_min over the orbit) and offset = t_min mod step.
    So the expansion runs modulo u through m*floor(v) + max(orbit) but
    returns only that progression, which the two claims of one orbit share
    through the memo.

    The scan first expands, through the same memo, only through max(orbit),
    which holds the n = 0 coefficient c(t') of every orbit member.  When
    each of those is nonzero, each member's first violation is at n = 0,
    and this short series completes the certificate; otherwise the full
    expansion is made.  Either way the certificate's expansion_order reads
    m*floor(v) + max(orbit), the order the scan needs.
    """
    report = admissibility_check(instance)
    cusps = []
    for rep in coset_reps(instance.N):
        eta_ord, lam = cusp_order_bound(rep, instance.m, instance.r)
        aux = aux_cusp_order(rep, instance.r_prime)
        cusps.append(CuspEntry(rep, eta_ord, aux, lam))
    bound = verification_bound(instance)
    members = bound.orbit

    failure = None
    negative = next((e for e in cusps if e.total < 0), None)
    if not report.passed:
        failure = "admissibility condition failed: " + ", ".join(report.failing())
    elif negative is not None:
        failure = (
            f"cusp bound negative at c={negative.rep.c}: "
            f"{negative.total.numerator}/{negative.total.denominator}"
        )

    checked = []
    if failure is None:
        # a negative bound leaves ns empty: nothing is expanded or read, and
        # every orbit member gets an empty check that passes
        ns = range(floor(bound.v) + 1)
        if ns:
            order = instance.m * floor(bound.v) + max(members)
            step = gcd(instance.m, *(t_prime - members[0] for t_prime in members))
            offset = members[0] % step
            series = _expansion(instance.r, max(members), instance.u, step, offset)
            if not all(series[(t_prime - offset) // step] for t_prime in members):
                series = _expansion(instance.r, order, instance.u, step, offset)
        for t_prime in members:
            indices = tuple(instance.m * n + t_prime for n in ns)
            violation = next((i for i in indices if series[(i - offset) // step]), None)
            checked.append(ProgressionCheck(t_prime, indices, violation))
            if violation is not None and failure is None:
                failure = (
                    f"coefficient at index {violation} is "
                    f"{series[(violation - offset) // step]} (mod {instance.u}), expected 0"
                )

    return Certificate(
        instance=instance,
        orbit=members,
        admissibility=report,
        cusps=tuple(cusps),
        bound=bound.v,
        checked=tuple(checked),
        failure=failure,
    )
