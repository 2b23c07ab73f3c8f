"""Orbit, cusp and admissibility machinery, the verification bound, and the
finite check itself."""

import random
import re
from dataclasses import is_dataclass
from fractions import Fraction
from itertools import islice
from math import floor, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import tsppcong as tc
from tsppcong import verification
from tsppcong.documents import canonical_json, certificate_to_doc
from tsppcong.verification import (
    CuspBound,
    coset_reps,
    cusp_order_bound,
    aux_cusp_order,
)


def assert_no_floats(obj, path="root"):
    if isinstance(obj, bool) or obj is None:
        return
    assert not isinstance(obj, float), f"float at {path}: {obj!r}"
    if isinstance(obj, (int, str, bytes, Fraction)):
        return
    if is_dataclass(obj):
        # vars, not fields: a Certificate's stages are cached properties
        for name, value in vars(obj).items():
            assert_no_floats(value, f"{path}.{name}")
    elif isinstance(obj, dict):
        for k, v in obj.items():
            assert_no_floats(v, f"{path}[{k!r}]")
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for i, v in enumerate(obj):
            assert_no_floats(v, f"{path}[{i}]")


@pytest.fixture
def tiny_instance():
    """Partition numbers on 5n+4 modulo 5: the smallest real end-to-end case."""
    return tc.VerificationInstance(
        m=5,
        t=4,
        r=tc.EtaQuotientSpec(1, {1: -1}),
        r_prime=tc.EtaQuotientSpec(5, {1: 5}),
        u=5,
    )


# ---------------------------------------------------------------------------
# elementary quantities
# ---------------------------------------------------------------------------


def test_kappa_values():
    assert tc.kappa(625) == 24
    assert tc.kappa(1375) == 24
    assert tc.kappa(1) == 24
    assert tc.kappa(2) == 3
    assert tc.kappa(3) == 8
    assert tc.kappa(4) == 3
    assert tc.kappa(5) == 24
    with pytest.raises(ValueError, match="m must be an integer of at least 1, got 0"):
        tc.kappa(0)


def test_squares_mod():
    assert tc.squares_mod(24) == (1,)
    assert tc.squares_mod(8) == (1,)
    assert tc.squares_mod(1) == (0,)
    assert tc.squares_mod(5) == (1, 4)
    assert tc.squares_mod(12) == (1,)


def test_squares_mod_matches_brute_force():
    for n in [*range(1, 3001), 24 * 625, 24 * 1375]:
        assert tc.squares_mod(n) == oracles.unit_squares(n), n


def test_orbit_reproduces_instances(instance1, instance2):
    assert tc.orbit(instance1) == (229, 604)
    assert tc.orbit(instance2) == (779, 1054)


def test_orbit_degenerate_step():
    inst = tc.VerificationInstance(
        m=1, t=0,
        r=tc.slice_variant_spec(3, 5),
        r_prime=tc.EtaQuotientSpec(10, {}), u=125,
    )
    assert tc.orbit(inst) == (0,)


def test_orbit_contains_seed_and_is_closed(instance1, instance2, tiny_instance):
    for inst in (instance1, instance2, tiny_instance):
        members = set(tc.orbit(inst))
        assert inst.t in members
        w = inst.r.weighted_exponent_sum()
        for t_prime in members:
            for s in tc.squares_mod(24 * inst.m):
                image = (t_prime * s + (s - 1) // 24 * w) % inst.m
                assert image in members


def test_orbit_depends_only_on_square_class(instance1):
    # shifting s by multiples of 24m never changes the image
    w = instance1.r.weighted_exponent_sum()
    m = instance1.m
    for s in tc.squares_mod(24 * m):
        assert (s - 1) % 24 == 0  # what makes the orbit map integral
        base = (instance1.t * s + (s - 1) // 24 * w) % m
        for j in (1, 2):
            lifted = s + 24 * m * j
            assert (instance1.t * lifted + (lifted - 1) // 24 * w) % m == base


def test_coset_reps():
    reps = tc.coset_reps(10)
    assert [r.c for r in reps] == [1, 2, 5, 10]
    assert all((r.a, r.b, r.d) == (1, 0, 1) for r in reps)
    assert [r.c for r in tc.coset_reps(110)] == [1, 2, 5, 10, 11, 22, 55, 110]
    assert tc.coset_reps(1) == (tc.CosetRep(1, 0, 1, 1),)


def test_coset_reps_are_memoized_per_level():
    assert tc.coset_reps(110) is tc.coset_reps(110)


def _cusp_count(N):
    """sum over d | N of phi(gcd(d, N/d)), by brute force."""
    def phi(g):
        return sum(1 for a in range(g) if gcd(a, g) == 1)

    return sum(phi(gcd(d, N // d)) for d in range(1, N + 1) if N % d == 0)


def test_coset_reps_meet_every_cusp():
    accepted = []
    for N in range(1, 201):
        try:
            reps = tc.coset_reps(N)
        except tc.UnsupportedInstanceError:
            n_divisors = sum(1 for d in range(1, N + 1) if N % d == 0)
            assert _cusp_count(N) > n_divisors
            continue
        assert len(reps) == _cusp_count(N)
        accepted.append(N)
    assert {2, 4, 5, 8, 10, 12, 22, 110} <= set(accepted)
    assert not {9, 16, 18, 25, 27, 50} & set(accepted)


def test_coset_rep_determinant_validated():
    with pytest.raises(ValueError):
        tc.CosetRep(1, 1, 1, 1)


def test_index_gamma0():
    assert tc.index_gamma0(10) == 18
    assert tc.index_gamma0(110) == 216
    assert tc.index_gamma0(1) == 1
    assert tc.index_gamma0(5) == 6


def test_index_gamma0_multiplicative_on_coprime_parts():
    pairs = [(4, 9), (5, 11), (8, 27), (10, 21), (25, 22)]
    for a, b in pairs:
        assert gcd(a, b) == 1
        assert tc.index_gamma0(a * b) == tc.index_gamma0(a) * tc.index_gamma0(b)


# ---------------------------------------------------------------------------
# cusp quantities
# ---------------------------------------------------------------------------


def test_cusp_order_bound_instance1_at_c10(instance1):
    rep = tc.CosetRep(1, 0, 10, 1)
    value, lam = cusp_order_bound(rep, instance1.m, instance1.r)
    assert value == Fraction(1, 3750)
    assert lam == 0
    # the scan is flat here: every lambda gives the same value
    mc = instance1.m * rep.c
    for lam in range(0, instance1.m, 97):
        num = sum(
            rd * gcd(d * (1 + 24 * lam * 10), mc) ** 2 * (10 // d)
            for d, rd in instance1.r.nonzero()
        )
        assert Fraction(num, 24 * instance1.m * 10) == Fraction(1, 3750)


def test_cusp_order_bound_trivial_case():
    rep = tc.CosetRep(1, 0, 1, 1)
    value, lam = cusp_order_bound(rep, 1, tc.EtaQuotientSpec(1, {1: 1}))
    assert value == Fraction(1, 24)
    assert lam == 0


def test_cusp_order_bound_scan_order_independent(instance2):
    # recompute the minimum with the loop reversed; the value must not change
    kap = tc.kappa(instance2.m)
    for rep in coset_reps(instance2.N):
        forward = cusp_order_bound(rep, instance2.m, instance2.r)
        mc = instance2.m * rep.c
        best = None
        for lam in reversed(range(instance2.m)):
            num = sum(
                rd * gcd(d * (rep.a + kap * lam * rep.c), mc) ** 2 * (instance2.M // d)
                for d, rd in instance2.r.nonzero()
            )
            value = Fraction(num, 24 * instance2.m * instance2.M)
            if best is None or value < best:
                best = value
        assert forward.value == best


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def cusp_cases(draw):
    """(rep, m, r): a determinant-1 representative whose c is 1, shares
    primes with m or is arbitrary, a step m in [1, 400] that is 1, a
    multiple of 3, even or arbitrary, and an eta quotient of a level with
    random exponents."""
    m = draw(st.one_of(
        st.just(1),
        st.integers(1, 133).map(lambda k: 3 * k),
        st.integers(1, 200).map(lambda k: 2 * k),
        st.integers(1, 400),
    ))
    level = prod(p ** draw(st.integers(0, 2)) for p in (2, 3, 5, 11))
    exponents = st.dictionaries(st.sampled_from(_divisors(level)), st.integers(-30, 30), max_size=4)
    r = tc.EtaQuotientSpec(level, draw(exponents))
    c = draw(st.one_of(
        st.just(1),
        st.tuples(st.sampled_from(_divisors(m)), st.integers(1, 6)).map(prod),
        st.integers(1, 300),
    ))
    a = draw(st.integers(-60, 60).filter(lambda a: gcd(a, c) == 1))
    d = pow(a, -1, c)
    return tc.CosetRep(a, (a * d - 1) // c, c, d), m, r


@given(case=cusp_cases())
@settings(max_examples=300)
def test_cusp_order_bound_matches_forward_scan(case):
    rep, m, r = case
    assert tuple(cusp_order_bound(rep, m, r)) == oracles.cusp_scan(rep, m, r, tc.kappa(m))


@pytest.mark.parametrize("shift,message", [(-1, "no lambda"), (1, "is below its minimum")])
def test_cusp_order_bound_raises_on_a_wrong_minimum(instance2, monkeypatch, shift, message):
    least = verification._least_over_valuation_classes
    monkeypatch.setattr(verification, "_least_over_valuation_classes", lambda *args: least(*args) + shift)
    for rep in coset_reps(instance2.N):
        with pytest.raises(RuntimeError, match=message):
            cusp_order_bound(rep, instance2.m, instance2.r)


def test_cusp_order_bound_raises_when_kappa_shares_a_prime_with_m(monkeypatch):
    # kappa(m) divides m^2 - 1, so it is coprime to m; a kappa of 5 at m = 5,
    # injected here, makes x = 1 + 5*lambda a unit mod 5 for every lambda, so
    # the least class, x divisible by 5, is never reached
    monkeypatch.setattr(verification, "kappa", lambda m: 5)
    with pytest.raises(RuntimeError, match="no lambda"):
        cusp_order_bound(tc.CosetRep(1, 0, 1, 1), 5, tc.EtaQuotientSpec(1, {1: -1}))


def test_instance2_cusp_table(instance2):
    table = {}
    for rep in coset_reps(instance2.N):
        bound = cusp_order_bound(rep, instance2.m, instance2.r)
        table[rep.c] = (bound.value, bound.lam, aux_cusp_order(rep, instance2.r_prime))
    assert table == {
        1: (Fraction(-125, 528), 26, Fraction(1, 4)),
        2: (Fraction(1, 8250), 0, Fraction(1, 4)),
        5: (Fraction(-1, 66000), 0, Fraction(1, 4)),
        10: (Fraction(1, 8250), 0, Fraction(1, 4)),
        11: (Fraction(-125, 528), 116, Fraction(1, 4)),
        22: (Fraction(1, 8250), 0, Fraction(1, 4)),
        55: (Fraction(-1, 66000), 0, Fraction(1, 4)),
        110: (Fraction(1, 8250), 0, Fraction(1, 4)),
    }
    assert all(v[0] + v[2] >= 0 for v in table.values())


def test_aux_cusp_order(instance1):
    for rep in coset_reps(instance1.N):
        assert aux_cusp_order(rep, instance1.r_prime) == Fraction(13, 24)
    zero = tc.EtaQuotientSpec(10, {})
    assert aux_cusp_order(tc.CosetRep(1, 0, 2, 1), zero) == 0


@given(case=cusp_cases().filter(lambda case: case[0].a != 1))
@settings(max_examples=200)
def test_aux_cusp_order_matches_oracle(case):
    # the auxiliary order reads only c, whatever a the representative has
    rep, _, r_prime = case
    assert aux_cusp_order(rep, r_prime) == oracles.aux_order(rep, r_prime)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def test_admissibility_passes_on_both_instances(instance1, instance2):
    rep1 = tc.admissibility_check(instance1)
    assert rep1.passed and not rep1.failing()
    witness1 = {c.name: c.witness for c in rep1.conditions}
    assert witness1["orbit_step_divides_group_level"] == {"gcd": 3000, "required_divisor": 5}

    rep2 = tc.admissibility_check(instance2)
    assert rep2.passed
    witness2 = {c.name: c.witness for c in rep2.conditions}
    assert witness2["orbit_step_divides_group_level"] == {"gcd": 6600, "required_divisor": 5}


def test_admissibility_fails_when_group_level_misses_primes(instance1):
    broken = tc.VerificationInstance(
        m=625, t=229,
        r=instance1.r, r_prime=tc.EtaQuotientSpec(3, {}), u=125,
    )
    report = tc.admissibility_check(broken)
    assert not report.passed
    assert "m_primes_divide_group_level" in report.failing()


def test_admissibility_rejects_even_step():
    inst = tc.VerificationInstance(
        m=4, t=3,
        r=tc.slice_variant_spec(2, 2),
        r_prime=tc.EtaQuotientSpec(4, {}), u=4,
    )
    with pytest.raises(tc.UnsupportedInstanceError):
        tc.admissibility_check(inst)
    with pytest.raises(tc.UnsupportedInstanceError):
        tc.verify_instance(inst)


# ---------------------------------------------------------------------------
# the bound
# ---------------------------------------------------------------------------


def test_verification_bound_exact_values(instance1, instance2):
    v1 = tc.verification_bound(instance1)
    assert v1.v == Fraction(2039, 24) - Fraction(4, 15000) - Fraction(229, 625)
    assert v1.v == Fraction(10151, 120)
    assert (floor(v1.v), v1.orbit[0]) == (84, 229)

    v2 = tc.verification_bound(instance2)
    assert v2.v == Fraction(3666, 24) - Fraction(4, 33000) - Fraction(779, 1375)
    assert v2.v == Fraction(9131, 60)
    assert (floor(v2.v), v2.orbit[0]) == (152, 779)


def test_verification_bound_degenerate():
    inst = tc.VerificationInstance(
        m=1, t=0,
        r=tc.EtaQuotientSpec(1, {}), r_prime=tc.EtaQuotientSpec(1, {}), u=2,
    )
    v = tc.verification_bound(inst)
    assert v.v == 0 and floor(v.v) == 0 and v.orbit[0] == 0


def test_bound_floor_uses_true_floor_for_negative_values():
    inst = tc.VerificationInstance(
        m=5, t=4,
        r=tc.EtaQuotientSpec(1, {1: -1}),
        r_prime=tc.EtaQuotientSpec(5, {}), u=5,
    )
    v = tc.verification_bound(inst)
    assert v.v == Fraction(-6, 24) - Fraction(-1, 120) - Fraction(4, 5)
    assert v.v == Fraction(-25, 24)
    assert floor(v.v) == -2  # floor, not truncation toward zero


# ---------------------------------------------------------------------------
# the finite check
# ---------------------------------------------------------------------------


def test_verify_tiny_partition_instance(tiny_instance):
    cert = tc.verify_instance(tiny_instance)
    assert cert.verdict == "VERIFIED"
    assert cert.orbit == (4,)
    assert cert.bound == 0 and cert.bound_floor == 0
    assert cert.expansion_order == 4
    assert cert.checked == (
        tc.verification.ProgressionCheck(4, (4,), None),
    )
    assert_no_floats(cert)


def test_verifier_expands_only_the_progression_it_reads(monkeypatch):
    # the orbits (229, 604) mod 625 and (779, 1054) mod 1375 lie in 125n + 104
    # and 275n + 229, so the orders 53 104 and 210 054 need 425 and 764
    # coefficients, not 53 105 and 210 055; each pair of claims shares one.
    # Before each, the n = 0 probe expands through max(orbit): 604 and 1054,
    # i.e. 5 and 4 coefficients, which the pair shares too
    lengths = []
    expand = tc.verification.eta_quotient

    def recording(*args):
        series = expand(*args)
        lengths.append(len(series.coeffs))
        return series

    monkeypatch.setattr(tc.verification, "eta_quotient", recording)
    tc.verification._expansion.cache_clear()
    hints = {doc.claim: doc.hints for doc in tc.shipped_instances()}
    for offset in (125, 1125):
        claim = tc.CongruenceClaim("f", 1250, offset, 125)
        assert tc.prove_tspp_congruence(claim, hints[claim]).verdict == "PROVED"
    info = tc.verification._expansion.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    for offset in (825, 1925):
        claim = tc.CongruenceClaim("f", 2750, offset, 11)
        assert tc.prove_tspp_congruence(claim, hints[claim]).verdict == "PROVED"
    info = tc.verification._expansion.cache_info()
    assert (info.misses, info.hits) == (4, 4)
    assert lengths == [5, 425, 4, 764]


def sweep_shaped_claims(seed):
    """Endless seeded claims f(2m*n + B) = 0 (mod p^alpha), m = p*k, with the
    hints N = 2p and r' = {1: k'}, kept when some class n = 3j + r lands on
    indices 1 (mod 6) and none on 4 (mod 6), so that they reach the
    verifier."""
    rng = random.Random(seed)
    while True:
        p = rng.choice((5, 7, 11, 13))
        u = p ** rng.choice((1, 2)) if p in (5, 7) else p
        step = 2 * p * rng.choice((1, 3, 5, 7, 11, 13))
        hints = tc.InstanceHints(2 * p, tc.EtaQuotientSpec(2 * p, {1: rng.randrange(1, 40)}))
        offset = rng.randrange(step)
        residues = {(step * r + offset) % 6 for r in range(3)}
        if 1 in residues and 4 not in residues:
            yield tc.CongruenceClaim("f", step, offset, u), hints


def test_scan_first_violations_match_a_full_expansion():
    # the scan may stop on a short expansion through max(orbit) when every
    # orbit member is nonzero at n = 0; each certificate must still report
    # what a scan of the whole expansion, made here, finds
    kinds = {"proved claim": 0, "verified": 0, "every member fails at n = 0": 0, "scan passes n = 0": 0}
    for claim, hints in islice(sweep_shaped_claims(2), 500):
        report = tc.prove_tspp_congruence(claim, hints)
        kinds["proved claim"] += report.verdict == "PROVED"
        for cert in report.certificates:
            if cert.expansion_order is None:
                continue
            inst = cert.instance
            full = tc.eta_quotient(inst.r, cert.expansion_order, tc.residues_mod(inst.u))
            for check in cert.checked:
                assert check.first_violation == next((i for i in check.indices if full[i]), None)
            found = [c.first_violation for c in cert.checked if c.first_violation is not None]
            if not found:
                assert cert.verdict == "VERIFIED"
                kinds["verified"] += 1
                continue
            assert cert.failure == (
                f"coefficient at index {found[0]} is {full[found[0]]} (mod {inst.u}), expected 0"
            )
            if [c.first_violation for c in cert.checked] == list(cert.orbit):
                kinds["every member fails at n = 0"] += 1
            else:
                kinds["scan passes n = 0"] += 1
    assert min(kinds.values()) >= 3, kinds


def test_verify_negative_bound_reads_no_coefficient():
    # the eta quotient with r = {} is the series 1, so c(5n+1) and c(5n+4)
    # vanish; the bound -1/5 has floor -1 and the claim holds with no expansion
    empty = tc.VerificationInstance(
        m=5, t=1,
        r=tc.EtaQuotientSpec(1, {}),
        r_prime=tc.EtaQuotientSpec(5, {}), u=5,
    )
    lookups = tc.verification._expansion.cache_info()
    cert = tc.verify_instance(empty)
    assert cert.verdict == "VERIFIED" and cert.failure is None
    assert cert.orbit == (1, 4)
    assert cert.bound == Fraction(-1, 5) and cert.bound_floor == -1
    assert cert.expansion_order is None
    assert cert.checked == (
        tc.verification.ProgressionCheck(1, (), None),
        tc.verification.ProgressionCheck(4, (), None),
    )
    assert tc.verification._expansion.cache_info() == lookups  # no expansion asked for
    assert '"expansion_order": null' in canonical_json(certificate_to_doc(cert))


def test_verify_reports_negative_cusp_bound(tiny_instance):
    # drop the auxiliary compensation: the c=1 cusp bound turns negative
    bare = tc.VerificationInstance(
        m=5, t=4,
        r=tc.EtaQuotientSpec(1, {1: -1}),
        r_prime=tc.EtaQuotientSpec(5, {}), u=5,
    )
    cert = tc.verify_instance(bare)
    assert cert.verdict == "FAILED"
    assert "cusp bound negative" in cert.failure
    assert cert.checked == ()


def test_verify_perturbed_seed_fails_admissibility(instance1):
    perturbed = tc.VerificationInstance(
        m=625, t=230,
        r=instance1.r, r_prime=instance1.r_prime, u=125,
    )
    cert = tc.verify_instance(perturbed)
    assert cert.verdict == "FAILED"
    assert cert.failure == (
        "admissibility condition failed: orbit_step_divides_group_level"
    )
    assert cert.expansion_order is None and cert.checked == ()


def _no_aux_instance(t):
    # without r' the cusps c = 1 and c = 5 of level 10 are negative
    return tc.VerificationInstance(
        m=625, t=t, r=tc.slice_variant_spec(3, 5), r_prime=tc.EtaQuotientSpec(10, {}), u=125
    )


def test_verify_admissibility_failure_precedes_negative_cusps():
    lookups = tc.verification._expansion.cache_info()
    cert = tc.verify_instance(_no_aux_instance(230))
    assert cert.failure == "admissibility condition failed: orbit_step_divides_group_level"
    assert [e.rep.c for e in cert.cusps] == [1, 2, 5, 10]
    assert [e.total < 0 for e in cert.cusps] == [True, False, True, False]
    assert cert.expansion_order is None and cert.checked == ()
    assert tc.verification._expansion.cache_info() == lookups  # no expansion asked for


def test_verify_reports_first_negative_cusp():
    cert = tc.verify_instance(_no_aux_instance(229))
    assert cert.admissibility.passed
    assert cert.failure == "cusp bound negative at c=1: -25/48"
    assert cert.cusps[2].total == Fraction(-1, 30000)  # c = 5 is negative too
    assert cert.expansion_order is None and cert.checked == ()


def test_verify_coefficient_violation_is_reported():
    # claim p(5n+1) = 0 (mod 5): admissible and cusp-safe with the same
    # auxiliary vector, but p(1) = 1 breaks the coefficient check
    inst = tc.VerificationInstance(
        m=5, t=1,
        r=tc.EtaQuotientSpec(1, {1: -1}),
        r_prime=tc.EtaQuotientSpec(5, {1: 5}), u=5,
    )
    cert = tc.verify_instance(inst)
    assert cert.verdict == "FAILED"
    assert "coefficient at index" in cert.failure
    assert any(not c.all_zero for c in cert.checked)


def test_instance_validation():
    spec = tc.slice_variant_spec(3, 5)
    aux = tc.EtaQuotientSpec(10, {1: 13})
    with pytest.raises(ValueError, match=re.escape("seed residue 625 outside [0, 625)")):
        tc.VerificationInstance(m=625, t=625, r=spec, r_prime=aux, u=125)
    with pytest.raises(ValueError, match="u must be an integer of at least 2, got 1"):
        tc.VerificationInstance(m=625, t=229, r=spec, r_prime=aux, u=1)
    with pytest.raises(ValueError, match="m must be an integer of at least 1, got 0"):
        tc.VerificationInstance(m=0, t=0, r=spec, r_prime=aux, u=125)


def test_certificate_is_reproducible_byte_for_byte(tiny_instance):
    first = canonical_json(certificate_to_doc(tc.verify_instance(tiny_instance)))
    tc.verification._expansion.cache_clear()
    second = canonical_json(certificate_to_doc(tc.verify_instance(tiny_instance)))
    assert first == second


def test_decision_path_is_float_free(instance1, instance2):
    for inst in (instance1, instance2):
        report = tc.admissibility_check(inst)
        bound = tc.verification_bound(inst)
        assert isinstance(bound.v, Fraction)
        assert all(type(t_prime) is int for t_prime in bound.orbit)
        assert all(type(s) is int for s in tc.squares_mod(24 * inst.m))
        assert_no_floats(report)
        assert_no_floats(bound.v)
        for rep in coset_reps(inst.N):
            cb = cusp_order_bound(rep, inst.m, inst.r)
            assert isinstance(cb, CuspBound)
            assert isinstance(cb.value, Fraction)
            assert type(cb.lam) is int
            assert isinstance(aux_cusp_order(rep, inst.r_prime), Fraction)
