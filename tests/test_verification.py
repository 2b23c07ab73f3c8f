"""Orbit, cusp and admissibility machinery, the verification bound, and the
finite check itself."""

from dataclasses import fields, is_dataclass
from fractions import Fraction
from math import gcd

import pytest

import tsppcong as tc
from tsppcong.documents import canonical_json, certificate_to_doc
from tsppcong.verification import (
    CuspBound,
    clear_expansion_cache,
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
        for f in fields(obj):
            assert_no_floats(getattr(obj, f.name), f"{path}.{f.name}")
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
        M=1,
        N=5,
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
    with pytest.raises(ValueError):
        tc.kappa(0)


def test_squares_mod():
    assert tc.squares_mod(24) == (1,)
    assert tc.squares_mod(8) == (1,)
    assert tc.squares_mod(1) == (0,)
    assert tc.squares_mod(5) == (1, 4)
    assert tc.squares_mod(12) == (1,)


def test_orbit_reproduces_instances(instance1, instance2):
    assert tc.orbit(instance1) == (229, 604)
    assert tc.orbit(instance2) == (779, 1054)


def test_orbit_degenerate_step():
    inst = tc.VerificationInstance(
        m=1, M=10, N=10, t=0,
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
    value, lam = cusp_order_bound(rep, instance1.m, instance1.r, tc.kappa(instance1.m))
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
    value, lam = cusp_order_bound(rep, 1, tc.EtaQuotientSpec(1, {1: 1}), tc.kappa(1))
    assert value == Fraction(1, 24)
    assert lam == 0


def test_cusp_order_bound_scan_order_independent(instance2):
    # recompute the minimum with the loop reversed; the value must not change
    kap = tc.kappa(instance2.m)
    for rep in coset_reps(instance2.N):
        forward = cusp_order_bound(rep, instance2.m, instance2.r, kap)
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


def test_instance2_cusp_table(instance2):
    kap = tc.kappa(instance2.m)
    table = {}
    for rep in coset_reps(instance2.N):
        bound = cusp_order_bound(rep, instance2.m, instance2.r, kap)
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
        m=625, M=10, N=3, t=229,
        r=instance1.r, r_prime=tc.EtaQuotientSpec(3, {}), u=125,
    )
    report = tc.admissibility_check(broken)
    assert not report.passed
    assert "m_primes_divide_group_level" in report.failing()


def test_admissibility_rejects_even_step():
    inst = tc.VerificationInstance(
        m=4, M=4, N=4, t=3,
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
    assert (v1.v_floor, v1.t_min) == (84, 229)

    v2 = tc.verification_bound(instance2)
    assert v2.v == Fraction(3666, 24) - Fraction(4, 33000) - Fraction(779, 1375)
    assert v2.v == Fraction(9131, 60)
    assert (v2.v_floor, v2.t_min) == (152, 779)


def test_verification_bound_degenerate():
    inst = tc.VerificationInstance(
        m=1, M=1, N=1, t=0,
        r=tc.EtaQuotientSpec(1, {}), r_prime=tc.EtaQuotientSpec(1, {}), u=2,
    )
    v = tc.verification_bound(inst)
    assert v.v == 0 and v.v_floor == 0 and v.t_min == 0


def test_bound_floor_uses_true_floor_for_negative_values():
    inst = tc.VerificationInstance(
        m=5, M=1, N=5, t=4,
        r=tc.EtaQuotientSpec(1, {1: -1}),
        r_prime=tc.EtaQuotientSpec(5, {}), u=5,
    )
    v = tc.verification_bound(inst)
    assert v.v == Fraction(-6, 24) - Fraction(-1, 120) - Fraction(4, 5)
    assert v.v == Fraction(-25, 24)
    assert v.v_floor == -2  # floor, not truncation toward zero


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
        tc.verification.ProgressionCheck(4, (4,), True, None),
    )
    assert_no_floats(cert)


def test_verify_reports_negative_cusp_bound(tiny_instance):
    # drop the auxiliary compensation: the c=1 cusp bound turns negative
    bare = tc.VerificationInstance(
        m=5, M=1, N=5, t=4,
        r=tc.EtaQuotientSpec(1, {1: -1}),
        r_prime=tc.EtaQuotientSpec(5, {}), u=5,
    )
    cert = tc.verify_instance(bare)
    assert cert.verdict == "FAILED"
    assert "cusp bound negative" in cert.failure
    assert cert.checked == ()


def test_verify_perturbed_seed_fails_admissibility(instance1):
    perturbed = tc.VerificationInstance(
        m=625, M=10, N=10, t=230,
        r=instance1.r, r_prime=instance1.r_prime, u=125,
    )
    cert = tc.verify_instance(perturbed)
    assert cert.verdict == "FAILED"
    assert cert.failure == (
        "admissibility condition failed: orbit_step_divides_group_level"
    )
    assert cert.expansion_order is None and cert.checked == ()


def test_verify_coefficient_violation_is_reported():
    # claim p(5n+1) = 0 (mod 5): admissible and cusp-safe with the same
    # auxiliary vector, but p(1) = 1 breaks the coefficient check
    inst = tc.VerificationInstance(
        m=5, M=1, N=5, t=1,
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
    with pytest.raises(ValueError):
        tc.VerificationInstance(m=625, M=10, N=10, t=625, r=spec, r_prime=aux, u=125)
    with pytest.raises(ValueError):
        tc.VerificationInstance(m=625, M=11, N=10, t=229, r=spec, r_prime=aux, u=125)
    with pytest.raises(ValueError):
        tc.VerificationInstance(m=625, M=10, N=11, t=229, r=spec, r_prime=aux, u=125)
    with pytest.raises(ValueError):
        tc.VerificationInstance(m=625, M=10, N=10, t=229, r=spec, r_prime=aux, u=1)


def test_certificate_is_reproducible_byte_for_byte(tiny_instance):
    first = canonical_json(certificate_to_doc(tc.verify_instance(tiny_instance)))
    clear_expansion_cache()
    second = canonical_json(certificate_to_doc(tc.verify_instance(tiny_instance)))
    assert first == second


def test_decision_path_is_float_free(instance1, instance2):
    for inst in (instance1, instance2):
        report = tc.admissibility_check(inst)
        bound = tc.verification_bound(inst)
        assert isinstance(bound.v, Fraction)
        assert isinstance(bound.v_floor, int)
        assert_no_floats(report)
        assert_no_floats(bound.v)
        kap = tc.kappa(inst.m)
        for rep in coset_reps(inst.N):
            cb = cusp_order_bound(rep, inst.m, inst.r, kap)
            assert isinstance(cb, CuspBound)
            assert isinstance(cb.value, Fraction)
            assert isinstance(aux_cusp_order(rep, inst.r_prime), Fraction)
