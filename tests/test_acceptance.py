"""Acceptance suite.

One test per acceptance criterion, each printing a pass/fail line (run with
pytest -s to see them).  The expensive certificates are computed once per
session by the fixtures in conftest.py, timed from a cold expansion cache.
"""

import random
import time
from fractions import Fraction

import tsppcong as tc
from tsppcong.documents import canonical_json, certificate_to_doc
from tsppcong.verification import clear_expansion_cache, coset_reps, cusp_order_bound, aux_cusp_order
from test_verification import assert_no_floats


def report(num, ok, elapsed, description):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d}: {status} ({elapsed:7.2f}s) {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_orbit_reproduction(instance1, instance2):
    start = time.perf_counter()
    o1 = tc.orbit(instance1)
    o2 = tc.orbit(instance2)
    elapsed = time.perf_counter() - start
    ok = o1 == (229, 604) and o2 == (779, 1054) and elapsed < 1.0
    report(1, ok, elapsed, f"orbits {o1} and {o2}")


def test_criterion_02_bound_reproduction(instance1, instance2):
    start = time.perf_counter()
    b1 = tc.verification_bound(instance1)
    b2 = tc.verification_bound(instance2)
    elapsed = time.perf_counter() - start
    ok = (
        b1.v_floor == 84
        and b2.v_floor == 152
        and isinstance(b1.v, Fraction)
        and isinstance(b2.v, Fraction)
        and b1.v == Fraction(10151, 120)
        and b2.v == Fraction(9131, 60)
        and elapsed < 1.0
    )
    report(2, ok, elapsed, f"bounds {b1.v} (floor {b1.v_floor}) and {b2.v} (floor {b2.v_floor})")


def test_criterion_03_admissibility_and_cusp_conditions(instance1, instance2):
    start = time.perf_counter()
    ok = True
    counts = []
    for inst in (instance1, instance2):
        adm = tc.admissibility_check(inst)
        ok = ok and adm.passed
        kap = tc.kappa(inst.m)
        reps = coset_reps(inst.N)
        counts.append(len(reps))
        for rep in reps:
            total = cusp_order_bound(rep, inst.m, inst.r, kap).value + aux_cusp_order(
                rep, inst.r_prime
            )
            ok = ok and total >= 0
    elapsed = time.perf_counter() - start
    ok = ok and counts == [4, 8] and elapsed < 5.0
    report(3, ok, elapsed, f"admissibility passed, cusp sums >= 0 at {counts} representatives")


def test_criterion_04_mod125_verification(certificate1):
    cert, elapsed = certificate1
    by_t = {c.t_prime: c for c in cert.checked}
    ok = (
        cert.verdict == "VERIFIED"
        and cert.expansion_order == 53_104
        and sorted(by_t) == [229, 604]
        and all(len(by_t[t].indices) == 85 and by_t[t].all_zero for t in by_t)
        and elapsed < 60.0
    )
    report(4, ok, elapsed, "g[3,5](625n+229) and (625n+604) vanish mod 125 for n <= 84, VERIFIED")


def test_criterion_05_mod11_verification(certificate2):
    cert, elapsed = certificate2
    by_t = {c.t_prime: c for c in cert.checked}
    ok = (
        cert.verdict == "VERIFIED"
        and cert.expansion_order == 210_054
        and sorted(by_t) == [779, 1054]
        and all(len(by_t[t].indices) == 153 and by_t[t].all_zero for t in by_t)
        and elapsed < 600.0
    )
    report(5, ok, elapsed, "g[1,11](1375n+779) and (1375n+1054) vanish mod 11 for n <= 152, VERIFIED")


def test_criterion_06_slice_identity_exact():
    start = time.perf_counter()
    check = tc.check_slice_identity(5_000)
    elapsed = time.perf_counter() - start
    ok = check.passed and check.checked == 834
    report(6, ok, elapsed, f"count(6n+1) equals the slice series for {check.checked} values, exactly")


def test_criterion_07_generator_congruences():
    start = time.perf_counter()
    order = 2_000
    mismatches = 0
    for alpha, p in ((3, 5), (1, 11)):
        ring = tc.residues_mod(p**alpha)
        variant = tc.slice_variant_series(alpha, p, order, ring)
        plain = tc.slice_series(order, ring)
        mismatches += sum(1 for n in range(order + 1) if variant[n] != plain[n])
    elapsed = time.perf_counter() - start
    ok = mismatches == 0
    report(7, ok, elapsed, f"slice variants match the slice series mod 125 and mod 11 up to n = {order}")


def test_criterion_08_known_congruence_regression():
    start = time.perf_counter()
    results = []
    counts = tc.tspp_series(50_000, tc.residues_mod(100))  # lcm of 5, 25 and 4
    for claim in tc.known_congruences():
        check = tc.oracle_check(claim, counts)
        results.append((claim.describe(), check.passed, check.checked))
    elapsed = time.perf_counter() - start
    ok = all(p for _, p, _ in results) and elapsed < 60.0
    counts = [c for _, _, c in results]
    report(8, ok, elapsed, f"known congruences hold on the oracle range, {counts} values checked")


def test_criterion_09_direct_progression_spot_checks():
    start = time.perf_counter()
    claims = [
        tc.CongruenceClaim("f", 1250, 125, 125),
        tc.CongruenceClaim("f", 1250, 1125, 125),
        tc.CongruenceClaim("f", 2750, 825, 11),
        tc.CongruenceClaim("f", 2750, 1925, 11),
        tc.CongruenceClaim("f", 2750, 825, 55),
        tc.CongruenceClaim("f", 2750, 1925, 55),
    ]
    counts = tc.tspp_series(50_000, tc.residues_mod(1375))  # lcm of 125 and 55
    checks = [tc.oracle_check(claim, counts) for claim in claims]
    elapsed = time.perf_counter() - start
    ok = all(c.passed for c in checks)
    ok = ok and [c.checked for c in checks] == [40, 40, 18, 18, 18, 18]
    report(9, ok, elapsed, "proved progressions also vanish on the direct counting oracle")


def test_criterion_10_property_suites(instance1, instance2, certificate1, certificate2):
    start = time.perf_counter()
    rng = random.Random(20_240_817)
    ok = True

    # ring homomorphism, inverse and power laws on random series
    for u in (4, 5, 11, 25, 121, 125):
        ring = tc.residues_mod(u)
        for _ in range(5):
            raw_a = [rng.randrange(-20, 21) for _ in range(rng.randrange(1, 51))]
            raw_b = [rng.randrange(-20, 21) for _ in range(rng.randrange(1, 51))]
            a, b = tc.TruncatedSeries(tc.INTEGERS, tuple(raw_a)), tc.TruncatedSeries(
                tc.INTEGERS, tuple(raw_b)
            )
            ok = ok and tc.mul(a, b).reduced(u) == tc.mul(a.reduced(u), b.reduced(u))
            unit = tc.TruncatedSeries(tc.INTEGERS, (1,) + tuple(raw_a[1:]))
            ok = ok and tc.mul(unit, tc.invert(unit)).coeffs == (1,) + (0,) * unit.order
            ok = ok and tc.power(unit, -2).reduced(u) == tc.power(unit.reduced(u), -2)
            e1, e2 = rng.randrange(-2, 3), rng.randrange(-2, 3)
            ok = ok and tc.power(unit, e1 + e2) == tc.mul(tc.power(unit, e1), tc.power(unit, e2))

    # pentagonal support
    series = tc.pentagonal_series(3, 500)
    support = {e for e, c in enumerate(series.coeffs) if c}
    expected = {0}
    k = 1
    while 3 * k * (3 * k - 1) // 2 <= 500:
        expected.add(3 * k * (3 * k - 1) // 2)
        if 3 * k * (3 * k + 1) // 2 <= 500:
            expected.add(3 * k * (3 * k + 1) // 2)
        k += 1
    ok = ok and support == expected

    # orbit closure
    for inst in (instance1, instance2):
        members = set(tc.orbit(inst))
        w = inst.r.weighted_exponent_sum()
        ok = ok and inst.t in members
        for t_prime in members:
            for s in tc.squares_mod(24 * inst.m):
                ok = ok and (t_prime * s + (s - 1) // 24 * w) % inst.m in members

    # no float anywhere in the decision data
    assert_no_floats(certificate1[0])
    assert_no_floats(certificate2[0])

    # byte determinism: a full recomputation serializes identically
    first = canonical_json(certificate_to_doc(certificate1[0]))
    clear_expansion_cache()
    second = canonical_json(certificate_to_doc(tc.verify_instance(instance1)))
    ok = ok and first == second

    elapsed = time.perf_counter() - start
    report(10, ok, elapsed, "algebra laws, orbit closure, float-free audit, byte-identical reruns")
