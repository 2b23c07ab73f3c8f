"""Counting series, slice series and claim reduction."""

import dataclasses
import re

import numpy as np
import pytest

import oracles
import tsppcong as tc
from tsppcong.series import array_dtype


def test_counting_series_first_values():
    assert tc.tspp_series(7).coeffs == (1, 1, 0, 0, 1, 0, 0, 2)
    assert tc.tspp_series(0).coeffs == (1,)


def test_counting_series_matches_uncompressed_expansion():
    # orders 0..6 fill lc <= 2 slots and take no cumulative sum; 0..40 give
    # lc = 0..14, so every residue of the order mod 3 and 0 to 3 sums, and
    # 150 (lc = 50) runs six sums down columns of 3, 5, ..., 13 slots, the
    # last one over only 8 slots
    for order in (*range(41), 150):
        brute = oracles.tspp_brute(order)
        assert list(tc.tspp_series(order).coeffs) == brute, order
        mod2 = tc.tspp_series(order, tc.residues_mod(2)).coeffs
        assert list(mod2) == [c % 2 for c in brute], order


def test_counting_series_step_counts_match_brute_force():
    # step j runs iff j(j+1) < lc, so the count of cumulative sums changes
    # between lc = j(j+1) and j(j+1) + 1; each such lc is reached by three
    # orders, 3lc - 2 through 3lc.  The brute-force prefixes agree, so one
    # expansion to the largest order serves them all
    orders = [3 * lc - k for j in range(1, 9) for lc in (j * (j + 1), j * (j + 1) + 1) for k in (2, 1, 0)]
    brute = oracles.tspp_brute(max(orders))
    for order in orders:
        expected = brute[: order + 1]
        assert list(tc.tspp_series(order).coeffs) == expected, order
        for u in (2, 125):
            got = tc.tspp_series(order, tc.residues_mod(u)).coeffs
            assert list(got) == [c % u for c in expected], (order, u)


def test_counting_series_mod_kernel_matches_exact():
    # counts pass 2**31 at n = 1189 and 2**63 at n = 4264, so every modulus
    # wraps.  Order 5000 fills lc = 1667 slots; a column sum and the total
    # each add at most lc + 1 residues, and array_dtype(u * 1668) picks int16
    # through u = 19, int32 from 20 through 1287460, int64 from 1287461
    # through 5529599542478882 and object from 5529599542478883 on.  No
    # modulus runs in int8 there, so the 2**7 edge is crossed at order 43
    # (lc = 15, bound 16u): int8 through u = 7, int16 from u = 8
    edges = {
        (43, 7): np.int8,
        (43, 8): np.int16,
        (5000, 19): np.int16,
        (5000, 20): np.int32,
        (5000, 1287460): np.int32,
        (5000, 1287461): np.int64,
        (5000, 5529599542478882): np.int64,
        (5000, 5529599542478883): object,
    }
    for (order, u), dtype in edges.items():
        assert array_dtype(u * ((order + 2) // 3 + 1)) is dtype, (order, u)
    exact = {order: tc.tspp_series(order) for order in (43, 5000)}
    cases = [*edges, *((5000, u) for u in (2, 4, 5, 25, 125, 11, 5500, 2**31 - 1, 2**62, 2**63 - 25))]
    for order, u in cases:
        assert tc.tspp_series(order, tc.residues_mod(u)) == exact[order].reduced(u), (order, u)


def test_counting_series_refuses_non_int_orders():
    # True would expand to order 1, and a float used to fail inside numpy
    for bad in (True, False, 7.0, "7", np.int64(7), None):
        with pytest.raises(ValueError, match="order must be a nonnegative integer, got " + re.escape(repr(bad))):
            tc.tspp_series(bad)
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            tc.check_support(bad)
    with pytest.raises(ValueError, match="got -1"):
        tc.tspp_series(-1, tc.residues_mod(5))


def test_slice_series_first_values():
    g = tc.slice_series(5)
    assert g.coeffs == (1, 2, 2, 4, 5, 6)
    assert g[0] == 1
    assert g[1] == 2 == tc.tspp_series(7)[7]


def test_slice_series_matches_brute_force():
    order = 60
    assert list(tc.slice_series(order).coeffs) == oracles.slice_brute(order)


def test_slice_variant_exponents():
    assert dict(tc.slice_variant_spec(3, 5).exponents) == {1: 123, 2: 3, 5: -25, 10: 0}
    assert dict(tc.slice_variant_spec(1, 11).exponents) == {1: 9, 2: 3, 11: -1, 22: 0}
    assert dict(tc.slice_variant_spec(2, 2).exponents) == {1: 2, 2: 1, 4: 0}
    with pytest.raises(ValueError):
        tc.slice_variant_spec(0, 5)
    with pytest.raises(ValueError):
        tc.slice_variant_spec(1, 6)
    # True would give the alpha = 1 spec, a float would reach is_prime
    for alpha, p in ((True, 5), (1, 5.0), (2.0, 5)):
        with pytest.raises(ValueError, match="must be integers"):
            tc.slice_variant_spec(alpha, p)


def test_slice_variant_weighted_sum_is_constant():
    # the weighted exponent sum collapses to 4 for every odd prime
    for p in (3, 5, 7, 11, 13):
        for alpha in (1, 2, 3):
            assert tc.slice_variant_spec(alpha, p).weighted_exponent_sum() == 4


def test_slice_variant_first_values_mod_125():
    got = tc.slice_variant_series(3, 5, 1, tc.residues_mod(125))
    assert got.coeffs == (1, 2)


@pytest.mark.parametrize("alpha,p", [(3, 5), (1, 11), (2, 5), (1, 5), (2, 2), (2, 7), (3, 3), (1, 13)])
def test_slice_variant_congruent_to_slice(alpha, p):
    # the binomial identity proves the congruence; the expansions sample it
    u = p**alpha
    check = tc.check_variant_congruence(alpha, p)
    assert check.passed and check.checked == u + 1
    exponent = f"^{u // p}" if alpha > 1 else ""
    assert check.detail == f"(1-q)^{u} = (1-q^{p}){exponent} (mod {u})"
    order = 300
    ring = tc.residues_mod(u)
    assert tc.slice_variant_series(alpha, p, order, ring) == tc.slice_series(order, ring)


def test_check_support():
    assert tc.check_support(0).passed
    report = tc.check_support(2000)
    assert report.passed and report.checked == 1333
    # indices 1 mod 3 do carry mass, so the check is not vacuous
    f = tc.tspp_series(50)
    assert any(f[n] for n in range(1, 51) if n % 3 == 1)


def test_checks_report_their_first_violation(monkeypatch):
    # f(9) sits on the vanishing support (checked sixth, after 2, 3, 5, 6, 8)
    # and f(13) = slice(2) = 2; both checks read one corrupted expansion
    exact = tc.tspp_series

    def corrupted(order, ring=tc.INTEGERS):
        coeffs = list(exact(order, ring).coeffs)
        coeffs[9] += 4
        coeffs[13] += 1
        return tc.TruncatedSeries(ring, tuple(coeffs))

    monkeypatch.setattr(tc.tspp, "tspp_series", corrupted)
    support = tc.check_support(100)
    assert (support.checked, support.first_violation) == (6, 9)
    assert support.detail == "count at index 9 is 4, expected 0"
    identity = tc.check_slice_identity(100)
    assert (identity.checked, identity.first_violation) == (3, 13)
    assert identity.detail == "count(13) = 3 but slice(2) = 2"


def test_check_slice_identity():
    report = tc.check_slice_identity(500)
    assert report.passed
    assert report.checked == 84  # n = 0..83, since 6*83+1 = 499
    assert tc.check_slice_identity(0).passed


# ---------------------------------------------------------------------------
# claims and reduction
# ---------------------------------------------------------------------------


def test_claim_validation():
    with pytest.raises(ValueError):
        tc.CongruenceClaim("h", 2, 1, 5)
    with pytest.raises(ValueError, match="unknown sequence 'g'"):
        tc.CongruenceClaim("g", 2, 1, 5)  # the plain slice series is never a claim
    with pytest.raises(ValueError):
        tc.CongruenceClaim("f", 0, 0, 5)
    with pytest.raises(ValueError):
        tc.CongruenceClaim("f", 10, 10, 5)
    with pytest.raises(ValueError):
        tc.CongruenceClaim("f", 10, 5, 1)
    with pytest.raises(ValueError, match="unknown sequence 'gap'"):
        tc.CongruenceClaim("gap", 625, 229, 125)  # slice claims are SliceClaims
    fields = [f.name for f in dataclasses.fields(tc.CongruenceClaim)]
    assert fields == ["sequence", "step", "offset", "modulus"]
    assert tc.CongruenceClaim("f", 1250, 125, 125).describe() == "f(1250n+125) = 0 (mod 125)"
    assert tc.SliceClaim(625, 229, 3, 5).modulus == 125


def test_claim_field_types():
    # a step, offset or modulus that is not an int would reach the
    # verifier's levels and the residue rings
    for bad in (5.0, True, "5", np.int64(5)):
        for fields in ((bad, 0, 7), (10, bad, 7), (10, 0, bad)):
            with pytest.raises(ValueError, match="must be an integer, got " + re.escape(repr(bad))):
                tc.CongruenceClaim("f", *fields)
    assert tc.CongruenceClaim("f", 10, 5, 5).modulus == 5


def test_claim_containment():
    cited = tc.CongruenceClaim("f", 10, 5, 5)
    assert cited.contains(tc.CongruenceClaim("f", 2750, 825, 11))
    assert cited.contains(tc.CongruenceClaim("f", 10, 5, 7))  # the modulus plays no part
    assert not cited.contains(tc.CongruenceClaim("f", 2750, 826, 11))  # other residue
    assert not cited.contains(tc.CongruenceClaim("f", 25, 5, 11))  # step not a multiple
    with pytest.raises(ValueError):
        tc.CongruenceClaim("gap", 2750, 825, 11)  # no claim about another sequence exists


@pytest.mark.parametrize(
    "A,B,u,expected_m,expected_t,expected_alpha,expected_p,verify_class",
    [
        (1250, 125, 125, 625, 229, 3, 5, 1),
        (1250, 1125, 125, 625, 604, 3, 5, 2),
        (2750, 825, 11, 1375, 1054, 1, 11, 2),
        (2750, 1925, 11, 1375, 779, 1, 11, 1),
    ],
)
def test_reduce_claim_known_cases(A, B, u, expected_m, expected_t, expected_alpha, expected_p, verify_class):
    steps = tc.reduce_claim(tc.CongruenceClaim("f", A, B, u))
    assert len(steps) == 3
    assert [s.residue_class for s in steps] == [0, 1, 2]
    verify = [s for s in steps if s.outcome == "verify"]
    assert len(verify) == 1
    step = verify[0]
    assert step.residue_class == verify_class
    g = step.g_claim
    assert (g.step, g.offset, g.modulus, g.alpha, g.p) == (
        expected_m,
        expected_t,
        u,
        expected_alpha,
        expected_p,
    )
    for s in steps:
        if s.outcome == "trivially-zero":
            assert s.g_claim is None
            assert s.offset % 3 in (0, 2)


def test_reduce_claim_affine_identity():
    # the emitted progression must match the original indices on every class
    for A, B, u in ((1250, 125, 125), (2750, 1925, 11), (50, 13, 5), (2, 1, 7)):
        claim = tc.CongruenceClaim("f", A, B, u)
        try:
            steps = tc.reduce_claim(claim)
        except tc.NotReducibleError:
            continue
        for s in steps:
            for k in range(3):
                index = A * (3 * k + s.residue_class) + B
                assert index == s.step * k + s.offset
                if s.outcome == "trivially-zero":
                    assert index % 3 in (0, 2)
                else:
                    assert index == 6 * (s.g_claim.step * k + s.g_claim.offset) + 1


def test_reduce_claim_rejects_non_prime_power_modulus():
    with pytest.raises(tc.NotReducibleError, match="prime power"):
        tc.reduce_claim(tc.CongruenceClaim("f", 1250, 125, 15))


def test_reduce_claim_rejects_4_mod_6_branch():
    # f(6n+4) is outside the slice identity and f(4) = 1, so nothing to prove
    with pytest.raises(tc.NotReducibleError, match="4 \\(mod 6\\)"):
        tc.reduce_claim(tc.CongruenceClaim("f", 6, 4, 5))


def test_reduce_claim_rejects_step_not_divisible_by_6():
    with pytest.raises(tc.NotReducibleError, match="not divisible by 6"):
        tc.reduce_claim(tc.CongruenceClaim("f", 3, 1, 5))


def test_reduce_claim_only_accepts_counting_sequence():
    with pytest.raises(ValueError):
        tc.CongruenceClaim("gap", 10, 5, 5)  # so reduce_claim only ever sees f claims
