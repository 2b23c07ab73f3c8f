"""Counting series, slice series and claim reduction."""

import dataclasses

import pytest

import oracles
import tsppcong as tc


def test_counting_series_first_values():
    assert tc.tspp_series(7).coeffs == (1, 1, 0, 0, 1, 0, 0, 2)
    assert tc.tspp_series(0).coeffs == (1,)


def test_counting_series_matches_uncompressed_expansion():
    # orders 0..6 fill at most two slots and take no shifted addition, 7..12
    # take the first, shortest ones
    for order in (*range(13), 150):
        brute = oracles.tspp_brute(order)
        assert list(tc.tspp_series(order).coeffs) == brute, order
        mod2 = tc.tspp_series(order, tc.residues_mod(2)).coeffs
        assert list(mod2) == [c % 2 for c in brute], order


def test_counting_series_mod_kernel_matches_exact():
    # counts pass 2**31 at n = 1189 and 2**63 at n = 4264, so every modulus
    # wraps; the kernel's values stay below 2u, so 2**30 - 1 is the last
    # int32 modulus, 2**30 the first int64 one and 2**62 the first object one
    order = 5000
    exact = tc.tspp_series(order)
    moduli = (4, 5, 25, 125, 11, 2**20, 2**20 + 1, 2**30 - 1, 2**30, 2**31 - 1)
    for u in (*moduli, 2**61 - 1, 2**62 - 1, 2**62, 2**63 - 25):
        assert tc.tspp_series(order, tc.residues_mod(u)) == exact.reduced(u), u


def test_slice_series_first_values():
    g = tc.slice_series(5)
    assert g.coeffs == (1, 2, 2, 4, 5, 6)
    assert g[0] == 1
    assert g[1] == 2 == tc.tspp_series(7)[7]


def test_slice_series_matches_brute_force():
    order = 60
    assert list(tc.slice_series(order).coeffs) == oracles.slice_brute(order)


def test_slice_variant_exponents():
    assert tc.slice_variant_spec(3, 5).as_dict() == {1: 123, 2: 3, 5: -25, 10: 0}
    assert tc.slice_variant_spec(1, 11).as_dict() == {1: 9, 2: 3, 11: -1, 22: 0}
    assert tc.slice_variant_spec(2, 2).as_dict() == {1: 2, 2: 1, 4: 0}
    with pytest.raises(ValueError):
        tc.slice_variant_spec(0, 5)
    with pytest.raises(ValueError):
        tc.slice_variant_spec(1, 6)


def test_slice_variant_weighted_sum_is_constant():
    # the weighted exponent sum collapses to 4 for every odd prime
    for p in (3, 5, 7, 11, 13):
        for alpha in (1, 2, 3):
            assert tc.slice_variant_spec(alpha, p).weighted_exponent_sum() == 4


def test_slice_variant_first_values_mod_125():
    got = tc.slice_variant_series(3, 5, 1, tc.residues_mod(125))
    assert got.coeffs == (1, 2)


@pytest.mark.parametrize("alpha,p", [(3, 5), (1, 11), (2, 5), (1, 5), (2, 2)])
def test_slice_variant_congruent_to_slice(alpha, p):
    order = 300
    ring = tc.residues_mod(p**alpha)
    assert tc.slice_variant_series(alpha, p, order, ring) == tc.slice_series(order, ring)


def test_check_support():
    assert tc.check_support(0).passed
    report = tc.check_support(2000)
    assert report.passed and report.checked == 1333
    # indices 1 mod 3 do carry mass, so the check is not vacuous
    f = tc.tspp_series(50)
    assert any(f[n] for n in range(1, 51) if n % 3 == 1)


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
        tc.reduce_claim(tc.CongruenceClaim("f", 1, 0, 5))


def test_reduce_claim_only_accepts_counting_sequence():
    with pytest.raises(ValueError):
        tc.CongruenceClaim("gap", 10, 5, 5)  # so reduce_claim only ever sees f claims
