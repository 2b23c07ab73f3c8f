"""Series arithmetic: frozen examples from the brute-force oracles plus
algebraic property tests."""

import re
from functools import lru_cache
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import tsppcong as tc
from tsppcong.series import array_dtype, jacobi_terms, pentagonal_terms

MODULI = [4, 5, 11, 25, 121, 125]
# fits int64, but one pass over it could overflow: forces the object arrays
HUGE_MODULUS = 2**62 + 1

coeff_lists = st.lists(st.integers(-30, 30), min_size=1, max_size=51)
unit_coeff_lists = st.tuples(st.sampled_from([1, -1]), st.lists(st.integers(-9, 9), max_size=30)).map(
    lambda t: [t[0]] + t[1]
)


def exact(values):
    return tc.TruncatedSeries(tc.INTEGERS, tuple(values))


# ---------------------------------------------------------------------------
# pentagonal series
# ---------------------------------------------------------------------------


def test_pentagonal_series_examples():
    assert tc.pentagonal_series(1, 7).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)
    assert tc.pentagonal_series(2, 5).coeffs == (1, 0, -1, 0, -1, 0)
    assert tc.pentagonal_series(1, 0).coeffs == (1,)


@pytest.mark.parametrize("delta,order", [(1, 40), (2, 40), (3, 60), (5, 100)])
def test_pentagonal_series_matches_brute_force(delta, order):
    assert list(tc.pentagonal_series(delta, order).coeffs) == oracles.euler_product(delta, order)


@given(delta=st.integers(1, 6), order=st.integers(0, 200))
def test_pentagonal_support_is_exactly_pentagonal(delta, order):
    series = tc.pentagonal_series(delta, order)
    expected = {}
    k = 1
    while delta * k * (3 * k - 1) // 2 <= order:
        sign = (-1) ** k
        expected[delta * k * (3 * k - 1) // 2] = sign
        if delta * k * (3 * k + 1) // 2 <= order:
            expected[delta * k * (3 * k + 1) // 2] = sign
        k += 1
    expected[0] = 1
    for n in range(order + 1):
        assert series[n] == expected.get(n, 0)


def test_pentagonal_series_rejects_bad_arguments():
    with pytest.raises(ValueError):
        tc.pentagonal_series(0, 5)
    with pytest.raises(ValueError):
        tc.pentagonal_series(1, -1)
    # a bool is not an int here: True would dilate by 1, and a float order
    # would fail inside list repetition with a TypeError
    for delta, order in ((True, 3), (1, True), (2.0, 3), (1, 2.0), ("3", 3), (1, "3")):
        with pytest.raises(ValueError, match="must be integers"):
            tc.pentagonal_series(delta, order)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def test_mul_examples():
    a = exact([3, 1, -4, 1, 5])
    one = exact([1, 0, 0, 0, 0])
    assert tc.mul(a, one).coeffs == a.coeffs
    assert tc.mul(exact([1, -1, 0, 0]), exact([1, 1, 0, 0])).coeffs == (1, 0, -1, 0)
    square = tc.mul(tc.pentagonal_series(1, 6), tc.pentagonal_series(1, 6))
    assert square.coeffs == (1, -2, -1, 2, 1, 2, -2)


def test_mul_truncates_to_shorter_operand():
    a = exact([1, 2, 3, 4, 5])
    b = exact([1, 1])
    assert tc.mul(a, b).coeffs == (1, 3)


def test_mul_rejects_ring_mismatch():
    a = exact([1, 2])
    b = tc.TruncatedSeries(tc.residues_mod(5), (1, 2))
    with pytest.raises(tc.RingMismatchError):
        tc.mul(a, b)


@given(a=coeff_lists, b=coeff_lists)
def test_mul_commutative(a, b):
    x, y = exact(a), exact(b)
    assert tc.mul(x, y) == tc.mul(y, x)


@given(a=coeff_lists, b=coeff_lists, c=coeff_lists)
@settings(max_examples=60)
def test_mul_associative(a, b, c):
    x, y, z = exact(a), exact(b), exact(c)
    assert tc.mul(tc.mul(x, y), z) == tc.mul(x, tc.mul(y, z))


@given(a=coeff_lists, b=coeff_lists, u=st.sampled_from(MODULI))
def test_mul_ring_homomorphism(a, b, u):
    lifted = tc.mul(exact(a), exact(b)).reduced(u)
    direct = tc.mul(exact(a).reduced(u), exact(b).reduced(u))
    assert lifted == direct


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


def test_invert_examples():
    assert tc.invert(exact([1, -1, 0, 0])).coeffs == (1, 1, 1, 1)
    partitions = tc.invert(tc.pentagonal_series(1, 5))
    assert partitions.coeffs == (1, 1, 2, 3, 5, 7)
    assert partitions.coeffs == tuple(oracles.partition_count(n) for n in range(6))
    identity = exact([1, 0, 0])
    assert tc.invert(identity).coeffs == (1, 0, 0)


def test_invert_reports_offending_gcd():
    bad = tc.TruncatedSeries(tc.residues_mod(4), (2, 1, 1))
    with pytest.raises(tc.NonUnitConstantError) as info:
        tc.invert(bad)
    assert info.value.common == 2
    with pytest.raises(tc.NonUnitConstantError):
        tc.invert(exact([2, 0]))


@given(a=unit_coeff_lists)
def test_invert_is_right_inverse(a):
    series = exact(a)
    product = tc.mul(series, tc.invert(series))
    assert product.coeffs == (1,) + (0,) * series.order


@given(a=unit_coeff_lists, u=st.sampled_from(MODULI))
def test_invert_ring_homomorphism(a, u):
    assert tc.invert(exact(a)).reduced(u) == tc.invert(exact(a).reduced(u))


@st.composite
def non_trivial_unit_series(draw):
    """A series over Z/u whose constant term is a unit other than 1."""
    u = draw(st.sampled_from([4, 9, 125, 121]))
    c0 = draw(st.integers(2, u - 1).filter(lambda c: gcd(c, u) == 1))
    rest = draw(st.lists(st.integers(0, u - 1), max_size=40))
    return tc.TruncatedSeries(tc.residues_mod(u), (c0,) + tuple(rest))


@given(a=non_trivial_unit_series(), k=st.integers(1, 4))
def test_newton_inverse_with_non_trivial_unit_seed(a, k):
    u, order = a.ring.modulus, a.order
    one = (1,) + (0,) * order
    assert tc.mul(a, tc.invert(a)).coeffs == one
    # power(a, -k) * a**k == 1, with a**k expanded by the oracle
    a_k = [1] + [0] * order
    for _ in range(k):
        a_k = oracles.poly_mul(a_k, list(a.coeffs), order)
    product = oracles.poly_mul(list(tc.power(a, -k).coeffs), a_k, order)
    assert tuple(c % u for c in product) == one


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------


def test_power_examples():
    a = exact([2, 7, 1])
    assert tc.power(a, 0).coeffs == (1, 0, 0)
    cube = tc.power(tc.pentagonal_series(1, 6), 3)
    assert cube.coeffs == (1, -3, 0, 5, 0, 0, -7)
    colored = tc.power(tc.pentagonal_series(1, 4), -2)
    assert colored.coeffs == (1, 2, 5, 10, 20)
    assert colored.coeffs == tuple(oracles.two_colored_count(n) for n in range(5))
    # 2.0 used to fail inside the bit test, and True to return a itself
    for bad in (2.0, True):
        with pytest.raises(ValueError, match="exponent must be an integer, got " + re.escape(repr(bad))):
            tc.power(a, bad)


@given(a=unit_coeff_lists, e1=st.integers(-3, 3), e2=st.integers(-3, 3))
@settings(max_examples=60)
def test_power_addition_law(a, e1, e2):
    series = exact(a)
    combined = tc.power(series, e1 + e2)
    split = tc.mul(tc.power(series, e1), tc.power(series, e2))
    assert combined == split


@given(a=unit_coeff_lists, e=st.integers(-3, 3), u=st.sampled_from(MODULI))
@settings(max_examples=60)
def test_power_ring_homomorphism(a, e, u):
    assert tc.power(exact(a), e).reduced(u) == tc.power(exact(a).reduced(u), e)


# ---------------------------------------------------------------------------
# eta quotients
# ---------------------------------------------------------------------------


def test_eta_quotient_examples():
    spec = tc.slice_variant_spec(3, 5)
    assert tc.eta_quotient(spec, 1, tc.residues_mod(125)).coeffs == (1, 2)
    partitions = tc.eta_quotient(tc.EtaQuotientSpec(1, {1: -1}), 5)
    assert partitions.coeffs == (1, 1, 2, 3, 5, 7)
    ones = tc.eta_quotient(tc.EtaQuotientSpec(2, {1: 0, 2: 0}), 9)
    assert ones.coeffs == (1,) + (0,) * 9


def test_eta_quotient_spec_validation():
    with pytest.raises(ValueError):
        tc.EtaQuotientSpec(10, {3: 1})
    with pytest.raises(ValueError):
        tc.EtaQuotientSpec(0, {})
    # the pairs form keeps every pair: a repeated divisor is not overridden
    with pytest.raises(ValueError, match="divisor 1 is given twice"):
        tc.EtaQuotientSpec(10, [(1, 13), (1, 0)])
    # the level, every divisor and every exponent is an int, never coerced
    for level, exponents, value in (
        (2, {1: 2.7}, "2.7"),
        (2, {2: True}, "True"),
        (2, {1: "3"}, "'3'"),
        (2, {1.0: 1}, "1.0"),
        (2.0, {1: 1}, "2.0"),
        (True, {}, "True"),
    ):
        with pytest.raises(ValueError, match=re.escape(value)):
            tc.EtaQuotientSpec(level, exponents)
    spec = tc.EtaQuotientSpec(10, {5: -25, 1: 123, 2: 3})
    assert spec.exponents == ((1, 123), (2, 3), (5, -25), (10, 0))
    assert spec.exponent_sum() == 101
    assert spec.weighted_exponent_sum() == 4


@pytest.mark.parametrize("u", MODULI)
def test_eta_quotient_vector_kernel_matches_exact(u):
    spec = tc.EtaQuotientSpec(10, {1: 123, 2: 3, 5: -25, 10: 0})
    order = 80
    fast = tc.eta_quotient(spec, order, tc.residues_mod(u))
    slow = tc.eta_quotient(spec, order, tc.INTEGERS).reduced(u)
    assert fast == slow


@lru_cache(maxsize=None)
def euler_power(delta, r, order):
    """prod_{n >= 1}(1 - q^(delta*n)) ** r for r >= 0, by the oracle alone."""
    out = [1] + [0] * order
    for _ in range(r):
        out = oracles.poly_mul(out, oracles.euler_product(delta, order), order)
    return tuple(out)


@st.composite
def eta_specs(draw):
    level = draw(st.integers(1, 12))
    divs = [d for d in range(1, level + 1) if level % d == 0]
    exponents = {d: draw(st.integers(-6, 6)) for d in divs}
    return tc.EtaQuotientSpec(level, exponents)


@given(
    spec=eta_specs(),
    order=st.integers(0, 80),
    u=st.sampled_from([None] + MODULI + [HUGE_MODULUS]),
)
def test_eta_quotient_times_denominator_is_numerator(spec, order, u):
    ring = tc.INTEGERS if u is None else tc.residues_mod(u)
    lhs = list(tc.eta_quotient(spec, order, ring).coeffs)
    rhs = [1] + [0] * order
    for d, r in spec.nonzero():
        if r < 0:
            lhs = oracles.poly_mul(lhs, euler_power(d, -r, order), order)
        else:
            rhs = oracles.poly_mul(rhs, euler_power(d, r, order), order)
    if u is not None:
        lhs = [c % u for c in lhs]
        rhs = [c % u for c in rhs]
    assert lhs == rhs


progressions = st.integers(1, 12).flatmap(lambda step: st.tuples(st.just(step), st.integers(0, step - 1)))


@given(
    spec=eta_specs(),
    order=st.integers(0, 80),
    progression=progressions,
    u=st.sampled_from([None] + MODULI + [HUGE_MODULUS]),
)
def test_eta_quotient_progression_is_a_slice_of_the_full_expansion(spec, order, progression, u):
    step, offset = progression
    ring = tc.INTEGERS if u is None else tc.residues_mod(u)
    if offset > order:
        with pytest.raises(ValueError):
            tc.eta_quotient(spec, order, ring, step, offset)
        return
    full = tc.eta_quotient(spec, order, ring).coeffs
    assert tc.eta_quotient(spec, order, ring, step, offset).coeffs == full[offset::step]


# (r, n) pairs for the Newton loop: each r meets every power of two up to
# 256 at one of n + 1 = 2**k - 1, 2**k, 2**k + 1 in turn, so that the last
# doubling ends one short of the order, on it or one past it; a few r also
# meet all three at 512, and the order 600
NEWTON_CASES = [(r, 0) for r in range(1, 31)]
NEWTON_CASES += [(r, 2**k - 2 + (r + k) % 3) for r in range(1, 31) for k in range(1, 9)]
NEWTON_CASES += [(r, n) for r in (1, 2, 3, 4, 29, 30) for n in (510, 511, 512, 600)]


@pytest.mark.parametrize("u", [None] + MODULI + [HUGE_MODULUS])
def test_sparse_residual_newton_matches_dense_inverse(u):
    # eta_quotient inverts (q;q)**r through the sparse passes; invert runs
    # the same Newton loop on the dense product.  Mod 5 and 25 some Jacobi
    # weights vanish and are dropped, and HUGE_MODULUS runs in object arrays.
    ring = tc.INTEGERS if u is None else tc.residues_mod(u)
    for r, n in NEWTON_CASES:
        dense = tc.invert(tc.power(tc.pentagonal_series(1, n, ring), r))
        assert tc.eta_quotient(tc.EtaQuotientSpec(1, {1: -r}), n, ring) == dense, (r, n)


@pytest.mark.parametrize(
    "spec,order,step,offset,moduli",
    [
        # the shipped shapes, scaled down: period 25 over one class of d = 11
        # and over one class of d = 5
        (tc.slice_variant_spec(1, 11), 6_000, 275, 229, (11, 121)),
        (tc.slice_variant_spec(3, 5), 3_000, 125, 104, (125, 25)),
        # d does not divide the step and 1 < gcd(step, d) < d
        (tc.EtaQuotientSpec(6, {1: 2, 6: -3}), 900, 9, 4, (5, HUGE_MODULUS)),
        (tc.EtaQuotientSpec(12, {1: 1, 2: -1, 4: -2}), 900, 10, 7, (4, 121)),
        (tc.EtaQuotientSpec(10, {1: 4, 10: -1}), 900, 35, 12, (11,)),
        # gcd(step, d) = 1: every class is read, each at period step
        (tc.EtaQuotientSpec(7, {1: 1, 7: -2}), 500, 4, 3, (25,)),
        # fewer coefficients in the class than the period, and (last) a class
        # of the progression whose first read lies past the order
        (tc.slice_variant_spec(1, 11), 120, 275, 104, (11,)),
        (tc.slice_variant_spec(1, 11), 250, 275, 229, (11,)),
        (tc.EtaQuotientSpec(6, {1: 1, 6: -1}), 5, 9, 4, (7,)),
    ],
)
def test_eta_quotient_progression_with_a_period(spec, order, step, offset, moduli):
    for u in (None, *moduli):
        ring = tc.INTEGERS if u is None else tc.residues_mod(u)
        full = tc.eta_quotient(spec, order, ring).coeffs
        got = tc.eta_quotient(spec, order, ring, step, offset).coeffs
        assert got == full[offset::step], u


def test_eta_quotient_rejects_bad_progressions():
    spec = tc.EtaQuotientSpec(2, {1: -2, 2: 3})
    for step, offset in ((0, 0), (3, 3), (3, -1)):
        with pytest.raises(ValueError):
            tc.eta_quotient(spec, 10, tc.INTEGERS, step, offset)


def test_eta_quotient_refuses_non_int_arguments():
    # True would pass for an order, step or offset of 1, and a float order
    # used to fail inside list repetition
    spec = tc.EtaQuotientSpec(2, {1: -2, 2: 3})
    for bad in (True, 7.0, "7", np.int64(7), None):
        for order, step, offset in ((bad, 1, 0), (10, bad, 0), (10, 3, bad)):
            with pytest.raises(ValueError, match="must be integers, got " + re.escape(repr(bad))):
                tc.eta_quotient(spec, order, tc.INTEGERS, step, offset)
    assert tc.eta_quotient(spec, 10, tc.INTEGERS, 3, 1).coeffs == tc.slice_series(10).coeffs[1::3]


def test_array_dtype_ladder():
    # the narrowest signed width whose range holds every |value| < bound,
    # strictly: bound 2**(bits-1) already needs the next width
    table = [(None, object), (1, np.int8)]
    for bits, dtype, wider in (
        (8, np.int8, np.int16),
        (16, np.int16, np.int32),
        (32, np.int32, np.int64),
        (64, np.int64, object),
    ):
        table += [(2 ** (bits - 1) - 1, dtype), (2 ** (bits - 1), wider)]
    for bound, dtype in table:
        assert array_dtype(bound) is dtype, bound


def test_sparse_pass_dtype_bound():
    # (q;q)^6 is two Jacobi passes, the second over residues of (q;q)^3 close
    # to u.  A pass keeps its values below u * sum|w| over the weights
    # centred mod u, and that bound picks int8 below 2**7, int16 below
    # 2**15, int32 below 2**31, int64 below 2**63 and object above; each
    # limit gets the largest modulus below it and the next one.  The last
    # modulus is one the Euler pass bound (number of terms) * u < 2**63
    # would have kept in int64.
    spec = tc.EtaQuotientSpec(1, {1: 6})
    order = 200
    terms = jacobi_terms(1, order)
    weight = sum(abs(w) for _, w in terms)

    def bound(u):
        return u * sum(min(w % u, -w % u) for _, w in terms)

    exact_coeffs = tc.eta_quotient(spec, order).coeffs
    moduli = []
    for limit in (2**7, 2**15, 2**31, 2**63):
        # from u = 79 on no weight (at most 39) reduces, so the bound is u * weight
        if limit <= 79 * weight:
            below = max(u for u in range(2, 79) if bound(u) < limit)
        else:
            below = (limit - 1) // weight
        assert bound(below) < limit <= bound(below + 1)
        moduli += [below, below + 1]
    euler_int64 = (2**63 - 1) // len(pentagonal_terms(1, order))
    assert euler_int64 * weight >= 2**63
    moduli.append(euler_int64)
    for u in moduli:
        got = tc.eta_quotient(spec, order, tc.residues_mod(u)).coeffs
        assert got == tuple(c % u for c in exact_coeffs), u


def test_sparse_pass_groups_weights_by_magnitude():
    # mod 3, 7 and 9 the centred Jacobi weights collide with both signs and
    # some reduce to 0, so one product per |w| serves terms of either sign
    order = 300
    euler = oracles.euler_product(1, order)
    powers = {0: [1] + [0] * order}
    for r in range(1, 11):
        powers[r] = oracles.poly_mul(powers[r - 1], euler, order)
    for r in (9, 10):
        exact_coeffs = tc.eta_quotient(tc.EtaQuotientSpec(1, {1: r}), order).coeffs
        assert list(exact_coeffs) == powers[r], r
        for u in (3, 7, 9):
            residues = {w % u for _, w in jacobi_terms(1, order)}
            assert 0 in residues and 1 in residues and u - 1 in residues
            got = tc.eta_quotient(tc.EtaQuotientSpec(1, {1: r}), order, tc.residues_mod(u)).coeffs
            assert got == tuple(c % u for c in exact_coeffs), (r, u)


def test_jacobi_terms_are_the_cube_of_the_euler_product():
    for delta, order in ((1, 60), (2, 61), (5, 100)):
        cube = [0] * (order + 1)
        for e, w in jacobi_terms(delta, order):
            cube[e] = w
        assert tuple(cube) == euler_power(delta, 3, order)
    assert jacobi_terms(1, 6) == [(0, 1), (1, -3), (3, 5), (6, -7)]


def test_eta_quotient_against_brute_force_product():
    # (q;q)^2 * (q^3;q^3)^-1 at modest order, exact arithmetic
    spec = tc.EtaQuotientSpec(3, {1: 2, 3: -1})
    order = 40
    got = tc.eta_quotient(spec, order)
    square = oracles.poly_mul(oracles.euler_product(1, order), oracles.euler_product(1, order), order)
    expected = tc.mul(exact(square), tc.invert(exact(oracles.euler_product(3, order))))
    assert got == expected


def test_pentagonal_terms_are_sorted_and_signed():
    terms = pentagonal_terms(1, 100)
    exponents = [e for e, _ in terms]
    assert exponents == sorted(exponents)
    assert terms[0] == (0, 1)
    assert (1, -1) in terms and (2, -1) in terms and (5, 1) in terms and (7, 1) in terms


def test_series_normalizes_residues():
    s = tc.TruncatedSeries(tc.residues_mod(7), (-1, 9, 7))
    assert s.coeffs == (6, 2, 0)
    # Z/6 -> Z/3 is a ring map, Z/6 -> Z/4 is not
    six = tc.TruncatedSeries(tc.residues_mod(6), (5, 4, 3))
    assert six.reduced(3).coeffs == (2, 1, 0)
    with pytest.raises(ValueError, match="do not determine residues mod 4"):
        six.reduced(4)


@pytest.mark.parametrize(
    "ring,coeffs,bad",
    # a float used to fail later inside mul, a string was split into its
    # characters, and a bool was kept over Z/5
    [
        (tc.INTEGERS, (1.5, 2), 1.5),
        (tc.INTEGERS, "12", "1"),
        (tc.residues_mod(5), (True, 2), True),
        (tc.INTEGERS, (1, np.int64(2)), np.int64(2)),
    ],
)
def test_series_refuses_non_int_coefficients(ring, coeffs, bad):
    with pytest.raises(ValueError, match="every coefficient must be an integer, got " + re.escape(repr(bad))):
        tc.TruncatedSeries(ring, coeffs)


def test_coefficient_ring_validation():
    with pytest.raises(ValueError):
        tc.residues_mod(1)
    # a modulus that is not an int would reach numpy and int.bit_length
    for bad in (5.0, True, "5", np.int64(5)):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            tc.residues_mod(bad)
