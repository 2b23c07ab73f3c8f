"""Series arithmetic: frozen examples from the brute-force oracles plus
algebraic property tests."""

import re
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import tsppcong as tc
from tsppcong.series import jacobi_terms, pentagonal_terms

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
@settings(deadline=None)
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
@settings(deadline=None)
def test_mul_commutative(a, b):
    x, y = exact(a), exact(b)
    assert tc.mul(x, y) == tc.mul(y, x)


@given(a=coeff_lists, b=coeff_lists, c=coeff_lists)
@settings(deadline=None, max_examples=60)
def test_mul_associative(a, b, c):
    x, y, z = exact(a), exact(b), exact(c)
    assert tc.mul(tc.mul(x, y), z) == tc.mul(x, tc.mul(y, z))


@given(a=coeff_lists, b=coeff_lists, u=st.sampled_from(MODULI))
@settings(deadline=None)
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
@settings(deadline=None)
def test_invert_is_right_inverse(a):
    series = exact(a)
    product = tc.mul(series, tc.invert(series))
    assert product.coeffs == (1,) + (0,) * series.order


@given(a=unit_coeff_lists, u=st.sampled_from(MODULI))
@settings(deadline=None)
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
@settings(deadline=None)
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


@given(a=unit_coeff_lists, e1=st.integers(-3, 3), e2=st.integers(-3, 3))
@settings(deadline=None, max_examples=60)
def test_power_addition_law(a, e1, e2):
    series = exact(a)
    combined = tc.power(series, e1 + e2)
    split = tc.mul(tc.power(series, e1), tc.power(series, e2))
    assert combined == split


@given(a=unit_coeff_lists, e=st.integers(-3, 3), u=st.sampled_from(MODULI))
@settings(deadline=None, max_examples=60)
def test_power_ring_homomorphism(a, e, u):
    assert tc.power(exact(a), e).reduced(u) == tc.power(exact(a).reduced(u), e)


# ---------------------------------------------------------------------------
# progression extraction
# ---------------------------------------------------------------------------


def test_extract_progression_examples():
    a = exact([1, 2, 5, 10, 20, 36])
    assert tc.extract_progression(a, 1, 0) == a
    assert tc.extract_progression(a, 2, 1).coeffs == (2, 10, 36)
    f = exact([0, 1, 0, 0, 1, 0, 0, 2])
    assert tc.extract_progression(f, 3, 1).coeffs == (1, 1, 2)


def test_extract_progression_bounds():
    a = exact([1, 2, 3])
    assert tc.extract_progression(a, 5, 2).coeffs == (3,)
    with pytest.raises(ValueError):
        tc.extract_progression(a, 2, 3)  # offset outside [0, m)
    with pytest.raises(ValueError):
        tc.extract_progression(exact([1]), 3, 2)  # beyond truncation order


@given(a=coeff_lists, m=st.integers(1, 7), t=st.integers(0, 6))
@settings(deadline=None)
def test_extract_progression_indexing(a, m, t):
    series = exact(a)
    if t >= m:
        return
    if t > series.order:
        with pytest.raises(ValueError):
            tc.extract_progression(series, m, t)
        return
    picked = tc.extract_progression(series, m, t)
    assert picked.order == (series.order - t) // m
    for n in range(picked.order + 1):
        assert picked[n] == series[m * n + t]


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
@settings(deadline=None)
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
@settings(deadline=None)
def test_eta_quotient_progression_is_a_slice_of_the_full_expansion(spec, order, progression, u):
    step, offset = progression
    ring = tc.INTEGERS if u is None else tc.residues_mod(u)
    if offset > order:
        with pytest.raises(ValueError):
            tc.eta_quotient(spec, order, ring, step, offset)
        return
    full = tc.eta_quotient(spec, order, ring).coeffs
    assert tc.eta_quotient(spec, order, ring, step, offset).coeffs == full[offset::step]


def test_eta_quotient_rejects_bad_progressions():
    spec = tc.EtaQuotientSpec(2, {1: -2, 2: 3})
    for step, offset in ((0, 0), (3, 3), (3, -1)):
        with pytest.raises(ValueError):
            tc.eta_quotient(spec, 10, tc.INTEGERS, step, offset)


def test_sparse_pass_dtype_bound():
    # (q;q)^6 is two Jacobi passes, the second over residues of (q;q)^3 close
    # to u.  A pass keeps its values below u * sum|w|: int32 below 2**31,
    # int64 below 2**63, object above.  The last modulus is one the Euler
    # pass bound (number of terms) * u < 2**63 would have kept in int64.
    spec = tc.EtaQuotientSpec(1, {1: 6})
    order = 200
    weight = sum(abs(w) for _, w in jacobi_terms(1, order))
    exact_coeffs = tc.eta_quotient(spec, order).coeffs
    moduli = []
    for limit in (2**31, 2**63):
        below = (limit - 1) // weight
        moduli += [below, below + 1]
    euler_int64 = (2**63 - 1) // len(pentagonal_terms(1, order))
    assert euler_int64 * weight >= 2**63
    moduli.append(euler_int64)
    for u in moduli:
        got = tc.eta_quotient(spec, order, tc.residues_mod(u)).coeffs
        assert got == tuple(c % u for c in exact_coeffs), u


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


def test_coefficient_ring_validation():
    with pytest.raises(ValueError):
        tc.residues_mod(1)
    assert tc.residues_mod(7).normalize(-1) == 6
    assert tc.INTEGERS.normalize(-1) == -1
