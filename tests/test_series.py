"""Series arithmetic: frozen examples from the brute-force oracles plus
algebraic property tests."""

import re
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
import tsppcong as tc
from tsppcong.series import array_dtype, jacobi_terms, pentagonal_terms, reduce_mod

MODULI = [4, 5, 11, 25, 121, 125]
# fits int64, but one pass over it could overflow: forces the object arrays
HUGE_MODULUS = 2**62 + 1

def exact(values):
    return tc.TruncatedSeries(tc.INTEGERS, tuple(values))


@lru_cache(maxsize=None)
def exact_expansion(spec, order):
    """The coefficients of eta_quotient over Z, which no rewrite touches."""
    return tc.eta_quotient(spec, order).coeffs


# ---------------------------------------------------------------------------
# pentagonal series: the sparse support of the Euler product
# ---------------------------------------------------------------------------


def dense(terms, order):
    """The coefficients 0..order of a sparse list of (exponent, coefficient) terms."""
    coeffs = [0] * (order + 1)
    for e, c in terms:
        coeffs[e] = c
    return coeffs


def test_pentagonal_series_examples():
    assert dense(pentagonal_terms(1, 7), 7) == [1, -1, -1, 0, 0, 1, 0, 1]
    assert dense(pentagonal_terms(2, 5), 5) == [1, 0, -1, 0, -1, 0]
    assert pentagonal_terms(1, 0) == [(0, 1)]


@pytest.mark.parametrize("delta,order", [(1, 40), (2, 40), (3, 60), (5, 100)])
def test_pentagonal_series_matches_brute_force(delta, order):
    assert dense(pentagonal_terms(delta, order), order) == oracles.euler_product(delta, order)


@given(delta=st.integers(1, 6), order=st.integers(0, 200))
def test_pentagonal_support_is_exactly_pentagonal(delta, order):
    series = dense(pentagonal_terms(delta, order), order)
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
    with pytest.raises(ValueError, match="delta must be an integer of at least 1, got 0"):
        pentagonal_terms(0, 5)
    with pytest.raises(ValueError, match="order must be an integer of at least 0, got -1"):
        pentagonal_terms(1, -1)


def test_partition_oracle_reaches_order_1000():
    # the oracle used to recurse once per part size, past Python's stack
    # limit from about p(500) on
    assert oracles.partition_count(100) == 190569292
    assert oracles.partition_count(1000) == 24061467864032622473692149727991
    partitions = tc.eta_quotient(tc.EtaQuotientSpec(1, {1: -1}), 1000)
    assert partitions.coeffs == oracles.inverse_euler_power(1, 1000)


# ---------------------------------------------------------------------------
# eta quotients
# ---------------------------------------------------------------------------


def test_eta_quotient_examples():
    spec = tc.slice_variant_spec(3, 5)
    assert tc.eta_quotient(spec, 1, tc.residues_mod(125)).coeffs == (1, 2)
    partitions = tc.eta_quotient(tc.EtaQuotientSpec(1, {1: -1}), 5)
    assert partitions.coeffs == (1, 1, 2, 3, 5, 7)
    assert partitions.coeffs == tuple(oracles.partition_count(n) for n in range(6))
    colored = tc.eta_quotient(tc.EtaQuotientSpec(1, {1: -2}), 4)
    assert colored.coeffs == (1, 2, 5, 10, 20)
    assert colored.coeffs == tuple(oracles.two_colored_count(n) for n in range(5))
    cube = tc.eta_quotient(tc.EtaQuotientSpec(1, {1: 3}), 6)
    assert cube.coeffs == (1, -3, 0, 5, 0, 0, -7)
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
    # the mod-125 variant; each modulus here is a prime power that rewrites
    # the exponent 123, and mod 125 the expansion is (q;q)^3 (q^2;q^2)^3
    # (3F^2 + 97zF + 26z^2) / (q^5;q^5)^3, z = (q;q)^5 and F = (q^5;q^5)
    spec = tc.EtaQuotientSpec(10, {1: 123, 2: 3, 5: -25, 10: 0})
    order = 3_000
    fast = tc.eta_quotient(spec, order, tc.residues_mod(u)).coeffs
    assert fast == tuple(c % u for c in exact_expansion(spec, order))


@lru_cache(maxsize=None)
def euler_power(delta, r, order):
    """prod_{n >= 1}(1 - q^(delta*n)) ** r for r >= 0, by the oracle alone."""
    out = [1] + [0] * order
    for _ in range(r):
        out = oracles.poly_mul(out, oracles.euler_product(delta, order), order)
    return tuple(out)


@st.composite
def eta_specs(draw, bound=6):
    level = draw(st.integers(1, 12))
    divs = [d for d in range(1, level + 1) if level % d == 0]
    exponents = {d: draw(st.integers(-bound, bound)) for d in divs}
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


# (r, n) pairs, chosen for the Newton loop that inverted (q;q)**r before
# the staircase: each r meets every power of two up to 256 at one of
# n + 1 = 2**k - 1, 2**k, 2**k + 1 in turn, and a few r also meet all three
# at 512, and the order 600
NEWTON_CASES = [(r, 0) for r in range(1, 31)]
NEWTON_CASES += [(r, 2**k - 2 + (r + k) % 3) for r in range(1, 31) for k in range(1, 9)]
NEWTON_CASES += [(r, n) for r in (1, 2, 3, 4, 29, 30) for n in (510, 511, 512, 600)]
# (d, r, n) on the dilated levels 2 and 5: n one short of a stair's shift
# d*k**2, on it and one past it, for k to 10, with r from 1 to 30, and the
# order 600
DILATED_CASES = [(d, 1 + 7 * (k + i) % 30, d * k * k + i) for d in (2, 5) for k in range(1, 11) for i in (-1, 0, 1)]
DILATED_CASES += [(d, r, 600) for d in (2, 5) for r in (1, 2, 29, 30)]


@pytest.mark.parametrize("u", [None] + MODULI + [HUGE_MODULUS])
def test_sparse_residual_newton_matches_dense_inverse(u):
    # eta_quotient divides by (q^d;q^d)**r in r staircases; the oracle
    # divides by (q;q) r times by running sums over Z, once per r at the
    # largest order, placed on the multiples of d, and the cases take
    # prefixes reduced mod u.  Past the order 80 of the property tests this
    # is the one reference for d > 1 that shares no code with the package.
    # HUGE_MODULUS runs in object arrays.
    ring = tc.INTEGERS if u is None else tc.residues_mod(u)
    cases = [(1, r, n) for r, n in NEWTON_CASES] + DILATED_CASES
    top = max(n for _, _, n in cases)
    for d, r, n in cases:
        prefix = [0] * (n + 1)
        prefix[::d] = oracles.inverse_euler_power(r, top // d)[: n // d + 1]
        brute = tc.TruncatedSeries(ring, tuple(prefix if u is None else (c % u for c in prefix)))
        assert tc.eta_quotient(tc.EtaQuotientSpec(d, {d: -r}), n, ring) == brute, (d, r, n)


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
        # mod 25 and 5 the negative exponents on two levels are converted
        # (T = 27 >= u), and both levels are cut to one class by g = 5
        (tc.EtaQuotientSpec(50, {1: 27, 5: -2, 25: -1}), 900, 50, 13, (25, 5)),
    ],
)
def test_eta_quotient_progression_with_a_period(spec, order, step, offset, moduli):
    for u in (None, *moduli):
        ring = tc.INTEGERS if u is None else tc.residues_mod(u)
        full = tc.eta_quotient(spec, order, ring).coeffs
        got = tc.eta_quotient(spec, order, ring, step, offset).coeffs
        assert got == full[offset::step], u


# ---------------------------------------------------------------------------
# the rewrite mod p**alpha: (q^d;q^d)^p = (q^pd;q^pd) (mod p)
# ---------------------------------------------------------------------------

# prime powers to alpha = 3, where exponents of 130 reach k = r // p >= alpha
PRIME_POWERS = [2, 4, 8, 3, 9, 27, 5, 25, 125, 7, 49]


@given(spec=eta_specs(130), order=st.integers(0, 200), u=st.sampled_from(PRIME_POWERS), data=st.data())
def test_eta_quotient_mod_prime_power_is_the_exact_expansion_reduced(spec, order, u, data):
    # mod p**alpha an exponent with r // p >= alpha is rewritten through
    # Horner steps and the dilated F where that saves passes; over Z nothing
    # is, so this compares the two paths residue for residue
    step = data.draw(st.integers(1, 12), label="step")
    offset = data.draw(st.integers(0, min(step - 1, order)), label="offset")
    got = tc.eta_quotient(spec, order, tc.residues_mod(u), step, offset).coeffs
    assert got == tuple(c % u for c in exact_expansion(spec, order)[offset::step])


def test_frobenius_chain_collapses_to_one_dilated_product():
    # (q;q)^625 = (q^5;q^5)^125 = ... = (q^625;q^625) (mod 5)
    ring = tc.residues_mod(5)
    for order in (0, 624, 625, 5_000):
        got = tc.eta_quotient(tc.EtaQuotientSpec(1, {1: 625}), order, ring)
        brute = tuple(c % 5 for c in oracles.euler_product(625, order))
        assert got == tc.TruncatedSeries(ring, brute), order


@pytest.mark.parametrize(
    "spec,u,passes",
    [
        # the rewrite would cost 8 passes at level 1 where 15 costs 5
        (tc.EtaQuotientSpec(1, {1: 15}), 125, 5),
        # alpha - 1 = 39 Horner steps of 3 passes each against 44 passes
        (tc.EtaQuotientSpec(1, {1: 130}), 2**40, 44),
        # 123 is rewritten (9 passes against 41), and the 22 it adds on
        # level 5 takes 8 passes where its rewrite, with the 2 it would add
        # on level 25, would take 12
        (tc.EtaQuotientSpec(1, {1: 123}), 125, 17),
        # 10 passes on levels 1 and 2, then 10 for each -3 left on 5, 25,
        # 125 and 625, converted to 122 and rewritten: more passes than the
        # 9 Newton steps of the inverse of (q;q)^3 made, but no dense product
        (tc.slice_variant_spec(3, 5), 125, 50),
        # 117 passes at level 1 are fewer than 120, but the 141 they add on
        # level 2 cost 47 more
        (tc.EtaQuotientSpec(1, {1: 360}), 2**40, 120),
    ],
)
def test_eta_quotient_rewrites_only_where_it_saves_passes(monkeypatch, spec, u, passes):
    original = tc.series._sparse_passes
    counted = []

    def count(coeffs, terms, r, *args):
        counted.append(r)
        return original(coeffs, terms, r, *args)

    monkeypatch.setattr(tc.series, "_sparse_passes", count)
    got = tc.eta_quotient(spec, 2_000, tc.residues_mod(u)).coeffs
    assert sum(counted) == passes
    assert got == tuple(c % u for c in exact_expansion(spec, 2_000))


@pytest.mark.parametrize(
    "spec,u,order,step,offset,divisions",
    [
        # u <= T, the positive exponents' sum: every negative exponent is
        # converted, and no division is left
        (tc.slice_variant_spec(1, 11), 11, 6_000, 275, 229, []),
        (tc.slice_variant_spec(3, 5), 125, 3_000, 125, 104, []),
        # u > T (T = 12 and T = 0): one staircase per unit of the negative
        # exponent, on the array left once the levels before it are cut to
        # the read class: mod 121, levels 1 and 2 leave 11 and step 275, so
        # out is cut to the class 229 mod 11 and the level 11 becomes 1, with
        # (6000 - 9) // 11 + 1 terms, not 6001
        (tc.slice_variant_spec(1, 11), 121, 6_000, 275, 229, [(1, 545)]),
        (tc.EtaQuotientSpec(5, {5: -25}), 125, 2_000, 1, 0, [(5, 2_001)] * 25),
        # either side of the gate's edge: T = u converts, T = u - 1 divides;
        # the rewrite of 124 moves 22 onto level 5, and level 1 leaves 5 and
        # step 5, so the -3 left is three divisions at level 1 of
        # (1000 - 3) // 5 + 1 terms, not 1001
        (tc.EtaQuotientSpec(5, {1: 125, 5: -25}), 125, 1_000, 5, 3, []),
        (tc.EtaQuotientSpec(5, {1: 124, 5: -25}), 125, 1_000, 5, 3, [(1, 200)] * 3),
        # over Z and modulo a composite the same cut holds: level 1 leaves 6
        # and step 9, so out is cut to the class 1 mod 3 of offset 4, and the
        # three divisions at level 2 have (900 - 1) // 3 + 1 terms, not 901
        (tc.EtaQuotientSpec(6, {1: 2, 6: -3}), None, 900, 9, 4, [(2, 300)] * 3),
        (tc.EtaQuotientSpec(6, {1: 2, 6: -3}), 10, 900, 9, 4, [(2, 300)] * 3),
        # a cut can lift a level above the order: level 1 leaves 10 and step
        # 5, so the order 10 is cut to (10 - 3) // 5 = 1, and level 10
        # becomes 2, whose factor is 1 there, so nothing is divided
        (tc.EtaQuotientSpec(10, {1: 1, 10: -1}), None, 10, 5, 3, []),
    ],
)
def test_eta_quotient_converts_negative_exponents_where_u_is_at_most_t(
    monkeypatch, spec, u, order, step, offset, divisions
):
    # each division by (q^d; q^d) is one staircase whose first stair has
    # width d
    staircase = tc.series._staircase
    recorded = []

    def counted(values, stairs, t, modulus):
        recorded.append((stairs(1)[1], len(values)))
        return staircase(values, stairs, t, modulus)

    monkeypatch.setattr(tc.series, "_staircase", counted)
    ring = tc.INTEGERS if u is None else tc.residues_mod(u)
    got = tc.eta_quotient(spec, order, ring, step, offset).coeffs
    assert recorded == divisions
    assert got == tuple(c if u is None else c % u for c in exact_expansion(spec, order)[offset::step])


def test_rewrite_past_int64_runs_its_axpy_in_object_arrays(monkeypatch):
    # (67**6)**2 overflows int64; the rewrite makes 5 Horner steps of 23
    # passes at level 1 and 1 pass for the exponent 1 it adds on level 67,
    # 121 passes where (q;q)^402 takes 134
    spec, u = tc.EtaQuotientSpec(1, {1: 402}), 67**6
    original = tc.series._axpy
    dtypes = []

    def axpy(a, e, b, modulus):
        out = original(a, e, b, modulus)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(tc.series, "_axpy", axpy)
    got = tc.eta_quotient(spec, 300, tc.residues_mod(u)).coeffs
    assert dtypes == [np.dtype(object)] * 6
    assert got == tuple(c % u for c in exact_expansion(spec, 300))


def test_eta_quotient_never_factors_the_modulus(monkeypatch):
    # arith.prime_power seeks the prime only up to the largest positive
    # exponent, so a large prime modulus or one with large prime factors
    # costs no factoring
    spec = tc.EtaQuotientSpec(10, {1: 123, 2: 3, 5: -25})
    exact = exact_expansion(spec, 300)

    def refuse(n):
        raise AssertionError(f"factorize({n}) was called")

    monkeypatch.setattr(tc.arith, "factorize", refuse)
    # 2**61 - 1 is prime, HUGE_MODULUS has the factor 5 but is no power of
    # it, and 3**39 is a prime power whose rewrite of 123 would cost more
    # passes than it saves
    for u in (2**61 - 1, HUGE_MODULUS, 3**39):
        got = tc.eta_quotient(spec, 300, tc.residues_mod(u)).coeffs
        assert got == tuple(c % u for c in exact), u


def test_eta_quotient_rejects_bad_progressions():
    spec = tc.EtaQuotientSpec(2, {1: -2, 2: 3})
    for step, offset in ((0, 0), (3, 3), (3, -1)):
        with pytest.raises(ValueError):
            tc.eta_quotient(spec, 10, tc.INTEGERS, step, offset)


def test_eta_quotient_refuses_non_int_arguments():
    # None is not an int either, though no parameter here takes it
    spec = tc.EtaQuotientSpec(2, {1: -2, 2: 3})
    for order, step, offset in ((None, 1, 0), (10, None, 0), (10, 3, None)):
        with pytest.raises(ValueError, match="must be an integer( of at least [01])?, got None"):
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


def signed_sides(weights):
    """(P, N): the sums of the positive and of the absolute negative weights."""
    weights = list(weights)
    return sum(w for w in weights if w > 0), -sum(w for w in weights if w < 0)


def test_sparse_pass_dtype_bound():
    # (q;q)^6 is two Jacobi passes, the second over residues of (q;q)^3 close
    # to u.  A pass over residues keeps its values within [-(u-1)N, (u-1)P]
    # for the weights centred mod u, so below u * max(P, N), and that bound
    # picks int8 below 2**7, int16 below 2**15, int32 below 2**31, int64
    # below 2**63 and object above; each limit gets the largest modulus
    # below it and the next one.  The last modulus is one the Euler pass
    # bound u * max(P, N) < 2**63 would have kept in int64.
    spec = tc.EtaQuotientSpec(1, {1: 6})
    order = 200
    terms = jacobi_terms(1, order)
    side = max(signed_sides(w for _, w in terms))

    def bound(u):
        centred = (c - u if c > u // 2 else c for c in (w % u for _, w in terms))
        return u * max(signed_sides(centred))

    exact_coeffs = tc.eta_quotient(spec, order).coeffs
    moduli = []
    for limit in (2**7, 2**15, 2**31, 2**63):
        # from u = 79 on no weight (at most 39) reduces, so the bound is u * side
        if limit <= 79 * side:
            below = max(u for u in range(2, 79) if bound(u) < limit)
        else:
            below = (limit - 1) // side
        assert bound(below) < limit <= bound(below + 1)
        moduli += [below, below + 1]
    euler_int64 = (2**63 - 1) // max(signed_sides(w for _, w in pentagonal_terms(1, order)))
    assert euler_int64 * side >= 2**63
    moduli.append(euler_int64)
    for u in moduli:
        got = tc.eta_quotient(spec, order, tc.residues_mod(u)).coeffs
        assert got == tuple(c % u for c in exact_coeffs), u


@pytest.mark.parametrize(
    "u,weights,bound,dtype",
    [
        # the bound u * max(P, N), P and N counting the leading (0, 1), at
        # 2**7 - 1 and just under it picks int8, and at 2**7 int16
        (127, [-1], 127, np.int8),
        (63, [1], 126, np.int8),
        (128, [-1], 128, np.int16),
        (64, [1], 128, np.int16),
        # at 2**15 - 1 int16, and past 2**15 int32
        (151, [-75, -75, -67], 32767, np.int16),
        (151, [75, 75, 66], 32767, np.int16),
        (152, [-75, -75, -67], 32984, np.int32),
        (152, [75, 75, 66], 32984, np.int32),
    ],
)
def test_sparse_pass_signed_bound_at_the_dtype_limits(u, weights, bound, dtype):
    # all weights but the leading 1 of one sign and every input at u - 1, so
    # the sums reach (u-1)P, or (u-1)(1 - N), as far as the dtype allows
    sparse_passes = tc.series._sparse_passes
    terms = [(0, 1)] + [(e, w) for e, w in enumerate(weights, 1)]
    P, N = signed_sides(w for _, w in terms)
    assert u * max(P, N) == bound
    for coeffs in ([u - 1] * 12, [u - 1] + [0] * 11):
        exact_coeffs = sparse_passes(np.array(coeffs, dtype=object), terms, 1, None).tolist()
        if coeffs[1]:
            assert max(exact_coeffs) == (u - 1) * P or min(exact_coeffs) == (u - 1) * (1 - N)
        got = sparse_passes(coeffs, terms, 1, u)
        assert got.dtype == dtype
        assert got.tolist() == [c % u for c in exact_coeffs]
        for g, o in ((2, 1), (5, 3)):
            assert sparse_passes(coeffs, terms, 1, u, g, o).tolist() == [c % u for c in exact_coeffs][o::g]


# (u, P, N) whose pass bound u * max(P, N) is the largest each width of
# array_dtype's ladder admits, as in the cases above: 127 = 127 * 1,
# 32767 = 151 * 217, 2**31 - 1 (a prime) and
# 2**63 - 1 = 49 * 188232082384791343; then the least object bound 2**63
# and one far above it
REDUCE_LIMITS = [
    (127, 1, 1, np.int8),
    (151, 1, 217, np.int16),
    (151, 217, 1, np.int16),
    (2**31 - 1, 1, 1, np.int32),
    ((2**63 - 1) // 49, 1, 49, np.int64),
    ((2**63 - 1) // 49, 49, 1, np.int64),
    (7, (2**63 - 1) // 7, 1, np.int64),
    (2**63, 1, 1, object),
    (2**70 + 3, 5, 3, object),
]


def check_reduce_mod(u, values, dtype):
    """reduce_mod of values, in an array of dtype, into a separate array and
    in place, against Python's % on each value."""
    expected = [v % u for v in values]
    array = np.array(values, dtype=dtype)
    separate = reduce_mod(array, u, np.empty_like(array))
    assert array.tolist() == values
    in_place = reduce_mod(array, u, array)
    for got in (separate, in_place):
        assert got.dtype == dtype
        assert got.tolist() == expected


@pytest.mark.parametrize("u,P,N,dtype", REDUCE_LIMITS)
def test_reduce_mod_at_the_pass_bound_limits(u, P, N, dtype):
    # a pass's values lie in [-(u-1)N, (u-1)P]: both ends, the values next
    # to multiples of u, and the quotient's least value -N, whose product
    # -u*N is the bound itself where N < u
    assert array_dtype(u * max(P, N)) is dtype
    if dtype is not object:
        assert u * max(P, N) == np.iinfo(dtype).max
    low, high = -(u - 1) * N, (u - 1) * P
    near = [k * u + d for k in (-N, -1, 0, 1, P - 1) for d in (-1, 0, 1)]
    values = [low, high, 0] + [v for v in near if low <= v <= high]
    check_reduce_mod(u, values, dtype)
    if N < u:
        assert min(v // u for v in values) == -N


@st.composite
def reduce_cases(draw):
    """(u, values, dtype): u of any size up to 2**66, weight sums P >= 1 and
    N >= 0, the dtype array_dtype picks for u * max(P, N), and values in
    [-(u-1)N, (u-1)P]."""
    u = draw(st.integers(2, 2 ** draw(st.integers(2, 66))))
    P, N = draw(st.integers(1, 400)), draw(st.integers(0, 400))
    values = draw(st.lists(st.integers(-(u - 1) * N, (u - 1) * P), min_size=1, max_size=30))
    return u, values, array_dtype(u * max(P, N))


@given(reduce_cases())
@example((127, [-126, 126, -1, 0, 1], np.int8))
def test_reduce_mod_matches_python_mod(case):
    # under numpy's value-based casting before numpy 2 too, values // u keeps
    # the array's width, since u is below the bound that picked it
    check_reduce_mod(*case)


def test_one_array_reduction():
    # every array reduction in the package is reduce_mod; np.remainder (and
    # its alias np.mod) and np.fmod are not used
    package = Path(tc.__file__).parent
    pattern = re.compile(r"\b(np|numpy)\.(remainder|mod|fmod)\b")
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert not offenders


def test_read_class_pass_peak_memory():
    # one read-class pass, int16, n = 200 000, g = 11 (the mod-11 Jacobi
    # pass): the rows are written straight from acc, acc is let go before
    # the scratch rows, and only the rows some |w| != 1 reads get one, so the
    # peak is acc and the rows, 2.01 times the input's bytes.  With a
    # zero-padded copy, transposed rows and a full scratch it was 3.54
    n, g, u = 200_000, 11, 11
    coeffs = np.random.default_rng(11).integers(0, u, n).astype(np.int16)
    terms = jacobi_terms(1, n - 1)
    expected = tc.series._sparse_passes(coeffs, terms, 1, u)[3::g]
    tracemalloc.start()
    try:
        got = tc.series._sparse_passes(coeffs, terms, 1, u, g, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.dtype == np.int16 and got.tolist() == expected.tolist()
    assert peak < 2.1 * coeffs.nbytes


@st.composite
def sparse_pass_cases(draw):
    """(coeffs, terms, r, modulus, g, o): ascending terms from (0, 1), inputs
    that are c*1 about half the time, and g from 2 to past the length."""
    n = draw(st.integers(1, 40))
    modulus = draw(st.one_of(st.none(), st.integers(2, 400), st.just(HUGE_MODULUS)))
    shifts = st.tuples(st.integers(1, max(n - 1, 1)), st.integers(-40, 40))
    terms = [(0, 1)] + sorted(draw(st.lists(shifts, unique_by=lambda t: t[0], max_size=min(n - 1, 8))))
    values = st.integers(-(10**6), 10**6) if modulus is None else st.integers(0, modulus - 1)
    if draw(st.booleans()):
        coeffs = [draw(values)] + [0] * (n - 1)
    else:
        coeffs = draw(st.lists(values, min_size=n, max_size=n))
    g = draw(st.integers(2, n + 2))
    return coeffs, terms, draw(st.integers(1, 3)), modulus, g, draw(st.integers(0, g - 1))


@given(sparse_pass_cases())
@example(([3, 1, 4, 1, 5, 9, 2], [(0, 1), (2, -3), (5, 7)], 2, 11, 3, 2))
@example(([-4, 0, 0, 0, 0, 0, 0, 0], [(0, 1), (1, 2), (3, -5), (7, 1)], 3, None, 3, 1))
def test_sparse_pass_written_and_read_class_passes_match_the_dense_product(case):
    # a pass over c*1 writes its first pass, and with g > 1 the last pass
    # computes the class o mod g alone; both equal the dense product
    coeffs, terms, r, modulus, g, o = case
    sparse_passes = tc.series._sparse_passes
    n = len(coeffs)
    expected = coeffs
    for _ in range(r):
        expected = oracles.poly_mul(expected, dense(terms, n - 1), n - 1)
    if modulus is not None:
        expected = [c % modulus for c in expected]
    assert sparse_passes(coeffs, terms, r, modulus).tolist() == expected
    assert sparse_passes(coeffs, terms, r, modulus, g, o).tolist() == expected[o::g]


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


# Without its refusal, jacobi_terms(0, n) appends terms while 0 <= n, until
# memory runs out; so the call runs in a child capped at 1 GiB of address
# space and 60 s, where such a loop dies in seconds
JACOBI_LEVEL_0 = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from tsppcong.series import jacobi_terms
try:
    jacobi_terms(0, 10)
except ValueError as exc:
    print(exc)
"""


def test_jacobi_terms_refuses_level_0():
    child = subprocess.run(
        [sys.executable, "-c", JACOBI_LEVEL_0], capture_output=True, text=True, encoding="utf-8", timeout=60
    )
    assert child.stdout == "delta must be an integer of at least 1, got 0\n", child.stderr


def test_jacobi_terms_refuses_bad_arguments():
    # the same rule as pentagonal_terms
    for args, message in (
        ((-1, 5), "delta must be an integer of at least 1, got -1"),
        ((True, 5), "delta must be an integer of at least 1, got True"),
        ((1, -1), "order must be an integer of at least 0, got -1"),
        ((1, 2.0), "order must be an integer of at least 0, got 2.0"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            jacobi_terms(*args)


def test_eta_quotient_against_brute_force_product():
    # (q;q)^2 * (q^3;q^3)^-1 at modest order, exact arithmetic
    spec = tc.EtaQuotientSpec(3, {1: 2, 3: -1})
    order = 40
    got = tc.eta_quotient(spec, order)
    square = oracles.poly_mul(oracles.euler_product(1, order), oracles.euler_product(1, order), order)
    # 1 / (q^3;q^3) is the partition series dilated by 3
    inverse = [0] * (order + 1)
    inverse[::3] = oracles.inverse_euler_power(1, order // 3)
    expected = exact(oracles.poly_mul(square, inverse, order))
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
    # canonical residues are kept as given
    six = tc.TruncatedSeries(tc.residues_mod(6), (5, 4, 3))
    assert six.coeffs == (5, 4, 3)


@pytest.mark.parametrize(
    "ring,coeffs,bad",
    # a float used to fail later inside a product, a string was split into
    # its characters, and a bool was kept over Z/5
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
