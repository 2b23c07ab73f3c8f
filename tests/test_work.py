"""Deterministic work pins: the operations each proof, the regression suite
and a seeded stream of small claims make, counted at the series, counting
and verifier boundaries.

Timings on a shared machine move by tens of percent from one run to the
next; these counts do not move at all unless the code changes what it
computes.  So a change that claims no new work must leave every pin as it
is, and a change that saves work shows it here exactly.

Counted, per run and from empty expansion memos:
  eta       each eta_quotient call (verification's and tspp's) and its order;
  passes    the sparse passes of series._sparse_passes (tspp binds its own
            name) and their shifted-add elements, over the terms after the
            first whose weight survives reduction mod u (kept terms): a
            full pass counts n - e per kept term; the written first pass
            over an input c*1 counts 0; the read-class last pass of a call
            with g > 1 counts, per kept term, the slots of the output class
            o mod g that it adds to (the alpha axpys of each rewritten
            exponent are not counted);
  divisions each division of eta_quotient by (q^d; q^d), one series._staircase
            call (tspp binds its own name), as its level d and input length;
  slots     the x-slots (order + 2) // 3 of each run of tspp's counting
            kernel, counted inside its memo, so calls that share a run
            count it once;
  scanned   the indices m*n + t' of every certificate verify_instance returns.
"""

import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import pytest

import tsppcong as tc
from tsppcong import prover, series, tspp, verification


@dataclass
class Work:
    eta: list[int] = field(default_factory=list)
    passes: int = 0
    elements: int = 0
    divisions: list[tuple[int, int]] = field(default_factory=list)
    slots: int = 0
    scanned: int = 0

    def pin(self) -> tuple:
        """(eta orders, passes, elements, divisions, slots, scanned)"""
        return (
            tuple(self.eta), self.passes, self.elements, tuple(self.divisions), self.slots, self.scanned,
        )


@pytest.fixture
def count(monkeypatch):
    """count(run): the Work of run(), from empty expansion memos."""

    def counting(original, record):
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            record(result, *args, **kwargs)
            return result

        return counted

    def wrap(module, name, record):
        monkeypatch.setattr(module, name, counting(getattr(module, name), record))

    work = Work()

    def passes(result, coeffs, terms, r, modulus, g=1, o=0):
        n = len(coeffs)
        kept = [e for e, w in terms[1:] if modulus is None or w % modulus]
        written = int(r > 0 and not np.any(coeffs[1:]))
        classed = int(g > 1 and r > written)
        work.passes += r
        work.elements += (r - written - classed) * sum(n - e for e in kept)
        if classed:
            slots = len(range(o, n, g))
            work.elements += sum(max(0, slots - (e - o + g - 1) // g) for e in kept)

    def division(result, values, stairs, t, modulus):
        # the first stair of a division by (q^d; q^d) has width d
        work.divisions.append((stairs(1)[1], len(values)))

    def eta(result, spec, order, *args, **kwargs):
        work.eta.append(order)

    def slots(result, order, u):
        work.slots += (order + 2) // 3

    def scanned(cert, instance):
        work.scanned += sum(len(c.indices) for c in cert.checked)

    for module in (series, tspp):
        wrap(module, "_sparse_passes", passes)
    for module in (verification, tspp):
        wrap(module, "eta_quotient", eta)
    # a memo like tspp's, over the counted kernel, so a hit counts nothing
    kernel = tspp._slots
    memo = lru_cache(kernel.cache_parameters()["maxsize"])(counting(kernel.__wrapped__, slots))
    monkeypatch.setattr(tspp, "_slots", memo)
    wrap(series, "_staircase", division)
    wrap(prover, "verify_instance", scanned)

    def run(fn):
        nonlocal work
        work = Work()
        verification._expansion.cache_clear()
        tspp._slots.cache_clear()
        fn()
        verification._expansion.cache_clear()
        tspp._slots.cache_clear()
        return work

    return run


# each shipped and published proof, proved alone: two eta calls, the n = 0
# probe and the full scan, which runs because the probe reads a zero.  Every
# variant has u <= T, the sum of its positive exponents, so series converts
# its negative exponent through (q^d;q^d)^u = (q^pd;q^pd)^(u/p) (mod u) and
# makes no division.  Mod 125 the variant expands
# as (q;q)^3 (q^2;q^2)^3 H / (q^5;q^5)^3 (series' Frobenius rewrite): one
# Jacobi pass each for the cubes and two Horner steps of 3 passes for
# z = (q;q)^5 and 1 for F = (q^5;q^5), 10 passes.  The -3 left on 5 becomes
# 122, rewritten in 10 passes, which leaves -3 on 25, and so on up the
# powers of 5 below the order: 30 more passes at order 604 and 60 at
# 53 104, the first three levels each on one class mod 5 of the last.  Mod
# 11 the -1 on 11 becomes 10, 4 passes, on each power of 11 below the order.
# The first pass over the constant 1 writes its terms, and the last pass
# before each class cut, and of each expansion, computes only the class read
PROOF_WORK = {
    "f(1250n+125) = 0 (mod 125)": ((604, 53104), 110, 93_641_075, (), 0, 170),
    "f(1250n+1125) = 0 (mod 125)": ((604, 53104), 110, 93_641_075, (), 0, 170),
    "f(2750n+825) = 0 (mod 11)": ((1054, 210_054), 36, 183_400_975, (), 0, 306),
    "f(2750n+1925) = 0 (mod 11)": ((1054, 210_054), 36, 183_400_975, (), 0, 306),
    "f(10n+5) = 0 (mod 5)": ((4, 19), 6, 7, (), 0, 4),
    "f(250n+125) = 0 (mod 25)": ((104, 2229), 42, 370_830, (), 0, 18),
}


def test_each_proof_does_its_pinned_work(count):
    docs = (*tc.shipped_instances(), *tc.published_instances())
    got = {}
    for doc in docs:
        work = count(lambda: tc.prove_tspp_congruence(doc.claim, doc.hints))
        got[doc.claim.describe()] = work.pin()
    assert got == PROOF_WORK


# the three proofs' probe and scan pairs (each mod-125 and mod-11 pair
# serves both claims through the memo), the slice identity's two pentagonal
# passes over the 834 counts f(6n+1), and the counting kernel to 10 000,
# 5 000 and ORACLE_MAX, the last run once for all nine oracle rows; no
# division
REGRESS_WORK = ((604, 53104, 1054, 210_054, 4, 19), 358, 277_112_074, (), 21_668, 956)


def test_regression_suite_does_its_pinned_work(count):
    work = count(tc.regression_suite)
    assert work.pin() == REGRESS_WORK


def sweep_claims(seed, count):
    """count claims f(2mn + B) = 0 (mod p**alpha) with hints N = 2p and
    r' = {1: k'}, each with some class n = 3k + r on indices 1 (mod 6) and
    none on 4 (mod 6), so that each reaches the verifier."""
    rng = random.Random(seed)
    claims = []
    while len(claims) < count:
        p = rng.choice((5, 7, 11, 13))
        alpha = rng.choice((1, 2)) if p in (5, 7) else 1
        m = p * rng.choice((1, 3, 5, 7, 11, 13))
        k_prime = rng.randrange(1, 40)
        B = rng.randrange(2 * m)
        residues = {(2 * m * r + B) % 6 for r in range(3)}
        if 1 in residues and 4 not in residues:
            hints = tc.InstanceHints(2 * p, tc.EtaQuotientSpec(2 * p, {1: k_prime}))
            claims.append((tc.CongruenceClaim("f", 2 * m, B, p**alpha), hints))
    return claims


# most of these claims fail the admissibility checklist or a cusp bound,
# which expand nothing, and claims of one orbit share an expansion; every
# variant has u <= T, so none makes a division
SWEEP_WORK = (
    (10, 5, 3, 2, 9, 8, 6, 36, 43, 5, 2, 10, 4, 12, 108, 5, 8, 10, 504, 3, 660), 143, 153_571, (), 0, 6899,
)


def test_sweep_claims_do_their_pinned_work(count):
    claims = sweep_claims(1, 200)

    def run():
        for claim, hints in claims:
            tc.prove_tspp_congruence(claim, hints)

    work = count(run)
    assert work.pin() == SWEEP_WORK
