"""Proof orchestration: reduction plus verification, modulus combination,
oracle cross-checks and the regression suite."""

import re
from dataclasses import replace

import pytest

import tsppcong as tc
from tsppcong import cli, documents
from tsppcong.verification import clear_expansion_cache
from tsppcong.prover import (
    FAILED,
    NOT_REDUCIBLE,
    PROVED,
    ProofReport,
    build_instance,
)


@pytest.fixture(scope="module")
def proof_825(shipped_docs):
    doc = next(d for d in shipped_docs if d.claim.offset == 825)
    return tc.prove_tspp_congruence(doc.claim, doc.hints)


@pytest.fixture(scope="module")
def proof_1925(shipped_docs):
    doc = next(d for d in shipped_docs if d.claim.offset == 1925)
    return tc.prove_tspp_congruence(doc.claim, doc.hints)


@pytest.fixture(scope="module")
def proof_mod5():
    # f(10n+5) = 0 (mod 5) leaves one class to verify, n = 3k+2
    (doc,) = [d for d in tc.published_instances() if d.claim.modulus == 5]
    return tc.prove_tspp_congruence(doc.claim, doc.hints)


def test_shipped_instances_parse(shipped_docs):
    claims = [(d.claim.step, d.claim.offset, d.claim.modulus) for d in shipped_docs]
    assert claims == [
        (1250, 125, 125),
        (1250, 1125, 125),
        (2750, 825, 11),
        (2750, 1925, 11),
    ]


def test_build_instance_matches_manual_construction(shipped_docs, instance1, instance2):
    by_offset = {d.claim.offset: d for d in shipped_docs}
    steps = tc.reduce_claim(by_offset[125].claim)
    g_claim = next(s.g_claim for s in steps if s.g_claim)
    assert build_instance(g_claim, by_offset[125].hints.r_prime) == instance1

    steps = tc.reduce_claim(by_offset[825].claim)
    g_claim = next(s.g_claim for s in steps if s.g_claim)
    assert build_instance(g_claim, by_offset[825].hints.r_prime) == instance2


def test_prove_mod125_claims(shipped_docs):
    for doc in shipped_docs[:2]:
        report = tc.prove_tspp_congruence(doc.claim, doc.hints)
        assert report.verdict == PROVED
        assert len(report.certificates) == 1
        cert = report.certificates[0]
        assert cert.verdict == "VERIFIED"
        assert cert.bound_floor == 84
        assert cert.orbit == (229, 604)


def test_prove_mod11_claims(proof_825, proof_1925):
    assert proof_825.verdict == PROVED
    assert proof_825.certificates[0].bound_floor == 152
    assert proof_1925.verdict == PROVED
    assert proof_1925.certificates[0].orbit == (779, 1054)


def test_prove_not_reducible_verdict():
    hints = tc.InstanceHints(10, tc.EtaQuotientSpec(10, {1: 13}))
    report = tc.prove_tspp_congruence(tc.CongruenceClaim("f", 6, 4, 5), hints)
    assert report.verdict == NOT_REDUCIBLE
    assert report.certificates == ()


def test_prove_with_inadmissible_hints_fails(shipped_docs):
    # N = 5 leaves the divisor 2 of the eta quotient outside m*N = 3125
    hints = tc.InstanceHints(5, tc.EtaQuotientSpec(5, {1: 13}))
    report = tc.prove_tspp_congruence(shipped_docs[0].claim, hints)
    assert report.verdict == FAILED
    assert "admissibility condition failed: eta_divisors_divide_mN" in report.detail


def test_verified_claim_agrees_with_oracle(shipped_docs):
    # the two pipelines share only the series primitives
    counts = tc.tspp_series(20_000, tc.residues_mod(125 * 11))
    for doc in shipped_docs:
        check = tc.oracle_check(doc.claim, counts)
        assert check.passed, check.detail


def test_oracle_check_counts_and_violations():
    ok = tc.oracle_check(tc.CongruenceClaim("f", 10, 5, 5), tc.tspp_series(3_000, tc.residues_mod(25)))
    assert ok.passed and ok.checked == 300
    assert ok.detail == "indices <= 3000"

    bad = tc.oracle_check(tc.CongruenceClaim("f", 1, 0, 2), tc.tspp_series(50, tc.residues_mod(6)))
    assert not bad.passed
    assert bad.first_violation == 0  # the count at index 0 is 1
    assert bad.detail == "coefficient 0 is 1 (mod 2)"

    # f(1) = 1, read mod 4 from a mod-12 expansion
    bad = tc.oracle_check(tc.CongruenceClaim("f", 3, 1, 4), tc.tspp_series(50, tc.residues_mod(12)))
    assert (bad.first_violation, bad.detail) == (1, "coefficient 1 is 1 (mod 4)")


def test_oracle_check_accepts_exact_counts():
    exact = tc.tspp_series(3_000)
    assert exact.ring == tc.INTEGERS
    for claim in tc.known_congruences():
        check = tc.oracle_check(claim, exact)
        mod = tc.oracle_check(claim, tc.tspp_series(3_000, tc.residues_mod(claim.modulus)))
        assert check == mod and check.passed


def test_oracle_check_rejects_foreign_rings_and_claims():
    claim = tc.CongruenceClaim("f", 1250, 125, 125)
    for u in (5, 25, 11, 550):
        with pytest.raises(ValueError, match="do not determine residues mod 125"):
            tc.oracle_check(claim, tc.tspp_series(100, tc.residues_mod(u)))
    with pytest.raises(ValueError):
        tc.CongruenceClaim("gap", 625, 229, 125)  # the oracle is only ever handed f claims


def test_claim_whose_classes_all_vanish_proves_without_certificates():
    # f(3n+2) splits into 9k+2, 9k+5 and 9k+8, all 2 (mod 3), where f vanishes
    hints = tc.InstanceHints(10, tc.EtaQuotientSpec(10, {1: 13}))
    report = tc.prove_tspp_congruence(tc.CongruenceClaim("f", 3, 2, 7), hints)
    assert len(report.reduction) == 3 and report.certificates == ()
    assert report.verdict == PROVED


def test_verdict_is_read_off_the_reduction_and_certificates(proof_825):
    # the report stores no verdict: an empty reduction reads NOT-REDUCIBLE,
    # and one certificate that is not VERIFIED makes the whole report FAILED
    bare = ProofReport(proof_825.claim, (), (), "no reduction")
    assert (bare.verdict, bare.detail) == (NOT_REDUCIBLE, "no reduction")
    for reports in ([bare], [proof_825, bare]):
        with pytest.raises(ValueError, match=re.escape("(mod 11) has verdict NOT-REDUCIBLE: no reduction")):
            tc.combine_congruences(reports)

    (cert,) = proof_825.certificates
    broken = replace(cert, failure="injected")
    assert broken.verdict == "FAILED"
    report = replace(proof_825, certificates=(broken,))
    assert (report.verdict, report.detail) == (FAILED, "class n = 3k+2: injected")
    assert proof_825.detail is None


def test_certificates_must_match_the_classes_one_to_one(proof_mod5, proof_825):
    # each class to verify needs exactly one VERIFIED certificate of its own
    # instance; a certificate that is VERIFIED for another claim does not count
    (cert,) = proof_mod5.certificates
    assert proof_mod5.verdict == PROVED and proof_825.verdict == PROVED
    for certificates, detail in (
        ((), "0 certificate(s) for 1 class(es) to verify"),
        ((cert, cert), "2 certificate(s) for 1 class(es) to verify"),
        (proof_825.certificates, "class n = 3k+2: its certificate is for another instance"),
    ):
        report = replace(proof_mod5, certificates=certificates)
        assert (report.verdict, report.detail) == (FAILED, detail)
        message = f"f(10n+5) = 0 (mod 5) has verdict FAILED: {detail}"
        with pytest.raises(ValueError, match=re.escape(message)):
            tc.combine_congruences([report])

    # the hints may differ (r' is the certificate's own); the class may not
    other_hints = tc.InstanceHints(10, tc.EtaQuotientSpec(10, {1: 2}))
    (other,) = tc.prove_tspp_congruence(proof_mod5.claim, other_hints).certificates
    assert other.verdict == "VERIFIED"
    assert replace(proof_mod5, certificates=(other,)).verdict == PROVED
    shifted = replace(other, instance=replace(other.instance, t=(other.instance.t + 1) % other.instance.m))
    assert replace(proof_mod5, certificates=(shifted,)).verdict == FAILED


@pytest.mark.parametrize("claim", [(3, 0, 5), (6, 0, 7), (9, 0, 4)])
def test_progression_through_index_0_is_not_reducible(claim):
    # f(0) = 1, so class n = 3k+0 of f(An) is never zero, although its
    # indices are 0 (mod 3)
    hints = tc.InstanceHints(10, tc.EtaQuotientSpec(10, {1: 1}))
    report = tc.prove_tspp_congruence(tc.CongruenceClaim("f", *claim), hints)
    assert report.verdict == NOT_REDUCIBLE
    assert report.detail == "class n = 3k+0: the progression contains index 0, and f(0) = 1"


def test_combine_with_the_published_mod5_proof(proof_825, proof_mod5):
    # f(10n+5) = 0 (mod 5) contains the target progression f(2750n+825)
    combined = tc.combine_congruences([proof_825, proof_mod5])
    assert combined.verdict == PROVED
    assert combined.claim == tc.CongruenceClaim("f", 2750, 825, 55)
    assert combined.reduction == proof_825.reduction + proof_mod5.reduction
    assert combined.certificates == proof_825.certificates + proof_mod5.certificates
    assert combined.detail is None
    with pytest.raises(ValueError, match="does not contain"):
        tc.combine_congruences([proof_mod5, proof_825])  # the target is the first report's


def test_combine_rejects_non_coprime_moduli(proof_825):
    with pytest.raises(ValueError, match="coprime"):
        tc.combine_congruences([proof_825, proof_825])


def test_combine_rejects_progression_mismatch(proof_825, proof_1925):
    assert proof_1925.verdict == PROVED
    with pytest.raises(ValueError, match=re.escape("f(2750n+1925) = 0 (mod 11) does not contain f(2750n+825)")):
        tc.combine_congruences([proof_825, proof_1925])


def test_combine_checks_citation_containment(proof_825):
    # a proved claim on a coarser progression, but the wrong residue class
    hints = tc.InstanceHints(10, tc.EtaQuotientSpec(10, {1: 1}))
    other = tc.prove_tspp_congruence(tc.CongruenceClaim("f", 3, 2, 5), hints)
    assert other.verdict == PROVED
    with pytest.raises(ValueError, match=re.escape("f(3n+2) = 0 (mod 5) does not contain f(2750n+825)")):
        tc.combine_congruences([proof_825, other])


# f(50n+B) = 0 (mod 4) reduces to m = 25 over the level-4 variant g[2,2];
# with N = 10 and r' = 0: the bound floor, and for B = 25 the first violation
# (t', slice index) and the first index where the counting series refutes it
MOD4_CLAIMS = {5: (1, None), 15: (1, None), 25: (2, (4, 4)), 35: (1, None), 45: (1, None)}


@pytest.fixture(scope="module")
def counts_mod4():
    return tc.tspp_series(tc.prover.ORACLE_MAX, tc.residues_mod(4))


@pytest.mark.parametrize("offset", sorted(MOD4_CLAIMS))
def test_prove_mod4_claims_through_the_level_4_variant(offset, counts_mod4):
    claim = tc.CongruenceClaim("f", 50, offset, 4)
    report = tc.prove_tspp_congruence(claim, tc.InstanceHints(10, tc.EtaQuotientSpec(10, {1: 0})))
    (cert,) = report.certificates
    assert (cert.instance.m, cert.instance.r) == (25, tc.slice_variant_spec(2, 2))
    floor, violation = MOD4_CLAIMS[offset]
    assert cert.bound_floor == floor
    oracle = tc.oracle_check(claim, counts_mod4)
    if violation is None:
        assert report.verdict == PROVED
        assert (oracle.passed, oracle.checked) == (True, 1000)
    else:
        assert report.verdict == FAILED
        assert [(c.t_prime, c.first_violation) for c in cert.checked] == [violation]
        assert oracle.first_violation == offset  # f(25) = 1 (mod 4)


def test_combine_rejects_unproved_inputs(shipped_docs, proof_825):
    # N = 5 fails admissibility, so this is a real FAILED report
    hints = tc.InstanceHints(5, tc.EtaQuotientSpec(5, {1: 13}))
    failed = tc.prove_tspp_congruence(shipped_docs[0].claim, hints)
    assert failed.verdict == FAILED
    with pytest.raises(ValueError, match="verdict FAILED"):
        tc.combine_congruences([proof_825, failed])
    with pytest.raises(ValueError):
        tc.combine_congruences([])


SUITE_ROWS = [
    "support",
    "slice-identity",
    "congruence g[3,5] = g (mod 125)",
    "congruence g[1,11] = g (mod 11)",
    "congruence g[1,5] = g (mod 5)",
    "congruence g[2,5] = g (mod 25)",
    "congruence g[2,2] = g (mod 4)",
    "oracle f(10n+5) = 0 (mod 5)",
    "oracle f(250n+125) = 0 (mod 25)",
    "oracle f(8n+3) = 0 (mod 4)",
    "oracle f(1250n+125) = 0 (mod 125)",
    "oracle f(1250n+1125) = 0 (mod 125)",
    "oracle f(2750n+825) = 0 (mod 11)",
    "oracle f(2750n+1925) = 0 (mod 11)",
    "oracle f(2750n+825) = 0 (mod 55)",
    "oracle f(2750n+1925) = 0 (mod 55)",
    "proof f(1250n+125) = 0 (mod 125)",
    "proof f(1250n+1125) = 0 (mod 125)",
    "proof f(2750n+825) = 0 (mod 11)",
    "proof f(2750n+1925) = 0 (mod 11)",
    "combined f(2750n+825) = 0 (mod 55)",
    "combined f(2750n+1925) = 0 (mod 55)",
]


def test_regression_suite_smoke(monkeypatch):
    calls = {"published_instances": 0, "prove_tspp_congruence": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    counting(documents, "published_instances")
    counting(tc.prover, "prove_tspp_congruence")
    clear_expansion_cache()
    suite = tc.regression_suite()
    # data/published is read once, and its mod-5 proof serves both mod-55
    # rows: four instance proofs and one published proof
    assert calls == {"published_instances": 1, "prove_tspp_congruence": 5}
    # three pairs of memo keys (n = 0 probe, full scan) for mod 125, mod 11
    # and mod 5 fit the memo, so no expansion is made twice
    info = tc.verification._expansion.cache_info()
    assert (info.misses, info.hits, info.currsize) == (6, 4, 6)
    assert suite.passed
    assert [e.name for e in suite.entries] == SUITE_ROWS
    assert all(e.status == "pass" for e in suite.entries)
    oracle_rows = [e for e in suite.entries if e.name.startswith("oracle")]
    assert len(oracle_rows) == 9
    assert all(e.detail == f"indices <= {tc.prover.ORACLE_MAX}" for e in oracle_rows)


def suite_of(monkeypatch, docs):
    """The regression suite with docs in place of the shipped instances."""
    monkeypatch.setattr(documents, "shipped_instances", lambda: tuple(docs))
    return tc.regression_suite()


def test_regression_suite_derives_combinations(shipped_docs, monkeypatch):
    # a combined row needs a published claim containing an instance claim
    # with a coprime modulus: f(10n+5) = 0 (mod 5) and a mod-11 claim
    def rows(docs):
        suite = suite_of(monkeypatch, docs)
        return [e.name for e in suite.entries], suite

    # congruence rows: prime_power of the instance moduli, then of the known
    # ones; oracle rows: the known congruences, then the instance claims
    known_rows = [
        "congruence g[1,5] = g (mod 5)",
        "congruence g[2,5] = g (mod 25)",
        "congruence g[2,2] = g (mod 4)",
        "oracle f(10n+5) = 0 (mod 5)",
        "oracle f(250n+125) = 0 (mod 25)",
        "oracle f(8n+3) = 0 (mod 4)",
    ]
    names, suite = rows([shipped_docs[2]])
    assert suite.passed and all(e.status == "pass" for e in suite.entries)
    assert names == [
        "support",
        "slice-identity",
        "congruence g[1,11] = g (mod 11)",
        *known_rows,
        "oracle f(2750n+825) = 0 (mod 11)",
        "oracle f(2750n+825) = 0 (mod 55)",
        "proof f(2750n+825) = 0 (mod 11)",
        "combined f(2750n+825) = 0 (mod 55)",
    ]

    broken = tc.InstanceDocument(
        shipped_docs[2].claim, tc.InstanceHints(5, tc.EtaQuotientSpec(5, {1: 6}))
    )
    _, suite = rows([broken])
    failure = (
        "class n = 3k+2: admissibility condition failed: m_primes_divide_group_level, "
        "eta_divisors_divide_mN, kappa_weighted_sum_divisible_by_24"
    )
    # the combined row is combine_congruences' refusal, naming the failed proof
    assert [(e.name, e.status, e.detail) for e in suite.entries if e.status != "pass"] == [
        ("proof f(2750n+825) = 0 (mod 11)", "fail", failure),
        ("combined f(2750n+825) = 0 (mod 55)", "fail",
         f"f(2750n+825) = 0 (mod 11) has verdict FAILED: {failure}"),
    ]
    assert not suite.passed

    names, suite = rows(shipped_docs[:2])
    assert suite.passed
    assert not any("mod 55" in e.name for e in suite.entries)
    assert names[2:] == [
        "congruence g[3,5] = g (mod 125)",
        *known_rows,
        "oracle f(1250n+125) = 0 (mod 125)",
        "oracle f(1250n+1125) = 0 (mod 125)",
        "proof f(1250n+125) = 0 (mod 125)",
        "proof f(1250n+1125) = 0 (mod 125)",
    ]


def test_regression_suite_reports_first_slice_variant_mismatch(monkeypatch, capsys):
    # a variant spec for p = 5 with the exponent of (q^2; q^2) moved from 3
    # to 4 breaks exactly the three p = 5 identities; the proofs build their
    # specs through prover's own name and still pass
    exact = tc.tspp.slice_variant_spec

    def moved(alpha, p):
        spec = exact(alpha, p)
        if p != 5:
            return spec
        return tc.EtaQuotientSpec(spec.level, {**dict(spec.exponents), 2: 4})

    monkeypatch.setattr(tc.tspp, "slice_variant_spec", moved)
    failing = [(e.name, e.detail) for e in tc.regression_suite().entries if e.status == "fail"]
    # L = R(1-q^2) (mod u), so the sides first differ at q^2, by -1
    assert failing == [
        (
            f"congruence g[{alpha},5] = g (mod {u})",
            f"violation at index 2: coefficient 2 is {u - 1} in (1-q)^{u}(1-q^2) but 0 in {rhs} (mod {u})",
        )
        for alpha, u, rhs in ((3, 125, "(1-q^5)^25"), (1, 5, "(1-q^5)"), (2, 25, "(1-q^5)^5"))
    ]
    assert cli.main(["regress"]) == 1
    failed = re.findall(r"^(.*\S) +FAIL ", capsys.readouterr().out, flags=re.M)
    assert failed == [name for name, _ in failing]


def test_regression_suite_reports_injected_failure(shipped_docs, monkeypatch):
    corrupted = tc.InstanceDocument(
        shipped_docs[0].claim,
        tc.InstanceHints(5, tc.EtaQuotientSpec(5, {1: 13})),
    )
    suite = suite_of(monkeypatch, [corrupted])
    assert not suite.passed
    failing = [e for e in suite.entries if e.status == "fail"]
    assert len(failing) == 1
    assert failing[0].name.startswith("proof")
