"""Proof orchestration: reduction plus verification, modulus combination,
oracle cross-checks and the regression suite."""

import pytest

import tsppcong as tc
from tsppcong.prover import (
    FAILED,
    NOT_REDUCIBLE,
    PROVED,
    PROVED_MODULO_CITATIONS,
    AssumedCongruence,
    ProofReport,
    build_instance,
)


@pytest.fixture(scope="module")
def proof_825(shipped_docs):
    doc = next(d for d in shipped_docs if d.claim.offset == 825)
    return tc.prove_tspp_congruence(doc.claim, doc.hints)


def test_shipped_instances_parse(shipped_docs):
    claims = [(d.claim.step, d.claim.offset, d.claim.modulus) for d in shipped_docs]
    assert claims == [
        (1250, 125, 125),
        (1250, 1125, 125),
        (2750, 825, 11),
        (2750, 1925, 11),
    ]
    assert all(d.oracle_max == 50_000 for d in shipped_docs)


def test_build_instance_matches_manual_construction(shipped_docs, instance1, instance2):
    by_offset = {d.claim.offset: d for d in shipped_docs}
    steps = tc.reduce_claim(by_offset[125].claim)
    g_claim = next(s.g_claim for s in steps if s.g_claim)
    assert build_instance(g_claim, by_offset[125].hints) == instance1

    steps = tc.reduce_claim(by_offset[825].claim)
    g_claim = next(s.g_claim for s in steps if s.g_claim)
    assert build_instance(g_claim, by_offset[825].hints) == instance2


def test_prove_mod125_claims(shipped_docs):
    for doc in shipped_docs[:2]:
        report = tc.prove_tspp_congruence(doc.claim, doc.hints)
        assert report.verdict == PROVED
        assert len(report.certificates) == 1
        cert = report.certificates[0]
        assert cert.verdict == "VERIFIED"
        assert cert.bound_floor == 84
        assert cert.orbit == (229, 604)
        assert not report.assumed


def test_prove_mod11_claims(shipped_docs, proof_825):
    assert proof_825.verdict == PROVED
    assert proof_825.certificates[0].bound_floor == 152
    doc = shipped_docs[3]
    report = tc.prove_tspp_congruence(doc.claim, doc.hints)
    assert report.verdict == PROVED
    assert report.certificates[0].orbit == (779, 1054)


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
    gap = tc.CongruenceClaim("gap", 625, 229, 125, alpha=3, p=5)
    with pytest.raises(ValueError, match="claims about f"):
        tc.oracle_check(gap, tc.tspp_series(100, tc.residues_mod(125)))


def test_combine_congruences_with_citation(proof_825):
    cited = AssumedCongruence(
        tc.CongruenceClaim("f", 10, 5, 5), "previously published", 50_000
    )
    combined = tc.combine_congruences([proof_825], [cited])
    assert combined.verdict == PROVED_MODULO_CITATIONS
    assert combined.claim == tc.CongruenceClaim("f", 2750, 825, 55)
    assert combined.assumed == (cited,)
    assert combined.certificates == proof_825.certificates


def test_combine_upgrade_when_citation_is_replaced(proof_825):
    # a proof of the mod 5 part upgrades the verdict and changes nothing else
    mod5 = ProofReport(tc.CongruenceClaim("f", 2750, 825, 5), (), (), (), PROVED)
    combined = tc.combine_congruences([proof_825, mod5])
    assert combined.verdict == PROVED
    assert combined.claim.modulus == 55
    assert combined.claim == tc.CongruenceClaim("f", 2750, 825, 55)
    assert combined.certificates == proof_825.certificates
    assert combined.assumed == ()


def test_combine_rejects_non_coprime_moduli(proof_825):
    other = ProofReport(tc.CongruenceClaim("f", 2750, 825, 121), (), (), (), PROVED)
    with pytest.raises(ValueError, match="coprime"):
        tc.combine_congruences([proof_825, other])


def test_combine_rejects_progression_mismatch(proof_825):
    other = ProofReport(tc.CongruenceClaim("f", 2750, 1925, 5), (), (), (), PROVED)
    with pytest.raises(ValueError, match="mismatch"):
        tc.combine_congruences([proof_825, other])


def test_combine_checks_citation_containment(proof_825):
    cited = AssumedCongruence(
        tc.CongruenceClaim("f", 10, 3, 5), "wrong residue", 1_000
    )
    with pytest.raises(ValueError, match="does not contain"):
        tc.combine_congruences([proof_825], [cited])


def test_combine_rejects_unproved_inputs(proof_825):
    failed = ProofReport(tc.CongruenceClaim("f", 2750, 825, 5), (), (), (), FAILED)
    with pytest.raises(ValueError, match="verdict"):
        tc.combine_congruences([proof_825, failed])
    with pytest.raises(ValueError):
        tc.combine_congruences([])


def test_regression_suite_smoke(shipped_docs):
    suite = tc.regression_suite(oracle_max=3_000)
    assert suite.passed
    statuses = {e.name: e.status for e in suite.entries}
    assert statuses["support"] == "pass"
    assert statuses["slice-identity"] == "pass"
    assert all(s == "pass" for s in statuses.values())


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


def test_regression_suite_skips_oracle_rows():
    suite = tc.regression_suite(oracle_max=0)
    assert suite.passed
    assert [e.name for e in suite.entries] == SUITE_ROWS
    statuses = [e.status for e in suite.entries if e.name.startswith("oracle")]
    assert statuses and all(s == "skip" for s in statuses)
    proof_rows = [e for e in suite.entries if e.name.startswith("proof")]
    assert proof_rows and all(e.status == "pass" for e in proof_rows)


def test_regression_suite_derives_combinations(shipped_docs):
    # a combined row needs a known congruence containing an instance claim
    # with a coprime modulus: f(10n+5) = 0 (mod 5) and a mod-11 claim
    def rows(docs):
        suite = tc.regression_suite(oracle_max=0, instances=docs)
        return [e.name for e in suite.entries if e.status != "skip"], suite

    # congruence rows: prime_power of the instance moduli, then of the known ones
    known_rows = [
        "congruence g[1,5] = g (mod 5)",
        "congruence g[2,5] = g (mod 25)",
        "congruence g[2,2] = g (mod 4)",
    ]
    names, suite = rows([shipped_docs[2]])
    assert suite.passed
    assert "oracle f(2750n+825) = 0 (mod 55)" in [e.name for e in suite.entries]
    assert names == [
        "support",
        "slice-identity",
        "congruence g[1,11] = g (mod 11)",
        *known_rows,
        "proof f(2750n+825) = 0 (mod 11)",
        "combined f(2750n+825) = 0 (mod 55)",
    ]

    broken = tc.InstanceDocument(
        shipped_docs[2].claim, tc.InstanceHints(5, tc.EtaQuotientSpec(5, {1: 6})), 0
    )
    _, suite = rows([broken])
    assert [(e.name, e.status, e.detail) for e in suite.entries if e.name.startswith("combined")] == [
        ("combined f(2750n+825) = 0 (mod 55)", "skip", "mod 11 proof unavailable")
    ]

    names, suite = rows(shipped_docs[:2])
    assert suite.passed
    assert not any("mod 55" in e.name for e in suite.entries)
    assert names[2:] == [
        "congruence g[3,5] = g (mod 125)",
        *known_rows,
        "proof f(1250n+125) = 0 (mod 125)",
        "proof f(1250n+1125) = 0 (mod 125)",
    ]


def test_regression_suite_reports_injected_failure(shipped_docs):
    corrupted = tc.InstanceDocument(
        shipped_docs[0].claim,
        tc.InstanceHints(5, tc.EtaQuotientSpec(5, {1: 13})),
        0,
    )
    suite = tc.regression_suite(oracle_max=0, instances=[corrupted])
    assert not suite.passed
    failing = [e for e in suite.entries if e.status == "fail"]
    assert len(failing) == 1
    assert failing[0].name.startswith("proof")
