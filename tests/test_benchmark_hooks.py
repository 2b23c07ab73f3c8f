"""The benchmark's traced runs wrap package functions by module attribute
(perfbench/tracing.py); every name they wrap, and every certificate
attribute they count, must still exist, and each proof stage must run
inside the span of the proof."""

from dataclasses import replace
from pathlib import Path

import tsppcong as tc
from tsppcong import documents, prover

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def test_tracing_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    assert tracing.HOOKS
    for module, attr, span, _ in tracing.HOOKS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} (span {span})"


def test_tracing_counts_read_a_certificate(monkeypatch):
    # the traced runs count each verify call's scanned indices and whether
    # it needed an expansion off the certificate (tracing._verify_counts),
    # so a renamed ProgressionCheck.indices or expansion_order fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    # p(5n+4) = 0 (mod 5), the README's smallest example
    inst = tc.VerificationInstance(
        m=5, t=4, r=tc.EtaQuotientSpec(1, {1: -1}), r_prime=tc.EtaQuotientSpec(5, {1: 5}), u=5
    )
    cert = tc.verify_instance(inst)
    scanned = len(cert.orbit) * (cert.bound_floor + 1)
    assert scanned > 0
    assert tracing._verify_counts((inst,), {}, cert) == {"indices": scanned, "needs_expansion": True}

    # at group level 1 the prime 5 of m does not divide N: no scan runs
    failing = tc.verify_instance(replace(inst, r_prime=tc.EtaQuotientSpec(1, {1: 24})))
    assert failing.failure.startswith("admissibility condition failed: m_primes_divide_group_level")
    assert tracing._verify_counts((failing.instance,), {}, failing) == {"indices": 0, "needs_expansion": False}


def test_proof_stages_run_inside_the_proof(monkeypatch):
    # perfbench attributes time to the layer whose span encloses it, so the
    # reduction and each verify call must run under prove_tspp_congruence,
    # not on a later first read such as the writer's
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    (doc,) = [d for d in tc.published_instances() if d.claim.modulus == 5]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = prover.prove_tspp_congruence(doc.claim, doc.hints)
        documents.report_to_doc(report)
    finally:
        tracer.uninstall()
    names = [span["name"] for span in tracer.spans]
    parents = {
        span["name"]: names[span["parent"]]
        for span in tracer.spans
        if span["name"] in ("tspp.reduce_claim", "verification.verify_instance")
    }
    assert parents == {
        "tspp.reduce_claim": "prover.prove_tspp_congruence",
        "verification.verify_instance": "prover.prove_tspp_congruence",
    }
    assert names.count("tspp.reduce_claim") == names.count("verification.verify_instance") == 1


def test_verdict_is_decided_inside_the_proof():
    # the report's detail and each certificate's failure are computed by
    # prove_tspp_congruence itself, so the writer (documents.serialize)
    # only reads them: proved, failed and not-reducible claims alike
    (doc,) = [d for d in tc.published_instances() if d.claim.modulus == 5]
    failing = tc.InstanceHints(5, tc.EtaQuotientSpec(5, {1: 13}))
    claims = [
        (doc.claim, doc.hints),
        (doc.claim, failing),
        (tc.CongruenceClaim("f", 6, 4, 5), doc.hints),
    ]
    reports = [prover.prove_tspp_congruence(claim, hints) for claim, hints in claims]
    for report in reports:
        assert "detail" in vars(report)
        assert all("failure" in vars(cert) for cert in report.certificates)
    assert [r.verdict for r in reports] == [prover.PROVED, prover.FAILED, prover.NOT_REDUCIBLE]
