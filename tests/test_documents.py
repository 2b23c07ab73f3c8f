"""Instance-file parsing, strictness, and deterministic serialization."""

import json
import re

import pytest

import tsppcong as tc
from tsppcong.documents import (
    DocumentError,
    canonical_json,
    certificate_to_doc,
    dump_instance,
    parse_instance,
    report_to_doc,
)

GOOD = """
{
  "claim": {"sequence": "f", "A": 1250, "B": 125, "u": 125},
  "hints": {"N": 10, "r_prime": {"1": 13, "2": 0, "5": 0, "10": 0}},
  "oracle": {"max_index": 50000}
}
"""


def test_parse_round_trip_is_identity():
    doc = parse_instance(GOOD)
    assert parse_instance(dump_instance(doc)) == doc
    assert doc.claim == tc.CongruenceClaim("f", 1250, 125, 125)
    assert doc.hints.group_level == 10
    assert doc.hints.r_prime.as_dict() == {1: 13, 2: 0, 5: 0, 10: 0}
    assert doc.oracle_max == 50000


def test_parse_fills_missing_divisors():
    text = """{"claim": {"sequence": "f", "A": 1250, "B": 125, "u": 125},
               "hints": {"N": 10, "r_prime": {"1": 13}}}"""
    doc = parse_instance(text)
    assert doc.hints.r_prime.as_dict() == {1: 13, 2: 0, 5: 0, 10: 0}
    assert doc.oracle_max == 0
    # serialization writes the full divisor map back out
    assert '"10": 0' in dump_instance(doc)


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.__setitem__("extra", 1), "unknown field"),
        (lambda d: d["claim"].__setitem__("weight", 1), "unknown field"),
        (lambda d: d["claim"].__setitem__("sequence", "h"), "sequence"),
        (lambda d: d["claim"].__setitem__("A", "1250"), "integer"),
        (lambda d: d["hints"].__setitem__("N", 0), "N must be positive"),
        (lambda d: d["hints"]["r_prime"].__setitem__("3", 1), "do not divide"),
        (lambda d: d["hints"]["r_prime"].__setitem__("x", 1), "not an integer"),
        (lambda d: d["oracle"].__setitem__("max_index", -1), "nonnegative"),
        (lambda d: d.pop("hints"), "missing field"),
        pytest.param(
            lambda d: d.__setitem__("overrides", {"t": 230}),
            re.escape("unknown field(s) ['overrides']"),
            id="overrides",
        ),
        pytest.param(
            lambda d: d["claim"].update(sequence="gap", A=625, B=229, alpha=3, p=5),
            re.escape("unknown field(s) ['alpha', 'p']"),
            id="gap-claim",
        ),
        pytest.param(
            lambda d: d["claim"].__setitem__("sequence", "g"), "sequence must be 'f'", id="g-claim"
        ),
    ],
)
def test_parse_rejects_malformed_documents(mutate, message):
    doc = json.loads(GOOD)
    mutate(doc)
    with pytest.raises(DocumentError, match=message):
        parse_instance(json.dumps(doc))


def test_parse_rejects_bad_json():
    with pytest.raises(DocumentError, match="not valid JSON"):
        parse_instance("{not json", source="somewhere")


def test_claim_offset_range_is_validated():
    text = """{"claim": {"sequence": "f", "A": 10, "B": 10, "u": 5},
               "hints": {"N": 10, "r_prime": {}}}"""
    with pytest.raises(DocumentError, match="offset"):
        parse_instance(text)


def test_canonical_json_is_stable():
    doc = {"b": 1, "a": [2, {"z": 3, "y": 4}]}
    first = canonical_json(doc)
    second = canonical_json(json.loads(first))
    assert first == second
    assert first.endswith("\n")


def test_certificate_document_uses_exact_fraction_strings(instance1, certificate1):
    cert, _ = certificate1
    doc = certificate_to_doc(cert)
    assert doc["bound"] == "10151/120"
    assert doc["bound_floor"] == 84
    assert doc["orbit"] == [229, 604]
    assert all("/" in c["total"] for c in doc["cusps"])
    text = canonical_json(doc)
    assert "e-" not in text and "E-" not in text  # no scientific notation anywhere


def test_report_document_shape(shipped_docs):
    doc = shipped_docs[0]
    report = tc.prove_tspp_congruence(doc.claim, doc.hints)
    oracle = tc.oracle_check(doc.claim, tc.tspp_series(2000, tc.residues_mod(125)))
    payload = report_to_doc(report, oracle)
    assert payload["format"] == "tsppcong.proof/1"
    assert payload["verdict"] == "PROVED"
    assert payload["claim"] == {"sequence": "f", "A": 1250, "B": 125, "u": 125}
    assert len(payload["reduction"]) == 3
    assert payload["oracle_check"]["passed"] is True
    gap_claims = [r["g_claim"] for r in payload["reduction"] if r["g_claim"]]
    assert gap_claims == [
        {"sequence": "gap", "A": 625, "B": 229, "u": 125, "alpha": 3, "p": 5}
    ]
