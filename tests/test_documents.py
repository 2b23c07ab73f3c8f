"""Instance-file parsing, strictness, and deterministic serialization."""

import enum
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tsppcong as tc
from tsppcong.documents import (
    DocumentError,
    canonical_json,
    certificate_to_doc,
    claim_to_doc,
    parse_instance,
    report_to_doc,
)

GOOD = """
{
  "claim": {"sequence": "f", "A": 1250, "B": 125, "u": 125},
  "hints": {"N": 10, "r_prime": {"1": 13, "2": 0, "5": 0, "10": 0}}
}
"""


def test_parse_round_trip_is_identity():
    doc = parse_instance(GOOD)
    assert doc.claim == tc.CongruenceClaim("f", 1250, 125, 125)
    assert doc.hints.group_level == 10
    assert dict(doc.hints.r_prime.exponents) == {1: 13, 2: 0, 5: 0, 10: 0}
    # the claim is written back as every certificate writes it
    assert claim_to_doc(doc.claim) == json.loads(GOOD)["claim"]


def test_parse_fills_missing_divisors():
    text = """{"claim": {"sequence": "f", "A": 1250, "B": 125, "u": 125},
               "hints": {"N": 10, "r_prime": {"1": 13}}}"""
    doc = parse_instance(text)
    assert dict(doc.hints.r_prime.exponents) == {1: 13, 2: 0, 5: 0, 10: 0}


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
        (lambda d: d.pop("hints"), "missing field"),
        pytest.param(
            lambda d: d.__setitem__("oracle", {"max_index": 50000}),
            re.escape("unknown field(s) ['oracle']"),
            id="oracle",
        ),
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
        # int() would read "01" as divisor 1, overriding r'_1 = 13, and "1_0" as 10
        pytest.param(
            lambda d: d["hints"]["r_prime"].__setitem__("01", 0),
            re.escape("divisor key '01' is not an integer"),
            id="key-01",
        ),
        pytest.param(
            lambda d: d["hints"]["r_prime"].__setitem__("1_0", 1),
            re.escape("divisor key '1_0' is not an integer"),
            id="key-1_0",
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
    # json.loads alone keeps the last value of a repeated key
    for text, key in (
        (GOOD.replace('"u": 125', '"u": 125, "u": 5'), "u"),
        (GOOD.replace('"N": 10', '"N": 10, "N": 5'), "N"),
    ):
        with pytest.raises(DocumentError, match=re.escape(f"somewhere: duplicate key {key!r}")):
            parse_instance(text, source="somewhere")


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


# strings weighted toward what the writer must escape: quotes, backslashes,
# control characters, non-ASCII text and astral characters (surrogate pairs)
texts = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\xe9\u00ff\U0001f600'),
        st.characters(codec="utf-8"),
    ),
    max_size=12,
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**300), 10**300),
    texts,
)
documents_st = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.dictionaries(texts, inner, max_size=5)),
    max_leaves=40,
)


@given(doc=documents_st)
def test_canonical_json_matches_json_dumps(doc):
    assert canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def test_canonical_json_nests_empty_and_deep_containers():
    doc = {"a": [], "b": {}, "c": [[[{"d": [{}]}]]], "\u00e9": None}
    assert canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


class Small(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize(
    "value",
    [1.0, {1: 2}, {"a": 1, 2: "b"}, (1, 2), Small.ONE, [float("nan")], {"x": [0.5]}],
    ids=["float", "int-key", "mixed-keys", "tuple", "int-enum", "nan-in-list", "nested-float"],
)
def test_canonical_json_refuses_other_types(value):
    with pytest.raises(TypeError):
        canonical_json(value)


def test_canonical_json_writes_bools_as_json_literals():
    # bool is an int subclass: an int test first would write True as 1
    assert canonical_json([True, False, 1, 0]) == "[\n  true,\n  false,\n  1,\n  0\n]\n"
    assert canonical_json(True) == "true\n"


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
