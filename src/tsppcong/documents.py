"""Structured-text documents: instance files in, proof certificates out.

Both directions are strict and deterministic.  Instance files are JSON with
a fixed schema; unknown fields are rejected so a typo cannot silently relax
a proof.  Certificates serialize with sorted keys, two-space indentation and
exact fractions rendered as "numerator/denominator", which makes two runs on
the same input byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .series import EtaQuotientSpec
from .tspp import CheckReport, CongruenceClaim, ReductionStep
from .verification import Certificate, InstanceHints

if TYPE_CHECKING:  # prover imports this module
    from .prover import AssumedCongruence, ProofReport


class DocumentError(ValueError):
    """A document failed to parse or validate; the message names the field."""

    def __init__(self, message: str, where: str = ""):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


@dataclass(frozen=True)
class InstanceDocument:
    claim: CongruenceClaim
    hints: InstanceHints


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


def _read_json(text: str, where: str):
    """Parse JSON text, refusing a repeated key: json.loads alone keeps the
    last value, so a second "u" would silently override the first."""

    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise DocumentError(f"duplicate key {key!r}", where)
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}", where)


def _require_mapping(obj, where):
    if not isinstance(obj, dict):
        raise DocumentError("expected an object", where)
    return obj


def _check_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise DocumentError(f"unknown field(s) {unknown}", where)
    missing = sorted(required - set(obj))
    if missing:
        raise DocumentError(f"missing field(s) {missing}", where)


def _get_int(obj: dict, key: str, where: str) -> int:
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError(f"field {key!r} must be an integer, got {value!r}", where)
    return value


def _parse_divisor_map(obj, level: int, where: str) -> EtaQuotientSpec:
    mapping = _require_mapping(obj, where)
    parsed: dict[int, int] = {}
    for key, value in mapping.items():
        # int() alone would also read "01", " 1" and "1_0"
        if not (key.removeprefix("-").isdecimal() and key == str(int(key))):
            raise DocumentError(f"divisor key {key!r} is not an integer", where)
        parsed[int(key)] = value
    try:
        return EtaQuotientSpec(level, parsed)
    except ValueError as exc:
        raise DocumentError(str(exc), where)


def _parse_claim(obj, where: str) -> CongruenceClaim:
    claim = _require_mapping(obj, where)
    keys = {"sequence", "A", "B", "u"}
    _check_keys(claim, keys, keys, where)
    try:
        return CongruenceClaim(
            claim["sequence"],
            _get_int(claim, "A", where),
            _get_int(claim, "B", where),
            _get_int(claim, "u", where),
        )
    except ValueError as exc:
        raise DocumentError(str(exc), where)


def parse_instance(text: str, source: str = "instance") -> InstanceDocument:
    top = _require_mapping(_read_json(text, source), source)
    _check_keys(top, {"claim", "hints"}, {"claim", "hints"}, source)

    claim = _parse_claim(top["claim"], f"{source}.claim")

    hints_obj = _require_mapping(top["hints"], f"{source}.hints")
    _check_keys(hints_obj, {"N", "r_prime"}, {"N", "r_prime"}, f"{source}.hints")
    group_level = _get_int(hints_obj, "N", f"{source}.hints")
    if group_level < 1:
        raise DocumentError("N must be positive", f"{source}.hints")
    r_prime = _parse_divisor_map(hints_obj["r_prime"], group_level, f"{source}.hints.r_prime")
    return InstanceDocument(claim, InstanceHints(group_level, r_prime))


def load_instance(path) -> InstanceDocument:
    p = Path(path)
    return parse_instance(p.read_text(encoding="utf-8"), source=str(p))


def load_eta_spec(path) -> EtaQuotientSpec:
    """Read an eta quotient written as {"M": level, "r": {divisor: exponent}}."""
    where = str(path)
    doc = _read_json(Path(path).read_text(encoding="utf-8"), where)
    _check_keys(_require_mapping(doc, where), {"M", "r"}, {"M", "r"}, where)
    return _parse_divisor_map(doc["r"], _get_int(doc, "M", where), f"{where}.r")


def _shipped() -> dict[str, InstanceDocument]:
    """Every instance file in the package's data directory, by name, in
    claim order (A, B, u)."""
    docs = {}
    for entry in (resources.files("tsppcong") / "data").iterdir():
        if entry.name.endswith(".json"):
            name = entry.name.removesuffix(".json")
            docs[name] = parse_instance(entry.read_text(encoding="utf-8"), source=name)

    def claim_order(item):
        claim = item[1].claim
        return claim.step, claim.offset, claim.modulus, item[0]

    return dict(sorted(docs.items(), key=claim_order))


def shipped_instances() -> tuple[InstanceDocument, ...]:
    """The instance documents distributed with the package."""
    return tuple(_shipped().values())


def shipped_instance(name: str) -> InstanceDocument:
    docs = _shipped()
    if name not in docs:
        raise KeyError(f"no shipped instance {name!r}; have {tuple(docs)}")
    return docs[name]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def claim_to_doc(claim: CongruenceClaim) -> dict:
    return {
        "sequence": claim.sequence,
        "A": claim.step,
        "B": claim.offset,
        "u": claim.modulus,
    }


def _divisor_map_doc(spec: EtaQuotientSpec) -> dict:
    return {str(d): e for d, e in spec.exponents}


def instance_to_doc(doc: InstanceDocument) -> dict:
    return {
        "claim": claim_to_doc(doc.claim),
        "hints": {
            "N": doc.hints.group_level,
            "r_prime": _divisor_map_doc(doc.hints.r_prime),
        },
    }


def dump_instance(doc: InstanceDocument) -> str:
    return canonical_json(instance_to_doc(doc))


def certificate_to_doc(cert: Certificate) -> dict:
    inst = cert.instance
    return {
        "instance": {
            "m": inst.m,
            "M": inst.M,
            "N": inst.N,
            "t": inst.t,
            "u": inst.u,
            "r": _divisor_map_doc(inst.r),
            "r_prime": _divisor_map_doc(inst.r_prime),
        },
        "kappa": cert.kappa,
        "orbit": list(cert.orbit),
        "t_min": cert.t_min,
        "admissibility": {
            "passed": cert.admissibility.passed,
            "conditions": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in cert.admissibility.conditions
            ],
        },
        "group_index": cert.group_index,
        "cusps": [
            {
                "rep": [e.rep.a, e.rep.b, e.rep.c, e.rep.d],
                "eta_order": fraction_text(e.eta_order),
                "aux_order": fraction_text(e.aux_order),
                "total": fraction_text(e.total),
                "lambda": e.lam,
            }
            for e in cert.cusps
        ],
        "bound": fraction_text(cert.bound),
        "bound_floor": cert.bound_floor,
        "expansion_order": cert.expansion_order,
        "checked": [
            {
                "t_prime": c.t_prime,
                "indices": list(c.indices),
                "all_zero": c.all_zero,
                "first_violation": c.first_violation,
            }
            for c in cert.checked
        ],
        "verdict": cert.verdict,
        "failure": cert.failure,
    }


def _reduction_to_doc(step: ReductionStep) -> dict:
    g, g_doc = step.g_claim, None
    if g is not None:
        g_doc = {"sequence": "gap", "A": g.step, "B": g.offset, "u": g.modulus, "alpha": g.alpha, "p": g.p}
    return {
        "class_mod_3": step.residue_class,
        "step": step.step,
        "offset": step.offset,
        "outcome": step.outcome,
        "reason": step.reason,
        "g_claim": g_doc,
    }


def _assumed_to_doc(assumed: AssumedCongruence) -> dict:
    return {
        "claim": claim_to_doc(assumed.claim),
        "note": assumed.note,
        "checked_to": assumed.checked_to,
    }


def _check_to_doc(report: CheckReport) -> dict:
    return {
        "name": report.name,
        "checked": report.checked,
        "passed": report.passed,
        "first_violation": report.first_violation,
        "detail": report.detail,
    }


def report_to_doc(report: ProofReport, oracle: CheckReport | None = None) -> dict:
    doc = {
        "format": "tsppcong.proof/1",
        "claim": claim_to_doc(report.claim),
        "verdict": report.verdict,
        "detail": report.detail,
        "reduction": [_reduction_to_doc(s) for s in report.reduction],
        "assumed": [_assumed_to_doc(a) for a in report.assumed],
        "certificates": [certificate_to_doc(c) for c in report.certificates],
    }
    if oracle is not None:
        doc["oracle_check"] = _check_to_doc(oracle)
    return doc
