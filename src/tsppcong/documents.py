"""Structured-text documents: instance files in, proof certificates out.

Both directions are strict and deterministic.  Instance files are JSON with
a fixed schema; unknown fields are rejected so a typo cannot silently relax
a proof.  Certificates serialize with sorted keys, two-space indentation and
exact fractions rendered as "numerator/denominator", which makes two runs on
the same input byte-identical.  The writer, canonical_json, accepts only the
value types a certificate holds (dict with str keys, list, str, int, bool
and None) and raises TypeError on anything else, so no float, tuple or int
subclass reaches a document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import TYPE_CHECKING

from .arith import require_int
from .series import EtaQuotientSpec
from .tspp import CheckReport, CongruenceClaim, ReductionStep
from .verification import Certificate, InstanceHints, index_gamma0, kappa

if TYPE_CHECKING:  # prover imports this module
    from .prover import ProofReport


class DocumentError(ValueError):
    """A document failed to parse or validate; the message names the field."""

    def __init__(self, message: str, where: str):
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class InstanceDocument:
    claim: CongruenceClaim
    hints: InstanceHints


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


def _read_text(path, where: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # its text does not name the file
        raise DocumentError(str(exc), where)


def _read_json(text: str, where: str):
    """Parse JSON text, refusing a repeated key: json.loads alone keeps the
    last value, so a second "u" would silently override the first.  Every
    failure names where: json.loads also raises a bare ValueError for an
    integer literal past Python's digit limit, and RecursionError for
    nesting past the recursion limit."""

    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise DocumentError(f"duplicate key {key!r}", where)
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except DocumentError:
        raise
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise DocumentError(f"not valid JSON: {exc}", where)


def _fields(obj, where: str, *names: str, ints: tuple[str, ...] = (), low: int | None = None) -> list:
    """The values of exactly the named fields of a JSON object, in the order
    named.

    obj must be an object with no field outside names and none of them
    missing, and each field named in ints must hold an integer of at least
    low, when low is given; that refusal is arith.require_int's, naming the
    field as written.  Every refusal is a DocumentError under where, in this
    order: not an object, unknown fields, missing fields, then the ints in
    the order given."""
    if not isinstance(obj, dict):
        raise DocumentError("expected an object", where)
    unknown = sorted(set(obj) - set(names))
    if unknown:
        raise DocumentError(f"unknown field(s) {unknown}", where)
    missing = sorted(set(names) - set(obj))
    if missing:
        raise DocumentError(f"missing field(s) {missing}", where)
    try:
        for name in ints:
            require_int(obj[name], f"field {name!r}", low)
    except ValueError as exc:
        raise DocumentError(str(exc), where)
    return [obj[name] for name in names]


def _parse_divisor_map(obj, level: int, where: str) -> EtaQuotientSpec:
    if not isinstance(obj, dict):
        raise DocumentError("expected an object", where)
    parsed: dict[int, int] = {}
    for key, value in obj.items():
        # int() alone would also read "01", " 1" and "1_0"
        if not (key.removeprefix("-").isdecimal() and key == str(int(key))):
            raise DocumentError(f"divisor key {key!r} is not an integer", where)
        parsed[int(key)] = value
    try:
        return EtaQuotientSpec(level, parsed)
    except ValueError as exc:
        raise DocumentError(str(exc), where)


def _parse_claim(obj, where: str) -> CongruenceClaim:
    fields = _fields(obj, where, "sequence", "A", "B", "u", ints=("A", "B", "u"))
    try:
        return CongruenceClaim(*fields)
    except ValueError as exc:
        raise DocumentError(str(exc), where)


def parse_instance(text: str, source: str = "instance") -> InstanceDocument:
    claim_obj, hints_obj = _fields(_read_json(text, source), source, "claim", "hints")
    claim = _parse_claim(claim_obj, f"{source}.claim")
    where = f"{source}.hints"
    group_level, r_prime = _fields(hints_obj, where, "N", "r_prime", ints=("N",), low=1)
    r_prime = _parse_divisor_map(r_prime, group_level, f"{where}.r_prime")
    return InstanceDocument(claim, InstanceHints(group_level, r_prime))


def load_instance(path) -> InstanceDocument:
    p = Path(path)
    return parse_instance(_read_text(p, str(p)), source=str(p))


def load_eta_spec(path) -> EtaQuotientSpec:
    """Read an eta quotient written as {"M": level, "r": {divisor: exponent}}."""
    where = str(path)
    level, r = _fields(_read_json(_read_text(Path(path), where), where), where, "M", "r", ints=("M",), low=1)
    return _parse_divisor_map(r, level, f"{where}.r")


def _shipped(folder: str = "data") -> tuple[InstanceDocument, ...]:
    """Every instance file in one directory of the package, in claim order
    (A, B, u), ties broken by file name."""
    named = []
    for entry in (resources.files("tsppcong") / folder).iterdir():
        if entry.name.endswith(".json"):
            name = entry.name.removesuffix(".json")
            named.append((name, parse_instance(_read_text(entry, name), source=name)))

    def claim_order(item):
        claim = item[1].claim
        return claim.step, claim.offset, claim.modulus, item[0]

    return tuple(doc for _, doc in sorted(named, key=claim_order))


def shipped_instances() -> tuple[InstanceDocument, ...]:
    """The instance documents distributed with the package, in data/."""
    return _shipped()


def published_instances() -> tuple[InstanceDocument, ...]:
    """The published congruences that combined moduli rest on.  They live
    in data/published, apart from the shipped instances in data/."""
    return _shipped("data/published")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def canonical_json(doc) -> str:
    """The text json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True)
    gives, plus a final newline, for the value types a certificate holds:
    dict with str keys, list, str, int, True, False and None.  Any other
    value, a float among them, raises TypeError.

    json.dumps leaves its C encoder for pure Python whenever it indents, so
    this writer indents itself and quotes strings with the C quoter."""
    out: list[str] = []
    _write(doc, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, emit) -> None:
    """Emit value; newline is the line break plus the current indentation.

    The type tests are exact, so an int subclass such as an IntEnum is
    refused, and True is written as true, never as the int 1."""
    kind = type(value)
    if kind is str:
        emit(_quote(value))
    elif kind is bool:
        emit("true" if value else "false")
    elif kind is int:
        emit(int.__repr__(value))
    elif value is None:
        emit("null")
    elif kind is dict:
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        if any(type(key) is not str for key in value):
            raise TypeError(f"document keys must be str, got {sorted(map(repr, value))}")
        sep = "{" + inner
        for key in sorted(value):
            emit(sep + _quote(key) + ": ")
            _write(value[key], inner, emit)
            sep = "," + inner
        emit(newline + "}")
    elif kind is list:
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            emit(sep)
            _write(item, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    else:
        raise TypeError(f"a document holds no {kind.__name__}: {value!r}")


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
        "kappa": kappa(inst.m),
        "orbit": list(cert.orbit),
        "t_min": cert.orbit[0],
        "admissibility": {
            "passed": cert.admissibility.passed,
            "conditions": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in cert.admissibility.conditions
            ],
        },
        "group_index": index_gamma0(inst.N),
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
        "assumed": [],  # nothing is assumed; the field goes with the next format version
        "certificates": [certificate_to_doc(c) for c in report.certificates],
    }
    if oracle is not None:
        doc["oracle_check"] = _check_to_doc(oracle)
    return doc
