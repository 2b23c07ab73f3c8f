"""End-to-end proofs: reduce a counting-sequence claim, verify the resulting
slice-variant claims, combine moduli, and cross-check everything against the
brute-force counting series.

The verifier needs two inputs that no algorithm here chooses for you: the
group level N and the auxiliary exponent vector r'.  They ship as data files
next to the claims they belong to (see the data directory) and enter through
InstanceHints.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd, lcm
from typing import Sequence

from .arith import prime_power
from .series import EtaQuotientSpec, TruncatedSeries, residues_mod
from .tspp import (
    CheckReport,
    CongruenceClaim,
    NotReducibleError,
    ReductionStep,
    reduce_claim,
    slice_series,
    slice_variant_series,
    slice_variant_spec,
    tspp_series,
)
from .verification import Certificate, VerificationInstance, verify_instance

PROVED = "PROVED"
PROVED_MODULO_CITATIONS = "PROVED-MODULO-CITATIONS"
FAILED = "FAILED"
NOT_REDUCIBLE = "NOT-REDUCIBLE"


@dataclass(frozen=True)
class InstanceHints:
    """The verifier parameters that accompany a claim: the group level N and
    the auxiliary exponent vector r'.  Everything else is derived from the
    reduced claim."""

    group_level: int
    r_prime: EtaQuotientSpec

    def __post_init__(self):
        if self.r_prime.level != self.group_level:
            raise ValueError(
                f"auxiliary vector has level {self.r_prime.level}, "
                f"expected the group level {self.group_level}"
            )


@dataclass(frozen=True)
class AssumedCongruence:
    """A congruence taken from the literature, used without reproof.

    checked_to records how far the claim was tested against the counting
    oracle; it is metadata, not evidence of proof.
    """

    claim: CongruenceClaim
    note: str
    checked_to: int


@dataclass(frozen=True)
class ProofReport:
    claim: CongruenceClaim
    reduction: tuple[ReductionStep, ...]
    certificates: tuple[Certificate, ...]
    assumed: tuple[AssumedCongruence, ...]
    verdict: str
    detail: str | None = None


def known_congruences() -> tuple[CongruenceClaim, ...]:
    """Previously published congruences for the counting sequence.

    These are regression-tested empirically and may be cited in modulus
    combinations, but they are never proved here.
    """
    return (
        CongruenceClaim("f", 10, 5, 5),
        CongruenceClaim("f", 250, 125, 25),
        CongruenceClaim("f", 8, 3, 4),
    )


def build_instance(g_claim: CongruenceClaim, hints: InstanceHints) -> VerificationInstance:
    """Assemble the verifier input for a slice-variant claim."""
    if g_claim.sequence != "gap":
        raise ValueError(f"expected a slice-variant claim, got {g_claim.sequence!r}")
    spec = slice_variant_spec(g_claim.alpha, g_claim.p)
    return VerificationInstance(
        m=g_claim.step,
        M=spec.level,
        N=hints.group_level,
        t=g_claim.offset,
        r=spec,
        r_prime=hints.r_prime,
        u=g_claim.modulus,
    )


def prove_tspp_congruence(claim: CongruenceClaim, hints: InstanceHints) -> ProofReport:
    """Reduce a counting-sequence claim and verify every non-trivial branch.

    The verdict is PROVED exactly when each residue class is either closed by
    the vanishing support or by a VERIFIED certificate.
    """
    try:
        steps = reduce_claim(claim)
    except NotReducibleError as exc:
        return ProofReport(claim, (), (), (), NOT_REDUCIBLE, str(exc))
    certificates = []
    failures = []
    for step in steps:
        if step.g_claim is None:
            continue
        cert = verify_instance(build_instance(step.g_claim, hints))
        certificates.append(cert)
        if cert.verdict != "VERIFIED":
            failures.append(
                f"class n = 3k+{step.residue_class}: {cert.failure}"
            )
    verdict = PROVED if not failures else FAILED
    return ProofReport(
        claim,
        steps,
        tuple(certificates),
        (),
        verdict,
        "; ".join(failures) if failures else None,
    )


def combine_congruences(
    reports: Sequence[ProofReport], cited: Sequence[AssumedCongruence] = ()
) -> ProofReport:
    """Chinese-remainder combination of congruences on one progression.

    All proved inputs must concern the same (step, offset); cited inputs must
    contain that progression, i.e. their step divides the target step and the
    offsets agree modulo it.  Moduli must be pairwise coprime.  Any cited
    input downgrades the verdict to PROVED-MODULO-CITATIONS.
    """
    if not reports:
        raise ValueError("need at least one proved report to combine")
    target = reports[0].claim
    moduli: list[int] = []
    for rep in reports:
        if rep.verdict not in (PROVED, PROVED_MODULO_CITATIONS):
            raise ValueError(f"cannot combine a report with verdict {rep.verdict}")
        if (rep.claim.step, rep.claim.offset) != (target.step, target.offset):
            raise ValueError(
                f"progression mismatch: {rep.claim.describe()} vs {target.describe()}"
            )
        moduli.append(rep.claim.modulus)
    for assumed in cited:
        c = assumed.claim
        if not c.contains(target):
            raise ValueError(
                f"cited progression {c.describe()} does not contain {target.describe()}"
            )
        moduli.append(c.modulus)
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if gcd(moduli[i], moduli[j]) != 1:
                raise ValueError(
                    f"moduli {moduli[i]} and {moduli[j]} are not coprime"
                )
    product = 1
    for u in moduli:
        product *= u
    assumed_all = tuple(a for rep in reports for a in rep.assumed) + tuple(cited)
    verdict = PROVED if not assumed_all else PROVED_MODULO_CITATIONS
    combined = CongruenceClaim("f", target.step, target.offset, product)
    return ProofReport(
        combined,
        tuple(s for rep in reports for s in rep.reduction),
        tuple(c for rep in reports for c in rep.certificates),
        assumed_all,
        verdict,
        f"combined moduli {moduli}",
    )


def oracle_check(claim: CongruenceClaim, counts: TruncatedSeries) -> CheckReport:
    """Test an "f" claim against an expansion of the counting series.

    counts is tspp_series over Z or over Z/M with u | M; each coefficient is
    reduced mod u, so one expansion serves every claim whose modulus divides
    M.  This path shares nothing with the verifier beyond the series
    primitives, which is what makes it a meaningful cross-check.
    """
    u = claim.modulus
    if claim.sequence != "f":
        raise ValueError(f"the oracle checks claims about f, got {claim.describe()}")
    if counts.ring.modulus is not None and counts.ring.modulus % u != 0:
        raise ValueError(f"counts over {counts.ring!r} do not determine residues mod {u}")
    name = f"oracle {claim.describe()}"
    checked = 0
    for idx in range(claim.offset, counts.order + 1, claim.step):
        checked += 1
        residue = counts[idx] % u
        if residue:
            return CheckReport(name, checked, False, idx, f"coefficient {idx} is {residue} (mod {u})")
    return CheckReport(name, checked, True, None, f"indices <= {counts.order}")


# ---------------------------------------------------------------------------
# regression suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteEntry:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    entries: tuple[SuiteEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.status != "fail" for e in self.entries)


def _entry_from_check(report: CheckReport) -> SuiteEntry:
    return SuiteEntry(
        report.name,
        "pass" if report.passed else "fail",
        report.detail if report.passed else f"violation at index {report.first_violation}: {report.detail}",
    )


def regression_suite(oracle_max: int = 50_000, instances=None) -> SuiteReport:
    """Run every standing check, in this order:

    * support and slice identity of the counting series, exactly, to 10 000
      and 5 000;
    * g[alpha,p] = g (mod p**alpha) to n = 2 000, for each (p, alpha) =
      prime_power(u) of the instance moduli, then of the known moduli;
    * an oracle row for each known congruence, each instance claim and each
      combination below, all read from one expansion of f to oracle_max
      modulo the lcm of their moduli (oracle_max <= 0 skips them);
    * the proof of each instance claim;
    * for each known congruence that contains an instance claim with a
      coprime modulus, the combined congruence on that claim's progression.

    Passing instances=... substitutes the shipped instance documents (see
    documents.load_instance); every row after the first two follows them."""
    from .documents import shipped_instances  # deferred: documents imports this module
    from .tspp import check_slice_identity, check_support

    docs = shipped_instances() if instances is None else instances
    known = known_congruences()
    entries = [
        _entry_from_check(check_support(10_000)),
        _entry_from_check(check_slice_identity(5_000)),
    ]

    order = 2_000
    moduli = [doc.claim.modulus for doc in docs] + [c.modulus for c in known]
    for p, alpha in filter(None, dict.fromkeys(map(prime_power, moduli))):
        name = f"congruence g[{alpha},{p}] = g (mod {p**alpha})"
        ring = residues_mod(p**alpha)
        variant = slice_variant_series(alpha, p, order, ring)
        plain = slice_series(order, ring)
        mismatch = next((n for n in range(order + 1) if variant[n] != plain[n]), None)
        if mismatch is None:
            entries.append(SuiteEntry(name, "pass", f"n <= {order}"))
        else:
            entries.append(SuiteEntry(name, "fail", f"first mismatch at n = {mismatch}"))

    # (cited congruence, instance claim, combined claim)
    combinations = [
        (c, doc.claim, replace(doc.claim, modulus=c.modulus * doc.claim.modulus))
        for doc in docs
        for c in known
        if c.contains(doc.claim) and gcd(c.modulus, doc.claim.modulus) == 1
    ]
    oracle_claims = [*known, *(doc.claim for doc in docs), *(t for _, _, t in combinations)]
    if oracle_max > 0:
        ring = residues_mod(lcm(*(claim.modulus for claim in oracle_claims)))
        counts = tspp_series(oracle_max, ring)
        entries += [_entry_from_check(oracle_check(claim, counts)) for claim in oracle_claims]
    else:
        entries += [
            SuiteEntry(f"oracle {claim.describe()}", "skip", "disabled") for claim in oracle_claims
        ]

    proved: dict[CongruenceClaim, ProofReport] = {}
    for doc in docs:
        name = f"proof {doc.claim.describe()}"
        report = prove_tspp_congruence(doc.claim, doc.hints)
        if report.verdict == PROVED:
            floors = sorted({c.bound_floor for c in report.certificates})
            entries.append(SuiteEntry(name, "pass", f"bound floor {floors}"))
            proved[doc.claim] = report
        else:
            entries.append(SuiteEntry(name, "fail", report.detail or report.verdict))

    for c, claim, target in combinations:
        name = f"combined {target.describe()}"
        if claim not in proved:
            entries.append(SuiteEntry(name, "skip", f"mod {claim.modulus} proof unavailable"))
            continue
        cited = AssumedCongruence(
            c, "previously published congruence, assumed without reproof", oracle_max
        )
        combined = combine_congruences([proved[claim]], [cited])
        ok = combined.verdict == PROVED_MODULO_CITATIONS and combined.claim == target
        entries.append(
            SuiteEntry(name, "pass" if ok else "fail", f"verdict {combined.verdict}")
        )

    return SuiteReport(tuple(entries))
