"""End-to-end proofs: reduce a counting-sequence claim, verify the resulting
slice-variant claims, combine proved moduli, and cross-check everything
against the brute-force counting series.

The verifier needs two inputs that no algorithm here chooses for you: the
group level N and the auxiliary exponent vector r'.  They ship as data files
next to the claims they belong to (see the data directory) and enter through
InstanceHints.  The published congruences that the combined moduli rest on
are proved the same way, from the files in data/published.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import gcd, lcm, prod
from typing import Sequence

from . import documents, tspp
from .arith import prime_power
from .series import EtaQuotientSpec, TruncatedSeries, residues_mod
from .tspp import (
    CheckReport,
    CongruenceClaim,
    NotReducibleError,
    ReductionStep,
    reduce_claim,
    # unused here, but perfbench/tracing.py wraps both names on this module
    slice_series,
    slice_variant_series,
    slice_variant_spec,
    tspp_series,
)
from .verification import Certificate, InstanceHints, VerificationInstance, verify_instance

PROVED = "PROVED"
FAILED = "FAILED"
NOT_REDUCIBLE = "NOT-REDUCIBLE"

# the one range of the brute-force cross-check, for `prove` and `regress`
ORACLE_MAX = 50_000


@dataclass(frozen=True)
class ProofReport:
    """A claim, its reduction and the certificates of the classes the
    reduction leaves to verify, one per class in the reduction's order.
    reason is stored only for an empty reduction: the NotReducibleError
    text.

    The verdict and the detail are read off the pairs of a class to verify
    and its certificate.  The verdict is NOT-REDUCIBLE when the reduction is
    empty.  It is PROVED when there are as many certificates as classes to
    verify, each VERIFIED, and each for its own class: its instance is
    build_instance(class, certificate.instance.r_prime), the same m, t, r
    and u with the certificate's own r'.  A claim whose classes all vanish
    needs none.  Otherwise it is FAILED, and the detail says why.
    """

    claim: CongruenceClaim
    reduction: tuple[ReductionStep, ...]
    certificates: tuple[Certificate, ...]
    reason: str | None = None

    @cached_property
    def detail(self) -> str | None:
        """None for a PROVED report; otherwise the reason, or why the
        certificates do not match the classes, or each class's failure."""
        if not self.reduction:
            return self.reason
        classes = [step for step in self.reduction if step.g_claim is not None]
        if len(classes) != len(self.certificates):
            return f"{len(self.certificates)} certificate(s) for {len(classes)} class(es) to verify"
        pairs = list(zip(classes, self.certificates))
        stray = next((s for s, c in pairs if c.instance != build_instance(s.g_claim, c.instance.r_prime)), None)
        if stray is not None:
            return f"class n = 3k+{stray.residue_class}: its certificate is for another instance"
        failures = [f"class n = 3k+{s.residue_class}: {c.failure}" for s, c in pairs if c.verdict != "VERIFIED"]
        return "; ".join(failures) or None

    @property
    def verdict(self) -> str:
        if not self.reduction:
            return NOT_REDUCIBLE
        return PROVED if self.detail is None else FAILED


def known_congruences() -> tuple[CongruenceClaim, ...]:
    """Previously published congruences for the counting sequence: the
    claims of data/published, then f(8n+3) = 0 (mod 4), which has no file
    because it reduces to an even step, which the verifier refuses.

    Each is tested against the counting oracle in regress.
    """
    return _known(documents.published_instances())


def _known(published: Sequence[documents.InstanceDocument]) -> tuple[CongruenceClaim, ...]:
    return (*(doc.claim for doc in published), CongruenceClaim("f", 8, 3, 4))


def build_instance(g_claim: tspp.SliceClaim, r_prime: EtaQuotientSpec) -> VerificationInstance:
    """Assemble the verifier input for a slice-variant claim and the
    auxiliary exponent vector r'."""
    return VerificationInstance(
        m=g_claim.step,
        t=g_claim.offset,
        r=slice_variant_spec(g_claim.alpha, g_claim.p),
        r_prime=r_prime,
        u=g_claim.modulus,
    )


def prove_tspp_congruence(claim: CongruenceClaim, hints: InstanceHints) -> ProofReport:
    """Reduce a counting-sequence claim and verify each class the reduction
    leaves to verify, with the same hints for all of them.

    The report pairs each such class with its certificate; it is PROVED
    exactly when every residue class is closed, by the vanishing support or
    by a VERIFIED certificate.
    """
    try:
        steps = reduce_claim(claim)
    except NotReducibleError as exc:
        return ProofReport(claim, (), (), str(exc))
    certificates = tuple(
        verify_instance(build_instance(s.g_claim, hints.r_prime)) for s in steps if s.g_claim is not None
    )
    return ProofReport(claim, steps, certificates)


def combine_congruences(reports: Sequence[ProofReport]) -> ProofReport:
    """Chinese-remainder combination of proved congruences on one progression.

    The target is the first report's progression; every report must be
    PROVED, every report's claim must contain the target, and the moduli
    must be pairwise coprime, or ValueError says which does not hold.  The
    result carries every report's classes and certificates in order, so its
    verdict is read off the same pairs.
    """
    if not reports:
        raise ValueError("need at least one proved report to combine")
    target = reports[0].claim
    moduli = [rep.claim.modulus for rep in reports]
    for rep in reports:
        if rep.verdict != PROVED:
            raise ValueError(f"{rep.claim.describe()} has verdict {rep.verdict}: {rep.detail}")
        if not rep.claim.contains(target):
            raise ValueError(f"{rep.claim.describe()} does not contain {target.describe()}")
    if lcm(*moduli) != prod(moduli):
        raise ValueError(f"moduli {moduli} are not pairwise coprime")
    combined = CongruenceClaim("f", target.step, target.offset, prod(moduli))
    reduction = tuple(s for rep in reports for s in rep.reduction)
    return ProofReport(combined, reduction, tuple(c for rep in reports for c in rep.certificates))


def oracle_check(claim: CongruenceClaim, counts: TruncatedSeries) -> CheckReport:
    """Test a claim against an expansion of the counting series.

    counts is tspp_series over Z or over Z/M with u | M; each coefficient is
    reduced mod u, so one expansion serves every claim whose modulus divides
    M.  This path shares nothing with the verifier beyond the series
    primitives, which is what makes it a meaningful cross-check.
    """
    u = claim.modulus
    if counts.ring.modulus is not None and counts.ring.modulus % u != 0:
        raise ValueError(f"counts over {counts.ring!r} do not determine residues mod {u}")
    name = f"oracle {claim.describe()}"
    read = counts.coeffs[claim.offset :: claim.step]
    for i, count in enumerate(read):
        if count % u:
            idx = claim.offset + i * claim.step
            return CheckReport(name, i + 1, idx, f"coefficient {idx} is {count % u} (mod {u})")
    return CheckReport(name, len(read), None, f"indices <= {counts.order}")


# ---------------------------------------------------------------------------
# regression suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteEntry:
    """One row of the regression suite: it passed or failed, and why."""

    name: str
    status: str  # "pass" | "fail"
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    entries: tuple[SuiteEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.status == "pass" for e in self.entries)


def _entry_from_check(report: CheckReport) -> SuiteEntry:
    return SuiteEntry(
        report.name,
        "pass" if report.passed else "fail",
        report.detail if report.passed else f"violation at index {report.first_violation}: {report.detail}",
    )


def regression_suite() -> SuiteReport:
    """Run every standing check on the shipped instance documents, in this
    order:

    * support and slice identity of the counting series, exactly, to 10 000
      and 5 000;
    * g[alpha,p] = g (mod p**alpha), proved by check_variant_congruence's
      polynomial identity, for each (p, alpha) = prime_power(u) of the
      instance moduli, then of the known moduli;
    * an oracle row for each known congruence, each instance claim and each
      combination below, all read from one expansion of f to ORACLE_MAX
      modulo the lcm of their moduli;
    * the proof of each instance claim;
    * for each published claim (data/published) that contains an instance
      claim with a coprime modulus, the combined congruence on that claim's
      progression: combine_congruences of the two proofs, which fails with
      its ValueError when either proof is not PROVED.

    One table holds the proofs: the instance claims, then each published
    claim that carries a combined row, each distinct claim proved once, in
    that order.  data/published is read once."""
    docs = documents.shipped_instances()
    published = documents.published_instances()
    known = _known(published)
    entries = [
        _entry_from_check(tspp.check_support(10_000)),
        _entry_from_check(tspp.check_slice_identity(5_000)),
    ]

    moduli = [doc.claim.modulus for doc in docs] + [c.modulus for c in known]
    for p, alpha in filter(None, dict.fromkeys(map(prime_power, moduli))):
        entries.append(_entry_from_check(tspp.check_variant_congruence(alpha, p)))

    # (published document, instance claim, combined claim)
    combinations = [
        (pub, doc.claim, replace(doc.claim, modulus=pub.claim.modulus * doc.claim.modulus))
        for doc in docs
        for pub in published
        if pub.claim.contains(doc.claim) and gcd(pub.claim.modulus, doc.claim.modulus) == 1
    ]
    oracle_claims = [*known, *(doc.claim for doc in docs), *(t for _, _, t in combinations)]
    ring = residues_mod(lcm(*(claim.modulus for claim in oracle_claims)))
    counts = tspp_series(ORACLE_MAX, ring)
    entries += [_entry_from_check(oracle_check(claim, counts)) for claim in oracle_claims]

    proofs: dict[CongruenceClaim, ProofReport] = {}
    for doc in (*docs, *(pub for pub, _, _ in combinations)):
        if doc.claim not in proofs:  # one proof serves every row it carries
            proofs[doc.claim] = prove_tspp_congruence(doc.claim, doc.hints)
    for doc in docs:
        name = f"proof {doc.claim.describe()}"
        report = proofs[doc.claim]
        if report.verdict == PROVED:
            floors = sorted({c.bound_floor for c in report.certificates})
            entries.append(SuiteEntry(name, "pass", f"bound floor {floors}"))
        else:
            entries.append(SuiteEntry(name, "fail", report.detail))

    for pub, claim, target in combinations:
        name = f"combined {target.describe()}"
        try:
            combined = combine_congruences([proofs[claim], proofs[pub.claim]])
            entries.append(SuiteEntry(name, "pass", f"verdict {combined.verdict}"))
        except ValueError as exc:
            entries.append(SuiteEntry(name, "fail", str(exc)))

    return SuiteReport(tuple(entries))
