"""The benchmark's workloads: their inputs, the timed operation, and the
correctness gate each output must pass.

Every workload has the same shape:

  inputs()  an endless, seed-determined stream of operation inputs;
  run(x)    performs one operation and returns (seconds, output), timing
            only what a user of the package would wait for;
  check(x, output)
            returns (problems, stop): a list of gate failures (empty when
            the output is right) and, for claims, where the proof stopped.

The expected values in the gates come from the paper's headline results and
from this benchmark's own oracle, never from the package under test.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tsppcong import arith, cli, documents, prover, series, tspp, verification

from oracle import counting_series_mod, finite_check


def clear_memos():
    """Empty every memo the package keeps (the eta expansion memo in
    verification, the counting-series memo in tspp), so the next operation
    starts cold."""
    for module in (arith, series, tspp, verification, prover, documents, cli):
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


# ---------------------------------------------------------------------------
# prove-cold: `tsppcong prove` on the shipped instances
# ---------------------------------------------------------------------------

# The four headline congruences, as the acceptance tests state them.
EXPECTED = {
    125: {"m": 625, "orbit": [229, 604], "bound": "10151/120", "bound_floor": 84,
          "expansion_order": 53_104, "oracle_checked": 40},
    11: {"m": 1375, "orbit": [779, 1054], "bound": "9131/60", "bound_floor": 152,
         "expansion_order": 210_054, "oracle_checked": 18},
}


def check_proof_document(text: str, claim: dict, modulus: int) -> list[str]:
    """Gate for one certificate written by `tsppcong prove`."""
    want = EXPECTED[modulus]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"certificate is not JSON: {exc}"]
    problems = []
    if doc.get("verdict") != "PROVED":
        problems.append(f"verdict {doc.get('verdict')!r}, expected 'PROVED'")
    if doc.get("claim") != claim:
        problems.append(f"claim {doc.get('claim')} differs from the instance's {claim}")
    certs = doc.get("certificates") or []
    if len(certs) != 1:
        problems.append(f"{len(certs)} certificates, expected 1")
    for cert in certs:
        for key in ("orbit", "bound", "bound_floor", "expansion_order"):
            if cert.get(key) != want[key]:
                problems.append(f"{key} is {cert.get(key)!r}, expected {want[key]!r}")
        if cert.get("verdict") != "VERIFIED":
            problems.append(f"certificate verdict {cert.get('verdict')!r}")
        if cert.get("instance", {}).get("m") != want["m"]:
            problems.append(f"progression step {cert.get('instance', {}).get('m')}, expected {want['m']}")
        checked = cert.get("checked") or []
        if [c.get("t_prime") for c in checked] != want["orbit"]:
            problems.append("checked progressions do not match the orbit")
        for c in checked:
            indices = [want["m"] * n + c.get("t_prime", 0) for n in range(want["bound_floor"] + 1)]
            if c.get("indices") != indices:
                problems.append(f"indices for t'={c.get('t_prime')} are not m*n+t' for n <= {want['bound_floor']}")
            if c.get("all_zero") is not True or c.get("first_violation") is not None:
                problems.append(f"progression t'={c.get('t_prime')} reports a violation")
    oracle = doc.get("oracle_check") or {}
    if oracle.get("passed") is not True or oracle.get("checked") != want["oracle_checked"]:
        problems.append(f"oracle check {oracle}, expected passed with {want['oracle_checked']} values")
    return problems


class ProveCold:
    """One operation is a round of cold `tsppcong prove` runs, one per
    shipped instance, each in-process through cli.main with every memo
    emptied first.  Timed is the sum of the four proofs."""

    def __init__(self, root: Path, out_dir: Path):
        self.out_dir = out_dir
        self.claims = {}
        for path in sorted((root / "src" / "tsppcong" / "data").glob("*.json")):
            self.claims[path] = json.loads(path.read_text(encoding="utf-8"))["claim"]
        moduli = sorted(claim["u"] for claim in self.claims.values())
        if moduli != [11, 11, 125, 125]:
            raise RuntimeError(f"expected two shipped instances mod 11 and two mod 125, found moduli {moduli}")
        self.first_bytes: dict[Path, bytes] = {}
        self.proof_times: dict[int, list[float]] = {11: [], 125: []}

    def inputs(self):
        return itertools.repeat(None)

    def prove(self, path):
        clear_memos()
        out = self.out_dir / f"{path.stem}.cert.json"
        stdout = io.StringIO()
        start = perf_counter()
        with redirect_stdout(stdout):
            code = cli.main(["prove", "--instance", str(path), "--out", str(out)])
        elapsed = perf_counter() - start
        self.proof_times[self.claims[path]["u"]].append(elapsed)
        return elapsed, (code, stdout.getvalue(), out.read_bytes())

    def run(self, _):
        total = 0.0
        outputs = {}
        for path in self.claims:
            elapsed, outputs[path] = self.prove(path)
            total += elapsed
        return total, outputs

    def check_one(self, path, output):
        code, stdout, data = output
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if not stdout.rstrip().endswith(": PROVED"):
            problems.append(f"stdout {stdout.strip()!r} does not end in ': PROVED'")
        claim = self.claims[path]
        problems += check_proof_document(data.decode("utf-8"), claim, claim["u"])
        if self.first_bytes.setdefault(path, data) != data:
            problems.append("certificate bytes differ from the first proof in this run")
        return [f"{path.name}: {p}" for p in problems]

    def check(self, _, outputs):
        problems = [p for path, output in outputs.items() for p in self.check_one(path, output)]
        return problems, "proved"


# ---------------------------------------------------------------------------
# regress: one regression_suite() with default arguments
# ---------------------------------------------------------------------------

# 2 sanity checks, 5 generator congruences, 9 oracle rows, 4 proofs, 2 combinations
SUITE_ENTRIES = 22


class Regress:
    def inputs(self):
        return itertools.repeat(None)

    def run(self, _):
        clear_memos()
        start = perf_counter()
        suite = prover.regression_suite()
        return perf_counter() - start, suite

    def check(self, _, suite):
        problems = [f"entry {e.name!r} is {e.status}: {e.detail}" for e in suite.entries if e.status != "pass"]
        if not suite.passed:
            problems.append("suite reports failure")
        if len(suite.entries) != SUITE_ENTRIES:
            problems.append(f"{len(suite.entries)} entries, expected {SUITE_ENTRIES}")
        return problems, None


# ---------------------------------------------------------------------------
# sweep: a seeded stream of small exploratory claims
# ---------------------------------------------------------------------------

K_VALUES = (1, 3, 5, 7, 11, 13)
# The largest expansion order any draw can reach is 15 199 (p = 13, k = 13,
# k' = 39), so slice indices up to 15 200, i.e. f up to 6*15200 + 1, cover
# every coefficient the verifier may inspect.
ORACLE_TOP = 6 * 15_200 + 1


@dataclass(frozen=True)
class Draw:
    """The claim f(A n + B) = 0 (mod p^alpha) with hints N = 2p and
    r' = {1: k'}."""

    A: int
    B: int
    p: int
    alpha: int
    k_prime: int

    @property
    def u(self) -> int:
        return self.p**self.alpha

    @property
    def N(self) -> int:
        return 2 * self.p


def draw_claim(rng: random.Random) -> Draw:
    """Draw until the claim reaches the verifier: some class n = 3k + r lands
    on indices 1 (mod 6) and none on 4 (mod 6), where no slice identity
    applies."""
    while True:
        p = rng.choice((5, 7, 11, 13))
        alpha = rng.choice((1, 2)) if p in (5, 7) else 1
        m = p * rng.choice(K_VALUES)
        k_prime = rng.randrange(1, 40)
        A = 2 * m
        B = rng.randrange(A)
        residues = {(A * r + B) % 6 for r in range(3)}
        if 1 in residues and 4 not in residues:
            return Draw(A, B, p, alpha, k_prime)


def classify(doc: dict) -> str | None:
    """Where a claim stopped: proved, or the first failing certificate's
    admissibility checklist, cusp bound or coefficient scan."""
    if doc.get("verdict") == "PROVED":
        return "proved"
    for cert in doc.get("certificates", []):
        if not cert["admissibility"]["passed"]:
            return "admissibility"
        if any(c["total"].startswith("-") for c in cert["cusps"]):
            return "cusp"
        if any(not c["all_zero"] for c in cert["checked"]):
            return "coefficient"
    return None


def certificate_outcome(cert: dict) -> dict:
    """The fields of one certificate that oracle.finite_check predicts."""
    return {
        "m": cert["instance"]["m"],
        "t": cert["instance"]["t"],
        "orbit": cert["orbit"],
        "admissible": cert["admissibility"]["passed"],
        "cusp_ok": not any(c["total"].startswith("-") for c in cert["cusps"]),
        "bound_floor": cert["bound_floor"],
        "violations": [(c["t_prime"], c["first_violation"]) for c in cert["checked"]],
    }


def check_sweep_document(draw: Draw, text: str, f_table: list[int]) -> tuple[list[str], str | None]:
    """Gate for one sweep claim.  oracle.finite_check decides, without the
    package, what each certificate must say: the orbit, whether admissibility
    and the cusp orders hold, the floor of the bound and the first nonzero
    coefficient on each orbit member.  So the claim must stop where the
    oracle stops it, and a PROVED claim must also vanish at all of its
    indices <= ORACLE_TOP."""
    try:
        doc = json.loads(text)
        certs = [certificate_outcome(cert) for cert in doc.get("certificates", [])]
        stop = classify(doc)
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
        return [f"document is malformed: {exc!r}"], None
    problems = []
    claim = {"sequence": "f", "A": draw.A, "B": draw.B, "u": draw.u}
    if doc.get("claim") != claim:
        problems.append(f"claim {doc.get('claim')} differs from the draw {claim}")
    expected = finite_check(draw.A, draw.B, draw.p, draw.alpha, draw.k_prime, f_table)
    if len(certs) != len(expected):
        problems.append(f"{len(certs)} certificates, expected {len(expected)}")
    for got, want in zip(certs, expected):
        want = dict(want, violations=[(tp, i) for tp, i in zip(want["orbit"], want["violations"])])
        wrong = [key for key in got if got[key] != want[key]]
        if wrong:
            problems.append(f"certificate for m={want['m']}, t={want['t']}: "
                            + ", ".join(f"{key} {str(got[key])[:60]} != {str(want[key])[:60]}" for key in wrong))
    want_stop = next((want["stop"] for want in expected if want["stop"]), "proved")
    if stop != want_stop:
        problems.append(f"stops at {stop}, the oracle stops it at {want_stop}")
    if doc.get("verdict") == "PROVED":
        bad = next((x for x in range(draw.B, ORACLE_TOP + 1, draw.A) if f_table[x] % draw.u), None)
        if bad is not None:
            problems.append(f"PROVED, but f({bad}) = {f_table[bad] % draw.u} (mod {draw.u})")
    return problems, stop


class Sweep:
    def __init__(self, seed: int):
        self.seed = seed
        self.f_table = counting_series_mod(ORACLE_TOP)

    def inputs(self):
        rng = random.Random(self.seed)
        while True:
            yield draw_claim(rng)

    def run(self, draw):
        claim = tspp.CongruenceClaim("f", draw.A, draw.B, draw.u)
        hints = prover.InstanceHints(draw.N, series.EtaQuotientSpec(draw.N, {1: draw.k_prime}))
        start = perf_counter()
        report = prover.prove_tspp_congruence(claim, hints)
        text = documents.canonical_json(documents.report_to_doc(report))
        return perf_counter() - start, text

    def check(self, draw, text):
        return check_sweep_document(draw, text, self.f_table)


# ---------------------------------------------------------------------------
# probes: isolated public calls at the headline shapes, each from cold memos
# ---------------------------------------------------------------------------

PROBES = (
    ("series.probe.eta_mod125_s",
     lambda: series.eta_quotient(tspp.slice_variant_spec(3, 5), 53_104, series.residues_mod(125))),
    ("series.probe.eta_mod11_s",
     lambda: series.eta_quotient(tspp.slice_variant_spec(1, 11), 210_054, series.residues_mod(11))),
    ("series.probe.passes_s",
     lambda: series.eta_quotient(series.EtaQuotientSpec(1, {1: 123}), 53_104, series.residues_mod(125))),
    ("series.probe.invpow_s",
     lambda: series.eta_quotient(series.EtaQuotientSpec(5, {5: -25}), 53_104, series.residues_mod(125))),
    ("series.probe.exact_s", lambda: tspp.slice_series(2_000, series.INTEGERS)),
    ("tspp.probe.kernel_mod_s", lambda: tspp.tspp_series(50_000, series.residues_mod(125))),
    ("tspp.probe.kernel_exact_s", lambda: tspp.tspp_series(10_000, series.INTEGERS)),
    ("tspp.probe.support_s", lambda: tspp.check_support(10_000)),
    ("tspp.probe.slice_identity_s", lambda: tspp.check_slice_identity(5_000)),
)


def run_probes() -> dict[str, float]:
    out = {}
    for name, call in PROBES:
        clear_memos()
        start = perf_counter()
        call()
        out[name] = perf_counter() - start
    return out


def make(name: str, seed: int, root: Path, out_dir: Path):
    if name == "prove-cold":
        return ProveCold(root, out_dir)
    if name == "regress":
        return Regress()
    if name == "sweep":
        return Sweep(seed)
    raise KeyError(name)
