"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Checks that the oracle matches a term-by-term expansion of the counting
series, that real outputs pass the gate, and that tampered outputs are
counted as failed operations by the same loop the benchmark runs: a
certificate with one field changed, a sweep claim stopped at the wrong
check or with its verdict flipped either way, and a regression entry marked
failed.  Exits 0 when every check holds.  Takes
about 15 s.
"""

import io
import json
import sys
from contextlib import redirect_stderr

import run  # sets the thread limits and knows where the package lives

run.import_package()

import oracle  # noqa: E402
import workloads  # noqa: E402
from tsppcong import prover  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def run_quietly(workload, seconds):
    """The benchmark's loop, without its per-failure messages."""
    with redirect_stderr(io.StringIO()):
        return run.run_workload(workload, seconds, None)


def tampered(workload_cls, edit):
    """A workload whose outputs pass through `edit` before the gate sees them."""

    class Tampered(workload_cls):
        def run(self, x):
            elapsed, output = super().run(x)
            return elapsed, edit(x, output)

    return Tampered


def check_oracle():
    top = 600
    brute = oracle.counting_series_brute(top)
    fast = oracle.counting_series_mod(top)
    expect([c % oracle.SWEEP_MODULUS for c in brute] == fast, f"oracle equals the expanded definition through f({top})")


def check_prove_gate():
    out_dir = run.OUT_DIR
    out_dir.mkdir(exist_ok=True)
    prove = workloads.ProveCold(run.ROOT, out_dir)
    path = next(p for p, claim in prove.claims.items() if claim["u"] == 125)
    elapsed, output = prove.prove(path)
    problems = prove.check_one(path, output)
    expect(not problems, f"a real mod-125 certificate passes ({elapsed:.1f} s)")

    code, stdout, data = output
    doc = json.loads(data)
    for field, value in (("bound_floor", 83), ("orbit", [229]), ("expansion_order", 53_103)):
        bad = json.loads(data)
        bad["certificates"][0][field] = value
        problems = workloads.check_proof_document(json.dumps(bad), prove.claims[path], 125)
        expect(bool(problems), f"certificate with {field} = {value} is rejected")
    bad = dict(doc, oracle_check=dict(doc["oracle_check"], passed=False))
    expect(bool(workloads.check_proof_document(json.dumps(bad), prove.claims[path], 125)),
           "certificate whose oracle check failed is rejected")
    problems = prove.check_one(path, (code, stdout, data + b" "))
    expect(any("differ" in p for p in problems), "a byte change between two proofs is rejected")

    class OneTamperedProof(workloads.ProveCold):
        """A round of one mod-125 proof whose bound floor is lowered."""

        def run(self, _):
            elapsed, (code, stdout, data) = self.prove(path)
            bad = json.loads(data)
            bad["certificates"][0]["bound_floor"] -= 1
            return elapsed, {path: (code, stdout, json.dumps(bad).encode())}

    state = run_quietly(OneTamperedProof(run.ROOT, out_dir), 0)
    expect(state["failed"] == state["attempted"] == 1,
           f"a tampered proof is counted as a failed operation ({state['failed']} of {state['attempted']})")


def check_sweep_gate():
    sweep = workloads.Sweep(seed=7)
    seen = {}
    for draw in sweep.inputs():
        _, text = sweep.run(draw)
        problems, stop = sweep.check(draw, text)
        if problems:
            expect(False, f"real sweep claim {draw} passes: {problems}")
            return
        seen.setdefault(stop, (draw, text))
        if {"admissibility", "coefficient", "proved"} <= seen.keys():
            break
    expect(True, f"real sweep claims pass ({', '.join(sorted(seen))})")

    def fresh(seen_claim):
        draw, text = seen_claim
        return draw, json.loads(text)

    draw, doc = fresh(seen["coefficient"])
    problems, _ = sweep.check(draw, json.dumps(dict(doc, verdict="PROVED")))
    expect(bool(problems), "a refuted claim flipped to PROVED is rejected")
    draw, doc = fresh(seen["proved"])
    problems, _ = sweep.check(draw, json.dumps(dict(doc, verdict="FAILED")))
    expect(bool(problems), "a proved claim flipped to FAILED is rejected")
    draw, doc = fresh(seen["coefficient"])
    cert = next(c for c in doc["certificates"] if any(not p["all_zero"] for p in c["checked"]))
    entry = next(p for p in cert["checked"] if not p["all_zero"])
    entry["first_violation"] += 1  # a neighbouring index on another progression
    problems, _ = sweep.check(draw, json.dumps(doc))
    expect(bool(problems), "a misreported violation index is rejected")
    draw, doc = fresh(seen["coefficient"])
    for cert in doc["certificates"]:
        cert["admissibility"]["passed"] = False
        cert["checked"] = []
    problems, stop = sweep.check(draw, json.dumps(doc))
    expect(stop == "admissibility" and bool(problems), "a claim wrongly stopped at admissibility is rejected")
    draw, doc = fresh(seen["admissibility"])
    cert = doc["certificates"][0]
    cert["cusps"][0]["total"] = "-1/24"
    problems, _ = sweep.check(draw, json.dumps(doc))
    expect(bool(problems), "a wrongly negative cusp order is rejected")

    def flip(draw, text):
        doc = json.loads(text)
        doc["verdict"] = "FAILED" if doc["verdict"] == "PROVED" else "PROVED"
        return json.dumps(doc)

    state = run_quietly(tampered(workloads.Sweep, flip)(seed=7), 1.0)
    expect(0 < state["failed"] == state["attempted"],
           f"flipped verdicts are counted as failed ({state['failed']} of {state['attempted']})")


def check_regress_gate():
    good = prover.SuiteReport(tuple(prover.SuiteEntry(f"row {i}", "pass", "") for i in range(workloads.SUITE_ENTRIES)))
    expect(not workloads.Regress().check(None, good)[0], "a passing suite passes")
    rows = list(good.entries)
    rows[3] = prover.SuiteEntry("row 3", "fail", "tampered")
    expect(bool(workloads.Regress().check(None, prover.SuiteReport(tuple(rows)))[0]), "a failed suite entry is rejected")
    expect(bool(workloads.Regress().check(None, prover.SuiteReport(good.entries[:-1]))[0]), "a missing suite entry is rejected")


if __name__ == "__main__":
    check_oracle()
    check_regress_gate()
    check_sweep_gate()
    check_prove_gate()
    print(f"{len(FAILURES)} failure(s)")
    sys.exit(1 if FAILURES else 0)
