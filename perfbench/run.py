"""Benchmark for tsppcong.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  One
process runs one workload on one thread.  The last line of standard output
is a JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Earlier lines, each starting with '#', give machine facts and the metrics
under their descriptive names with sample counts.  Certificates and the span
file go to .bench_out/ in the checkout.  See perfbench/README.md.
"""

import os

# numpy's libraries must not start worker threads; set before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from hashlib import sha256
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 15
SETUP_CODE = (
    "import time; t = time.perf_counter(); import tsppcong; "
    "tsppcong.shipped_instances(); print(time.perf_counter() - t)"
)
# the descriptive name of each workload's end-to-end numbers
NAMED = {
    "prove-cold": {"op_p50_ms": "prove_round_s"},
    "regress": {"op_p50_ms": "regress_s"},
    "sweep": {"ops_per_s": "sweep_claims_per_s", "op_p50_ms": "sweep_p50_ms", "op_p90_ms": "sweep_p90_ms"},
}


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "tsppcong" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'tsppcong'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import tsppcong

    if Path(tsppcong.__file__).resolve().parent != SRC / "tsppcong":
        fail(f"imported tsppcong from {tsppcong.__file__}, not from {SRC}")
    return tsppcong


class SetupTimes:
    """Seconds a fresh interpreter needs for `import tsppcong` plus
    shipped_instances(), timed inside that interpreter.  The samples are
    spread evenly over the run, so that a slow or a fast moment of the
    machine weighs in only with its share of the run."""

    def __init__(self, count):
        self.count = count
        self.times = []
        self.spent = 0.0  # wall time of the sampling itself

    def catch_up(self, share):
        """Take samples until `share` of them, at least one, are taken."""
        start = perf_counter()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        while len(self.times) < min(self.count, 1 + int(share * (self.count - 1))):
            done = subprocess.run(
                [sys.executable, "-c", SETUP_CODE],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
            )
            self.times.append(float(done.stdout.strip().splitlines()[-1]))
        self.spent += perf_counter() - start


def machine_facts(seed):
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            model = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def p90(samples):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def run_workload(workload, seconds, tracer, setup=None):
    """Closed loop, one operation at a time, until `seconds` of operations
    have run.  With a tracer, operations alternate between untraced and
    traced, so both see inputs from the same stream.  With `setup`, set-up
    samples are taken between operations; their time does not count."""
    inputs = workload.inputs()
    state = {"attempted": 0, "failed": 0, "stops": Counter(), "plain": [], "traced": []}

    def one(x, traced, op):
        root = None
        if traced:
            tracer.install()
            root = tracer.root("bench.op", op)
        try:
            elapsed, output = workload.run(x)
        except Exception:
            traceback.print_exc()
            state["attempted"] += 1
            state["failed"] += 1
            return None
        finally:
            if traced:
                tracer.end(root)
                tracer.uninstall()
        state["attempted"] += 1
        problems, stop = workload.check(x, output)
        if problems:
            state["failed"] += 1
            print(f"gate: operation {op} on {x}: " + "; ".join(problems[:5]), file=sys.stderr)
        if stop is not None:
            state["stops"][stop] += 1
        return elapsed

    def spent():
        return perf_counter() - start - (setup.spent if setup else 0.0)

    op = 0
    start = perf_counter()
    while True:
        if setup:
            setup.catch_up(spent() / seconds)
        traced = tracer is not None and op % 2 == 1
        elapsed = one(next(inputs), traced, op)
        if elapsed is not None:
            state["traced" if traced else "plain"].append(elapsed)
        op += 1
        enough = state["plain"] and (tracer is None or state["traced"])
        if (spent() >= seconds and enough) or spent() >= 3 * seconds:
            break
    if setup:
        setup.catch_up(1.0)
    return state


def layer_metrics(tracer, state, probes):
    from tracing import expansion_reuse, summarize

    by_name, by_layer = summarize(tracer.spans)
    ops = len(state["traced"])
    # every span name and counter, including the functions and counters that
    # some workloads never reach and that therefore are no metrics
    detail = {
        name: {key: round(value / ops, 6) for key, value in row.items()}
        for name, row in sorted(by_name.items())
    }
    detail["verification.expansion_reuse"] = expansion_reuse(tracer.spans)

    def per_op(name, key):
        return by_name[name][key] / ops

    eta = by_name["series.eta_quotient"]
    values = {
        "series.self_s": (by_layer["series"] / ops, "s"),
        "series.eta_quotient.calls": (per_op("series.eta_quotient", "calls"), "count"),
        "series.eta_quotient.coeffs": (per_op("series.eta_quotient", "coeffs"), "count"),
        "series.eta_quotient.coeffs_per_s": (eta["coeffs"] / eta["s"] if eta["s"] else 0.0, "1/s"),
        "tspp.self_s": (by_layer["tspp"] / ops, "s"),
        "tspp.reduce_claim.s": (per_op("tspp.reduce_claim", "s"), "s"),
        "verification.self_s": (by_layer["verification"] / ops, "s"),
        "verification.orbit.s": (per_op("verification.orbit", "s"), "s"),
        "verification.admissibility_check.s": (per_op("verification.admissibility_check", "s"), "s"),
        "verification.cusps.s": (per_op("verification.cusps", "s"), "s"),
        "verification.bound.s": (per_op("verification.bound", "s"), "s"),
        "verification.verify_instance.self_s": (per_op("verification.verify_instance", "self_s"), "s"),
        "verification.indices_checked": (per_op("verification.verify_instance", "indices"), "count"),
        "prover.self_s": (by_layer["prover"] / ops, "s"),
        "prover.prove_tspp_congruence.s": (per_op("prover.prove_tspp_congruence", "s"), "s"),
        "documents.self_s": (by_layer["documents"] / ops, "s"),
        # the tracer's own work, timed directly: the difference of traced
        # and untraced operations is below the run-to-run noise of the long
        # operations, of which a run has two or three
        "trace.overhead_s": (tracer.own / ops, "s"),
        "trace.ops": (ops, "count"),
    }
    values.update({name: (seconds, "s") for name, seconds in probes.items()})
    measured = statistics.median(state["traced"]) - statistics.median(state["plain"])
    return values, detail, measured


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMED)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import workloads
    from tracing import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    print("# machine " + json.dumps(machine_facts(args.seed), sort_keys=True))

    workload = workloads.make(args.workload, args.seed, ROOT, OUT_DIR)
    tracer = Tracer() if args.trace else None
    setup = None if args.trace else SetupTimes(SETUP_REPEATS)
    state = run_workload(workload, args.seconds, tracer, setup)
    samples = state["plain"]
    if not samples or (tracer and not state["traced"]):
        fail("no untraced and traced operation completed")

    for path, data in getattr(workload, "first_bytes", {}).items():
        print(f"# certificate {path.name} sha256 {sha256(data).hexdigest()}")

    if args.trace:
        probes = workloads.run_probes()
        values, detail, measured = layer_metrics(tracer, state, probes)
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write_jsonl(trace_path)
        print(f"# spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        print("# per span name, per traced operation: " + json.dumps(detail, sort_keys=True))
        print(f"# traced minus untraced median operation = {measured:.6f} s "
              f"(n = {len(state['traced'])} and {len(samples)})")
    else:
        values = {
            "setup_s": (statistics.median(setup.times), "s"),
            "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
            "op_p90_ms": (p90(samples) * 1e3, "ms"),
            "ops_per_s": (len(samples) / sum(samples), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        named = NAMED[args.workload]
        print(f"# setup_s = {values['setup_s'][0]:.4f} s (median of {len(setup.times)})")
        for metric, label in named.items():
            value, unit = values[metric]
            if label.endswith("_s") and unit == "ms":
                value, unit = value / 1e3, "s"
            print(f"# {label} = {value:.4f} {unit} (n = {len(samples)})")
        for modulus, times in sorted(getattr(workload, "proof_times", {}).items()):
            print(f"# prove_mod{modulus}_s = {statistics.median(times):.4f} s (n = {len(times)})")
        print(f"# peak_rss_mb = {values['peak_rss_mb'][0]:.1f} MB")
    if state["stops"]:
        claims = sum(state["stops"].values())
        shares = {stop: round(n / claims, 6) for stop, n in sorted(state["stops"].items())}
        print(f"# stops {json.dumps(dict(sorted(state['stops'].items())))}, as shares {json.dumps(shares)}")
    print(f"# failed_ops = {state['failed']} of {state['attempted']} attempted")

    result = {
        "correct": state["failed"] == 0,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
