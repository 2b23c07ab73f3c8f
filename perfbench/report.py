"""Print every end-to-end metric of every workload under its descriptive name.

    python3 perfbench/report.py [--seed N]

Runs perfbench/run.py once per workload, each in its own process, one after
another, for the run_seconds that BENCHMARK.json sets, and prints the lines it reports: the metric, its unit and its
sample count, then failed operations against those attempted.  Exits 1 if
any workload fails its correctness gate.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import NAMED

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    ok = True
    for workload in NAMED:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=False,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exit code {done.returncode}\n{done.stderr}", file=sys.stderr)
            ok = False
            continue
        ok = ok and json.loads(lines[-1])["correct"]
        for line in lines[:-1]:
            if line.startswith("# machine") and workload != next(iter(NAMED)):
                continue
            print(f"{workload:18s} {line[2:]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
