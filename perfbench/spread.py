"""Run the benchmark once per seed, in fresh processes, and summarise.

    python3 perfbench/spread.py --workload fig4_train --seeds 1-10 --seconds 30

Runs are untraced; a traced run is one ``run.py --trace 1`` call.
For every metric of the last JSON line it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median; it also prints each run's wall time
and failed/attempted counts. Runs go one after another, never in
parallel, so they do not contend for the two cores.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text):
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,9")
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)

    values, shares = {}, set()
    for seed in _seeds(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"], result["attempted"]))
        print(f"seed {seed}: wall {wall:.1f} s, correct {result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
    print(f"failed/attempted pairs seen: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
