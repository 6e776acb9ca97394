"""Benchmark command for cscbench.

    python3 perfbench/run.py --workload fig4_train --seed 1 --seconds 30 --trace 0

Runs from the repository root, importing the package from ``src/`` (no
install needed). One process is one run: set up the workload's inputs,
warm up, time as many whole rounds of ops as fit in ``--seconds`` at the
workload's nominal round time, time the set-up again in fresh processes,
then check every op's output against independent oracles. ``op_s_p50``
is the median over rounds of the seconds of a round's completed ops;
``attempted`` and ``failed`` count single ops. The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of a traced run). A full record, with the machine facts, goes to
``perfbench/results/``.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, set before numpy loads: two spinning OpenBLAS threads on
# two cores made fig4 op times spread 10% between runs, against 6% at one
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 5  # fresh processes timing imports + set-up, for setup_s


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and set up once, print the seconds taken, exit")
    return parser.parse_args(argv)


def _setup_seconds(args):
    """Imports plus one set-up, each in its own fresh interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            capture_output=True, text=True, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _blas_facts():
    """OpenBLAS version and thread count, read from the loaded library."""
    import ctypes

    facts = {"blas": None, "blas_threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        return facts
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            try:
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
            facts.update(blas=config().decode(), blas_threads=threads())
            return facts
    return facts


def machine_facts():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **_blas_facts(),
        "machine": platform.machine(),
    }


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "cscbench" / "__init__.py").is_file():
        print(f"error: no cscbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import cscbench
    from cscbench.errors import ConvergenceError

    if not Path(cscbench.__file__).resolve().is_relative_to(SRC):
        print(f"error: cscbench imported from {cscbench.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - START
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        workload.setup()
        print(time.perf_counter() - START)
        return 0
    tracer = Tracer(workload.signal_len) if args.trace else None
    if tracer:
        tracer.install()
        tracer.op = ("setup", 0)
    t0 = time.perf_counter()
    state = workload.setup()
    setup_s = import_s + time.perf_counter() - t0
    if tracer:
        tracer.op = "warmup"
    t0 = time.perf_counter()
    workload.warmup(state)
    warmup_s = time.perf_counter() - t0

    # as many whole rounds as fit in --seconds at the nominal round time
    rounds = max(1, int(args.seconds // workload.round_s))
    records = []
    for r, round_ops in enumerate(workload.ops(state, rounds)):
        for label, arg in round_ops:
            k = len(records)
            if tracer:
                tracer.op = k
            t0 = time.perf_counter()
            try:
                out = workload.run(state, arg)
                error = None
            except ConvergenceError as exc:
                out, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.op = None
            records.append({"op": k, "round": r, "label": label, "seconds": elapsed,
                            "error": error})
            if error is None:
                workload.after(state, arg, out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    setup_times = _setup_seconds(args)

    errors = [f"op {r['op']} ({r['label']}) failed: {r['error']}" for r in records
              if r["error"] is not None and r["label"] not in workload.allowed_failures]
    errors += workload.check(state)
    # each round's completed ops, timed together
    done = [[r for r in records if r["round"] == k and r["error"] is None]
            for k in range(rounds)]
    done = [group for group in done if group]
    round_seconds = [sum(r["seconds"] for r in group) for group in done]
    failed = sum(r["error"] is not None for r in records)
    end_to_end = {
        "op_s_p50": {"value": statistics.median(round_seconds) if done else float("nan"),
                     "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    if tracer:
        metrics = tracer.metrics([[r["op"] for r in group] for group in done],
                                 [[("setup", 0)]])
    else:
        metrics = end_to_end

    facts = machine_facts()
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "machine": facts,
        "import_s": import_s, "setup_s_this_process": setup_s,
        "setup_times": setup_times, "warmup_s": warmup_s,
        "ops": records, "round_seconds": round_seconds, "check_errors": errors,
        "end_to_end": end_to_end, "metrics": metrics,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        tracer.write(out_dir / f"{stem}.spans.csv.gz")
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"machine": facts}))
    print(json.dumps({"correct": not errors and bool(done), "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
