#!/usr/bin/env python3
"""Write every seeded command output into one directory, for byte-identity checks.

    python scripts/write_outputs.py OUTDIR

Runs, in one process, with OUTDIR as the working directory:

* ``verify --seed N`` for N = 0..4 (``verify_seedN.json``);
* ``unfold-sweep`` with ``ista`` and ``fista`` at seeds 0..2
  (``unfold_sweep_SOLVER_seedN.csv``), and at ``--unfolding 2,0,2``
  (``unfold_sweep_SOLVER_202.csv``);
* the README's two ``coherence`` commands (``coherence_readme.json`` and the
  guard example, which exits 2);
* ``pursue`` on the README document, on a serialized ``msd`` document
  solved by FISTA, on a serialized 2-D ``valid`` bank and on a random 2-D
  ``same`` bank at dilation 2 (the config, the printed JSON and the trace CSV
  of each);
* ``fig4`` with 4 outer iterations (``fig4.csv``, its ``wall_ms`` column
  removed, since that column is measured wall time).

``commands.txt`` lists each command with its exit code and its stderr. Two
trees give the same outputs iff ``diff -r`` of their OUTDIRs is empty:

    PYTHONPATH=src python scripts/write_outputs.py /tmp/new
    PYTHONPATH=/path/to/other/src python scripts/write_outputs.py /tmp/old
    diff -r /tmp/old /tmp/new
"""

import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

from cscbench.cli import main
from cscbench.dictionary import MSDDictionary, random_dictionary

README_PURSUE = {
    "dictionary": {"random": {"input_shape": [100, 1], "kernel_size": 3, "width": 4,
                              "dilation": 1, "padding": "same", "seed": 0}},
    "signal": {"seed": 1},
    "beta": 0.1,
    "iterations": 200,
    "solver": "ista",
}


def _msd_pursue():
    """FISTA on a serialized [I | D] of the fig4 layer-2 shape, nonnegative."""
    bank = random_dictionary((100, 17), (3,), 16, dilation=2, padding="same", seed=0)
    return {"dictionary": MSDDictionary(bank).to_json_dict(), "signal": {"seed": 2},
            "beta": 0.1, "iterations": 300, "nonneg": True, "solver": "fista"}


def _valid_2d_pursue():
    """ISTA on a serialized 2-D bank under valid padding."""
    bank = random_dictionary((12, 10, 2), (3, 2), 3, dilation=1, padding="valid", seed=4)
    return {"dictionary": bank.to_json_dict(), "signal": {"seed": 3}, "beta": 0.05,
            "iterations": 150, "solver": "ista"}


SAME_2D_PURSUE = {
    "dictionary": {"random": {"input_shape": [9, 8, 3], "kernel_size": [3, 3], "width": 4,
                              "dilation": 2, "padding": "same", "seed": 5}},
    "signal": {"seed": 6},
    "beta": 0.05,
    "iterations": 150,
    "nonneg": True,
    "solver": "fista",
}

PURSUE_CONFIGS = {
    "pursue_readme": lambda: README_PURSUE,
    "pursue_msd_fista": _msd_pursue,
    "pursue_valid_2d": _valid_2d_pursue,
    "pursue_same_2d_dilated": lambda: SAME_2D_PURSUE,
}


def _commands():
    """(output file, argv) for every command; a None file keeps stdout out."""
    for seed in range(5):
        yield f"verify_seed{seed}.json", ["verify", "--seed", str(seed)]
    for solver in ("ista", "fista"):
        for seed in range(3):
            out = f"unfold_sweep_{solver}_seed{seed}.csv"
            yield None, ["unfold-sweep", "--solver", solver, "--seed", str(seed), "--out", out]
        out = f"unfold_sweep_{solver}_202.csv"
        yield None, ["unfold-sweep", "--solver", solver, "--unfolding", "2,0,2", "--out", out]
    yield "coherence_readme.json", ["coherence", "--kernel-size", "2x2", "--dilation", "2",
                                    "--input-shape", "4x4"]
    yield "coherence_guard.json", ["coherence", "--kernel-size", "1", "--input-shape", "1",
                                   "--width", "1000000"]
    for name in PURSUE_CONFIGS:
        yield f"{name}.json", ["pursue", "--config", f"{name}_config.json",
                               "--out", f"{name}_trace.csv"]
    yield None, ["fig4", "--config", "fig4_config.json", "--out", "fig4"]


def _drop_wall_ms(path):
    """Rewrite the CSV at ``path`` without its ``wall_ms`` column."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name != "wall_ms"]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([row[i] for i in keep] for row in rows)


def write_outputs(outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    for name, config in PURSUE_CONFIGS.items():
        Path(f"{name}_config.json").write_text(json.dumps(config(), indent=2))
    Path("fig4_config.json").write_text(json.dumps({"learn": {"outer_iterations": 4}}))
    log = []
    for out, argv in _commands():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        if out is not None:
            Path(out).write_text(stdout.getvalue())
        log.append(f"$ cscbench {' '.join(argv)}\nexit {code}\n{stderr.getvalue()}")
    _drop_wall_ms(Path("fig4") / "fig4.csv")
    Path("commands.txt").write_text("".join(log))
    return log


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    for entry in write_outputs(sys.argv[1]):
        print(entry.splitlines()[0], "->", entry.splitlines()[1])
