"""Result files are byte-identical under one and two BLAS threads."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import cscbench

SRC = str(Path(cscbench.__file__).resolve().parents[1])
# two outer iterations at the fig4 defaults: the layers' GEMMs are large
# enough for OpenBLAS to split them over threads, which TINY_FIG4's are not
FIG4_DOC = {"learn": {"outer_iterations": 2}}


def _cscbench(args, threads, cwd):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "cscbench.cli", *args], env=env, cwd=cwd, check=True,
        capture_output=True,
    )


def _without_wall_ms(path):
    """The CSV at ``path`` with its ``wall_ms`` column removed, as text."""
    rows = list(csv.reader(io.StringIO(path.read_text())))
    keep = [i for i, name in enumerate(rows[0]) if name != "wall_ms"]
    return "\n".join(",".join(row[i] for i in keep) for row in rows)


def _outputs(tmp_path, threads):
    cwd = tmp_path / f"threads{threads}"
    cwd.mkdir()
    (cwd / "fig4.json").write_text(json.dumps(FIG4_DOC))
    _cscbench(["unfold-sweep", "--out", "sweep.csv"], threads, cwd)
    _cscbench(["fig4", "--config", "fig4.json", "--out", "fig4"], threads, cwd)
    return (cwd / "sweep.csv").read_bytes(), _without_wall_ms(cwd / "fig4" / "fig4.csv")


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    one, two = _outputs(tmp_path, 1), _outputs(tmp_path, 2)
    assert one[0] == two[0]
    assert one[1] == two[1]
    assert one[1].count("\n") == 2  # header and two rows
