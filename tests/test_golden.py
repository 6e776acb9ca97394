"""Every seeded result file matches the committed manifest, under one and
two BLAS threads.

``tests/golden/outputs.sha256`` holds the SHA-256 of each file that
``scripts/write_outputs.py`` writes, and the facts of the host that recorded
them. OpenBLAS picks its kernels by CPU, so the bits belong to a platform.
A change that moves bits updates the manifest in the same diff, which then
names every moved file. To record it again:

    PYTHONPATH=src python tests/test_golden.py

On a host whose facts differ from the recorded ones, the test compares the
one-thread and two-thread outputs with each other and warns that the
manifest was not compared.
"""

import ctypes
import glob
import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

import cscbench

SRC = str(Path(cscbench.__file__).resolve().parents[1])
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "write_outputs.py"
MANIFEST = Path(__file__).resolve().parent / "golden" / "outputs.sha256"


def host_facts():
    """numpy's version, its OpenBLAS's version and core type, and the CPU model."""
    core = "unknown"  # the kernels OpenBLAS chose for this CPU
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            getter = getattr(ctypes.CDLL(path), name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_char_p
                core = getter().decode()
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "openblas": blas.get("version", "unknown"),
            "openblas-core": core, "cpu": cpu}


def output_hashes(outdir, threads):
    """Run ``write_outputs.py`` into ``outdir`` under ``threads`` BLAS threads;
    {file relative to ``outdir``: SHA-256}."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(SCRIPT), str(outdir)], env=env, check=True,
                   capture_output=True)
    return {
        path.relative_to(outdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(outdir).rglob("*")) if path.is_file()
    }


def read_manifest():
    """(facts, hashes) as the manifest records them."""
    facts, hashes = {}, {}
    for line in MANIFEST.read_text().splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(": ", 1)
            facts[key] = value
        elif line:
            digest, name = line.split("  ", 1)
            hashes[name] = digest
    return facts, hashes


def _moved(got, want):
    return sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))


def test_outputs_match_the_manifest_under_one_and_two_blas_threads(tmp_path):
    one = output_hashes(tmp_path / "threads1", 1)
    two = output_hashes(tmp_path / "threads2", 2)
    assert len(one) == 30
    facts, recorded = read_manifest()
    if facts != host_facts():
        warnings.warn(f"host facts {host_facts()} differ from the manifest's {facts}: "
                      "compared one BLAS thread with two, not with the manifest")
        assert _moved(two, one) == []
        return
    assert _moved(one, recorded) == []
    assert _moved(two, recorded) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = output_hashes(Path(tmp) / "out", 1)
    lines = [f"# {key}: {value}" for key, value in host_facts().items()]
    lines += [f"{digest}  {name}" for name, digest in hashes.items()]
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(hashes)} hashes to {MANIFEST}")
