"""End-to-end command-line runs on tiny seeded configurations."""

import json

import pytest

from cscbench import cli
from cscbench.cli import main
from cscbench.errors import ConvergenceError

TINY_FIG4 = {
    "dataset": {
        "n_classes": 3,
        "dim": 12,
        "train_per_class": 5,
        "test_total": 6,
        "noise_sigma": 0.3,
        "seed": 0,
    },
    "learn": {
        "outer_iterations": 2,
        "probe_size": 4,
        "probe_iterations": 10,
        "objective_iterations": 10,
        "pursuit_iterations": 5,
        "batch_size": 8,
    },
    "model": {"width": 2, "depth": 2},
}


def test_verify_exits_zero_and_reports_all_pass(capsys):
    assert main(["verify", "--seed", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is True
    assert len(doc["checks"]) == 6


def test_coherence_dilated_family_is_orthogonal(capsys):
    code = main(
        [
            "coherence",
            "--kernel-size",
            "2x2",
            "--dilation",
            "2",
            "--input-shape",
            "4x4",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mu"] == pytest.approx(0.0, abs=1e-14)
    assert doc["uniqueness_threshold"] == "inf" or doc["uniqueness_threshold"] > 1e6


def test_coherence_undilated_family_is_positive(capsys):
    assert (
        main(
            [
                "coherence",
                "--kernel-size",
                "2x2",
                "--input-shape",
                "4x4",
                "--seed",
                "1",
            ]
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["mu"] > 0.0


def test_pursue_writes_trace(tmp_path, capsys):
    config = {
        "dictionary": {
            "random": {"input_shape": [10, 1], "kernel_size": 3, "width": 2,
                       "padding": "same", "seed": 0}
        },
        "signal": {"seed": 1},
        "beta": 0.1,
        "iterations": 50,
        "solver": "fista",
    }
    cfg_path = tmp_path / "pursue.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / "trace.csv"
    assert main(["pursue", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["iterations_run"] >= 1
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "iter,objective,delta_inf"
    assert len(lines) == doc["iterations_run"] + 2


README_PURSUE = {
    "dictionary": {
        "random": {"input_shape": [100, 1], "kernel_size": 3, "width": 4,
                   "dilation": 1, "padding": "same", "seed": 0}
    },
    "signal": {"seed": 1},
    "beta": 0.1,
    "iterations": 200,
    "solver": "ista",
}


def test_pursue_readme_example(tmp_path, capsys):
    cfg_path = tmp_path / "problem.json"
    cfg_path.write_text(json.dumps(README_PURSUE))
    out_path = tmp_path / "trace.csv"
    assert main(["pursue", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["iterations_run"] == 200
    assert doc["lipschitz"] > 0.0


def test_pursue_divergence_exits_two_without_traceback(tmp_path, capsys):
    cfg_path = tmp_path / "problem.json"
    cfg_path.write_text(json.dumps(dict(README_PURSUE, lipschitz_override=1e-300)))
    out_path = tmp_path / "trace.csv"
    code = main(["pursue", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: pursuit produced non-finite values\n"


@pytest.mark.parametrize(
    "override, message",
    [
        ({"solver": "fistaa"}, "error: unknown solver 'fistaa'; expected 'ista' or 'fista'\n"),
        ({"beta": float("nan")}, "error: beta must be finite\n"),
        ({"tol": float("nan")}, "error: tol must be finite and positive\n"),
        (
            {"nonneg": "false"},
            "error: pursue config key 'nonneg' must be true or false, got 'false'\n",
        ),
        (
            {"lipschitz_override": "x"},
            "error: pursue config key 'lipschitz_override' must be a finite number, got 'x'\n",
        ),
        (
            {"lipschitz_override": True},
            "error: pursue config key 'lipschitz_override' must be a finite number, got True\n",
        ),
        pytest.param(
            {"beta": 10**400},
            f"error: pursue config key 'beta' must be a finite number, got {10**400}\n",
            id="beta-int-beyond-float-range",
        ),
        ({"iterations": 5.5}, "error: pursue config key 'iterations' must be a whole number, got 5.5\n"),
        (
            {"iterations": True},
            "error: pursue config key 'iterations' must be a finite number, got True\n",
        ),
        ({"beta": "0.5"}, "error: pursue config key 'beta' must be a finite number, got '0.5'\n"),
    ],
)
def test_pursue_bad_config_value_exits_two(tmp_path, capsys, override, message):
    cfg_path = tmp_path / "problem.json"
    cfg_path.write_text(json.dumps(dict(README_PURSUE, **override)))
    out_path = tmp_path / "trace.csv"
    assert main(["pursue", "--config", str(cfg_path), "--out", str(out_path)]) == 2
    assert capsys.readouterr().err == message
    assert not out_path.exists()


def test_convergence_error_exits_two(monkeypatch, capsys):
    def stalled(seed):
        raise ConvergenceError("did not converge")

    monkeypatch.setattr(cli, "run_verification_suite", stalled)
    assert main(["verify"]) == 2
    assert capsys.readouterr().err == "error: did not converge\n"


def test_fig4_tiny_config(tmp_path, capsys):
    cfg_path = tmp_path / "fig4.json"
    cfg_path.write_text(json.dumps(TINY_FIG4))
    out_dir = tmp_path / "out"
    assert main(["fig4", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"] == 2
    lines = (out_dir / "fig4.csv").read_text().strip().splitlines()
    assert lines[0].startswith("iteration,unsuccess_count_ml,unsuccess_count_msd")
    assert len(lines) == 3


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("dataset", "n_clases", 4, "unknown fig4 config key 'dataset.n_clases'"),
        ("learn", "beta_schedule", "fixed", "fig4 sets config key 'learn.beta_schedule' itself"),
        ("learn", "pursuit_config", {}, "fig4 sets config key 'learn.pursuit_config' itself"),
        ("model", "widht", 4, "unknown fig4 config key 'model.widht'"),
        ("dataset", "n_classes", "x", "fig4 config key 'dataset.n_classes' must be a finite number, got 'x'"),
        ("learn", "dict_step", "0.3", "fig4 config key 'learn.dict_step' must be a finite number, got '0.3'"),
        ("dataset", "noise_sigma", float("nan"), "fig4 config key 'dataset.noise_sigma' must be a finite number, got nan"),
        ("model", "width", 2.5, "fig4 config key 'model.width' must be a whole number"),
        ("learn", "pursuit_iterations", True, "fig4 config key 'learn.pursuit_iterations' must be a finite number, got True"),
        pytest.param(
            "dataset", "seed", 10**400,
            f"fig4 config key 'dataset.seed' must be a finite number, got {10**400!r}",
            id="dataset-seed-int-beyond-float-range",
        ),
        pytest.param(
            "dataset", "noise_sigma", -(10**400),
            f"fig4 config key 'dataset.noise_sigma' must be a finite number, got {-(10**400)!r}",
            id="dataset-noise_sigma-int-beyond-float-range",
        ),
    ],
)
def test_fig4_rejects_config_keys(tmp_path, capsys, section, key, value, message):
    doc = json.loads(json.dumps(TINY_FIG4))
    doc[section][key] = value
    cfg_path = tmp_path / "fig4.json"
    cfg_path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["fig4", "--config", str(cfg_path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


def test_unfold_sweep_deterministic_csv(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["unfold-sweep", "--unfolding", "0,1", "--solver", "ista", "--seed", "0"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    a, b = out_a.read_bytes(), out_b.read_bytes()
    assert a == b  # byte-identical across runs
    lines = a.decode().strip().splitlines()
    assert lines[0] == "unfolding,solver,mean_objective,accuracy"
    assert len(lines) == 3


def test_malformed_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["pursue", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"signal": [1.0, 2.0]}))  # no dictionary
    assert main(["pursue", "--config", str(cfg)]) == 2


def test_unknown_flag_exits_two(capsys):
    assert main(["verify", "--bogus"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
