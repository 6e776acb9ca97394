"""End-to-end command-line runs on tiny seeded configurations."""

import contextlib
import copy
import io
import json
import tempfile
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cscbench import cli, dictionary
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


README_RANDOM = {"input_shape": [100, 1], "kernel_size": 3, "width": 4,
                 "dilation": 1, "padding": "same", "seed": 0}
# an [I | D] document as ``to_json_dict`` writes it: one 2-tap kernel over
# 2 channels on a length-20 grid
SERIALIZED_MSD = {"family": "msd", "kernels": [[[0.6, 0.0], [0.0, 0.8]]], "dilation": 2,
                  "input_shape": [20, 2], "padding": "same"}
README_PURSUE = {
    "dictionary": {"random": README_RANDOM},
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


def test_pursue_serialized_dictionary_matches_its_random_spec(tmp_path, capsys):
    # the serialized document of the README bank runs the README problem
    # byte for byte; SERIALIZED_MSD, the base of the bad-config cases, runs
    bank = dictionary.random_dictionary((100, 1), (3,), 4, padding="same", seed=0)
    traces = []
    for spec in ({"random": README_RANDOM}, bank.to_json_dict(), SERIALIZED_MSD):
        cfg_path, out_path = tmp_path / "problem.json", tmp_path / "trace.csv"
        signal = {"seed": 1} if spec is not SERIALIZED_MSD else [0.5] * 40
        cfg_path.write_text(json.dumps(dict(README_PURSUE, dictionary=spec, signal=signal)))
        assert main(["pursue", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        capsys.readouterr()
        traces.append(out_path.read_bytes())
    assert traces[0] == traces[1]


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
        ({"beta": float("nan")}, "error: pursue config key 'beta' must be a finite number, got nan\n"),
        ({"tol": float("nan")}, "error: pursue config key 'tol' must be a finite number, got nan\n"),
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
        ({"betta": 5.0}, "error: unknown pursue config key 'betta'\n"),
        (
            {"dictionary": {"random": dict(README_RANDOM, widht=4)}},
            "error: unknown pursue config key 'dictionary.random.widht'\n",
        ),
        (
            {"dictionary": {"random": dict(README_RANDOM, width=2.7)}},
            "error: pursue config key 'dictionary.random.width' must be a whole number, got 2.7\n",
        ),
        (
            {"dictionary": {"random": dict(README_RANDOM, seed=0.9)}},
            "error: pursue config key 'dictionary.random.seed' must be a whole number, got 0.9\n",
        ),
        (
            {"dictionary": {"random": dict(README_RANDOM, input_shape=[100.5, 1])}},
            "error: pursue config key 'dictionary.random.input_shape[0]' must be a whole "
            "number, got 100.5\n",
        ),
        (
            {"signal": {"seed": 1.5}},
            "error: pursue config key 'signal.seed' must be a whole number, got 1.5\n",
        ),
        (
            {"dictionary": {"random": dict(README_RANDOM, input_shape=10)}},
            "error: pursue config key 'dictionary.random.input_shape' must be a nonempty list, "
            "got 10\n",
        ),
        ({"solver": ["ista"]}, "error: unknown solver ['ista']; expected 'ista' or 'fista'\n"),
        ({"dictionary": "random"}, "error: pursue config key 'dictionary' must be an object\n"),
        (
            {"dictionary": dict(SERIALIZED_MSD, kernels=3)},
            "error: pursue config key 'dictionary.kernels' must be a nonempty list, got 3\n",
        ),
        (
            {"signal": ["1.5", "2", "0.5"]},
            "error: pursue config key 'signal[0]' must be a finite number, got '1.5'\n",
        ),
        ({"signal": [1.5, True]}, "error: pursue config key 'signal[1]' must be a finite number, got True\n"),
        (
            {"signal": [0.5, float("nan")]},
            "error: pursue config key 'signal[1]' must be a finite number, got nan\n",
        ),
        pytest.param(
            {"signal": [10**400]},
            f"error: pursue config key 'signal[0]' must be a finite number, got {10**400}\n",
            id="signal-int-beyond-float-range",
        ),
        ({"signal": [[1.5]]}, "error: pursue config key 'signal[0]' must be a finite number, got [1.5]\n"),
        ({"signal": "1.5"}, "error: pursue config key 'signal' must be an object or a list, got '1.5'\n"),
        ({"iterations": 1e300}, "error: pursue config key 'iterations' must be at most 1000000, got 1e+300\n"),
        pytest.param(
            {"dictionary": {"random": dict(README_RANDOM, width=10**300)}},
            "error: pursue config key 'dictionary.random.width' must be at most 1000000, "
            f"got {10**300}\n",
            id="width-beyond-count-limit",
        ),
        (
            {"dictionary": {"random": dict(README_RANDOM, input_shape=[10**7, 1])}},
            "error: pursue config key 'dictionary.random.input_shape[0]' must be at most "
            "1000000, got 10000000\n",
        ),
        (  # windows: 100 positions * 1000 taps; the count limit alone lets it through
            {"dictionary": {"random": dict(README_RANDOM, kernel_size=10**6)}},
            "error: pursue config needs an array of 100000000 entries (limit 10000000)\n",
        ),
        (  # the taps' DFT: width 8 * grid 100 + 2 * 10**6
            {"dictionary": {"random": dict(README_RANDOM, width=8, dilation=10**6)}},
            "error: pursue config needs an array of 16000800 entries (limit 10000000)\n",
        ),
        (  # a serialized dictionary's input grid: the [I | D] code of 10**8 positions
            {"dictionary": {"family": "msd", "kernels": [[[[1.0]]]], "dilation": 1,
                            "input_shape": [10**4, 10**4, 1], "padding": "same"}},
            "error: pursue config needs an array of 200000000 entries (limit 10000000)\n",
        ),
        (
            {"dictionary": dict(SERIALIZED_MSD, dilation=1.5)},
            "error: pursue config key 'dictionary.dilation' must be a whole number, got 1.5\n",
        ),
        (
            {"dictionary": dict(SERIALIZED_MSD, dilation=True)},
            "error: pursue config key 'dictionary.dilation' must be a finite number, got True\n",
        ),
        (
            {"dictionary": dict(SERIALIZED_MSD, input_shape=[20.7, 2])},
            "error: pursue config key 'dictionary.input_shape[0]' must be a whole number, "
            "got 20.7\n",
        ),
        (
            {"dictionary": dict(SERIALIZED_MSD, family="msdd")},
            "error: pursue config key 'dictionary.family' must be 'conv' or 'msd', got 'msdd'\n",
        ),
        (
            {"dictionary": dict(SERIALIZED_MSD, kernel=[[[1.0, 0.0]]])},
            "error: unknown pursue config key 'dictionary.kernel'\n",
        ),
        (
            {"dictionary": dict(SERIALIZED_MSD, kernels=[[["1.0", 0.0], [0.0, 0.8]]])},
            "error: pursue config key 'dictionary.kernels[0][0][0]' must be a finite number, "
            "got '1.0'\n",
        ),
        (
            {"dictionary": dict(SERIALIZED_MSD, kernels=[[[0.6, 0.0], [0.0, 0.8]], [[0.5, 0.5]]])},
            "error: pursue config key 'dictionary.kernels' must hold entries of one shape\n",
        ),
        (
            {"dictionary": dict(SERIALIZED_MSD, random=README_RANDOM)},
            "error: unknown pursue config key 'dictionary.family'\n",
        ),
        (
            {"dictionary": {k: v for k, v in SERIALIZED_MSD.items() if k != "input_shape"}},
            "error: pursue config key 'dictionary.input_shape' is required\n",
        ),
        pytest.param(
            {"dictionary": dict(SERIALIZED_MSD, kernels=[[[0.6, 0.0], [0.0, 10**400]]])},
            f"error: pursue config key 'dictionary.kernels[0][1][1]' must be a finite number, "
            f"got {10**400}\n",
            id="serialized-tap-int-beyond-float-range",
        ),
    ],
)
def test_pursue_bad_config_value_exits_two(tmp_path, capsys, override, message):
    cfg_path = tmp_path / "problem.json"
    cfg_path.write_text(json.dumps(dict(README_PURSUE, **override)))
    out_path = tmp_path / "trace.csv"
    assert main(["pursue", "--config", str(cfg_path), "--out", str(out_path)]) == 2
    assert capsys.readouterr().err == message
    assert not out_path.exists()


def _positions(doc, path=()):
    """Every value's position in a JSON document, the document itself first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _positions(child, path + (key,))


# fields whose value sets an array size or a loop count
SIZE_FIELDS = {"input_shape", "kernel_size", "width", "dilation", "iterations"}


def _json_values(numbers):
    scalars = st.none() | st.booleans() | st.text(max_size=5) | numbers
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=5), inner, max_size=3),
        max_leaves=6,
    )


ANY_VALUE = _json_values(
    st.integers(-(10**400), 10**400) | st.floats(allow_nan=True, allow_infinity=True)
)
# small numbers, or numbers far beyond the count and array bounds: the test
# checks type and bound handling, not memory or run time
SIZE_NUMBER = (
    st.integers(-2, 12) | st.floats(-12.0, 12.0) | st.just(float("nan"))
    | st.sampled_from([10**300, -(10**300), 1e300])
)
SIZE_VALUE = SIZE_NUMBER | _json_values(SIZE_NUMBER)  # a bare number half the time


def _swap_one_value(data, doc, size_fields):
    """``doc`` with one value, or the whole document, replaced by a drawn one:
    SIZE_VALUE under a key of ``size_fields``, else ANY_VALUE."""
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(_positions(doc))))
    is_size = any(key in size_fields for key in path if isinstance(key, str))
    value = data.draw(SIZE_VALUE if is_size else ANY_VALUE)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _run_config(command, doc, out):
    """``main([command, --config, --out])`` on ``doc`` in a fresh directory;
    returns the exit code and stderr."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        with open(f"{tmp}/config.json", "w") as fh:
            json.dump(doc, fh)
        code = main([command, "--config", f"{tmp}/config.json", "--out", f"{tmp}/{out}"])
    return code, err.getvalue()


@given(st.data())
def test_pursue_fuzzed_readme_document_exits_cleanly(data):
    code, err = _run_config("pursue", _swap_one_value(data, README_PURSUE, SIZE_FIELDS), "t.csv")
    assert code in (0, 2)
    assert "Traceback" not in err


@given(st.data())
def test_pursue_fuzzed_serialized_document_exits_cleanly(data):
    doc = dict(README_PURSUE, dictionary=SERIALIZED_MSD, signal={"seed": 1})
    code, err = _run_config("pursue", _swap_one_value(data, doc, SIZE_FIELDS), "t.csv")
    assert code in (0, 2)
    assert "Traceback" not in err


# fig4 fields whose value sets an array size or a loop count
FIG4_SIZE_FIELDS = {"n_classes", "dim", "train_per_class", "test_total", "outer_iterations",
                    "probe_size", "probe_iterations", "objective_iterations",
                    "pursuit_iterations", "batch_size", "width", "depth"}


@given(st.data())
def test_fig4_fuzzed_tiny_document_exits_cleanly(data):
    doc = _swap_one_value(data, TINY_FIG4, FIG4_SIZE_FIELDS)
    # an empty document or section leaves its keys at the full-size defaults:
    # a run of seconds to minutes that checks no input handling
    assume(doc != {} and not (isinstance(doc, dict) and {} in doc.values()))
    code, err = _run_config("fig4", doc, "out")
    assert code in (0, 2)
    assert "Traceback" not in err


def test_unfold_sweep_negative_unfolding_exits_two(tmp_path, capsys, monkeypatch):
    # rejected before the model's calibration pass, the first work of a sweep
    monkeypatch.setattr(cli, "unfold_sweep", None)
    out = tmp_path / "sweep.csv"
    assert main(["unfold-sweep", "--unfolding=-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: unfold-sweep config key 'unfolding' must be at least 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "entries, shown",
    [("1.5", "must be a whole number, got 1.5"), ("0,a", "must be a finite number, got 'a'"),
     ("", "must be a finite number, got ''"), ("0,,1", "must be a finite number, got ''"),
     ("nan", "must be a finite number, got nan"), ("true", "must be a finite number, got 'true'"),
     ("2,-3", "must be at least 0, got -3")],
)
def test_unfold_sweep_bad_unfolding_entry_exits_two(tmp_path, capsys, monkeypatch,
                                                    entries, shown):
    monkeypatch.setattr(cli, "unfold_sweep", None)
    out = tmp_path / "sweep.csv"
    assert main(["unfold-sweep", f"--unfolding={entries}", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: unfold-sweep config key 'unfolding' {shown}\n"
    assert captured.out == ""
    assert not out.exists()


# one command-line entry: mostly a small count, else one far past the count
# and array bounds or a malformed one; the fuzz checks input handling, not
# memory or run time
SMALL_COUNT = st.integers(-1, 4).map(str)
FLAG_COUNT = st.one_of(SMALL_COUNT, SMALL_COUNT, SMALL_COUNT, st.sampled_from(
    ["", "x", "1.5", "2.0", "1e300", "nan", "-inf", "0x3", "100000000", str(10**400)]
))


def _run_argv(argv):
    """``main(argv)``, printing into buffers; returns the exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean_exit(code, err):
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1


def _optional_flags(data, flags):
    """``--flag=value`` for a drawn subset of ``flags`` ({flag: strategy})."""
    return [f"{flag}={data.draw(values)}" for flag, values in flags.items()
            if data.draw(st.booleans())]


@given(st.data())
def test_coherence_fuzzed_argv_exits_cleanly(data):
    def shape(extent):
        return st.lists(extent, min_size=1, max_size=2).map("x".join) | FLAG_COUNT

    argv = ["coherence", f"--kernel-size={data.draw(shape(st.integers(0, 4).map(str)))}",
            f"--input-shape={data.draw(shape(st.integers(-1, 8).map(str)))}"]
    argv += _optional_flags(data, {
        "--dilation": FLAG_COUNT, "--channels": FLAG_COUNT, "--width": FLAG_COUNT,
        "--padding": st.sampled_from(["valid", "same", "full"]), "--seed": FLAG_COUNT,
    })
    _assert_clean_exit(*_run_argv(argv))


@settings(max_examples=25)
@given(st.data())
def test_unfold_sweep_fuzzed_argv_exits_cleanly(data):
    unfoldings = st.lists(FLAG_COUNT, min_size=1, max_size=3).map(",".join)
    argv = ["unfold-sweep", *_optional_flags(data, {
        "--unfolding": unfoldings, "--solver": st.sampled_from(["ista", "fista", "sgd"]),
        "--seed": FLAG_COUNT,
    })]
    with tempfile.TemporaryDirectory() as tmp:
        _assert_clean_exit(*_run_argv(argv + ["--out", f"{tmp}/sweep.csv"]))


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["unfold-sweep", "--unfolding", "0,100000000"],
            "unfold-sweep config key 'unfolding' must be at most 1000000, got 100000000",
        ),
        (
            ["coherence", "--kernel-size", "3", "--input-shape", "10", "--width", "100000000"],
            "coherence config key 'width' must be at most 1000000, got 100000000",
        ),
        (  # D has 4000 x 4000 entries; its Gram matrix is the one past the limit
            ["coherence", "--kernel-size", "3", "--input-shape", "4000", "--padding", "same"],
            "dense matrix would have 16000000 entries (limit 10000000)",
        ),
    ],
    ids=["unfold-sweep-depth", "coherence-width", "coherence-gram"],
)
def test_oversized_run_exits_two(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert main(argv + (["--out", str(out)] if argv[0] == "unfold-sweep" else [])) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def _random_spec(**entries):
    return dict(README_PURSUE, dictionary={"random": dict(README_RANDOM, **entries)})


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["coherence", "--kernel-size", "3", "--input-shape", "0", "--padding", "same"], None,
         "coherence config key 'input_shape[0]' must be at least 1, got 0"),
        (["pursue"], _random_spec(input_shape=[0, 1]),
         "pursue config key 'dictionary.random.input_shape[0]' must be at least 1, got 0"),
        (["coherence", "--kernel-size", "3", "--input-shape", "10", "--channels", "0"], None,
         "coherence config key 'input_shape[1]' must be at least 1, got 0"),
        (["pursue"], _random_spec(input_shape=[100, 0]),
         "pursue config key 'dictionary.random.input_shape[1]' must be at least 1, got 0"),
        (["pursue"], dict(README_PURSUE, dictionary=dict(SERIALIZED_MSD, input_shape=[20, 0])),
         "pursue config key 'dictionary.input_shape[1]' must be at least 1, got 0"),
        (["coherence", "--kernel-size", "3x0", "--input-shape", "10x10"], None,
         "coherence config key 'kernel_size[1]' must be at least 1, got 0"),
        (["pursue"], _random_spec(kernel_size=0),
         "pursue config key 'dictionary.random.kernel_size' must be at least 1, got 0"),
    ],
    ids=["coherence", "pursue", "coherence-channels", "pursue-channels", "pursue-serialized",
         "coherence-kernel", "pursue-kernel"],
)
def test_zero_length_axis_exits_two(tmp_path, argv, doc, message):
    # checked before any taps array is drawn, whose own checks name no key
    _assert_exits_two(tmp_path, argv, doc, message)


def _assert_exits_two(tmp_path, argv, doc, message):
    """``argv`` (with ``doc`` as its config) prints ``message`` and exits 2
    before writing anything."""
    if doc is not None:
        (tmp_path / "config.json").write_text(json.dumps(doc))
        argv = argv + ["--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
    assert _run_argv(argv) == (2, f"error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["coherence", "--kernel-size", "3", "--input-shape", "10", "--width", "0"], None,
         "coherence config key 'width' must be at least 1, got 0"),
        (["coherence", "--kernel-size", "3", "--input-shape", "10", "--dilation", "0"], None,
         "coherence config key 'dilation' must be at least 1, got 0"),
        (["pursue"], dict(README_PURSUE, dictionary=dict(SERIALIZED_MSD, dilation=0)),
         "pursue config key 'dictionary.dilation' must be at least 1, got 0"),
    ],
    ids=["coherence-width", "coherence-dilation", "pursue-serialized-dilation"],
)
def test_zero_width_or_dilation_exits_two(tmp_path, argv, doc, message):
    _assert_exits_two(tmp_path, argv, doc, message)


def test_coherence_builds_one_dense_matrix(monkeypatch, capsys):
    calls = []
    to_matrix = dictionary.to_matrix

    def counted(d):
        calls.append(d)
        return to_matrix(d)

    monkeypatch.setattr(dictionary, "to_matrix", counted)
    argv = ["coherence", "--kernel-size", "2x2", "--input-shape", "4x4", "--seed", "1"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["mu"] > 0.0
    assert len(calls) == 1


def test_convergence_error_exits_two(monkeypatch, capsys):
    def stalled(seed):
        raise ConvergenceError("did not converge")

    monkeypatch.setattr(cli, "run_verification_suite", stalled)
    assert main(["verify"]) == 2
    assert capsys.readouterr().err == "error: did not converge\n"


@pytest.mark.parametrize(
    "argv, doc, key, idle",
    [
        (["verify", "--seed=-1"], None, "seed", ["run_verification_suite"]),
        (["coherence", "--kernel-size=3", "--input-shape=10", "--seed=-1"], None, "seed",
         ["random_dictionary"]),
        (["unfold-sweep", "--seed=-1"], None, "seed", ["unfold_sweep"]),
        (["pursue"], dict(README_PURSUE, signal={"seed": -1}), "signal.seed", ["ista", "fista"]),
        (["pursue"], dict(README_PURSUE, dictionary={"random": dict(README_RANDOM, seed=-1)}),
         "dictionary.random.seed", ["random_dictionary"]),
        (["fig4"], dict(TINY_FIG4, dataset=dict(TINY_FIG4["dataset"], seed=-1)), "dataset.seed",
         ["reconstruction_experiment"]),
        (["fig4"], dict(TINY_FIG4, learn=dict(TINY_FIG4["learn"], seed=-1)), "learn.seed",
         ["reconstruction_experiment"]),
    ],
    ids=["verify", "coherence", "unfold-sweep", "pursue-signal", "pursue-dictionary",
         "fig4-dataset", "fig4-learn"],
)
def test_negative_seed_names_its_key_and_exits_two(tmp_path, monkeypatch, argv, doc, key, idle):
    for name in idle:  # the command must stop before any work starts
        monkeypatch.setattr(cli, name, None)
    if doc is not None:
        (tmp_path / "config.json").write_text(json.dumps(doc))
        argv = argv + ["--config", str(tmp_path / "config.json")]
    out = tmp_path / "out"
    if argv[0] in ("unfold-sweep", "pursue", "fig4"):
        argv = argv + ["--out", str(out)]
    code, err = _run_argv(argv)
    assert (code, err) == (2, f"error: {argv[0]} config key {key!r} must be at least 0, got -1\n")
    assert not out.exists()


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
        ("model", "width", 2.5, "fig4 config key 'model.width' must be a whole number, got 2.5"),
        ("learn", "pursuit_iterations", True, "fig4 config key 'learn.pursuit_iterations' must be a finite number, got True"),
        pytest.param(
            "dataset", "seed", 10**400,
            f"fig4 config key 'dataset.seed' must be a finite number, got {10**400!r}",
            id="dataset-seed-int-beyond-float-range",
        ),
        ("learn", "outer_iterations", 10**7, "fig4 config key 'learn.outer_iterations' must be at most 1000000, got 10000000"),
        pytest.param(
            "dataset", "n_classes", 10**300,
            f"fig4 config key 'dataset.n_classes' must be at most 1000000, got {10**300}",
            id="n_classes-beyond-count-limit",
        ),
        ("learn", "objective_iterations", 1e300, "fig4 config key 'learn.objective_iterations' must be at most 1000000, got 1e+300"),
        ("dataset", "n_classes", 10**6, "fig4 config needs a dataset of more than 10000000 entries"),
        # windows of 8 signals at layer 10**5: 12 positions * 3 taps * 199999 channels
        ("model", "depth", 10**5, "fig4 config needs an array of 57599712 entries (limit 10000000)"),
        ("learn", "probe_size", 0, "batch and probe sizes must be >= 1"),
        # a negative count once ran zero outer iterations and exited 0
        ("learn", "outer_iterations", -1, "fig4 config key 'learn.outer_iterations' must be at least 0, got -1"),
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


def test_fig4_diverging_kernels_print_one_error_line(tmp_path, capsys):
    # noise of 1e300 overflows the kernel gradient; pytest would hide numpy's
    # RuntimeWarnings from capsys, so they are raised instead
    doc = json.loads(json.dumps(TINY_FIG4))
    doc["dataset"]["noise_sigma"] = 1e300
    cfg_path = tmp_path / "fig4.json"
    cfg_path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["fig4", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error: kernel taps diverged during learning\n"


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
    for text in ("{not json", json.dumps([README_PURSUE])):  # the second is no object
        bad.write_text(text)
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
