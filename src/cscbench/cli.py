"""Command-line entry points.

Subcommands: verify, coherence, pursue, fig4, unfold-sweep. All runs are
seeded and emit byte-stable CSV/JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .analysis import lemma1_threshold, run_verification_suite, suite_to_json
from .data import SyntheticDatasetSpec
from .dictionary import (
    MAX_DENSE_ENTRIES,
    dictionary_from_json,
    mutual_coherence,
    random_dictionary,
)
from .errors import ConfigError, CscbenchError, ShapeError
from .learning import (
    LearnConfig,
    reconstruction_experiment,
    unfold_sweep,
    write_experiment_csv,
    write_sweep_csv,
)
from .pursuit import LassoProblem, PursuitConfig, export_trace_csv, fista, ista


def _parse_shape(text):
    try:
        return tuple(int(part) for part in text.lower().split("x"))
    except ValueError as exc:
        raise ShapeError(f"cannot parse shape {text!r}; expected e.g. 4x4") from exc


def _cmd_verify(args):
    reports = run_verification_suite(seed=_number(args.seed, "seed", "verify", whole=True))
    print(suite_to_json(reports))
    return 0 if all(r["pass"] for r in reports) else 1


def _cmd_coherence(args):
    spec = {
        "input_shape": [*_parse_shape(args.input_shape), args.channels],
        "kernel_size": list(_parse_shape(args.kernel_size)),
        "width": args.width,
        "dilation": args.dilation,
        "padding": args.padding,
        "seed": args.seed,
    }
    mu = mutual_coherence(_random_dictionary(spec, "", "coherence"))
    threshold = lemma1_threshold(mu)
    print(
        json.dumps(
            {
                "mu": mu,
                "uniqueness_threshold": threshold if np.isfinite(threshold) else "inf",
            }
        )
    )
    return 0


# The largest whole-number count a config may set: sizes and loop counts
# (iterations, widths, depths, classes). Seeds are not counts. Array sizes
# are bounded apart from this, by MAX_DENSE_ENTRIES.
MAX_COUNT = 1_000_000

PURSUE_KEYS = ("dictionary", "signal", "beta", "iterations", "tol", "nonneg",
               "lipschitz_override", "solver")
RANDOM_KEYS = ("input_shape", "kernel_size", "width", "dilation", "padding", "seed")
SERIALIZED_KEYS = ("family", "kernels", "dilation", "input_shape", "padding")


def _number(value, key, command, whole=False, count=False, least=0):
    """A finite JSON number (bools, strings and ints beyond float range are
    not) as a float; ``whole`` asks for a whole number from ``least`` up,
    returned as an int (every whole number a command reads is a count or a
    seed), ``count`` for one up to MAX_COUNT."""
    try:  # strings and lists raise TypeError, an int beyond float range OverflowError
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise ConfigError(f"{command} config key {key!r} must be a finite number, got {value!r}")
    if whole and value != int(value):
        raise ConfigError(f"{command} config key {key!r} must be a whole number, got {value!r}")
    if whole and value < least:
        raise ConfigError(f"{command} config key {key!r} must be at least {least}, got {value!r}")
    if count and value > MAX_COUNT:
        raise ConfigError(
            f"{command} config key {key!r} must be at most {MAX_COUNT}, got {value!r}"
        )
    return int(value) if whole else float(value)


def _shape(value, key, command):
    """A nonempty JSON list of counts from 1 up as a tuple, checked before
    any array of that shape is built."""
    if not (isinstance(value, list) and value):
        raise ConfigError(f"{command} config key {key!r} must be a nonempty list, got {value!r}")
    return tuple(
        _number(v, f"{key}[{i}]", command, whole=True, count=True, least=1)
        for i, v in enumerate(value)
    )


def _taps(value, key, command):
    """A nonempty JSON list, nested to any depth, of finite numbers whose
    entries at each level share one shape, as a float array."""
    if not (isinstance(value, list) and value):
        raise ConfigError(f"{command} config key {key!r} must be a nonempty list, got {value!r}")
    entries = [
        _taps(v, f"{key}[{i}]", command) if isinstance(v, list)
        else _number(v, f"{key}[{i}]", command)
        for i, v in enumerate(value)
    ]
    if len({np.shape(e) for e in entries}) > 1:
        raise ConfigError(f"{command} config key {key!r} must hold entries of one shape")
    return np.array(entries)


def _check_entries(input_shape, kernel_spatial, width, dilation, command, batch=1):
    """Reject a dictionary whose pursuit over ``batch`` signals would build an
    array of more than MAX_DENSE_ENTRIES entries: the signal windows or the
    codes ([I | D]'s at most), or the taps' DFT in ``lmax_bound``, whose grid
    holds the kernel bank too."""
    *spatial, channels = input_shape
    grid = math.prod(d + dilation * (k - 1) for d, k in zip(spatial, kernel_spatial))
    per_signal = math.prod(spatial) * max(math.prod(kernel_spatial) * channels, channels + width)
    entries = max(batch * per_signal, width * channels * grid)
    if entries > MAX_DENSE_ENTRIES:
        raise ConfigError(
            f"{command} config needs an array of {entries} entries (limit {MAX_DENSE_ENTRIES})"
        )


def _random_dictionary(spec, label, command):
    """The seeded random bank of a ``random`` spec (keys RANDOM_KEYS, each
    prefixed by ``label`` in messages): sizes are counts from 1, checked
    before any taps are drawn; arrays are bounded."""
    def count(key, value):
        return _number(value, label + key, command, whole=True, count=True, least=1)

    _check_keys(spec, RANDOM_KEYS, label, command, required=("input_shape", "kernel_size", "width"))
    input_shape = _shape(spec["input_shape"], label + "input_shape", command)
    kernel_size = spec["kernel_size"]
    kernel_spatial = (
        _shape(kernel_size, label + "kernel_size", command) if isinstance(kernel_size, list)
        else (count("kernel_size", kernel_size),)
    )
    width = count("width", spec["width"])
    dilation = count("dilation", spec.get("dilation", 1))
    _check_entries(input_shape, kernel_spatial, width, dilation, command)
    return random_dictionary(
        input_shape,
        kernel_spatial,
        width,
        dilation=dilation,
        padding=spec.get("padding", "valid"),
        seed=_number(spec.get("seed", 0), label + "seed", command, whole=True),
    )


def _dictionary_from_config(doc):
    """A ``random`` spec's bank, or a serialized dictionary (keys
    SERIALIZED_KEYS) read with the same checks."""
    if not isinstance(doc, dict):
        raise ConfigError("pursue config key 'dictionary' must be an object")
    if "random" in doc:
        _check_keys(doc, ("random",), "dictionary.", "pursue")
        return _random_dictionary(doc["random"], "dictionary.random.", "pursue")
    _check_keys(doc, SERIALIZED_KEYS, "dictionary.", "pursue",
                required=("kernels", "dilation", "input_shape"))
    if doc.get("family", "conv") not in ("conv", "msd"):
        raise ConfigError(
            f"pursue config key 'dictionary.family' must be 'conv' or 'msd', got {doc['family']!r}"
        )
    dictionary = dictionary_from_json(dict(
        doc,
        kernels=_taps(doc["kernels"], "dictionary.kernels", "pursue"),
        dilation=_number(doc["dilation"], "dictionary.dilation", "pursue", whole=True, count=True,
                         least=1),
        input_shape=_shape(doc["input_shape"], "dictionary.input_shape", "pursue"),
    ))
    conv = getattr(dictionary, "conv", dictionary)
    _check_entries(conv.input_shape, conv.kernel_spatial, conv.width, conv.dilation, "pursue")
    return dictionary


def _cmd_pursue(args):
    with open(args.config) as fh:
        doc = json.load(fh)
    _check_keys(doc, PURSUE_KEYS, "", "pursue", required=("dictionary", "signal"))
    dictionary = _dictionary_from_config(doc["dictionary"])
    signal_spec = doc["signal"]
    if isinstance(signal_spec, dict):
        _check_keys(signal_spec, ("seed",), "signal.", "pursue")
        seed = _number(signal_spec.get("seed", 0), "signal.seed", "pursue", whole=True)
        signal = np.random.default_rng(seed).standard_normal(dictionary.shape[0])
    elif isinstance(signal_spec, list):
        signal = np.array(
            [_number(v, f"signal[{i}]", "pursue") for i, v in enumerate(signal_spec)]
        )
    else:
        raise ConfigError(
            f"pursue config key 'signal' must be an object or a list, got {signal_spec!r}"
        )
    problem = LassoProblem(dictionary, signal, _number(doc.get("beta", 0.1), "beta", "pursue"))
    nonneg = doc.get("nonneg", False)
    if not isinstance(nonneg, bool):
        raise ConfigError(f"pursue config key 'nonneg' must be true or false, got {nonneg!r}")
    override = doc.get("lipschitz_override")
    config = PursuitConfig(
        iterations=_number(
            doc.get("iterations", 100), "iterations", "pursue", whole=True, count=True
        ),
        tol=_number(doc.get("tol", 1e-12), "tol", "pursue"),
        nonneg=nonneg,
        lipschitz_override=(
            None if override is None else _number(override, "lipschitz_override", "pursue")
        ),
    )
    solver = doc.get("solver", "ista")
    if solver not in ("ista", "fista"):
        raise ConfigError(f"unknown solver {solver!r}; expected 'ista' or 'fista'")
    # the solver checks its iterates and raises DivergenceError itself
    with np.errstate(over="ignore", invalid="ignore"):
        result = (ista if solver == "ista" else fista)(problem, config)
    export_trace_csv(result, args.out)
    print(
        json.dumps(
            {
                "iterations_run": result.iterations_run,
                "final_objective": result.objective_trace[-1],
                "lipschitz": result.lipschitz,
                "trace_csv": args.out,
            }
        )
    )
    return 0


def _check_keys(section, allowed, prefix, command, required=()):
    if not isinstance(section, dict):
        raise ConfigError(f"{command} config {prefix or 'document'} must be an object")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown {command} config key {prefix + key!r}")
    for key in required:
        if key not in section:
            raise ConfigError(f"{command} config key {prefix + key!r} is required")


def _config_section(doc, name, cls=None, **defaults):
    """``doc[name]`` over the fields of ``cls`` and ``defaults``: known keys
    only, none that fig4 sets itself, each value read by ``_number``, as a
    count where the default is an int (seeds: whole only), else a float."""
    if cls is not None:
        defaults.update((f.name, f.default) for f in fields(cls))
    section = doc.get(name, {})
    _check_keys(section, defaults, name + ".", "fig4")
    checked = {}
    for key, value in section.items():
        label = f"{name}.{key}"
        if label in ("learn.beta_schedule", "learn.pursuit_config"):  # fixed by fig4
            raise ConfigError(f"fig4 sets config key {label!r} itself")
        whole = isinstance(defaults[key], int)
        checked[key] = _number(value, label, "fig4", whole=whole, count=whole and key != "seed")
    return checked


def _check_fig4_entries(spec, learn, width, depth, kernel_size):
    """The dataset, and a training batch or probe at the deepest dense layer
    (dilation at most 3), within MAX_DENSE_ENTRIES entries per array."""
    n_train = spec.n_classes * spec.train_per_class
    if (n_train + spec.test_total + spec.n_classes) * spec.dim > MAX_DENSE_ENTRIES:
        raise ConfigError(f"fig4 config needs a dataset of more than {MAX_DENSE_ENTRIES} entries")
    batch = max(min(learn.batch_size, n_train), min(learn.probe_size, spec.test_total))
    channels = 1 + (depth - 1) * width
    _check_entries((spec.dim, channels), (kernel_size,), width, 3, "fig4", batch)


def _cmd_fig4(args):
    doc = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
    _check_keys(doc, ("dataset", "learn", "model"), "", "fig4")
    dataset_doc = _config_section(doc, "dataset", SyntheticDatasetSpec)
    iterations = 20  # pursuit depth unless learn.pursuit_iterations sets it
    learn_doc = _config_section(doc, "learn", LearnConfig, pursuit_iterations=iterations)
    model = dict(width=16, depth=2, kernel_size=3)
    model.update(_config_section(doc, "model", **model))
    iterations = learn_doc.pop("pursuit_iterations", iterations)
    learn_config = LearnConfig(
        pursuit_config=PursuitConfig(iterations=iterations, nonneg=True),
        **learn_doc,
    )
    spec = SyntheticDatasetSpec(**dataset_doc)
    _check_fig4_entries(spec, learn_config, **model)
    # training checks its kernels and pursuits and raises DivergenceError itself
    with np.errstate(over="ignore", invalid="ignore"):
        rows = reconstruction_experiment(dataset_spec=spec, learn_config=learn_config, **model)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "fig4.csv")
    write_experiment_csv(rows, out_path)
    print(json.dumps({"rows": len(rows), "csv": out_path}))
    return 0


def _flag_number(text):
    """A command-line entry as the int or float it spells, else the text."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _cmd_unfold_sweep(args):
    seed = _number(args.seed, "seed", "unfold-sweep", whole=True)
    unfoldings = tuple(
        _number(_flag_number(u), "unfolding", "unfold-sweep", whole=True, count=True)
        for u in args.unfolding.split(",")
    )
    rows, _ = unfold_sweep(unfoldings=unfoldings, solver=args.solver, seed=seed)
    write_sweep_csv(rows, args.out)
    print(json.dumps({"rows": len(rows), "csv": args.out}))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cscbench",
        description="Convolutional sparse coding workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run every theory check, print a JSON summary")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("coherence", help="mutual coherence of a seeded kernel bank")
    p.add_argument("--kernel-size", required=True, help="e.g. 2x2 or 3")
    p.add_argument("--dilation", type=int, default=1)
    p.add_argument("--input-shape", required=True, help="e.g. 4x4 or 100")
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--width", type=int, default=1)
    p.add_argument("--padding", choices=["valid", "same"], default="valid")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_coherence)

    p = sub.add_parser("pursue", help="solve one Lasso instance, emit a trace CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="trace.csv")
    p.set_defaults(func=_cmd_pursue)

    p = sub.add_parser("fig4", help="dense-vs-plain reconstruction experiment")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_fig4)

    p = sub.add_parser("unfold-sweep", help="objective/accuracy across unfolding")
    p.add_argument("--unfolding", default="0,1,2")
    p.add_argument("--solver", choices=["ista", "fista"], default="ista")
    p.add_argument("--out", default="unfold_sweep.csv")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_unfold_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except (OSError, KeyError, ValueError, CscbenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
