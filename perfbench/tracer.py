"""Span tracing of cscbench's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
``cscbench`` module namespace that holds it, so calls made through names
imported with ``from .x import f`` are seen too; two ``ConvDictionary``
methods are wrapped on the class. Each call records one span (name, start,
end, parent span, op id) in memory; ``uninstall`` puts the originals back.
A span's self time is its duration minus the time its child spans cover.
Calls made by the operator handed to ``spectral_lmax`` are its matvecs:
they are counted, not traced, so its self time is the whole power
iteration and the dictionary metrics count only the other calls.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time

# (defining module, function name); the span is named "<module>.<function>"
FUNCTIONS = [
    ("learning", "learn_dictionaries"),
    ("dictionary", "to_matrix"),
    ("dictionary", "project_to_kernel_grad"),
    ("dictionary", "apply"),
    ("dictionary", "apply_adjoint"),
    ("dictionary", "mutual_coherence"),
    ("numeric", "spectral_lmax"),
    ("numeric", "symmetric_eigs"),
    ("pursuit", "lipschitz_constant"),
    ("pursuit", "lasso_objective"),
    ("pursuit", "ista"),
    ("pursuit", "fista"),
    ("models", "msdcsc_layer_forward"),
    ("data", "classify"),
    ("data", "generate_dataset"),
    ("analysis", "check_lemma3"),
    ("analysis", "check_lipschitz_shift"),
    ("analysis", "check_theorem1"),
    ("analysis", "check_proposition1"),
    ("analysis", "check_lemma2"),
    ("analysis", "check_dilation_coherence"),
]
METHODS = [("dictionary", "ConvDictionary", "apply_array"),
           ("dictionary", "ConvDictionary", "adjoint_array")]

CHECKS = [name for module, name in FUNCTIONS if module == "analysis"]

# per-layer metrics, in BENCHMARK.json order: name -> unit
METRICS = {
    "learning.learn_dictionaries.self_s": "s",
    "dictionary.to_matrix.l1.self_s": "s",
    "dictionary.to_matrix.l2.self_s": "s",
    "dictionary.to_matrix.calls": "count",
    "dictionary.to_matrix.mb": "MB",
    "dictionary.project_to_kernel_grad.self_s": "s",
    "numeric.spectral_lmax.l1.self_s": "s",
    "numeric.spectral_lmax.l2.self_s": "s",
    "numeric.spectral_lmax.matvecs": "count",
    "pursuit.lipschitz_constant.self_s": "s",
    "models.msdcsc_layer_forward.self_s": "s",
    "models.msdcsc_layer_forward.calls": "count",
    "dictionary.apply_array.self_s": "s",
    "dictionary.apply_array.calls": "count",
    "dictionary.adjoint_array.self_s": "s",
    "dictionary.adjoint_array.calls": "count",
    "pursuit.lasso_objective.self_s": "s",
    "pursuit.lasso_objective.calls": "count",
    "data.classify.self_s": "s",
    "pursuit.ista.self_s": "s",
    "pursuit.fista.self_s": "s",
    "pursuit.iterations": "count",
    "dictionary.apply.self_s": "s",
    "dictionary.apply.calls": "count",
    "dictionary.apply_adjoint.self_s": "s",
    "dictionary.apply_adjoint.calls": "count",
    **{f"analysis.{name}.s": "s" for name in CHECKS},
    "numeric.symmetric_eigs.self_s": "s",
    "dictionary.mutual_coherence.self_s": "s",
    "data.generate_dataset.self_s": "s",
}

# span fields
NAME, START, END, PARENT, OP, TAG, VALUE = range(7)


class Tracer:
    """Records spans for calls into cscbench while installed.

    ``signal_len`` is the length of the workload's single-channel input
    signals: a dense operand with that many rows belongs to layer 1.
    ``op`` is the id stamped on new spans; the runner sets it per op.
    """

    def __init__(self, signal_len=None):
        self.signal_len = signal_len
        self.spans = []
        self.op = None
        self._stack = []
        self._restore = []
        self._paused = 0

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cscbench" or n.startswith("cscbench.")]
        for module, name in FUNCTIONS:
            original = getattr(sys.modules[f"cscbench.{module}"], name)
            wrapper = self._wrap(original, f"{module}.{name}")
            for mod in modules:
                if getattr(mod, name, None) is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapper)
        for module, cls_name, name in METHODS:
            cls = getattr(sys.modules[f"cscbench.{module}"], cls_name)
            original = cls.__dict__[name]
            self._restore.append((cls, name, original))
            setattr(cls, name, self._wrap(original, f"{module}.{name}"))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []

    def _wrap(self, fn, span_name):
        spans, stack = self.spans, self._stack
        layer_of = self._layer_of
        short = span_name.rsplit(".", 1)[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            tag = value = None
            counter = None
            if short == "to_matrix":
                tag = layer_of(args[0])
            elif short == "spectral_lmax":
                tag = layer_of(args[0])
                counter = [0]
                args = (self._counting(args[0], counter),) + args[1:]
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if counter is not None:
                    value = counter[0]
                spans[sid] = (span_name, start, end, parent, self.op, tag, value)
            if short == "to_matrix":
                spans[sid] = spans[sid][:VALUE] + (result.nbytes,)
            elif short in ("ista", "fista"):
                spans[sid] = spans[sid][:VALUE] + (result.iterations_run,)
            return result

        return wrapper

    def _layer_of(self, operand):
        """'l1' for an operand acting on single-channel signals, else 'l2'.

        A callable operand (a Gram closure) is resolved to the dictionary
        or matrix it closes over.
        """
        target = operand
        if callable(operand) and not hasattr(operand, "shape"):
            cells = getattr(operand, "__closure__", None) or ()
            found = [c.cell_contents for c in cells if hasattr(c.cell_contents, "shape")]
            target = found[0] if found else operand
        bank = getattr(target, "conv", target)
        if hasattr(bank, "input_shape"):
            return "l1" if bank.input_shape[-1] == 1 else "l2"
        shape = getattr(target, "shape", None)
        if shape is not None and len(shape) == 2:
            return "l1" if shape[0] == self.signal_len else "l2"
        return None

    def _counting(self, op, counter):
        """spectral_lmax's operator as a callable that counts its matvecs
        and traces nothing inside them."""
        if callable(op):
            matvec = op
        elif hasattr(op, "apply"):
            matvec = op.apply
        else:
            return op  # a dense matrix: spectral_lmax validates and applies it

        def counted(v):
            counter[0] += 1
            self._paused += 1
            try:
                return matvec(v)
            finally:
                self._paused -= 1

        return counted

    # -- analysis -----------------------------------------------------------

    def per_op(self):
        """{op id: {metric: value}} over every metric in METRICS."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child[span[PARENT]] += span[END] - span[START]
        table = {}
        for sid, span in enumerate(self.spans):
            if span[OP] is None:
                continue
            row = table.setdefault(span[OP], dict.fromkeys(METRICS, 0.0))
            name, duration = span[NAME], span[END] - span[START]
            self_s = duration - child[sid]
            if name.startswith("analysis."):
                row[f"{name}.s"] += duration
                continue
            keyed = f"{name}.{span[TAG]}.self_s" if span[TAG] else f"{name}.self_s"
            if keyed in row:
                row[keyed] += self_s
            if f"{name}.self_s" in row and keyed != f"{name}.self_s":
                row[f"{name}.self_s"] += self_s
            if f"{name}.calls" in row:
                row[f"{name}.calls"] += 1
            if name == "dictionary.to_matrix":
                row["dictionary.to_matrix.mb"] += (span[VALUE] or 0) / 1e6
            elif name == "numeric.spectral_lmax":
                row["numeric.spectral_lmax.matvecs"] += span[VALUE]
            elif name in ("pursuit.ista", "pursuit.fista"):
                row["pursuit.iterations"] += span[VALUE] or 0  # None if it raised
        return table

    def metrics(self, timed_groups, setup_groups):
        """Medians over groups of op ids, a group's value being the sum over
        its ops: over the timed groups (rounds) where the layer is called
        there, otherwise over the set-ups."""
        table = self.per_op()
        empty = dict.fromkeys(METRICS, 0.0)

        def totals(groups, name):
            return [sum(table.get(op, empty)[name] for op in group) for group in groups]

        out = {}
        for name, unit in METRICS.items():
            values = totals(timed_groups, name)
            if not any(values):
                values = totals(setup_groups, name) or values
            out[name] = {"value": statistics.median(values), "unit": unit}
        return out

    def write(self, path):
        """All spans as gzip'd CSV: id,name,tag,start,end,parent,op,value."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,tag,start,end,parent,op,value\n")
            for sid, s in enumerate(self.spans):
                fh.write(f"{sid},{s[NAME]},{s[TAG] or ''},{s[START]:.9f},{s[END]:.9f},"
                         f"{'' if s[PARENT] is None else s[PARENT]},"
                         f"{'' if s[OP] is None else s[OP]},{'' if s[VALUE] is None else s[VALUE]}\n")
