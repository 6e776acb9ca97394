"""The tracer sees calls through every namespace, computes self time from
child spans, counts matvecs, and restores the program when uninstalled."""

import numpy as np

import tracer
from cscbench import analysis, learning, numeric, pursuit
from cscbench import dictionary as dct


def test_install_reaches_imported_names_and_uninstall_restores():
    originals = (dct.to_matrix, learning.to_matrix, analysis.to_matrix,
                 dct.ConvDictionary.__dict__["apply_array"])
    t = tracer.Tracer(signal_len=6)
    t.install()
    try:
        assert learning.to_matrix is analysis.to_matrix is dct.to_matrix
        assert dct.to_matrix is not originals[0]
        t.op = 0
        bank = dct.random_dictionary((6, 1), (2,), 2, padding="same", seed=0)
        dct.mutual_coherence(bank)  # calls to_matrix inside the dictionary module
        learning.to_matrix(dct.MSDDictionary(
            dct.random_dictionary((6, 3), (2,), 2, padding="same", seed=1)))
    finally:
        t.uninstall()
    assert (dct.to_matrix, learning.to_matrix, analysis.to_matrix,
            dct.ConvDictionary.__dict__["apply_array"]) == originals
    names = [s[tracer.NAME] for s in t.spans]
    assert names == ["dictionary.mutual_coherence", "dictionary.to_matrix",
                     "dictionary.to_matrix"]
    coherence = t.spans[0]
    assert t.spans[1][tracer.PARENT] == 0 and coherence[tracer.PARENT] is None
    assert t.spans[2][tracer.PARENT] is None
    row = t.per_op()[0]
    assert row["dictionary.to_matrix.calls"] == 2
    assert row["dictionary.to_matrix.l1.self_s"] > 0 and row["dictionary.to_matrix.l2.self_s"] > 0
    assert row["dictionary.to_matrix.mb"] == (6 * 12 + 18 * 30) * 8 / 1e6
    own = coherence[tracer.END] - coherence[tracer.START]
    child = t.spans[1][tracer.END] - t.spans[1][tracer.START]
    assert np.isclose(row["dictionary.mutual_coherence.self_s"], own - child)


def test_spectral_lmax_matvecs_and_layer_tags():
    bank = dct.random_dictionary((12, 2), (3,), 2, dilation=2, padding="same", seed=1)
    calls = []
    gram = pursuit.gram_operator(bank)
    numeric.spectral_lmax(lambda v: calls.append(1) or gram(v), bank.cols, tol=1e-12)
    t = tracer.Tracer(signal_len=12)
    t.install()
    try:
        t.op = 3
        pursuit.lipschitz_constant(bank)
    finally:
        t.uninstall()
    row = t.per_op()[3]
    assert row["numeric.spectral_lmax.matvecs"] == len(calls)
    # matvecs belong to the power iteration: no dictionary spans inside it
    assert row["dictionary.apply.calls"] == row["dictionary.apply_array.calls"] == 0
    assert [s[tracer.NAME] for s in t.spans] == ["pursuit.lipschitz_constant",
                                                 "numeric.spectral_lmax"]
    assert row["numeric.spectral_lmax.l2.self_s"] > 0
    assert row["numeric.spectral_lmax.l1.self_s"] == 0
    # a dense operand is layer 1 when its rows are the signal length
    assert t._layer_of(lambda v, m=None: v) is None
    block = np.ones((12, 24))
    assert t._layer_of(lambda v: block.T @ (block @ v)) == "l1"
    assert t._layer_of(lambda v: block.T @ block @ v[:24]) == "l1"
    assert tracer.Tracer(signal_len=100)._layer_of(lambda v: block @ v) == "l2"


def test_metrics_fall_back_to_setup_ops():
    t = tracer.Tracer()
    t.spans.extend([("data.generate_dataset", 0.0, 2.0, None, ("setup", 0), None, None),
                    ("data.generate_dataset", 0.0, 4.0, None, ("setup", 1), None, None),
                    ("data.classify", 0.0, 1.0, None, 0, None, None)])
    out = t.metrics([[0]], [[("setup", 0)], [("setup", 1)]])
    assert set(out) == set(tracer.METRICS)
    assert out["data.generate_dataset.self_s"]["value"] == 3.0
    assert out["data.classify.self_s"]["value"] == 1.0
    assert out["pursuit.ista.self_s"]["value"] == 0.0


def test_metrics_sum_each_round_before_the_median():
    # rounds of an ISTA and a FISTA op: no median over a mix of op kinds
    t = tracer.Tracer()
    t.spans.extend([("pursuit.ista", 0.0, 1.0, None, 0, None, 200),
                    ("pursuit.fista", 0.0, 3.0, None, 1, None, 200),
                    ("pursuit.ista", 0.0, 2.0, None, 2, None, 200),
                    ("pursuit.fista", 0.0, 4.0, None, 3, None, 200),
                    ("pursuit.ista", 0.0, 9.0, None, 4, None, None)])
    out = t.metrics([[0, 1], [2, 3]], [])  # op 4 failed: in no round
    assert out["pursuit.ista.self_s"]["value"] == 1.5
    assert out["pursuit.fista.self_s"]["value"] == 3.5
    assert out["pursuit.iterations"]["value"] == 400
