"""Synthetic dataset generator and nearest-centroid classifier."""

import numpy as np
import pytest

from cscbench.data import (
    SyntheticDataset,
    SyntheticDatasetSpec,
    add_class_sums,
    centroid_hits,
    class_centroids,
    classify,
    generate_dataset,
)
from cscbench.errors import DegenerateClassError, ShapeError


def small_spec(**overrides):
    base = dict(
        n_classes=7, dim=5, train_per_class=4, test_total=16, noise_sigma=0.2, seed=3
    )
    base.update(overrides)
    return SyntheticDatasetSpec(**base)


def test_default_shapes():
    data = generate_dataset(SyntheticDatasetSpec())
    assert data.centers.shape == (100, 100)
    assert data.train_signals.shape == (10000, 100)
    assert data.train_labels.shape == (10000,)
    assert data.test_signals.shape == (2000, 100)
    assert data.test_labels.shape == (2000,)


def test_generation_is_deterministic():
    a = generate_dataset(small_spec())
    b = generate_dataset(small_spec())
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.train_signals, b.train_signals)
    assert np.array_equal(a.test_signals, b.test_signals)
    c = generate_dataset(small_spec(seed=4))
    assert not np.array_equal(a.centers, c.centers)


def test_test_split_is_stratified_with_remainder_on_low_labels():
    # 16 test samples over 7 classes: 2 each, plus 1 extra for classes 0 and 1
    data = generate_dataset(small_spec())
    counts = np.bincount(data.test_labels, minlength=7)
    assert counts.tolist() == [3, 3, 2, 2, 2, 2, 2]
    assert np.bincount(data.train_labels, minlength=7).tolist() == [4] * 7


def test_zero_noise_reproduces_centers():
    data = generate_dataset(small_spec(noise_sigma=0.0))
    assert np.array_equal(data.train_signals, data.centers[data.train_labels])
    assert np.array_equal(data.test_signals, data.centers[data.test_labels])


def test_centers_bounded_by_scale():
    data = generate_dataset(small_spec(center_scale=0.5))
    assert np.max(np.abs(data.centers)) <= 0.5


def test_spec_validation():
    with pytest.raises(ShapeError):
        SyntheticDatasetSpec(n_classes=0)
    for field in ("noise_sigma", "center_scale"):
        for value in (-0.1, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ShapeError, match=field):
                SyntheticDatasetSpec(**{field: value})


def test_classify_trivial_separable():
    train = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    labels = np.array([0, 0, 1, 1])
    test = np.array([[0.05, 0.01], [4.9, 5.2]])
    assert classify(train, labels, test, np.array([0, 1])) == 1.0
    assert classify(train, labels, test, np.array([1, 0])) == 0.0


def test_classify_degenerate_class_error():
    train = np.zeros((2, 3))
    with pytest.raises(DegenerateClassError):
        classify(train, np.array([0, 0]), np.zeros((1, 3)), np.array([1]))


def test_classify_label_count_validation():
    with pytest.raises(ShapeError):
        classify(np.zeros((2, 3)), np.array([0]), np.zeros((1, 3)), np.array([0]))
    with pytest.raises(ShapeError):
        classify(np.zeros((2, 3)), np.array([0, 1]), np.zeros((2, 3)), np.array([0]))
    with pytest.raises(ShapeError):  # no test codes: no accuracy
        classify(np.zeros((2, 3)), np.array([0, 1]), np.zeros((0, 3)), np.array([], dtype=int))


def test_streamed_centroids_are_classify_bit_for_bit(rng):
    # 7 classes x 4 training codes, shuffled, in blocks of 5: class runs
    # straddle block boundaries; 16 test codes in blocks of 5, 5, 5 and 1
    data = generate_dataset(small_spec(noise_sigma=1.0))
    values = np.array([2, 5, 6, 9, 11, 13, 20])  # labels that are not row indices
    train, test = rng.permutation(28), rng.permutation(16)
    train_codes, train_labels = data.train_signals[train], values[data.train_labels[train]]
    test_codes, test_labels = data.test_signals[test], values[data.test_labels[test]]
    classes = np.unique(np.concatenate([train_labels, test_labels]))
    indices = np.searchsorted(classes, train_labels)
    sums = np.zeros((7, 5))
    for i in range(0, 28, 5):
        add_class_sums(sums, train_codes[i : i + 5], indices[i : i + 5])
    centroids = class_centroids(sums, indices, classes)
    for centroid, cls in zip(centroids, classes):
        assert np.array_equal(centroid, train_codes[train_labels == cls].mean(axis=0))
    hits = sum(centroid_hits(centroids, classes, test_codes[i : i + 5], test_labels[i : i + 5])
               for i in range(0, 16, 5))
    assert 0 < hits < 16
    assert hits / 16 == classify(train_codes, train_labels, test_codes, test_labels)
    # a class with test codes alone has no centroid
    classes = np.append(classes, 21)
    with pytest.raises(DegenerateClassError, match="class 21"):
        class_centroids(np.zeros((8, 5)), indices, classes)


def test_classify_shuffled_labels_near_chance(rng):
    # with labels detached from the signals, accuracy concentrates at 1/k
    spec = small_spec(n_classes=4, train_per_class=50, test_total=400, seed=1)
    data = generate_dataset(spec)
    shuffled = rng.permutation(data.test_labels)
    accuracy = classify(
        data.train_signals, data.train_labels, data.test_signals, shuffled
    )
    # binomial(400, 1/4): mean 0.25, sd ~ 0.0217; allow 5 sigma
    assert abs(accuracy - 0.25) < 5 * np.sqrt(0.25 * 0.75 / 400)


def test_classify_recovers_well_separated_clusters():
    data = generate_dataset(small_spec(noise_sigma=0.05, center_scale=2.0))
    accuracy = classify(
        data.train_signals, data.train_labels, data.test_signals, data.test_labels
    )
    assert accuracy == 1.0


def test_dataset_dataclass_fields():
    data = generate_dataset(small_spec())
    assert isinstance(data, SyntheticDataset)
    assert data.train_labels.dtype.kind in "iu"


@pytest.mark.parametrize("spec", [
    SyntheticDatasetSpec(),
    SyntheticDatasetSpec(n_classes=20, dim=50, train_per_class=10, test_total=100),  # the sweep's
    small_spec(),  # 16 test samples over 7 classes
    small_spec(n_classes=1),
    small_spec(train_per_class=1, test_total=3),  # classes 3-6 have no test samples
])
def test_samples_keep_the_bits_of_centers_plus_scaled_noise(spec):
    rng = np.random.default_rng(spec.seed)
    centers = rng.uniform(-spec.center_scale, spec.center_scale, (spec.n_classes, spec.dim))
    data = generate_dataset(spec)
    for labels, signals in ((data.train_labels, data.train_signals),
                            (data.test_labels, data.test_signals)):
        noise = rng.standard_normal((labels.size, spec.dim))
        assert np.array_equal(signals, centers[labels] + spec.noise_sigma * noise)
