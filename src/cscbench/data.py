"""Synthetic Gaussian-cluster signals and a nearest-centroid head."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateClassError, ShapeError


@dataclass
class SyntheticDatasetSpec:
    n_classes: int = 100
    dim: int = 100
    train_per_class: int = 100
    test_total: int = 2000
    noise_sigma: float = 0.3
    center_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if min(self.n_classes, self.dim, self.train_per_class, self.test_total) < 1:
            raise ShapeError("all dataset counts must be positive")
        for name in ("noise_sigma", "center_scale"):
            if not 0 <= getattr(self, name) < np.inf:  # written so that NaN fails it
                raise ShapeError(f"{name} must be finite and nonnegative")


@dataclass
class SyntheticDataset:
    centers: np.ndarray
    train_signals: np.ndarray
    train_labels: np.ndarray
    test_signals: np.ndarray
    test_labels: np.ndarray


def generate_dataset(spec):
    """Class centers from a seeded uniform cube; samples = center + noise.

    Deterministic given the seed; the test split is stratified as evenly
    as possible across classes (remainder goes to the lowest labels).
    """
    rng = np.random.default_rng(spec.seed)
    centers = rng.uniform(
        -spec.center_scale, spec.center_scale, size=(spec.n_classes, spec.dim)
    )
    per_class = spec.test_total // spec.n_classes
    remainder = spec.test_total - per_class * spec.n_classes
    test_counts = np.full(spec.n_classes, per_class)
    test_counts[:remainder] += 1
    splits = []
    for counts in (np.full(spec.n_classes, spec.train_per_class), test_counts):
        # centers[labels] + sigma * noise, the same bits formed in the noise
        # array: scaled in place, then each class's rows offset by its center
        samples = rng.standard_normal((counts.sum(), spec.dim))
        samples *= spec.noise_sigma
        for center, rows in zip(centers, np.split(samples, np.cumsum(counts)[:-1])):
            rows += center
        splits.append((np.repeat(np.arange(spec.n_classes), counts), samples))
    (train_labels, train_signals), (test_labels, test_signals) = splits
    return SyntheticDataset(
        centers=centers,
        train_signals=train_signals,
        train_labels=train_labels,
        test_signals=test_signals,
        test_labels=test_labels,
    )


def add_class_sums(sums, codes, indices):
    """Add a block of codes (B, F) with class indices ``indices`` into running
    class sums (C, F), row by row in sample order: the row-sequential sum
    that ``members.mean(axis=0)`` forms for F > 1 (numpy sums one column
    pairwise), however blocks cut a class, and faster than ``np.add.at``."""
    for k, row in zip(indices.tolist(), codes):
        sums[k] += row


def class_centroids(sums, indices, classes):
    """Centroids from ``add_class_sums`` over all training codes' ``indices``."""
    counts = np.bincount(indices, minlength=len(classes))
    if not counts.all():
        raise DegenerateClassError(f"class {classes[counts == 0][0]} has no training samples")
    return sums / counts[:, None]


def centroid_hits(centroids, classes, codes, labels):
    """How many of a block of test codes lie nearest their own class's centroid."""
    distances = (np.sum(codes**2, axis=1)[:, None] - 2.0 * codes @ centroids.T
                 + np.sum(centroids**2, axis=1)[None, :])
    return int(np.sum(classes[np.argmin(distances, axis=1)] == labels))


def classify(train_codes, train_labels, test_codes, test_labels):
    """Nearest-class-centroid accuracy in code space, each split one block."""
    train_codes = np.asarray(train_codes, dtype=float)
    test_codes = np.asarray(test_codes, dtype=float)
    train_labels = np.asarray(train_labels)
    test_labels = np.asarray(test_labels)
    if train_codes.shape[0] != train_labels.shape[0]:
        raise ShapeError("one label per training code required")
    if not test_codes.shape[0] == test_labels.shape[0] > 0:
        raise ShapeError("one label per test code, and at least one test code, required")
    classes = np.unique(np.concatenate([train_labels, test_labels]))
    indices = np.searchsorted(classes, train_labels)
    sums = np.zeros((classes.size, train_codes.shape[1]))
    add_class_sums(sums, train_codes, indices)
    hits = centroid_hits(class_centroids(sums, indices, classes), classes, test_codes, test_labels)
    return hits / len(test_labels)
