"""Synthetic labeled correlation datasets.

Classes are anchored at random correlation matrices kept at a minimum
pairwise distance under the off-log geometry; every sample perturbs its
class anchor in the off-log prototype space with a Gaussian tangent bump of
scale ``spread``.  The generating geometry is fixed (off-log) regardless of
the metric later trained, so no metric is favored by construction.
"""

from pathlib import Path

import numpy as np

from . import domain as dom
from . import geometry as geo
from . import io
from .errors import CorrGeoError, InfeasibleSeparation, IoError

ANCHOR_ATTEMPTS = 1000
# log-spectrum of a random anchor grows like sqrt(n); keep it bounded so
# anchors and their perturbations stay clear of the elliptope boundary
MIN_EIG_FLOOR = 1e-8
SAMPLE_RETRIES = 50


def anchor_spread(n):
    return 2.0 / np.sqrt(n)


def _product_dist(a, b):
    """Distance between multi-channel anchors: product off-log metric."""
    total = 0.0
    for x, y in zip(a, b):
        total += geo.riem_dist("olm", x, y) ** 2
    return np.sqrt(total)


def draw_anchors(classes, channels, n, separation, rng):
    """Greedy rejection sampling of per-class anchor tuples."""
    anchors = []
    attempts = 0
    while len(anchors) < classes:
        if attempts >= ANCHOR_ATTEMPTS:
            raise InfeasibleSeparation(
                f"could not place {classes} anchors at distance {separation} "
                f"within {ANCHOR_ATTEMPTS} draws"
            )
        attempts += 1
        cand = [dom.random_correlation(n, anchor_spread(n), rng) for _ in range(channels)]
        if any(np.linalg.eigvalsh(c).min() < MIN_EIG_FLOOR for c in cand):
            continue
        if all(_product_dist(cand, a) >= separation for a in anchors):
            anchors.append(cand)
    return anchors


def generate(classes, per_class, n, channels, spread, separation, seed):
    """Returns (samples, labels) with samples of shape (classes*per_class, channels, n, n)."""
    rng = np.random.default_rng(seed)
    anchors = draw_anchors(classes, channels, n, separation, rng)
    count = classes * per_class
    samples = np.empty((count, channels, n, n))
    labels = np.empty(count, dtype=np.int64)
    idx = 0
    for cls, anchor in enumerate(anchors):
        base = [geo.to_prototype("olm", a) for a in anchor]
        for _ in range(per_class):
            for ch in range(channels):
                for _retry in range(SAMPLE_RETRIES):
                    bump = spread * dom.random_hollow(n, rng)
                    cand = geo.from_prototype("olm", base[ch] + bump)
                    if np.linalg.eigvalsh(cand).min() >= MIN_EIG_FLOOR:
                        break
                samples[idx, ch] = cand
            labels[idx] = cls
            idx += 1
    return samples, labels


def save_dataset(out_dir, samples, labels):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    io.write_tensor(out / "samples.cort", samples)
    io.write_labels(out / "labels.corl", labels)


def load_dataset(data_dir):
    """Read (samples, labels); a sample that is not a correlation matrix is an IoError
    naming its index (sample, channel)."""
    data = Path(data_dir)
    samples = io.read_tensor(data / "samples.cort")
    labels = io.read_labels(data / "labels.corl")
    try:
        dom.validate_correlation(samples)
    except CorrGeoError as e:
        raise IoError(f"{data / 'samples.cort'}: {e}") from e
    return samples, labels
