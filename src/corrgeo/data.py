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
# olm inverse solves per batch in generate; 64 keeps the dplus temporaries small
GENERATE_CHUNK = 64


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
    """Returns (samples, labels) with samples of shape (classes*per_class, channels, n, n).

    Each round draws one bump for every (sample, channel) still pending, in
    draw order, solves their olm inverses in chunks of GENERATE_CHUNK and
    keeps the draws that clear the eigenvalue floor; the rest are pending in
    the next round.  After SAMPLE_RETRIES rounds the last draws are kept.
    """
    rng = np.random.default_rng(seed)
    anchors = draw_anchors(classes, channels, n, separation, rng)
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    protos = np.array([[geo.to_prototype("olm", a) for a in anchor] for anchor in anchors])
    # the anchor prototype of each draw, in draw order
    base = protos[np.repeat(labels, channels), np.tile(np.arange(channels), len(labels))]
    samples = np.empty(base.shape)
    pending = np.arange(len(base))
    for _round in range(SAMPLE_RETRIES):
        for start in range(0, len(pending), GENERATE_CHUNK):
            idx = pending[start : start + GENERATE_CHUNK]
            bumps = np.array([spread * dom.random_hollow(n, rng) for _ in idx])
            samples[idx] = geo.from_prototype("olm", base[idx] + bumps)
        pending = pending[np.linalg.eigvalsh(samples[pending]).min(axis=-1) < MIN_EIG_FLOOR]
        if not pending.size:
            break
    return samples.reshape(len(labels), channels, n, n), labels


def save_dataset(out_dir, samples, labels):
    out = io.make_dir(out_dir)
    io.write_tensor(out / "samples.cort", samples)
    io.write_labels(out / "labels.corl", labels)


def load_dataset(data_dir):
    """Read (samples, labels); a sample that is not a correlation matrix, or a label
    count that differs from the sample count, is an IoError."""
    data = Path(data_dir)
    samples = io.read_tensor(data / "samples.cort")
    labels = io.read_labels(data / "labels.corl")
    if len(labels) != len(samples):
        raise IoError(f"{data / 'labels.corl'}: {len(labels)} labels for {len(samples)} samples")
    try:
        dom.validate_correlation(samples)
    except CorrGeoError as e:
        raise IoError(f"{data / 'samples.cort'}: {e}") from e
    return samples, labels
