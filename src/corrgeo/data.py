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


def _draw_channel(base, n, spread, rng):
    """One sample channel: bumps of ``base`` until one clears MIN_EIG_FLOOR
    (after SAMPLE_RETRIES draws the last is kept)."""
    for _retry in range(SAMPLE_RETRIES):
        bump = spread * dom.random_hollow(n, rng)
        cand = geo.from_prototype("olm", base + bump)
        if np.linalg.eigvalsh(cand).min() >= MIN_EIG_FLOOR:
            break
    return cand


def generate(classes, per_class, n, channels, spread, separation, seed):
    """Returns (samples, labels) with samples of shape (classes*per_class, channels, n, n).

    Each (sample, channel) draws its bumps from one generator, in order, until
    one clears the eigenvalue floor.  The first bump of each is drawn ahead
    and solved in chunks of GENERATE_CHUNK.  From the first one that fails the
    floor (or the first chunk that raises) on, the rest are drawn one by one
    from the generator rewound and replayed up to that draw, so retries and
    errors are those of that loop.
    """
    rng = np.random.default_rng(seed)
    anchors = draw_anchors(classes, channels, n, separation, rng)
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    protos = np.array([[geo.to_prototype("olm", a) for a in anchor] for anchor in anchors])
    # class and channel of each draw, in draw order
    cls, ch = np.repeat(labels, channels), np.tile(np.arange(channels), len(labels))
    state = rng.bit_generator.state
    samples = np.empty((len(cls), n, n))
    redo = len(cls)
    for start in range(0, len(cls), GENERATE_CHUNK):
        stop = min(start + GENERATE_CHUNK, len(cls))
        bumps = np.array([spread * dom.random_hollow(n, rng) for _ in range(start, stop)])
        try:
            cand = geo.from_prototype("olm", protos[cls[start:stop], ch[start:stop]] + bumps)
        except CorrGeoError:
            redo = start
            break
        samples[start:stop] = cand
        low = np.flatnonzero(np.linalg.eigvalsh(cand).min(axis=-1) < MIN_EIG_FLOOR)
        if low.size:
            redo = start + int(low[0])
            break
    if redo < len(cls):
        rng.bit_generator.state = state
        for _ in range(redo):  # replay the draws that stand
            dom.random_hollow(n, rng)
        for k in range(redo, len(cls)):
            samples[k] = _draw_channel(protos[cls[k], ch[k]], n, spread, rng)
    return samples.reshape(len(labels), channels, n, n), labels


def save_dataset(out_dir, samples, labels):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
