#!/usr/bin/env python3
"""corrgeo benchmark: training, inference and geometry throughput per geometry.

    python3 perfbench/run.py --workload train8 --seed 1 --seconds 40 --trace 0

Workloads (closed loop, one process, one client; every input comes from
``--seed``; BENCHMARK.json says why each exists):

* ``train8``  criterion-8 training through ``corrgeo.train.train``;
* ``infer30`` forward-only FC(30->20) + MLR(10 classes) on batches of 32;
* ``geom30``  riem_log, riem_exp, geodesic, frechet_mean and riem_dist on
  batches of 16 pairs of 30x30 matrices (phcm: phcm_dist).

A run measures in rounds until ``--seconds`` have passed, with at least
two rounds.  Each round runs every geometry's fixed list of unit calls,
interleaving the geometries and rotating which one goes first; a geometry
whose unit is short runs it several times a round (``repeats``).  Set-up is
timed at least three times (train8 sets up each of its datasets on its own,
the others set up again after the first rounds), counts against
``--seconds``, and ``setup_s`` is the median.

Times are scaled to a reference host speed.  On a shared 2-vCPU Xeon host,
load from outside the process slows everything in it by 1.4-2x, in stretches
from a fraction of a second to minutes (a train8 set-up took 1.9 s in one
run and 3.5 s in the next; thread CPU time grows with wall time, so it is not
steal).  So that the figures of one commit agree from run to run, a fixed
probe of interpreter, small-matrix numpy and LAPACK work (``HostProbe``) runs
between timed pieces, outside them, whenever PROBE_EVERY_S has passed since
the last probe, and each piece's time is multiplied by PROBE_REF_S over the
probe time at that moment.  Over ten runs of one commit (seeds 101-110) this
took the spread of samples_per_s (quartile distance over median) from 10-32%
to 1-6%, that of train8 ecm from 32% to 3%.  The unscaled figures are printed
beside the result.  A unit call does the same work every time, so each piece
of it (a step, an epoch's evaluation, a batch) is timed by the median of its
scaled repeats, and the unit's time is the sum of its pieces.

``--trace 1`` runs the rounds alternately untraced and traced, with the
wrappers of ``tracing.py`` around the package's public functions, and reports
the per-layer metrics and the tracing overhead instead.

Every output is checked (finite losses and logits, valid correlation outputs,
exp/log round trips, a falling training loss, rounds that reproduce), and an
op that raises ``CorrGeoError`` or fails its check counts as failed.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import ctypes
import gc
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "corrgeo" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no corrgeo sources under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

# bound before the package is imported and before tracing wraps them, so the
# host probe always runs the same numpy code
_EIGH, _SOLVE = np.linalg.eigh, np.linalg.solve

import corrgeo  # noqa: E402
from corrgeo import data as datamod  # noqa: E402
from corrgeo import geometry as geo  # noqa: E402
from corrgeo import kernels  # noqa: E402
from corrgeo import layers as ly  # noqa: E402
from corrgeo import train as trainmod  # noqa: E402
from corrgeo.config import RunConfig  # noqa: E402
from corrgeo.errors import CorrGeoError  # noqa: E402

import tracing  # noqa: E402

GEOMETRIES = geo.METRICS
FLAT = geo.LOG_EUCLIDEAN
SETUP_REPEATS = 3
MIN_ROUNDS = 2
PROBE_REF_S = 2.5e-3   # HostProbe.work on a 2-vCPU Xeon host, usual speed
PROBE_EVERY_S = 0.05
CORRELATION_TOL = 1e-10
ROUND_TRIP_TOL = 1e-8


# ---------------------------------------------------------------------------
# output checks and failure accounting
# ---------------------------------------------------------------------------

class Tally:
    """Attempted and failed ops; each failure is described on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)


def is_correlation(c):
    """Symmetric and unit diagonal within CORRELATION_TOL, and positive definite."""
    c = np.asarray(c)
    if not np.isfinite(c).all():
        return False
    diag = np.diagonal(c, axis1=-2, axis2=-1)
    if np.abs(diag - 1.0).max() > CORRELATION_TOL:
        return False
    if np.abs(c - np.swapaxes(c, -1, -2)).max() > CORRELATION_TOL:
        return False
    return bool(np.linalg.eigvalsh(c).min() > 0.0)


def random_correlations(rng, count, n):
    """cor(expm(S / sqrt(n))) with S symmetric N(0, 1): the inputs of ``corrgeo bench``."""
    a = rng.standard_normal((count, n, n))
    s = (np.tril(a, -1) + np.swapaxes(np.tril(a, -1), -1, -2)
         + np.eye(n) * np.diagonal(a, axis1=-2, axis2=-1)[..., None, :]) / math.sqrt(n)
    lam, u = np.linalg.eigh(s)
    sigma = (u * np.exp(lam)[..., None, :]) @ np.swapaxes(u, -1, -2)
    d = 1.0 / np.sqrt(np.diagonal(sigma, axis1=-2, axis2=-1))
    c = sigma * d[..., :, None] * d[..., None, :]
    c[..., np.arange(n), np.arange(n)] = 1.0
    return c


class HostProbe:
    """A fixed mix of interpreter, small-matrix numpy and LAPACK work, run
    between timed pieces to follow the speed of the host.

    ``clock()`` is ``perf_counter`` minus the time spent probing, so probes
    fall in no timed piece.  ``scale(t)`` is PROBE_REF_S over the probe time
    interpolated at clock time t: a piece's time multiplied by it reads as at
    the host speed at which one probe takes PROBE_REF_S.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((16, 8, 8))
        self.small = a @ np.swapaxes(a, -1, -2) + 8.0 * np.eye(8)
        b = rng.standard_normal((30, 30))
        self.big = b @ b.T + 30.0 * np.eye(30)
        self.rhs = rng.standard_normal((30, 4))
        for _ in range(20):  # warm-up: first calls are slow
            self.work()
        self.spent = 0.0
        self.at, self.took = [], []

    def clock(self):
        return time.perf_counter() - self.spent

    def work(self):
        acc = 0
        for k in range(4000):
            acc += k * k % 7
        for _ in range(12):
            lam, u = _EIGH(self.small)
            acc += float(((u * lam[..., None, :]) @ np.swapaxes(u, -1, -2)).trace(axis1=1, axis2=2).sum())
        for _ in range(4):
            acc += float(_EIGH(self.big)[0][0] + _SOLVE(self.big, self.rhs)[0, 0])
        return acc

    def sample(self, force=True):
        """Time one probe, unless ``force`` is off and one ran PROBE_EVERY_S ago."""
        now = self.clock()
        if not force and self.at and now - self.at[-1] < PROBE_EVERY_S:
            return
        t0 = time.perf_counter()
        self.work()
        took = time.perf_counter() - t0
        self.spent += took
        self.at.append(now)
        self.took.append(took)

    def scale(self, t):
        return PROBE_REF_S / np.interp(t, self.at, self.took)


# ---------------------------------------------------------------------------
# workloads: setup() builds the inputs, run(state, g, i) does unit i of
# geometry g and returns its steps and the pieces that make up its time, each
# as rows (clock start, seconds)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Train8:
    """Criterion 8: 3 classes x 100 samples of 2x8x8, conv 8->6, MLR, batch 30, Adam.

    Unit i is one ``train.train`` call of ``epochs`` epochs on dataset i.
    ``--seed`` draws the ``units`` datasets; the network initialization and
    batch order come from criterion 8's ``RunConfig.seed``.  The olm and lsm
    solver cost follows the training trajectory: over ten data seeds the dplus
    iterations of a run spread 13% (quartile distance over median), the dstar
    iterations 8%, so a run trains on three datasets and reports their sum.
    Each dataset's set-up is timed on its own.
    """

    n: int = 8
    channels: int = 2
    m_hidden: int = 6
    classes: int = 3
    generated_per_class: int = 150   # criterion 8 generates 150 and trains on 100
    train_per_class: int = 100
    spread: float = 0.3
    separation: float = 2.0
    batch: int = 30
    # olm dplus iterations per solve climb from about half their final level
    # in epoch 0 to within 3% of it in epoch 3, so 4 epochs cover both regimes
    epochs: int = 4
    init_seed: int = 0
    units: int = 3

    name = "train8"
    step = "layers.forward_backward"
    # 0.2-0.4 s of training per dataset, geometry and round; olm and lsm 2 s
    repeats = {"ecm": 4, "lecm": 2, "olm": 1, "lsm": 1, "phcm": 2}

    def samples_per_unit(self):
        return self.epochs * self.classes * self.train_per_class

    def config(self, metric):
        kwargs = dict(
            conv_metric=metric, mlr_metric=metric, n_in=self.n, channels=self.channels,
            field_size=2, stride=1, kernels=1, m_hidden=self.m_hidden, classes=self.classes,
            epochs=self.epochs, batch_size=self.batch, optimizer="adam", seed=self.init_seed,
            dplus_tol=1e-11, dplus_max_iter=2000,
        )
        if metric == "lsm":
            kwargs.update(lr=1e-3, dstar_mode="full", weight_decay=1e-3)
        else:
            kwargs.update(lr=1e-2)
        return RunConfig(**kwargs).validate()

    def setup(self, seed, workdir, tally, probe):
        configs = {g: self.config(g) for g in GEOMETRIES}
        rows = []
        for i in range(self.units):
            probe.sample()
            t0 = probe.clock()
            samples, labels = datamod.generate(
                self.classes, self.generated_per_class, self.n, self.channels,
                self.spread, self.separation, seed * self.units + i)
            keep = np.concatenate([np.where(labels == c)[0][: self.train_per_class]
                                   for c in range(self.classes)])
            datamod.save_dataset(workdir / f"train{i}", samples[keep], labels[keep])
            for g in GEOMETRIES:  # network build and warm-up
                net = trainmod.build_from_config(configs[g])
                loss, _, _ = ly.forward_backward(net, samples[keep[: self.batch]],
                                                 labels[keep[: self.batch]])
                tally.op(np.isfinite(loss), f"train8 {g} dataset {i}: warm-up loss {loss}")
            rows.append((t0, probe.clock() - t0))
        state = {"workdir": workdir, "configs": configs, "losses": {}, "tracer": None,
                 "probe": probe}
        return state, rows

    def run(self, state, g, i, tally):
        """Steps and the pieces between consecutive step and epoch ends."""
        steps, losses, epoch_ends = [], [], []
        inner = ly.forward_backward
        tracer, probe = state["tracer"], state["probe"]

        def timed_forward_backward(net, x, labels):
            t0 = probe.clock()
            out = inner(net, x, labels)
            steps.append((t0, probe.clock() - t0))
            probe.sample(force=False)
            losses.append(out[0])
            if not (np.isfinite(out[0]) and np.isfinite(out[2]).all()):
                raise FloatingPointError(f"non-finite loss or logits in step {len(steps) - 1}")
            return out

        def epoch_end(_message):
            epoch_ends.append(probe.clock())
            probe.sample(force=False)
            if tracer is not None:
                tracer.epoch = len(epoch_ends)

        if tracer is not None:
            tracer.epoch = 0
        ly.forward_backward = timed_forward_backward
        try:
            trainmod.train(state["configs"][g], state["workdir"] / f"train{i}",
                           state["workdir"] / f"ckpt_{g}_{i}", log=epoch_end)
        finally:
            ly.forward_backward = inner
        bounds = sorted([steps[0][0]] + [t0 + dt for t0, dt in steps] + epoch_ends)
        pieces = np.column_stack([bounds[:-1], np.diff(bounds)])
        per_epoch = np.array(losses).reshape(self.epochs, -1).mean(axis=1)
        tally.op(per_epoch[-1] < per_epoch[0],
                 f"train8 {g} dataset {i}: last-epoch loss {per_epoch[-1]:.6g} "
                 f"not below first {per_epoch[0]:.6g}")
        first = state["losses"].setdefault((g, i), losses)
        tally.op(np.allclose(losses, first, rtol=1e-9, atol=1e-12),
                 f"train8 {g} dataset {i}: a repeat did not reproduce the losses")
        return np.array(steps), pieces


@dataclass(frozen=True)
class Infer30:
    """Forward-only FC(30->20) + MLR(10 classes) with the default layer solver."""

    n: int = 30
    m_out: int = 20
    classes: int = 10
    batch: int = 32
    units: int = 20

    name = "infer30"
    step = "fc_forward + mlr_forward of one batch"
    repeats = dict.fromkeys(GEOMETRIES, 1)

    def samples_per_unit(self):
        return self.batch

    def setup(self, seed, workdir, tally, probe):
        t0 = probe.clock()
        rng = np.random.default_rng(seed)
        inputs = random_correlations(rng, self.units * self.batch, self.n)
        inputs = inputs.reshape(self.units, self.batch, 1, self.n, self.n)
        params = {}
        for g in GEOMETRIES:  # the initialization of ``corrgeo bench``
            fc = ly.init_fc(g, self.n, self.m_out, 1, 1, rng)
            fc.z = rng.standard_normal(fc.z.shape) * ly.init_std(self.n) / self.m_out
            mlr = ly.init_mlr(g, self.m_out, 1, self.classes, rng)
            mlr.z = rng.standard_normal(mlr.z.shape) * ly.init_std(self.m_out)
            params[g] = (fc, mlr)
        state = {"inputs": inputs, "params": params, "checked": set(), "tracer": None,
                 "probe": probe}
        for g in GEOMETRIES:  # warm-up
            self.run(state, g, 0, tally)
        state["checked"].clear()
        return state, [(t0, probe.clock() - t0)]

    def run(self, state, g, i, tally):
        fc, mlr = state["params"][g]
        x = state["inputs"][i]
        clock = state["probe"].clock
        t0 = clock()
        y, _ = ly.fc_forward(x, fc)
        logits, _ = ly.mlr_forward(y, mlr)
        dt = clock() - t0
        if not np.isfinite(logits).all():
            raise FloatingPointError(f"non-finite logits in batch {i}")
        if (g, i) not in state["checked"]:  # same inputs every round: check once
            state["checked"].add((g, i))
            tally.op(is_correlation(y), f"infer30 {g} batch {i}: FC output not a correlation matrix")
        return np.array([[t0, dt]]), np.array([[t0, dt]])


@dataclass(frozen=True)
class Geom30:
    """The Riemannian op mix on batches of 30x30 pairs; no layers code."""

    n: int = 30
    pairs: int = 16
    units: int = 10

    name = "geom30"
    step = "op mix of one batch of pairs"
    repeats = dict.fromkeys(GEOMETRIES, 1)

    def samples_per_unit(self):
        return self.pairs

    def setup(self, seed, workdir, tally, probe):
        t0 = probe.clock()
        rng = np.random.default_rng(seed)
        c = random_correlations(rng, 2 * self.units * self.pairs, self.n)
        state = {"pairs": c.reshape(self.units, 2, self.pairs, self.n, self.n),
                 "checked": set(), "tracer": None, "probe": probe}
        for g in GEOMETRIES:  # warm-up
            self.run(state, g, 0, tally)
        state["checked"].clear()
        return state, [(t0, probe.clock() - t0)]

    def run(self, state, g, i, tally):
        c, c2 = state["pairs"][i]
        clock = state["probe"].clock
        t0 = clock()
        if g == "phcm":
            dist = geo.phcm_dist(c, c2)
        else:
            v = geo.riem_log(g, c, c2)
            back = geo.riem_exp(g, c, v)
            mid = geo.geodesic(g, c, c2, 0.5)
            mean = geo.frechet_mean(g, c)
            dist = geo.riem_dist(g, c, c2)
        dt = clock() - t0
        if not (np.isfinite(dist).all() and (dist >= 0).all()):
            raise FloatingPointError(f"bad distance in batch {i}")
        if g != "phcm" and (g, i) not in state["checked"]:
            state["checked"].add((g, i))
            err = float(np.abs(back - c2).max())
            tally.op(err <= ROUND_TRIP_TOL, f"geom30 {g} batch {i}: exp(log) round trip {err:.3e}")
            tally.op(is_correlation(mean), f"geom30 {g} batch {i}: Frechet mean not a correlation matrix")
            tally.op(is_correlation(mid), f"geom30 {g} batch {i}: geodesic midpoint not a correlation matrix")
        return np.array([[t0, dt]]), np.array([[t0, dt]])


WORKLOADS = {w.name: w for w in (Train8(), Infer30(), Geom30())}


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def schedule(workload, r):
    """The geometries of one unit's turn in round r, repeats spread evenly.

    The k-th of a geometry's n repeats sits at (k + 1/2) / n of the turn, and
    the start of the geometry order rotates with the round.
    """
    k = r % len(GEOMETRIES)
    order = GEOMETRIES[k:] + GEOMETRIES[:k]
    slots = [((j + 0.5) / workload.repeats[g], pos, g)
             for pos, g in enumerate(order) for j in range(workload.repeats[g])]
    return [g for _, _, g in sorted(slots)]


def run_round(workload, state, r, tally, results, tracer=None):
    """One round: every unit of every geometry, unit-major, see ``schedule``.

    The cyclic garbage collector is paused during the round and run before
    it, as ``timeit`` does.  Each round allocates the same objects in the
    same order, so with the collector on its pauses land on the same unit in
    every round: that unit then reads up to 1.5x slow and sets step_ms_p90.
    """
    order = schedule(workload, r)
    gc.collect()
    gc.disable()
    try:
        for i in range(workload.units):
            for g in order:
                if results.get((g, i), ()) is not None:
                    run_unit(workload, state, g, i, tally, results, tracer)
        state["probe"].sample()
    finally:
        gc.enable()


def run_unit(workload, state, g, i, tally, results, tracer):
    """Unit i of geometry g; appends its times to the unit's list of repeats.

    A unit that fails is recorded as None and not run again.
    """
    state["probe"].sample(force=False)
    if tracer is not None:
        tracer.geometry = g
        span = tracer.open("bench.unit")
    try:
        steps, pieces = workload.run(state, g, i, tally)
    except (CorrGeoError, FloatingPointError) as e:
        tally.op(False, f"{workload.name} {g} unit {i}: {type(e).__name__}: {e}")
        results[(g, i)] = None
        return
    finally:
        if tracer is not None:
            tracer.close(span)
            tracer.geometry = None
    tally.op(True, "")
    results.setdefault((g, i), []).append((steps, pieces))


def scaled(probe, rows):
    """Seconds of (clock start, seconds) rows, scaled to the reference host speed."""
    return rows[:, 1] * probe.scale(rows[:, 0] + rows[:, 1] / 2)


def end_to_end(workload, results, probe):
    """samples_per_s and step_ms_p90 per geometry at the reference host speed.

    Each step and each piece of a unit is scaled by the host probe and then
    timed by the median of its repeats.
    """
    metrics, notes = {}, []
    for g in GEOMETRIES:
        kept = [times for times in (results.get((g, i)) for i in range(workload.units))
                if times is not None]
        if not kept:
            metrics[f"samples_per_s.{g}"] = (None, "1/s")
            metrics[f"step_ms_p90.{g}"] = (None, "ms")
            continue
        steps = np.concatenate([
            np.median([scaled(probe, s) for s, _ in times], axis=0) for times in kept])
        seconds = sum(float(np.median([scaled(probe, p) for _, p in times], axis=0).sum())
                      for times in kept)
        wall = sum(float(np.median([p[:, 1] for _, p in times], axis=0).sum())
                   for times in kept)
        samples = len(kept) * workload.samples_per_unit()
        metrics[f"samples_per_s.{g}"] = (samples / seconds, "1/s")
        metrics[f"step_ms_p90.{g}"] = (float(np.percentile(steps, 90)) * 1e3, "ms")
        notes.append(f"step_ms_p90.{g}: {len(steps)} samples of {workload.step}, "
                     f"median {np.median(steps) * 1e3:.4g} ms; "
                     f"{min(len(times) for times in kept)} repeats; "
                     f"unscaled samples_per_s {samples / wall:.6g}")
    return metrics, notes


def timed_setup(workload, seed, workdir, tally, probe):
    """(state, [(clock start, seconds) of each set-up]), between two probes."""
    probe.sample()
    state, rows = workload.setup(seed, workdir, tally, probe)
    probe.sample()
    return state, rows


def measure(workload, seed, seconds, workdir, tally):
    """Rounds and set-ups for ``seconds``, the set-ups spread between the rounds.

    The first set-up's state is measured; the repeats only time set-up.
    """
    probe = HostProbe()
    t_start = time.perf_counter()
    state, setups = timed_setup(workload, seed, workdir / "setup0", tally, probe)
    results, round_times = {}, []
    while True:
        t0 = time.perf_counter()
        run_round(workload, state, len(round_times), tally, results)
        round_times.append(time.perf_counter() - t0)
        if len(setups) < SETUP_REPEATS:
            k = len(setups)
            setups += timed_setup(workload, seed, workdir / f"setup{k}", tally, probe)[1]
        elapsed = time.perf_counter() - t_start
        if (len(round_times) >= MIN_ROUNDS and len(setups) >= SETUP_REPEATS
                and elapsed + statistics.mean(round_times) > seconds):
            break
    metrics, notes = end_to_end(workload, results, probe)
    setup_s = scaled(probe, np.array(setups))
    metrics["setup_s"] = (float(np.median(setup_s)), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    took = np.array(probe.took) * 1e3
    notes.append(f"rounds: {len(round_times)} in {elapsed:.2f} s; setups: "
                 + ", ".join(f"{t:.3f}" for t in setup_s) + " s scaled, "
                 + ", ".join(f"{t:.3f}" for _, t in setups) + " s unscaled")
    notes.append(f"host probe: {len(took)} probes, quartiles "
                 + " ".join(f"{q:.3f}" for q in np.quantile(took, [0.25, 0.5, 0.75]))
                 + f" ms, reference {PROBE_REF_S * 1e3:.3f} ms")
    return metrics, notes


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def per_layer_names():
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    names = []
    for solver, g in (("dplus", "olm"), ("dstar", "lsm")):
        names += [(f"solvers.{solver}_batch.ms.{g}", "ms")]
        names += [(f"solvers.{solver}_batch.{q}.{g}", "count") for q in (
            "iters_mean", "iters_max", "iters_mean_first_epoch", "iters_mean_last_epoch", "failures")]
        names += [(f"solvers.{solver}_batch.forward_share.{g}", "%")]
        names += [(f"solvers.{solver}_backward_batch.ms.{g}", "ms")]
    names += [("kernels.h0_build.ms.olm", "ms")]
    names += [(f"linalg.{c}.{g}", "count") for c in ("eigh_matrices", "solve_calls") for g in GEOMETRIES]
    names += [(f"geometry.{f}.ms.{g}", "ms") for f in (
        "prototype_forward", "prototype_vjp", "inverse_forward", "inverse_vjp",
        "pushforward", "pushforward_inv") for g in FLAT]
    names += [(f"hyperbolic.{f}.ms.phcm", "ms") for f in (
        "cor_to_ppb", "ppb_to_cor", "pb_mlr_logit", "pb_mlr_logit_vjp")]
    names += [(f"layers.{f}.{q}.{g}", "ms") for f in ("fc_forward", "fc_vjp", "mlr_forward", "mlr_vjp")
              for q in ("ms", "self_ms") for g in GEOMETRIES]
    names += [(f"train.{f}.ms.{g}", "ms") for f in ("evaluate", "optimizer_step") for g in GEOMETRIES]
    names += [("data.generate.s", "s"), ("data.save_dataset.s", "s")]
    names += [("bench.trace_overhead.pct", "%")]
    return names


FORWARD_SPANS = ("layers.fc_forward", "layers.mlr_forward")


def forward_share(tracer, solver, geometry):
    """Percent of the layer forward time of ``geometry`` spent inside ``solver``."""
    inside = forward = 0.0
    for span in tracer.spans:
        if span.geometry != geometry:
            continue
        parent = span.parent
        while parent is not None and parent.name not in FORWARD_SPANS:
            parent = parent.parent
        if span.name in FORWARD_SPANS and parent is None:
            forward += span.end - span.start
        elif span.name == solver and parent is not None:
            inside += span.end - span.start
    return inside / forward * 100.0 if forward else 0.0


def layer_metrics(tracer, traced_rounds, overhead_pct, epochs):
    """Per-layer metrics; the per-epoch iteration means read 0 without epochs."""
    table = tracer.aggregate()
    out = {}
    for name, unit in per_layer_names():
        parts = name.split(".")
        if name == "bench.trace_overhead.pct":
            value = overhead_pct
        elif parts[2] == "forward_share":
            value = forward_share(tracer, f"{parts[0]}.{parts[1]}", parts[3])
        elif parts[0] == "linalg":
            value = tracer.counts[(f"linalg.{parts[1]}", parts[2])] / traced_rounds
        elif unit == "s":
            calls, incl, _ = table.get((f"{parts[0]}.{parts[1]}", None), (0, 0.0, 0.0))
            value = incl / calls if calls else 0.0
        elif parts[2] in ("ms", "self_ms"):
            calls, incl, self_s = table.get((f"{parts[0]}.{parts[1]}", parts[3]), (0, 0.0, 0.0))
            value = (incl if parts[2] == "ms" else self_s) / calls * 1e3 if calls else 0.0
        elif parts[2] == "failures":
            value = tracer.failures[(f"{parts[0]}.{parts[1]}", parts[3])]
        elif parts[2].endswith("_epoch") and not epochs:
            value = 0.0
        else:
            epoch = {"iters_mean_first_epoch": 0, "iters_mean_last_epoch": epochs - 1}.get(parts[2])
            mean, peak = tracer.iteration_stats(f"{parts[0]}.{parts[1]}", parts[3], epoch)
            value = peak if parts[2] == "iters_max" else mean
        out[name] = (value, unit)
    return out


def measure_traced(workload, seed, seconds, workdir, tally):
    """Alternate untraced and traced rounds; per-layer metrics from the traced ones."""
    tracer = tracing.Tracer(CorrGeoError)
    t_start = time.perf_counter()
    tracer.install(corrgeo)
    try:
        state, _ = workload.setup(seed, workdir / "setup", tally, HostProbe())
    finally:
        tracer.uninstall()
    setup_spans = len(tracer.spans)
    untraced, traced, walls_ok = [], [], []
    r = 0
    while not traced or (time.perf_counter() - t_start
                         + statistics.mean(untraced) + statistics.mean(traced) <= seconds):
        t0 = time.perf_counter()
        run_round(workload, state, r, tally, {})
        untraced.append(time.perf_counter() - t0)
        first = len(tracer.spans)
        tracer.install(corrgeo)
        state["tracer"] = tracer
        try:
            t0 = time.perf_counter()
            root = tracer.open("bench.round")
            run_round(workload, state, r, tally, {}, tracer)
            tracer.close(root)
            wall = time.perf_counter() - t0
        finally:
            state["tracer"] = None
            tracer.uninstall()
        traced.append(wall)
        self_sum = sum(s.self_s for s in tracer.spans[first:])
        walls_ok.append(abs(self_sum - wall) <= 0.03 * wall)
        r += 1
    base = statistics.median(untraced)
    overhead = (statistics.median(traced) - base) / base * 100.0
    bad = tracer.nesting_errors()
    tally.op(not bad, "traced spans do not nest: " + "; ".join(bad[:5]))
    tally.op(all(walls_ok), "traced self times do not sum to the traced wall time")
    metrics = layer_metrics(tracer, len(traced), overhead, getattr(workload, "epochs", 0))
    notes = [f"traced rounds: {len(traced)}; spans: {len(tracer.spans) - setup_spans} "
             f"(+{setup_spans} in setup); median round {base:.3f} s untraced, "
             f"{statistics.median(traced):.3f} s traced, overhead {overhead:.1f}%"]
    return metrics, notes, tracer


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def blas_info():
    info = {"vendor": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "use_numba": bool(kernels.USE_NUMBA),
        "commit": git_commit(),
        "corrgeo": str(Path(corrgeo.__file__).resolve().parent.relative_to(ROOT)),
    }


def report(workload, seed, trace, metrics, notes, tally):
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    print(f"workload {workload.name} seed {seed} trace {trace}")
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<48} {shown:>14} {unit}")
    print(f"  {'failed_frac':<48} {tally.failed / max(tally.attempted, 1):>14.6g} "
          f"({tally.failed} of {tally.attempted} ops)")
    for note in notes:
        print(f"  # {note}")
    correct = tally.failed == 0 and all(v is not None for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            metrics, notes, _ = measure_traced(workload, args.seed, args.seconds, Path(tmp), tally)
        else:
            metrics, notes = measure(workload, args.seed, args.seconds, Path(tmp), tally)
    report(workload, args.seed, args.trace, metrics, notes, tally)
    return 0


if __name__ == "__main__":
    sys.exit(main())
