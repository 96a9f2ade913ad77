"""Training/evaluation driver, gradient checking, and forward benchmarks."""

import time
from dataclasses import replace

import numpy as np

from . import data as datamod
from . import domain as dom
from . import io
from . import layers as ly
from .errors import ConfigError, CorrGeoError, InvalidDimension, IoError, NonFiniteLoss


def build_from_config(cfg):
    rng = np.random.default_rng(cfg.seed)
    net = ly.build_network(
        cfg.conv_metric, cfg.mlr_metric, cfg.n_in, cfg.channels, cfg.field_size,
        cfg.stride, cfg.kernels, cfg.m_hidden, cfg.classes, rng,
        power=cfg.power, activation=cfg.activation, solver=cfg.solver_options(),
    )
    return net


class Sgd:
    def __init__(self, params, lr, weight_decay=0.0):
        self.lr = lr
        self.wd = weight_decay

    def step(self, params, grads):
        for key, val in params.items():
            g = grads[key] + self.wd * val
            params[key] = val - self.lr * g


class Adam:
    def __init__(self, params, lr, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.wd = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for key, val in params.items():
            g = grads[key] + self.wd * val
            self.m[key] = self.beta1 * self.m[key] + (1 - self.beta1) * g
            self.v[key] = self.beta2 * self.v[key] + (1 - self.beta2) * g * g
            mhat = self.m[key] / b1c
            vhat = self.v[key] / b2c
            params[key] = val - self.lr * mhat / (np.sqrt(vhat) + self.eps)


def make_optimizer(cfg, params):
    if cfg.optimizer == "sgd":
        return Sgd(params, cfg.lr, cfg.weight_decay)
    return Adam(params, cfg.lr, cfg.weight_decay)


def _check_labels(labels, classes):
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ConfigError(
            f"labels span {labels.min()}..{labels.max()}, outside 0..{classes - 1}"
        )


def check_data_shape(samples, cfg):
    """``samples`` as (N, C, n, n), a (N, n, n) stack being one channel;
    ConfigError unless N > 0 and C and n are the config's."""
    if samples.ndim == 3:
        samples = samples[:, None]
    if len(samples) == 0:
        raise ConfigError("the dataset has no samples")
    if samples.shape[1:] != (cfg.channels, cfg.n_in, cfg.n_in):
        raise ConfigError(
            f"data shape {samples.shape} does not match config "
            f"({cfg.channels} channels, n={cfg.n_in})"
        )
    return samples


def _located(err, where):
    """``err`` with ``where`` prefixed to its message, keeping its class and attributes."""
    located = type(err).__new__(type(err))
    located.__dict__.update(err.__dict__)
    located.args = (f"{where}: {err}",)
    return located


def _map_chunks(net, samples, batch_size):
    """``ly.map_input`` of checked (N, C, n, n) samples under ``net``'s conv
    metric, power and solver, ``batch_size`` samples at a time so that the
    chart's temporaries stay batch-sized.  A chart error keeps its class and
    names the samples it came from."""
    chunks = []
    for start in range(0, len(samples), batch_size):
        stop = min(start + batch_size, len(samples))
        try:
            chunks.append(ly.map_input(samples[start:stop], net.conv.fc.metric, net.solver, net.power))
        except CorrGeoError as e:
            raise _located(e, f"input chart, samples {start}-{stop - 1}") from e
    if not chunks:
        return samples
    return replace(chunks[0], value=np.concatenate([c.value for c in chunks]))


def map_dataset(net, samples, batch_size):
    """``ly.network_input`` of a whole dataset: raw samples are checked by
    ``domain.validate_correlation``, then mapped ``batch_size`` at a time.

    A dataset already mapped is checked against ``net`` and returned.
    """
    if isinstance(samples, ly.ChartInput):
        return ly.network_input(net, samples)
    return _map_chunks(net, dom.validate_correlation(samples), batch_size)


def load_inputs(net, cfg, data_dir):
    """(inputs, labels) of the dataset in ``data_dir``, mapped for ``net``.

    ``data.load_dataset`` checks every sample, so the mapping does not check
    them again; the shape must be the config's and the labels its classes.
    """
    samples, labels = datamod.load_dataset(data_dir)
    samples = check_data_shape(samples, cfg)
    _check_labels(labels, cfg.classes)
    return _map_chunks(net, samples, cfg.batch_size), labels


def evaluate(net, samples, labels, batch_size=256):
    """Accuracy and per-class confusion counts over a dataset, raw or mapped
    by ``map_dataset``.

    The forward runs in ceil(N / batch_size) contiguous passes whose lengths
    differ by at most one, so that no pass is a short tail: a pass costs the
    solver loops' per-iteration overhead whatever its length.
    """
    classes = net.mlr.classes
    _check_labels(labels, classes)
    inputs = map_dataset(net, samples, batch_size)
    confusion = np.zeros((classes, classes), dtype=np.int64)
    correct = 0
    count = len(inputs)
    passes = -(-count // batch_size)
    for k in range(passes):
        start, stop = k * count // passes, (k + 1) * count // passes
        y = labels[start:stop]
        try:
            pred = ly.predict(ly.network_forward(net, inputs[start:stop]))
        except CorrGeoError as e:
            raise _located(e, f"evaluation samples {start}-{stop - 1}") from e
        correct += int((pred == y).sum())
        np.add.at(confusion, (y, pred), 1)
    return correct / max(count, 1), confusion


def train(cfg, data_dir, out_dir, log=print):
    """Full training run; writes a checkpoint and an append-only metrics CSV."""
    net = build_from_config(cfg)
    # the power activation and the conv chart depend on the data only
    inputs, labels = load_inputs(net, cfg, data_dir)
    params = {k: v.copy() for k, v in net.param_dict().items()}
    opt = make_optimizer(cfg, params)
    order_rng = np.random.default_rng(cfg.seed + 1)

    out = io.make_dir(out_dir)
    metrics_path = out / "metrics.csv"
    with open(metrics_path, "w") as fh:
        fh.write("epoch,loss,acc,seconds\n")

    count = len(labels)
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = order_rng.permutation(count)
        losses = []
        for start in range(0, count, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            net.load_param_dict(params)
            where = f"epoch {epoch}, batch {start // cfg.batch_size}"
            try:
                loss, grads, _ = ly.forward_backward(net, inputs[idx], labels[idx])
            except CorrGeoError as e:
                raise _located(e, where) from e
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"{where}: training loss is {loss}")
            losses.append(loss)
            opt.step(params, grads)
        net.load_param_dict(params)
        try:
            acc, _ = evaluate(net, inputs, labels)
        except CorrGeoError as e:
            raise _located(e, f"epoch {epoch}") from e
        seconds = time.perf_counter() - t0
        with open(metrics_path, "a") as fh:
            fh.write(f"{epoch},{np.mean(losses):.6f},{acc:.6f},{seconds:.3f}\n")
        log(f"epoch {epoch}: loss {np.mean(losses):.4f} acc {acc:.4f} ({seconds:.2f}s)")

    net.load_param_dict(params)
    io.write_checkpoint(out, cfg.lines(), params)
    return net


def load_checkpoint_network(ckpt_dir):
    from .config import parse_config_text

    config_map, params = io.read_checkpoint(ckpt_dir)
    text = "\n".join(f"{k} = {v}" for k, v in config_map.items())
    cfg = parse_config_text(text)
    net = build_from_config(cfg)
    expect = net.param_dict()
    if params.keys() != expect.keys():
        raise IoError(f"{ckpt_dir}: blocks {sorted(params)}, the config needs {sorted(expect)}")
    for name, arr in params.items():
        # sizes, not shapes: an earlier layout holds the same numbers in row-major order
        if arr.size != expect[name].size:
            raise IoError(f"{ckpt_dir}: block {name} has {arr.size} entries, the config needs {expect[name].size}")
        if not np.isfinite(arr).all():
            raise IoError(f"{ckpt_dir}: block {name} has non-finite entries")
    net.load_param_dict(params)
    return cfg, net


def gradcheck(cfg, seed=None, h=1e-6, log=print):
    """Max relative error of each parameter block against central differences."""
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    net = build_from_config(cfg)
    # small nonzero parameters so norm terms are differentiable
    for key, val in net.param_dict().items():
        if key.endswith(".z"):
            val += rng.standard_normal(val.shape) * 0.1
        else:
            val += rng.standard_normal(val.shape) * 0.05
    x = np.empty((2, cfg.channels, cfg.n_in, cfg.n_in))
    for b in range(2):
        for c in range(cfg.channels):
            x[b, c] = dom.random_correlation(cfg.n_in, 0.7, rng)
    labels = rng.integers(0, cfg.classes, size=2)

    loss, grads, _ = ly.forward_backward(net, x, labels)
    params = {k: v.copy() for k, v in net.param_dict().items()}

    def loss_at(p):
        net.load_param_dict(p)
        logits = ly.network_forward(net, x)
        return ly.softmax_xent(logits, labels)[0]

    worst = {}
    for key, val in params.items():
        fd = np.zeros_like(val)
        for idx in range(val.size):
            for sgn in (1.0, -1.0):
                p = {k: v.copy() for k, v in params.items()}
                p[key].ravel()[idx] += sgn * h
                fd.ravel()[idx] += sgn * loss_at(p) / (2 * h)
        denom = max(np.linalg.norm(fd.ravel()), 1e-12)
        worst[key] = float(np.linalg.norm((grads[key] - fd).ravel()) / denom)
        log(f"{key}: max rel err {worst[key]:.3e}")
    net.load_param_dict(params)
    return worst


def bench_forward(metric, n, repeats, rng, m_out=20, classes=10):
    """Mean wall time of one FC(n -> m_out) + MLR(classes) forward pass."""
    fc = ly.init_fc(metric, n, m_out, 1, 1, rng)
    # logits scaled by 1/m_out keep the timed outputs away from the
    # elliptope boundary at any dimension; the operation count is unchanged
    fc.z = rng.standard_normal(fc.z.shape) * ly.init_std(n) / m_out
    mlr = ly.init_mlr(metric, m_out, 1, classes, rng)
    mlr.z = rng.standard_normal(mlr.z.shape) * ly.init_std(m_out)
    # keep the log-spectrum bounded as n grows so inputs stay comfortably PD
    spread = 1.0 / np.sqrt(n)
    inputs = [dom.random_correlation(n, spread, rng)[None, None] for _ in range(repeats)]
    # one untimed pass first, so one-off costs (imports, index tables, BLAS
    # start-up) stay outside the timed region
    y, _ = ly.fc_forward(inputs[0], fc)
    ly.mlr_forward(y, mlr)
    times = []
    for x in inputs:
        t0 = time.perf_counter()
        y, _ = ly.fc_forward(x, fc)
        ly.mlr_forward(y, mlr)
        times.append(time.perf_counter() - t0)
    return float(np.mean(times))


def hyperplane_grid(metric, zfile, gamma, grid, solver=None):
    """Logit values of a single-class MLR over the open 3x3 elliptope.

    Returns (r21, r31, r32, v) rows on a grid^3 lattice, r32 varying fastest,
    skipping points that are not positive definite; the points kept go
    through one batched ``mlr_forward``.
    """
    if grid < 1:
        raise ConfigError(f"grid must be at least 1, got {grid}")
    if not np.isfinite(gamma):
        raise ConfigError(f"gamma must be finite, got {gamma}")
    z = io.read_tensor(zfile)
    if metric == "phcm":
        if z.size != 3:
            raise InvalidDimension("phcm hyperplane needs a length-3 weight vector")
        coords = z.reshape(-1)
    else:
        if z.shape != (3, 3):
            raise InvalidDimension("hyperplane weights must be a 3x3 hollow symmetric matrix")
        coords = dom.lt0_coords(z)
    if not np.isfinite(z).all():
        raise ConfigError(f"z must be finite; {np.count_nonzero(~np.isfinite(z))} of its {z.size} entries are not")
    params = ly.MlrParams(metric, 3, 1, 1, coords[None, None], np.array([float(gamma)]))
    ticks = np.linspace(-1.0, 1.0, grid + 2)[1:-1]
    r = np.stack(np.meshgrid(ticks, ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 3)
    c = np.ones((len(r), 3, 3))
    for (i, j), col in zip(((1, 0), (2, 0), (2, 1)), r.T):
        c[:, i, j] = c[:, j, i] = col
    # with t the tick nearest 0, (t, t, t) is positive definite, so keep is never empty
    keep = np.linalg.eigvalsh(c).min(axis=-1) > dom.EPS_PD
    v, _ = ly.mlr_forward(c[keep, None], params, solver)
    return [(*point, value) for point, value in zip(r[keep].tolist(), v[:, 0].tolist())]
