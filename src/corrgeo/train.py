"""Training/evaluation driver, gradient checking, and forward benchmarks."""

import time
from pathlib import Path

import numpy as np

from . import data as datamod
from . import domain as dom
from . import io
from . import layers as ly
from .errors import ConfigError, CorrGeoError, InvalidDimension, NonFiniteLoss


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


def _located(err, where):
    """``err`` with ``where`` prefixed to its message, keeping its class and attributes."""
    located = type(err).__new__(type(err))
    located.__dict__.update(err.__dict__)
    located.args = (f"{where}: {err}",)
    return located


def evaluate(net, samples, labels, batch_size=64):
    """Accuracy and per-class confusion counts over a dataset."""
    classes = net.mlr.classes
    _check_labels(labels, classes)
    confusion = np.zeros((classes, classes), dtype=np.int64)
    correct = 0
    for start in range(0, len(samples), batch_size):
        x = samples[start : start + batch_size]
        y = labels[start : start + batch_size]
        try:
            pred = ly.predict(ly.network_forward(net, x))
        except CorrGeoError as e:
            raise _located(e, f"evaluation batch {start // batch_size}") from e
        correct += int((pred == y).sum())
        np.add.at(confusion, (y, pred), 1)
    return correct / max(len(samples), 1), confusion


def train(cfg, data_dir, out_dir, log=print):
    """Full training run; writes a checkpoint and an append-only metrics CSV."""
    samples, labels = datamod.load_dataset(data_dir)
    if samples.ndim == 3:
        samples = samples[:, None]
    if samples.shape[1] != cfg.channels or samples.shape[-1] != cfg.n_in:
        raise ConfigError(
            f"data shape {samples.shape} does not match config "
            f"({cfg.channels} channels, n={cfg.n_in})"
        )
    _check_labels(labels, cfg.classes)
    net = build_from_config(cfg)
    params = {k: v.copy() for k, v in net.param_dict().items()}
    opt = make_optimizer(cfg, params)
    order_rng = np.random.default_rng(cfg.seed + 1)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.csv"
    with open(metrics_path, "w") as fh:
        fh.write("epoch,loss,acc,seconds\n")

    count = len(samples)
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = order_rng.permutation(count)
        losses = []
        for start in range(0, count, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            net.load_param_dict(params)
            where = f"epoch {epoch}, batch {start // cfg.batch_size}"
            try:
                loss, grads, _ = ly.forward_backward(net, samples[idx], labels[idx])
            except CorrGeoError as e:
                raise _located(e, where) from e
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"{where}: training loss is {loss}")
            losses.append(loss)
            opt.step(params, grads)
        net.load_param_dict(params)
        try:
            acc, _ = evaluate(net, samples, labels)
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
    net.load_param_dict(params)
    return cfg, net


def gradcheck(cfg, seed=None, h=1e-6, log=print):
    """Max relative error of each parameter block against central differences."""
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

    Yields (r21, r31, r32, v) rows on a grid^3 lattice, skipping points that
    are not positive definite.
    """
    z = io.read_tensor(zfile)
    if metric == "phcm":
        zvec = z.reshape(-1)
        if zvec.size != 3:
            raise InvalidDimension("phcm hyperplane needs a length-3 weight vector")
        params = ly.MlrParams("phcm", 3, 1, 1, zvec[None], np.array([float(gamma)]))
    else:
        if z.shape != (3, 3):
            raise InvalidDimension("hyperplane weights must be a 3x3 hollow symmetric matrix")
        coords = dom.lt0_coords(z)[None, None]
        params = ly.MlrParams(metric, 3, 1, 1, coords, np.array([float(gamma)]))
    ticks = np.linspace(-1.0, 1.0, grid + 2)[1:-1]
    rows = []
    for r21 in ticks:
        for r31 in ticks:
            for r32 in ticks:
                c = np.array([[1.0, r21, r31], [r21, 1.0, r32], [r31, r32, 1.0]])
                if np.linalg.eigvalsh(c).min() <= dom.EPS_PD:
                    continue
                v, _ = ly.mlr_forward(c[None, None], params, solver)
                rows.append((r21, r31, r32, float(v[0, 0])))
    return rows
