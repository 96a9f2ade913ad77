"""Trainable layers on the correlation manifold with exact reverse mode.

Layer family: a multinomial-logit head (``mlr``), a dimension-changing fully
connected map (``fc``), and a channel convolution built from the FC map on
receptive fields.  Under the four flat metrics the logits are inner products
against trivialized hyperplane parameters in the prototype space; under the
poly-hyperbolic metric the inputs are beta-concatenated into one Poincare
ball and fed to the hyperbolic MLR/FC.

Parameters are free arrays in one layout for every metric: each hyperplane
normal is (channels, n(n-1)/2), a channel's strictly-lower entries (mirrored
into a hollow symmetric matrix on use), which phcm reads row-major as one
direction of the beta-concatenated ball (HNN++).  Forward functions take a
batch and return a cache consumed by the matching ``*_vjp``.

Gamma is one scalar per class / output slot; multi-channel inputs use the
product-space norm of the per-channel normals.
"""

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from . import domain as dom
from . import geometry as geo
from . import hyperbolic as hyp
from . import linalg as la
from .errors import ConfigError, InvalidDimension, ShapeMismatch

DEFAULT_LAYER_SOLVER = {"dstar_mode": "newton1"}


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass
class MlrParams:
    metric: str
    n: int
    channels: int
    classes: int
    z: np.ndarray       # (classes, channels, dz)
    gamma: np.ndarray   # (classes,)


@dataclass
class FcParams:
    metric: str
    n: int
    m: int
    channels: int
    kernels: int
    z: np.ndarray       # (kernels, slots, channels, dz), slots = m(m-1)/2
    gamma: np.ndarray   # (kernels, slots)


@dataclass
class ConvParams:
    fc: FcParams
    in_channels: int
    field_size: int
    stride: int

    @property
    def n_fields(self):
        return (self.in_channels - self.field_size) // self.stride + 1


def init_std(n):
    return np.sqrt(2.0 / (n * (n - 1)))


def init_mlr(metric, n, channels, classes, rng):
    if n < 2:
        raise InvalidDimension(f"layer matrices need n >= 2, got n={n}")
    if min(channels, classes) < 1:
        raise ShapeMismatch(f"channels and classes must be at least 1, got {channels}, {classes}")
    z = rng.standard_normal((classes, channels, dom.lt0_dim(n))) * init_std(n)
    return MlrParams(metric, n, channels, classes, z, np.zeros(classes))


def init_fc(metric, n, m, channels, kernels, rng):
    if min(n, m) < 2:
        raise InvalidDimension(f"layer matrices need n, m >= 2, got n={n}, m={m}")
    if kernels < 1:
        raise ShapeMismatch(f"kernels must be at least 1, got {kernels}")
    # the extra 1/m keeps the output prototype coordinates O(1): without it
    # the row-zero completion sums grow with m and the freshly initialized
    # outputs already sit on the elliptope boundary
    dm = dom.lt0_dim(m)
    z = rng.standard_normal((kernels, dm, channels, dom.lt0_dim(n))) * (init_std(n) / m)
    return FcParams(metric, n, m, channels, kernels, z, np.zeros((kernels, dm)))


def init_conv(metric, n, m, in_channels, field_size, stride, kernels, rng):
    if min(field_size, stride) < 1:
        raise ShapeMismatch(f"field_size and stride must be at least 1, got {field_size}, {stride}")
    if field_size > in_channels:
        raise ShapeMismatch("field_size exceeds in_channels")
    if (in_channels - field_size) % stride != 0:
        raise ShapeMismatch("channels minus field_size not divisible by stride")
    fc = init_fc(metric, n, m, field_size, kernels, rng)
    return ConvParams(fc, in_channels, field_size, stride)


# ---------------------------------------------------------------------------
# flat-metric logits (shared by MLR, FC and conv)
#
# Each flat metric is a pullback, so a logit is one pairing <phi(X), W> -
# gamma |W| with the hyperplane normal W = A z in the prototype space, never
# materialized: v = a(X) . z - gamma |A z|.  a(X) is c times the strictly-lower
# coordinates of phi(X) (c = 1 for ecm/lecm, 2 for the symmetric olm/lsm
# prototypes); lsm's normal W = Z - diag(Z 1) also subtracts the slot sums
# diag(X) G^T, where the incidence matrix G marks the two rows of each lower
# slot, so |A z|^2 = c |z|^2 + [lsm] |z G|^2.  Every contraction, forward and
# backward, is one matmul.
# ---------------------------------------------------------------------------

def hollow_from_lower(z, n):
    """Mirror strictly-lower entries into a hollow symmetric matrix (stacked)."""
    low = dom.lt0_from_coords(z, n)
    return low + la.transpose(low)


@functools.lru_cache(maxsize=64)
def _incidence(n):
    """Read-only G (n(n-1)/2, n): G[s, i] = G[s, j] = 1 for the lower slot s = (i, j)."""
    i, j = np.tril_indices(n, -1)
    g = np.zeros((len(i), n))
    slots = np.arange(len(i))
    g[slots, i] = g[slots, j] = 1.0
    g.setflags(write=False)
    return g


def _rows(a):
    """(N, ...) -> (N, prod(...)): the matrix side of a flat contraction."""
    return a.reshape(a.shape[0], -1)


def _last_axis_times(t, m):
    """(..., p) @ (p, q) -> (..., q) as one 2-D matmul, not one per leading index."""
    return (t.reshape(-1, t.shape[-1]) @ m).reshape(*t.shape[:-1], m.shape[1])


def _flat_logits(px, z, gamma, metric, n):
    """Logits <phi(X_c), W_kc> summed over channels, minus gamma |W_k|.

    px: (B, C, n, n) prototype values; z: (K, C, dz); gamma: (K,).
    Returns (v, cache) with v of shape (B, K).
    """
    c = 1.0 if metric in ("ecm", "lecm") else 2.0
    a = dom.lt0_coords(px)
    zf = _rows(z)
    nrm2 = np.einsum("kd,kd->k", zf, zf)  # one pass, no (K, C*d) temporary
    if c != 1.0:
        a, nrm2 = c * a, c * nrm2
    cache = {"c": c, "a": a, "z": z}
    if metric == "lsm":
        g = _incidence(n)
        a -= _last_axis_times(la.diagvec(px), g.T)
        s = _last_axis_times(z, g)
        nrm2 = nrm2 + np.einsum("kci,kci->k", s, s)
        cache["s"] = s
    norms = np.sqrt(nrm2)
    cache["norms"] = norms
    v = _rows(a) @ zf.T - gamma * norms
    return v, cache


def _flat_logits_vjp(cache, metric, n, grad_v, input_adjoint=True):
    """Returns (grad_z, grad_gamma, grad_px); grad_px is None without the input adjoint."""
    c, a, z, norms = cache["c"], cache["a"], cache["z"], cache["norms"]
    gsum = grad_v.sum(axis=0)
    grad_gamma = -gsum * norms
    safe = np.where(norms > 0.0, norms, 1.0)
    coef = np.where(norms > 0.0, gsum * cache["gamma"] / safe, 0.0)
    # gamma |A z| contributes coef A^T A z = coef (c z + [lsm] (z G) G^T)
    grad_z = (grad_v.T @ _rows(a)).reshape(z.shape) - (c * coef)[:, None, None] * z
    if metric == "lsm":
        grad_z -= coef[:, None, None] * _last_axis_times(cache["s"], _incidence(n).T)
    if not input_adjoint:
        return grad_z, grad_gamma, None
    zv = (grad_v @ _rows(z)).reshape(a.shape)
    if c == 1.0:
        return grad_z, grad_gamma, dom.lt0_from_coords(zv, n)
    grad_px = hollow_from_lower(zv, n)
    if metric == "lsm":
        grad_px = grad_px - la.diag_from_vec(_last_axis_times(zv, _incidence(n)))
    return grad_z, grad_gamma, grad_px


# ---------------------------------------------------------------------------
# layer inputs: the chart value
#
# Every layer first maps its correlation inputs through its metric's chart:
# into the prototype space under a flat metric, to the Poincare parts of the
# Cholesky rows under phcm.  The network's first map depends on the data
# only, so training maps a dataset once and slices the result, and no
# pullback forms the adjoint of the network input.
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class ChartInput:
    """Correlation inputs after an optional matrix power and a metric's chart.

    ``value`` is (B, C, n, n) prototype values under a flat metric and
    (B, C, n(n-1)/2) under phcm: each channel's poly-ball point, its Poincare
    parts of dimension 1, ..., n-1 laid end to end.  ``cache`` is the chart's
    cache, kept where the input adjoint runs through the chart.  Indexing
    slices samples and drops the cache; the conv gathers its receptive
    fields from ``value``.
    """

    value: np.ndarray
    metric: str
    n: int
    power: float
    solver: dict
    cache: object = None

    def __len__(self):
        return len(self.value)

    def __getitem__(self, idx):
        return ChartInput(self.value[idx], self.metric, self.n, self.power, self.solver)

    @property
    def channels(self):
        return self.value.shape[1]


def _batch(x):
    """x as a float (B, C, n, n) stack; a (B, n, n) stack is one channel."""
    x = np.asarray(x, dtype=np.float64)
    return x[:, None] if x.ndim == 3 else x


def map_input(x, metric, solver=None, power=1.0, keep_cache=False):
    """ChartInput of a (B, C, n, n) batch: the power activation unless p = 1,
    then the chart of ``metric``, whose cache is kept on request."""
    solver = {**DEFAULT_LAYER_SOLVER, **(solver or {})}
    x = _batch(x)
    if power != 1.0:
        x = dom.cor_of(power_activation(x, power))
    if metric == "phcm":
        value, cache = hyp.cor_to_ppb(x)
    else:
        value, cache = geo.prototype_forward(metric, x, solver)
    return ChartInput(value, metric, x.shape[-1], power, solver, cache if keep_cache else None)


def _layer_input(x, metric, channels, n, solver):
    """A layer's ChartInput; a raw batch is mapped here, keeping the chart's cache."""
    if isinstance(x, ChartInput):
        if x.metric != metric:
            raise ConfigError(f"input mapped under {x.metric}, layer metric {metric}")
        got = (x.channels, x.n)
    else:
        x = _batch(x)
        got = (x.shape[1], x.shape[-1])
    if got != (channels, n):
        raise ShapeMismatch(f"input ({got[0]} ch, {got[1]}) vs params ({channels} ch, {n})")
    return x if isinstance(x, ChartInput) else map_input(x, metric, solver, keep_cache=True)


def _input_adjoint(inp, grad):
    """Adjoint of a layer's input from that of its chart value (None if not
    formed): through the chart where the layer mapped the input, else of the value."""
    if inp.cache is None or grad is None:
        return grad
    if inp.metric == "phcm":
        return hyp.cor_to_ppb_vjp(inp.cache, grad)
    return geo.prototype_vjp(inp.metric, inp.cache, grad)


# ---------------------------------------------------------------------------
# MLR and FC: one logit step, then the FC's output map
# ---------------------------------------------------------------------------

def _logits(inp, z, gamma):
    """Logits of a ChartInput against K hyperplanes, z (K, C, dz) and gamma (K,).

    Under phcm the channel parts of each sample are beta-concatenated into
    one ball point and each normal is read as one C*dz direction of it.
    Returns (v (B, K), cache).
    """
    if inp.metric == "phcm":
        x = inp.value.reshape(len(inp), -1)
        seg = hyp.poly_segments(inp.n, inp.channels)
        pt = hyp.seg_concat(x, seg)
        z = z.reshape(len(z), -1)
        v, cache = hyp.pb_mlr_logit(pt, z, gamma), {"x": x, "seg": seg, "pt": pt, "z": z}
    else:
        v, cache = _flat_logits(inp.value, z, gamma, inp.metric, inp.n)
    cache.update(input=inp, gamma=gamma)
    return v, cache


def _logits_vjp(cache, grad_v, input_adjoint=True):
    """(grad_z, grad_gamma, input adjoint) of ``_logits``; the input adjoint
    is None with ``input_adjoint`` off, and then not formed."""
    inp, grad = cache["input"], None
    if inp.metric == "phcm":
        gpt, gz, ggamma = hyp.pb_mlr_logit_vjp(cache["pt"], cache["z"], cache["gamma"], grad_v)
        if input_adjoint:
            grad = hyp.seg_concat_vjp(cache["x"], cache["seg"], gpt).reshape(inp.value.shape)
    else:
        gz, ggamma, grad = _flat_logits_vjp(cache, inp.metric, inp.n, grad_v, input_adjoint)
    return gz, ggamma, _input_adjoint(inp, grad)


def mlr_forward(x, params, solver=None):
    """Class logits for a batch of (B, C, n, n) correlation channels or its ChartInput."""
    inp = _layer_input(x, params.metric, params.channels, params.n, solver)
    return _logits(inp, params.z, params.gamma)


def mlr_vjp(params, cache, grad_v):
    """Returns ({"z": ..., "gamma": ...}, grad_x)."""
    gz, ggamma, gx = _logits_vjp(cache, grad_v)
    return {"z": gz.reshape(params.z.shape), "gamma": ggamma}, gx


def fc_forward(x, params, solver=None):
    """(B, C, n, n) correlations or their ChartInput -> (B, kernels, m, m) correlation outputs.

    One logit per kernel and output slot over one receptive field.  A flat
    metric assembles each kernel's logits into a prototype point and maps it
    back; under phcm the (B, kernels * slots) logits are one hyperbolic FC
    point, which splits into each kernel's poly-ball point of an m x m output.
    """
    inp = _layer_input(x, params.metric, params.channels, params.n, solver)
    gamma = params.gamma.reshape(-1)
    v, lcache = _logits(inp, params.z.reshape(len(gamma), inp.channels, -1), gamma)
    b, k = len(v), params.kernels
    if params.metric == "phcm":
        y_ball = hyp.pb_fc_from_logits(v)
        out_seg = hyp.poly_segments(params.m, k)
        out = hyp.seg_split(y_ball, out_seg).reshape(b, k, -1)
        y, l_out = hyp.ppb_to_cor(out)
        return y, {"lcache": lcache, "v": v, "y_ball": y_ball, "out_seg": out_seg, "out": out, "l_out": l_out}
    big_v = geo.prototype_from_coords(params.metric, v.reshape(b, k, -1), params.m)
    y, icache = geo.inverse_forward(params.metric, big_v, solver)
    return y, {"lcache": lcache, "big_v": big_v, "icache": icache}


def fc_vjp(params, cache, grad_y, input_adjoint=True):
    """Parameter gradients and the input adjoint, which is None with ``input_adjoint`` off."""
    b = len(grad_y)
    if params.metric == "phcm":
        g_out = hyp.ppb_to_cor_vjp(cache["out"], cache["l_out"], grad_y)
        g_ball = hyp.seg_split_vjp(cache["y_ball"], cache["out_seg"], g_out.reshape(b, -1))
        gv = hyp.pb_fc_from_logits_vjp(cache["v"], g_ball)
    else:
        gv_mat = geo.inverse_vjp(params.metric, cache["icache"], grad_y)
        gv = geo.prototype_from_coords_adjoint(params.metric, gv_mat).reshape(b, -1)
    gz, ggamma, gx = _logits_vjp(cache["lcache"], gv, input_adjoint)
    return {"z": gz.reshape(params.z.shape), "gamma": ggamma.reshape(params.gamma.shape)}, gx


# ---------------------------------------------------------------------------
# convolution over receptive fields (shared kernel parameters)
# ---------------------------------------------------------------------------

def _field_index(params):
    """(n_fields, field_size) channel indices of the receptive fields."""
    return params.stride * np.arange(params.n_fields)[:, None] + np.arange(params.field_size)


def conv_forward(x, params, solver=None):
    """(B, C, n, n) correlations or their ChartInput -> (B, n_fields * kernels, m, m),
    field-major channel order.  A raw input is mapped once; its B * n_fields
    receptive fields are gathered from the chart value into one FC call."""
    inp = _layer_input(x, params.fc.metric, params.in_channels, params.fc.n, solver)
    fields = inp.value[:, _field_index(params)]
    fields = replace(inp, value=fields.reshape(-1, *fields.shape[2:]), cache=None)
    y, cache = fc_forward(fields, params.fc, solver)
    return y.reshape(len(inp), -1, *y.shape[2:]), {"fc": cache, "input": inp}


def conv_vjp(params, cache, grad_y, input_adjoint=True):
    """Parameter gradients and the input adjoint, which is None with ``input_adjoint`` off;
    the input adjoint sums the adjoints of the fields over their channels."""
    inp, k = cache["input"], params.fc.kernels
    grads, gfields = fc_vjp(params.fc, cache["fc"], grad_y.reshape(-1, k, *grad_y.shape[2:]), input_adjoint)
    if gfields is None:
        return grads, None
    gvalue = np.zeros_like(inp.value)
    np.add.at(gvalue, (slice(None), _field_index(params)), gfields.reshape(len(inp), -1, *gfields.shape[1:]))
    return grads, _input_adjoint(inp, gvalue)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def power_activation(sigma, p):
    """Matrix power of an SPD input; p = 1 is the identity."""
    if p == 1:
        return np.asarray(sigma, dtype=np.float64)
    return la.sym_pow(sigma, p)


def tangent_relu_forward(inp):
    """ReLU on the prototype coordinates of a ChartInput's value, returned as
    a ChartInput in the same chart without a chart cache: from_coords(relu(
    coords(X))) under a flat metric, under phcm exp0(relu(log0)) per Poincare
    part: the ReLU of the origin log, beta > 0 times the parts' logs, of each
    channel's beta-concatenated ball.  The identity where no coordinate is
    negative.  Under lsm it acts in the chart of the input's ``dstar_mode``.
    """
    cache = {"input": inp}
    if inp.metric == "phcm":
        seg = hyp.poly_segments(inp.n)
        tan = hyp.pb_log0(inp.value, seg)
        mask = tan > 0.0
        value = hyp.pb_exp0(tan * mask, seg)
        cache.update(seg=seg, tan=tan)
    else:
        coords = geo.prototype_coords(inp.metric, inp.value)
        mask = coords > 0.0
        value = geo.prototype_from_coords(inp.metric, coords * mask, inp.n)
    cache["mask"] = mask
    return replace(inp, value=value, cache=None), cache


def tangent_relu_vjp(cache, grad):
    """Adjoint of ``tangent_relu_forward``'s input from that of its output value."""
    inp, mask = cache["input"], cache["mask"]
    if inp.metric == "phcm":
        seg = cache["seg"]
        gtan = hyp.pb_exp0_vjp(cache["tan"] * mask, grad, seg) * mask
        gvalue = hyp.pb_log0_vjp(inp.value, gtan, seg)
    else:
        gcoords = geo.prototype_from_coords_adjoint(inp.metric, grad) * mask
        gvalue = geo.prototype_coords_adjoint(inp.metric, gcoords, inp.n)
    return _input_adjoint(inp, gvalue)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def softmax_xent(logits, labels):
    """Mean cross entropy; returns (loss, grad_logits) with the exact Jacobian."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    b = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = -logp[np.arange(b), labels].mean()
    probs = np.exp(logp)
    grad = probs.copy()
    grad[np.arange(b), labels] -= 1.0
    return loss, grad / b


def predict(logits):
    return np.asarray(logits).argmax(axis=1)


# ---------------------------------------------------------------------------
# the conv -> (activation) -> mlr network
# ---------------------------------------------------------------------------

@dataclass
class Network:
    conv: ConvParams
    mlr: MlrParams
    power: float = 1.0
    activation: str = "none"
    solver: dict = field(default_factory=dict)

    def param_dict(self):
        return {
            "conv.z": self.conv.fc.z, "conv.gamma": self.conv.fc.gamma,
            "mlr.z": self.mlr.z, "mlr.gamma": self.mlr.gamma,
        }

    def load_param_dict(self, params):
        self.conv.fc.z = np.asarray(params["conv.z"], dtype=np.float64)
        self.conv.fc.gamma = np.asarray(params["conv.gamma"], dtype=np.float64)
        self.mlr.z = np.asarray(params["mlr.z"], dtype=np.float64)
        self.mlr.gamma = np.asarray(params["mlr.gamma"], dtype=np.float64)


def build_network(conv_metric, mlr_metric, n_in, channels, field_size, stride,
                  kernels, m_hidden, classes, rng, power=1.0, activation="none",
                  solver=None):
    conv = init_conv(conv_metric, n_in, m_hidden, channels, field_size, stride, kernels, rng)
    out_channels = conv.n_fields * kernels
    mlr = init_mlr(mlr_metric, m_hidden, out_channels, classes, rng)
    return Network(conv, mlr, power, activation, solver or {})


def network_input(net, x):
    """The input of ``net`` as a ChartInput under its conv metric, power and solver.

    A raw (B, C, n, n) batch is checked by ``domain.validate_correlation``
    and mapped; a ChartInput must have been mapped for a network with the
    same conv metric, power and solver.
    """
    if isinstance(x, ChartInput):
        want = (net.conv.fc.metric, net.power, {**DEFAULT_LAYER_SOLVER, **(net.solver or {})})
        if (x.metric, x.power, x.solver) != want:
            raise ConfigError(
                f"input mapped under metric {x.metric}, power {x.power}, solver {x.solver}; "
                f"the network has metric {want[0]}, power {want[1]}, solver {want[2]}"
            )
        return x
    return map_input(dom.validate_correlation(x), net.conv.fc.metric, net.solver, net.power)


def _network_pass(net, x):
    """Logits of ``net`` and its conv, activation (None without) and MLR caches."""
    y, conv_cache = conv_forward(network_input(net, x), net.conv, net.solver)
    act_cache = None
    if net.activation == "tangent_relu":
        # the activation acts on the MLR's chart value: the conv output is mapped once
        y = _layer_input(y, net.mlr.metric, net.mlr.channels, net.mlr.n, net.solver)
        y, act_cache = tangent_relu_forward(y)
    logits, mlr_cache = mlr_forward(y, net.mlr, net.solver)
    return logits, conv_cache, act_cache, mlr_cache


def network_forward(net, x):
    """Logits for a (B, C, n, n) batch or its ``network_input``."""
    return _network_pass(net, x)[0]


def forward_backward(net, x, labels):
    """Loss and exact parameter gradients for one batch.  The input is data,
    so the conv pullback forms no input adjoint."""
    logits, conv_cache, act_cache, mlr_cache = _network_pass(net, x)
    loss, grad_logits = softmax_xent(logits, labels)
    mlr_grads, g = mlr_vjp(net.mlr, mlr_cache, grad_logits)
    if act_cache is not None:
        g = tangent_relu_vjp(act_cache, g)
    conv_grads, _ = conv_vjp(net.conv, conv_cache, g, input_adjoint=False)
    grads = {f"conv.{k}": v for k, v in conv_grads.items()}
    grads.update({f"mlr.{k}": v for k, v in mlr_grads.items()})
    return loss, grads, logits
