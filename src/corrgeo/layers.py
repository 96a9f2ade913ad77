"""Trainable layers on the correlation manifold with exact reverse mode.

Layer family: a multinomial-logit head (``mlr``), a dimension-changing fully
connected map (``fc``), and a channel convolution built from the FC map on
receptive fields.  Under the four flat metrics the logits are inner products
against trivialized hyperplane parameters in the prototype space; under the
poly-hyperbolic metric the inputs are beta-concatenated into one Poincare
ball and fed to the hyperbolic MLR/FC.

Parameters are stored as free arrays: each hyperplane normal Z is kept as its
strictly-lower entries (mirrored into a hollow symmetric matrix on use), and
hyperbolic weights as plain vectors.  All forward functions take a batch and
return a cache consumed by the matching ``*_vjp``.

Gamma is one scalar per class / output slot; multi-channel inputs use the
product-space norm of the per-channel normals.
"""

from dataclasses import dataclass, field

import numpy as np

from . import domain as dom
from . import geometry as geo
from . import hyperbolic as hyp
from . import linalg as la
from .errors import NonFiniteInput, ShapeMismatch

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
    z: np.ndarray       # flat: (classes, channels, dz) or phcm: (classes, channels * dz)
    gamma: np.ndarray   # (classes,)


@dataclass
class FcParams:
    metric: str
    n: int
    m: int
    channels: int
    kernels: int
    z: np.ndarray       # flat: (kernels, slots, channels, dz); phcm: (kernels * dm, channels * dz)
    gamma: np.ndarray   # flat: (kernels, slots); phcm: (kernels * dm,)


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
    dz = dom.lt0_dim(n)
    if metric == "phcm":
        z = rng.standard_normal((classes, channels * dz)) * init_std(n)
    else:
        z = rng.standard_normal((classes, channels, dz)) * init_std(n)
    return MlrParams(metric, n, channels, classes, z, np.zeros(classes))


def init_fc(metric, n, m, channels, kernels, rng):
    # the extra 1/m keeps the output prototype coordinates O(1): without it
    # the row-zero completion sums grow with m and the freshly initialized
    # outputs already sit on the elliptope boundary
    dz = dom.lt0_dim(n)
    dm = dom.lt0_dim(m)
    scale = init_std(n) / m
    if metric == "phcm":
        z = rng.standard_normal((kernels * dm, channels * dz)) * scale
        gamma = np.zeros(kernels * dm)
    else:
        z = rng.standard_normal((kernels, dm, channels, dz)) * scale
        gamma = np.zeros((kernels, dm))
    return FcParams(metric, n, m, channels, kernels, z, gamma)


def init_conv(metric, n, m, in_channels, field_size, stride, kernels, rng):
    if field_size > in_channels:
        raise ShapeMismatch("field_size exceeds in_channels")
    if (in_channels - field_size) % stride != 0:
        raise ShapeMismatch("channels minus field_size not divisible by stride")
    fc = init_fc(metric, n, m, field_size, kernels, rng)
    return ConvParams(fc, in_channels, field_size, stride)


def fc_param_count(p):
    """Trainable scalar count, asserting the slot layout."""
    if p.metric == "phcm":
        return p.z.size + p.gamma.size
    slots = dom.lt0_dim(p.m)
    assert p.z.shape == (p.kernels, slots, p.channels, dom.lt0_dim(p.n))
    return p.z.size + p.gamma.size


# ---------------------------------------------------------------------------
# hollow-parameter plumbing
# ---------------------------------------------------------------------------

def hollow_from_lower(z, n):
    """Mirror strictly-lower entries into a hollow symmetric matrix (stacked)."""
    low = dom.lt0_from_coords(z, n)
    return low + la.transpose(low)


def diff_at_identity(metric, zmat):
    """Differential of the prototype map at I applied to a hollow matrix."""
    if metric in ("ecm", "lecm"):
        return la.strict_lower(zmat)
    if metric == "olm":
        return zmat
    # lsm
    return zmat - la.diag_from_vec(zmat.sum(axis=-1))


def metric_basis(metric, m):
    """Prototype-space basis matrices defining the FC output coordinates."""
    if metric in ("ecm", "lecm"):
        return dom.lt0_from_coords(np.eye(dom.lt0_dim(m)), m)
    if metric == "olm":
        return dom.hol_basis(m)
    return dom.rowzero_basis(m)


# ---------------------------------------------------------------------------
# flat-metric logits (shared by MLR and FC)
#
# The hyperplane normals W_k = diff_at_identity(Z_k) are never materialized:
# the pairing <phi(X), W> collapses onto the strictly-lower coordinates
# (doubled for the symmetric prototypes) plus, for the row-zero metric, a
# diagonal term against the Z row sums.
# ---------------------------------------------------------------------------

_LOWER_LAYOUT = {}


def _lower_layout(n):
    """Index structures for summing lower-slot coordinates into row sums."""
    if n not in _LOWER_LAYOUT:
        i, j = np.tril_indices(n, -1)
        order = np.argsort(j, kind="stable")
        col_start = np.searchsorted(j[order], np.arange(n - 1))
        row_start = np.array([r * (r - 1) // 2 for r in range(1, n)])
        _LOWER_LAYOUT[n] = {
            "i": i, "j": j, "row_start": row_start,
            "order": order, "col_start": col_start,
        }
    return _LOWER_LAYOUT[n]


def _z_row_sums(z, n):
    """Row sums of the mirrored hollow matrix, straight from coordinates."""
    lay = _lower_layout(n)
    s = np.zeros(z.shape[:-1] + (n,))
    if n > 1:
        s[..., 1:] += np.add.reduceat(z, lay["row_start"], axis=-1)
        s[..., : n - 1] += np.add.reduceat(z[..., lay["order"]], lay["col_start"], axis=-1)
    return s


def _gather_row_sums(sbar, n):
    """Adjoint of _z_row_sums: per-slot gather of the two incident rows."""
    lay = _lower_layout(n)
    return sbar[..., lay["i"]] + sbar[..., lay["j"]]


def _flat_logits(px, z, gamma, metric, n):
    """Logits <phi(X_c), W_kc> summed over channels, minus gamma |W_k|.

    px: (B, C, n, n) prototype values; z: (K, C, dz); gamma: (K,).
    Returns (v, cache) with v of shape (B, K).
    """
    low = dom.lt0_coords(px)
    cache = {"low": low, "z": z}
    if metric in ("ecm", "lecm"):
        inner = np.einsum("bcd,kcd->bk", low, z)
        nrm2 = np.einsum("kcd,kcd->k", z, z)
    elif metric == "olm":
        inner = 2.0 * np.einsum("bcd,kcd->bk", low, z)
        nrm2 = 2.0 * np.einsum("kcd,kcd->k", z, z)
    else:  # lsm: W = Z - diag(Z 1)
        diag = la.diagvec(px)
        s = _z_row_sums(z, n)
        inner = 2.0 * np.einsum("bcd,kcd->bk", low, z) - np.einsum("bci,kci->bk", diag, s)
        nrm2 = 2.0 * np.einsum("kcd,kcd->k", z, z) + np.einsum("kci,kci->k", s, s)
        cache.update({"diag": diag, "s": s})
    norms = np.sqrt(nrm2)
    cache["norms"] = norms
    v = inner - gamma * norms
    return v, cache


def _flat_logits_vjp(cache, metric, n, grad_v):
    """Returns (grad_z, grad_gamma, grad_px)."""
    low, z, norms = cache["low"], cache["z"], cache["norms"]
    gsum = grad_v.sum(axis=0)
    grad_gamma = -gsum * norms
    safe = np.where(norms > 0.0, norms, 1.0)
    coef = np.where(norms > 0.0, gsum * cache["gamma"] / safe, 0.0)
    zv = np.einsum("bk,kcd->bcd", grad_v, z)
    if metric in ("ecm", "lecm"):
        grad_z = np.einsum("bk,bcd->kcd", grad_v, low) - coef[:, None, None] * z
        grad_px = dom.lt0_from_coords(zv, n)
    elif metric == "olm":
        grad_z = 2.0 * (np.einsum("bk,bcd->kcd", grad_v, low) - coef[:, None, None] * z)
        grad_px = hollow_from_lower(zv, n)
    else:
        diag, s = cache["diag"], cache["s"]
        sbar = -np.einsum("bk,bci->kci", grad_v, diag)
        grad_z = (
            2.0 * np.einsum("bk,bcd->kcd", grad_v, low)
            + _gather_row_sums(sbar, n)
            - coef[:, None, None] * (2.0 * z + _gather_row_sums(s, n))
        )
        dv = np.einsum("bk,kci->bci", grad_v, s)
        grad_px = hollow_from_lower(zv, n) - la.diag_from_vec(dv)
    return grad_z, grad_gamma, grad_px


# ---------------------------------------------------------------------------
# MLR forward/backward
# ---------------------------------------------------------------------------

def mlr_forward(x, params, solver=None):
    """Class logits for a batch of (B, C, n, n) correlation channels."""
    solver = {**DEFAULT_LAYER_SOLVER, **(solver or {})}
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3:
        x = x[:, None]
    b, c, n, _ = x.shape
    if (c, n) != (params.channels, params.n):
        raise ShapeMismatch(f"input ({c} ch, {n}) vs params ({params.channels} ch, {params.n})")
    if params.metric == "phcm":
        return _phcm_mlr_forward(x, params)
    px, pcache = geo.prototype_forward(params.metric, x, solver)
    v, lcache = _flat_logits(px, params.z, params.gamma, params.metric, n)
    lcache["gamma"] = params.gamma
    return v, {"kind": "flat", "pcache": pcache, "lcache": lcache}


def mlr_vjp(params, cache, grad_v):
    """Returns ({"z": ..., "gamma": ...}, grad_x)."""
    if cache["kind"] == "phcm":
        return _phcm_mlr_vjp(params, cache, grad_v)
    gz, ggamma, gpx = _flat_logits_vjp(cache["lcache"], params.metric, params.n, grad_v)
    gx = geo.prototype_vjp(params.metric, cache["pcache"], gpx)
    return {"z": gz, "gamma": ggamma}, gx


def _channels_to_parts(x):
    """All Poincare parts of a (B, C, n, n) stack, channel-major ordering."""
    b, c, n, _ = x.shape
    parts = []
    factors = []
    for ch in range(c):
        p, l = hyp.cor_to_ppb(x[:, ch])
        parts.extend(p)
        factors.append(l)
    return parts, factors


def _parts_grads_to_channels(x, factors, grad_parts):
    b, c, n, _ = x.shape
    per = n - 1
    gx = np.zeros_like(x)
    for ch in range(c):
        gx[:, ch] = hyp.cor_to_ppb_vjp(factors[ch], grad_parts[ch * per : (ch + 1) * per])
    return gx


def _phcm_mlr_forward(x, params):
    parts, factors = _channels_to_parts(x)
    pt = hyp.beta_concat(parts)
    v = hyp.pb_mlr_logit(pt[:, None, :], params.z, params.gamma)
    return v, {"kind": "phcm", "x": x, "parts": parts, "factors": factors, "pt": pt}


def _phcm_mlr_vjp(params, cache, grad_v):
    pt, parts, x = cache["pt"], cache["parts"], cache["x"]
    gx_pt, gz, ggamma = hyp.pb_mlr_logit_vjp(pt[:, None, :], params.z, params.gamma, grad_v)
    grad_pt = gx_pt.sum(axis=1)
    grad_z = gz.sum(axis=0)
    grad_gamma = ggamma.sum(axis=0)
    grad_parts = hyp.beta_concat_vjp(parts, grad_pt)
    gx = _parts_grads_to_channels(x, cache["factors"], grad_parts)
    return {"z": grad_z, "gamma": grad_gamma}, gx


# ---------------------------------------------------------------------------
# FC forward/backward (single receptive field, all kernels)
# ---------------------------------------------------------------------------

def fc_forward(x, params, solver=None):
    """(B, C, n, n) -> (B, kernels, m, m) correlation outputs."""
    solver = {**DEFAULT_LAYER_SOLVER, **(solver or {})}
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3:
        x = x[:, None]
    b, c, n, _ = x.shape
    if (c, n) != (params.channels, params.n):
        raise ShapeMismatch(f"input ({c} ch, {n}) vs params ({params.channels} ch, {params.n})")
    if params.metric == "phcm":
        return _phcm_fc_forward(x, params)
    px, pcache = geo.prototype_forward(params.metric, x, solver)
    k, slots = params.z.shape[0], params.z.shape[1]
    zflat = params.z.reshape(k * slots, c, dom.lt0_dim(n))
    v, lcache = _flat_logits(px, zflat, params.gamma.reshape(-1), params.metric, n)
    lcache["gamma"] = params.gamma.reshape(-1)
    basis = metric_basis(params.metric, params.m)
    vmat = v.reshape(b, k, slots)
    big_v = np.einsum("bks,sij->bkij", vmat, basis)
    y, icache = geo.inverse_forward(params.metric, big_v, solver)
    return y, {
        "kind": "flat", "pcache": pcache, "lcache": lcache,
        "big_v": big_v, "icache": icache, "basis": basis,
    }


def fc_vjp(params, cache, grad_y):
    if cache["kind"] == "phcm":
        return _phcm_fc_vjp(params, cache, grad_y)
    b = grad_y.shape[0]
    k, slots = params.z.shape[0], params.z.shape[1]
    gv_mat = geo.inverse_vjp(params.metric, cache["icache"], grad_y)
    gv = np.einsum("bkij,sij->bks", gv_mat, cache["basis"]).reshape(b, k * slots)
    gz, ggamma, gpx = _flat_logits_vjp(cache["lcache"], params.metric, params.n, gv)
    gx = geo.prototype_vjp(params.metric, cache["pcache"], gpx)
    grads = {"z": gz.reshape(params.z.shape), "gamma": ggamma.reshape(params.gamma.shape)}
    return grads, gx


def _phcm_split_dims(m, kernels):
    return hyp.poly_dims(m) * kernels


def _phcm_fc_forward(x, params):
    b = x.shape[0]
    parts, factors = _channels_to_parts(x)
    pt = hyp.beta_concat(parts)
    v = hyp.pb_mlr_logit(pt[:, None, :], params.z, params.gamma)
    y_ball = hyp.pb_fc_from_logits(v)
    dims = _phcm_split_dims(params.m, params.kernels)
    out_parts = hyp.beta_split(y_ball, dims)
    per = params.m - 1
    outs = []
    factors_out = []
    for kk in range(params.kernels):
        c, l = hyp.ppb_to_cor(out_parts[kk * per : (kk + 1) * per], with_factor=True)
        outs.append(c)
        factors_out.append(l)
    y = np.stack(outs, axis=1)
    return y, {
        "kind": "phcm", "x": x, "parts": parts, "factors": factors, "pt": pt,
        "v": v, "y_ball": y_ball, "out_parts": out_parts, "factors_out": factors_out,
    }


def _phcm_fc_vjp(params, cache, grad_y):
    per = params.m - 1
    grad_out_parts = []
    for kk in range(params.kernels):
        gparts = hyp.ppb_to_cor_vjp(
            cache["out_parts"][kk * per : (kk + 1) * per],
            cache["factors_out"][kk],
            grad_y[:, kk],
        )
        grad_out_parts.extend(gparts)
    dims = _phcm_split_dims(params.m, params.kernels)
    g_ball = hyp.beta_split_vjp(cache["y_ball"], dims, grad_out_parts)
    gv = hyp.pb_fc_from_logits_vjp(cache["v"], g_ball)
    gx_pt, gz, ggamma = hyp.pb_mlr_logit_vjp(
        cache["pt"][:, None, :], params.z, params.gamma, gv
    )
    grad_pt = gx_pt.sum(axis=1)
    grad_parts = hyp.beta_concat_vjp(cache["parts"], grad_pt)
    gx = _parts_grads_to_channels(cache["x"], cache["factors"], grad_parts)
    return {"z": gz.sum(axis=0), "gamma": ggamma.sum(axis=0)}, gx


# ---------------------------------------------------------------------------
# convolution over receptive fields (shared kernel parameters)
# ---------------------------------------------------------------------------

def conv_forward(x, params, solver=None):
    """(B, C, n, n) -> (B, n_fields * kernels, m, m), field-major channel order."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3:
        x = x[:, None]
    if x.shape[1] != params.in_channels:
        raise ShapeMismatch(f"expected {params.in_channels} channels, got {x.shape[1]}")
    fields = []
    caches = []
    for start in range(0, params.in_channels - params.field_size + 1, params.stride):
        y, cache = fc_forward(x[:, start : start + params.field_size], params.fc, solver)
        fields.append(y)
        caches.append((start, cache))
    y = np.concatenate(fields, axis=1)
    return y, {"caches": caches, "x_shape": x.shape}


def conv_vjp(params, cache, grad_y):
    k = params.fc.kernels
    gx = np.zeros(cache["x_shape"])
    gz = np.zeros_like(params.fc.z)
    ggamma = np.zeros_like(params.fc.gamma)
    for idx, (start, fcache) in enumerate(cache["caches"]):
        grads, gfield = fc_vjp(params.fc, fcache, grad_y[:, idx * k : (idx + 1) * k])
        gz += grads["z"]
        ggamma += grads["gamma"]
        gx[:, start : start + params.field_size] += gfield
    return {"z": gz, "gamma": ggamma}, gx


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def power_activation(sigma, p):
    """Matrix power of an SPD input; p = 1 is the identity."""
    if p == 1:
        return np.asarray(sigma, dtype=np.float64)
    return la.sym_pow(sigma, p)


def tangent_relu_forward(x, metric, solver=None):
    """ReLU applied to prototype coordinates: from_coords(relu(coords(phi(C)))).

    Identity whenever all prototype coordinates are nonnegative.  Under the
    poly-hyperbolic metric the rectification acts on the beta-concatenated
    tangent vector at the ball origin.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if metric == "phcm":
        shape = x.shape[:-2]
        flat = x.reshape((-1, n, n))
        parts, factors = hyp.cor_to_ppb(flat)
        pt = hyp.beta_concat(parts)
        tan = hyp.pb_log0(pt)
        mask = tan > 0.0
        rect = hyp.pb_exp0(tan * mask)
        out_parts = hyp.beta_split(rect, hyp.poly_dims(n))
        y = hyp.ppb_to_cor(out_parts)
        cache = {
            "metric": metric, "flat": flat, "parts": parts, "factors": factors,
            "pt": pt, "tan": tan, "mask": mask, "rect": rect, "out_parts": out_parts,
            "shape": shape,
        }
        return y.reshape(x.shape), cache
    # the rectification needs the exact diffeomorphism pair, so the scaled-log
    # map always runs in full mode here even when training uses newton1
    solver = {**DEFAULT_LAYER_SOLVER, **(solver or {}), "dstar_mode": "full"}
    px, pcache = geo.prototype_forward(metric, x, solver)
    coords = geo.prototype_coords(metric, px)
    mask = coords > 0.0
    rect = geo.prototype_from_coords(metric, coords * mask, n)
    y, icache = geo.inverse_forward(metric, rect, solver)
    return y, {"metric": metric, "pcache": pcache, "mask": mask, "icache": icache}


def tangent_relu_vjp(cache, grad_y):
    metric = cache["metric"]
    if metric == "phcm":
        n = cache["flat"].shape[-1]
        g = np.asarray(grad_y, dtype=np.float64).reshape(cache["flat"].shape)
        lmat = hyp.ppb_to_cor(cache["out_parts"], with_factor=True)[1]
        gparts = hyp.ppb_to_cor_vjp(cache["out_parts"], lmat, g)
        grect = hyp.beta_split_vjp(cache["rect"], hyp.poly_dims(n), gparts)
        gtan = hyp.pb_exp0_vjp(cache["tan"] * cache["mask"], grect) * cache["mask"]
        gpt = hyp.pb_log0_vjp(cache["pt"], gtan)
        gparts_in = hyp.beta_concat_vjp(cache["parts"], gpt)
        gx = hyp.cor_to_ppb_vjp(cache["factors"], gparts_in)
        return gx.reshape(grad_y.shape)
    n = grad_y.shape[-1]
    grect = geo.inverse_vjp(metric, cache["icache"], grad_y)
    gcoords = np.einsum("...ij,kij->...k", grect, metric_basis(metric, n)) * cache["mask"]
    gpx = geo.prototype_coords_adjoint(metric, gcoords, n)
    return geo.prototype_vjp(metric, cache["pcache"], gpx)


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
# reverse-mode tape and the conv -> (activation) -> mlr network
# ---------------------------------------------------------------------------

class Tape:
    """Reverse-topological record of layer pullbacks with additive grads."""

    def __init__(self):
        self._stack = []

    def record(self, backward_fn):
        self._stack.append(backward_fn)

    def backward(self, grad_out, grads):
        g = grad_out
        for fn in reversed(self._stack):
            g = fn(g, grads)
        return g


def _accumulate(grads, prefix, new):
    for key, val in new.items():
        name = f"{prefix}.{key}"
        if name in grads:
            grads[name] = grads[name] + val
        else:
            grads[name] = val


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


def network_forward(net, x, tape=None):
    """Logits for a (B, C, n, n) batch; records pullbacks on the tape."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise NonFiniteInput("network input has NaN or infinite entries")
    if net.power != 1.0:
        x = dom.cor_of(power_activation(x, net.power))
    y, conv_cache = conv_forward(x, net.conv, net.solver)
    if tape is not None:
        def conv_back(g, grads, cache=conv_cache):
            pgrads, gx = conv_vjp(net.conv, cache, g)
            _accumulate(grads, "conv", pgrads)
            return gx
        tape.record(conv_back)
    if net.activation == "tangent_relu":
        bsz, ch = y.shape[0], y.shape[1]
        act, act_cache = tangent_relu_forward(y.reshape(-1, *y.shape[2:]), net.mlr.metric, net.solver)
        y = act.reshape(bsz, ch, *act.shape[-2:])
        if tape is not None:
            def act_back(g, grads, cache=act_cache, shape=y.shape):
                gx = tangent_relu_vjp(cache, g.reshape(-1, *shape[2:]))
                return gx.reshape(shape)
            tape.record(act_back)
    logits, mlr_cache = mlr_forward(y, net.mlr, net.solver)
    if tape is not None:
        def mlr_back(g, grads, cache=mlr_cache):
            pgrads, gx = mlr_vjp(net.mlr, cache, g)
            _accumulate(grads, "mlr", pgrads)
            return gx
        tape.record(mlr_back)
    return logits


def forward_backward(net, x, labels):
    """Loss and exact parameter gradients for one batch."""
    tape = Tape()
    logits = network_forward(net, x, tape)
    loss, grad_logits = softmax_xent(logits, labels)
    grads = {}
    tape.backward(grad_logits, grads)
    for key, val in net.param_dict().items():
        grads.setdefault(key, np.zeros_like(val))
    return loss, grads, logits
