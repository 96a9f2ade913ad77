"""Canonical Poincare-ball operations backing the poly-hyperbolic layers.

A correlation matrix maps to a product of Poincare balls of dimensions
1..n-1: each Cholesky row (a unit vector with positive last coordinate, i.e.
a point on an open hemisphere) is sent through the hemisphere-to-ball
isometry.  On the balls we provide origin log/exp maps, the hyperbolic MLR
logit and FC layer, and beta-scaled concatenation/splitting, all with
explicit reverse-mode companions (``*_vjp``).

Points are arrays with the vector dimension last; leading axes are batch.
"""

import logging
import math

import numpy as np

from . import linalg as la
from .errors import DimensionMismatch

log = logging.getLogger(__name__)

BALL_GUARD = 1e-14


def poly_dims(n):
    """Ball dimensions carried by an n x n correlation matrix."""
    return list(range(1, n))


def beta_fn(alpha):
    """B(alpha/2, 1/2) evaluated in log space to survive large alpha."""
    a = 0.5 * alpha
    return math.exp(math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5))


def project_ball(y):
    """Radially rescale points that have drifted into the boundary guard band."""
    y = np.asarray(y, dtype=np.float64)
    sq = np.sum(y * y, axis=-1, keepdims=True)
    limit = 1.0 - BALL_GUARD
    bad = sq >= limit
    if bad.any():
        log.debug("rescaled %d poincare point(s) off the boundary", int(bad.sum()))
        scale = np.where(bad, np.sqrt(limit / np.maximum(sq, limit)), 1.0)
        return y * scale
    return y


# ---------------------------------------------------------------------------
# hemisphere <-> ball isometries
# ---------------------------------------------------------------------------

def hs_to_pb(x):
    """Hemisphere point (unit norm, positive last coordinate) to ball point."""
    x = np.asarray(x, dtype=np.float64)
    return project_ball(x[..., :-1] / (1.0 + x[..., -1:]))


def hs_to_pb_vjp(x, grad_p):
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(grad_p, dtype=np.float64)
    denom = 1.0 + x[..., -1:]
    head = g / denom
    last = -np.sum(g * x[..., :-1], axis=-1, keepdims=True) / denom**2
    return np.concatenate([head, last], axis=-1)


def pb_to_hs(y):
    """Ball point to hemisphere point (2y, 1 - |y|^2) / (1 + |y|^2)."""
    y = np.asarray(y, dtype=np.float64)
    sq = np.sum(y * y, axis=-1, keepdims=True)
    u = 1.0 + sq
    return np.concatenate([2.0 * y / u, (1.0 - sq) / u], axis=-1)


def pb_to_hs_vjp(y, grad_h):
    y = np.asarray(y, dtype=np.float64)
    g = np.asarray(grad_h, dtype=np.float64)
    sq = np.sum(y * y, axis=-1, keepdims=True)
    u = 1.0 + sq
    ghead = g[..., :-1]
    glast = g[..., -1:]
    coef = np.sum(ghead * y, axis=-1, keepdims=True) + glast
    return 2.0 * ghead / u - (4.0 / u**2) * coef * y


# ---------------------------------------------------------------------------
# origin log/exp with stable small-radius expansions
# ---------------------------------------------------------------------------

_SMALL = 1e-6


def _atanh_over_r(r):
    out = np.where(r < _SMALL, 1.0 + r * r / 3.0, np.arctanh(np.minimum(r, 1.0 - 1e-16)) / np.where(r == 0, 1.0, r))
    return out


def _tanh_over_r(r):
    return np.where(r < _SMALL, 1.0 - r * r / 3.0, np.tanh(r) / np.where(r == 0, 1.0, r))


def pb_log0(y):
    """Origin logarithm: atanh(|y|) y / |y|."""
    y = np.asarray(y, dtype=np.float64)
    r = np.sqrt(np.sum(y * y, axis=-1, keepdims=True))
    return _atanh_over_r(r) * y


def pb_exp0(v):
    """Origin exponential: tanh(|v|) v / |v|."""
    v = np.asarray(v, dtype=np.float64)
    r = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
    return project_ball(_tanh_over_r(r) * v)


def _radial_vjp(y, grad, phi, dphi_over_r):
    """vjp of y -> phi(|y|) y: phi*grad + (phi'(r)/r) <y, grad> y."""
    r = np.sqrt(np.sum(y * y, axis=-1, keepdims=True))
    dot = np.sum(y * grad, axis=-1, keepdims=True)
    return phi(r) * grad + dphi_over_r(r) * dot * y


def pb_log0_vjp(y, grad):
    y = np.asarray(y, dtype=np.float64)

    def dphi_over_r(r):
        safe = np.where(r < _SMALL, 0.5, np.minimum(r, 1.0 - 1e-16))
        exact = (1.0 / (1.0 - safe**2) - np.arctanh(safe) / safe) / safe**2
        return np.where(r < _SMALL, 2.0 / 3.0 + 0.8 * r * r, exact)

    return _radial_vjp(y, np.asarray(grad, dtype=np.float64), _atanh_over_r, dphi_over_r)


def pb_exp0_vjp(v, grad):
    v = np.asarray(v, dtype=np.float64)

    def dphi_over_r(r):
        safe = np.where(r < _SMALL, 0.5, r)
        th = np.tanh(safe)
        exact = ((1.0 - th * th) / safe - th / safe**2) / safe
        return np.where(r < _SMALL, -2.0 / 3.0 + (8.0 / 15.0) * r * r, exact)

    return _radial_vjp(v, np.asarray(grad, dtype=np.float64), _tanh_over_r, dphi_over_r)


# ---------------------------------------------------------------------------
# hyperbolic MLR logit and FC layer
# ---------------------------------------------------------------------------

def pb_mlr_logit(x, z, gamma):
    """Signed-margin logit 2|z| asinh(lam <x,[z]> cosh(2 gamma) - (lam-1) sinh(2 gamma)).

    x: (..., n) ball points; z: (..., n) direction; gamma: scalar (...,).
    A zero direction yields a zero logit by convention.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    znorm = np.sqrt(np.sum(z * z, axis=-1))
    zhat = z / np.where(znorm[..., None] == 0.0, 1.0, znorm[..., None])
    lam = 2.0 / (1.0 - np.sum(x * x, axis=-1))
    arg = lam * np.sum(x * zhat, axis=-1) * np.cosh(2.0 * gamma) - (lam - 1.0) * np.sinh(2.0 * gamma)
    return 2.0 * znorm * np.arcsinh(arg)


def pb_mlr_logit_vjp(x, z, gamma, grad_v):
    """Adjoints (grad_x, grad_z, grad_gamma) of the logit."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    gv = np.asarray(grad_v, dtype=np.float64)
    znorm = np.sqrt(np.sum(z * z, axis=-1))
    safe = np.where(znorm == 0.0, 1.0, znorm)
    zhat = z / safe[..., None]
    xsq = np.sum(x * x, axis=-1)
    lam = 2.0 / (1.0 - xsq)
    dot = np.sum(x * zhat, axis=-1)
    ch, sh = np.cosh(2.0 * gamma), np.sinh(2.0 * gamma)
    arg = lam * dot * ch - (lam - 1.0) * sh
    asc = 1.0 / np.sqrt(1.0 + arg * arg)
    front = 2.0 * znorm * asc
    # d arg / dx = lam^2 (dot ch - sh) x + lam ch zhat
    gx = gv[..., None] * front[..., None] * (
        (lam * lam * (dot * ch - sh))[..., None] * x + (lam * ch)[..., None] * zhat
    )
    gz = gv[..., None] * (
        2.0 * np.arcsinh(arg)[..., None] * zhat
        + (2.0 * asc * lam * ch)[..., None] * (x - dot[..., None] * zhat) / safe[..., None] * znorm[..., None]
    )
    ggamma = gv * front * (2.0 * lam * dot * sh - 2.0 * (lam - 1.0) * ch)
    zero = (znorm == 0.0)[..., None]
    gz = np.where(zero, 0.0, gz)
    gx = np.where(zero, 0.0, gx)
    ggamma = np.where(znorm == 0.0, 0.0, ggamma)
    return gx, gz, ggamma


def pb_fc_from_logits(v):
    w = np.sinh(np.asarray(v, dtype=np.float64))
    s = np.sqrt(1.0 + np.sum(w * w, axis=-1, keepdims=True))
    return project_ball(w / (1.0 + s))


def pb_fc_from_logits_vjp(v, grad_y):
    v = np.asarray(v, dtype=np.float64)
    g = np.asarray(grad_y, dtype=np.float64)
    w = np.sinh(v)
    s = np.sqrt(1.0 + np.sum(w * w, axis=-1, keepdims=True))
    gw = g / (1.0 + s) - np.sum(g * w, axis=-1, keepdims=True) * w / (s * (1.0 + s) ** 2)
    return gw * np.cosh(v)


# ---------------------------------------------------------------------------
# beta-scaled concatenation and split
# ---------------------------------------------------------------------------

def beta_concat(parts):
    """Concatenate ball points with beta-function norm stabilization."""
    if not parts:
        raise DimensionMismatch("need at least one part")
    dims = [p.shape[-1] for p in parts]
    n = sum(dims)
    bn = beta_fn(n)
    scaled = [bn / beta_fn(d) * pb_log0(p) for p, d in zip(parts, dims)]
    return pb_exp0(np.concatenate(scaled, axis=-1))


def beta_concat_vjp(parts, grad_y):
    dims = [p.shape[-1] for p in parts]
    n = sum(dims)
    bn = beta_fn(n)
    scaled = [bn / beta_fn(d) * pb_log0(p) for p, d in zip(parts, dims)]
    u = np.concatenate(scaled, axis=-1)
    gu = pb_exp0_vjp(u, grad_y)
    grads = []
    off = 0
    for p, d in zip(parts, dims):
        gpart = gu[..., off : off + d] * (bn / beta_fn(d))
        grads.append(pb_log0_vjp(p, gpart))
        off += d
    return grads


def beta_split(y, dims):
    """Inverse of beta_concat for the given part dimensions."""
    y = np.asarray(y, dtype=np.float64)
    if sum(dims) != y.shape[-1]:
        raise DimensionMismatch(f"dims {dims} do not sum to {y.shape[-1]}")
    n = y.shape[-1]
    bn = beta_fn(n)
    u = pb_log0(y)
    parts = []
    off = 0
    for d in dims:
        parts.append(pb_exp0(beta_fn(d) / bn * u[..., off : off + d]))
        off += d
    return parts


def beta_split_vjp(y, dims, grad_parts):
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[-1]
    bn = beta_fn(n)
    u = pb_log0(y)
    gu = np.zeros_like(u)
    off = 0
    for d, gp in zip(dims, grad_parts):
        seg = beta_fn(d) / bn * u[..., off : off + d]
        gu[..., off : off + d] = pb_exp0_vjp(seg, gp) * (beta_fn(d) / bn)
        off += d
    return pb_log0_vjp(y, gu)


# ---------------------------------------------------------------------------
# correlation <-> poly-Poincare
# ---------------------------------------------------------------------------

def cor_to_ppb(c):
    """Cholesky rows of a correlation matrix mapped to Poincare parts.

    Returns a list of n-1 arrays with trailing dimensions 1, ..., n-1.
    """
    l = la.chol(c)
    n = l.shape[-1]
    return [hs_to_pb(l[..., i, : i + 1]) for i in range(1, n)], l


def ppb_to_cor(parts, with_factor=False):
    """Rebuild the correlation matrix from Poincare parts (inverse of cor_to_ppb)."""
    n = len(parts) + 1
    lead = parts[0].shape[:-1]
    l = np.zeros(lead + (n, n))
    l[..., 0, 0] = 1.0
    for i, p in enumerate(parts, start=1):
        if p.shape[-1] != i:
            raise DimensionMismatch(f"part {i} has dimension {p.shape[-1]}, expected {i}")
        l[..., i, : i + 1] = pb_to_hs(p)
    c = l @ la.transpose(l)
    idx = np.arange(n)
    c[..., idx, idx] = 1.0
    if with_factor:
        return c, l
    return c


def cor_to_ppb_vjp(l, grad_parts):
    """Adjoint of cor_to_ppb given the Cholesky factor of the input."""
    n = l.shape[-1]
    gl = np.zeros_like(l)
    for i, gp in enumerate(grad_parts, start=1):
        gl[..., i, : i + 1] = hs_to_pb_vjp(l[..., i, : i + 1], gp)
    return la.chol_backward(l, gl)


def ppb_to_cor_vjp(parts, l, grad_c):
    """Adjoint of ppb_to_cor; grad_c pairs with symmetric perturbations."""
    g = la.sym(np.asarray(grad_c, dtype=np.float64))
    gl = 2.0 * g @ l
    grads = []
    for i, p in enumerate(parts, start=1):
        grads.append(pb_to_hs_vjp(p, gl[..., i, : i + 1]))
    return grads
