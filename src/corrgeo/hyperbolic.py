"""Canonical Poincare-ball operations backing the poly-hyperbolic layers.

A correlation matrix maps to a product of Poincare balls of dimensions
1..n-1: each Cholesky row (a unit vector with positive last coordinate, i.e.
a point on an open hemisphere) is sent through the hemisphere-to-ball
isometry.  On the balls we provide origin log/exp maps, the hyperbolic MLR
logit and FC layer, and beta-scaled concatenation/splitting, all with
explicit reverse-mode companions (``*_vjp``).

Points are arrays with the vector dimension last; leading axes are batch.
A point of several balls is one array of its parts laid end to end, and a
``Segments`` layout names the parts: the radial maps and the projection act
on each part on its own, through per-part sums (``np.add.reduceat`` on the
part starts) repeated back over the part's coordinates.  A poly-ball point
of an n x n correlation matrix has parts of dimension 1, ..., n-1, which is
exactly ``domain.lt0_coords`` order: part r is ``L[r, :r] / (1 + L[r, r])``.
"""

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import domain as dom
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


# ---------------------------------------------------------------------------
# part layouts
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Segments:
    """Layout of a point made of balls laid end to end along the last axis.

    ``sizes`` and ``starts`` are the parts' dimensions and offsets; ``beta``
    is each coordinate's beta-concatenation scale B(D/2, 1/2) / B(d/2, 1/2),
    D the total and d its part's dimension.
    """

    sizes: np.ndarray
    starts: np.ndarray
    beta: np.ndarray

    def dot(self, a, b):
        """Per-part inner products, (..., parts)."""
        return np.add.reduceat(a * b, self.starts, axis=-1)

    def spread(self, s):
        """Per-part values (..., parts) repeated over their coordinates."""
        return np.repeat(s, self.sizes, axis=-1)


@functools.lru_cache(maxsize=64)
def segments(dims):
    """The Segments of parts of the given dimensions (a tuple), in order."""
    if not dims or min(dims) < 1:
        raise DimensionMismatch(f"part dimensions {dims} must be positive")
    sizes = np.array(dims)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    bn = beta_fn(sum(dims))
    beta = np.repeat([bn / beta_fn(d) for d in dims], sizes)
    for a in (sizes, starts, beta):
        a.setflags(write=False)
    return Segments(sizes, starts, beta)


def poly_segments(n, copies=1):
    """Layout of ``copies`` poly-ball points of n x n matrices laid end to end."""
    return segments(tuple(poly_dims(n)) * copies)


def _layout(y, seg):
    """``seg``, or the whole last axis of ``y`` as one ball."""
    return seg if seg is not None else segments((np.shape(y)[-1],))


def project_ball(y, seg=None):
    """Radially rescale each part that has drifted into the boundary guard band."""
    y = np.asarray(y, dtype=np.float64)
    seg = _layout(y, seg)
    sq = seg.dot(y, y)
    limit = 1.0 - BALL_GUARD
    bad = sq >= limit
    if bad.any():
        log.debug("rescaled %d poincare point(s) off the boundary", int(bad.sum()))
        scale = np.where(bad, np.sqrt(limit / np.maximum(sq, limit)), 1.0)
        return y * seg.spread(scale)
    return y


# ---------------------------------------------------------------------------
# origin log/exp with stable small-radius expansions, per part
# ---------------------------------------------------------------------------

_SMALL = 1e-6


def _atanh_over_r(r):
    out = np.where(r < _SMALL, 1.0 + r * r / 3.0, np.arctanh(np.minimum(r, 1.0 - 1e-16)) / np.where(r == 0, 1.0, r))
    return out


def _tanh_over_r(r):
    return np.where(r < _SMALL, 1.0 - r * r / 3.0, np.tanh(r) / np.where(r == 0, 1.0, r))


def pb_log0(y, seg=None):
    """Origin logarithm of each part: atanh(|y|) y / |y|."""
    y = np.asarray(y, dtype=np.float64)
    seg = _layout(y, seg)
    return seg.spread(_atanh_over_r(np.sqrt(seg.dot(y, y)))) * y


def pb_exp0(v, seg=None):
    """Origin exponential of each part: tanh(|v|) v / |v|."""
    v = np.asarray(v, dtype=np.float64)
    seg = _layout(v, seg)
    return project_ball(seg.spread(_tanh_over_r(np.sqrt(seg.dot(v, v)))) * v, seg)


def _radial_vjp(y, grad, seg, phi, dphi_over_r):
    """vjp of y -> phi(|y|) y per part: phi*grad + (phi'(r)/r) <y, grad> y."""
    seg = _layout(y, seg)
    r = np.sqrt(seg.dot(y, y))
    dot = seg.dot(y, grad)
    return seg.spread(phi(r)) * grad + seg.spread(dphi_over_r(r) * dot) * y


def pb_log0_vjp(y, grad, seg=None):
    y = np.asarray(y, dtype=np.float64)

    def dphi_over_r(r):
        safe = np.where(r < _SMALL, 0.5, np.minimum(r, 1.0 - 1e-16))
        exact = (1.0 / (1.0 - safe**2) - np.arctanh(safe) / safe) / safe**2
        return np.where(r < _SMALL, 2.0 / 3.0 + 0.8 * r * r, exact)

    return _radial_vjp(y, np.asarray(grad, dtype=np.float64), seg, _atanh_over_r, dphi_over_r)


def pb_exp0_vjp(v, grad, seg=None):
    v = np.asarray(v, dtype=np.float64)

    def dphi_over_r(r):
        safe = np.where(r < _SMALL, 0.5, r)
        th = np.tanh(safe)
        exact = ((1.0 - th * th) / safe - th / safe**2) / safe
        return np.where(r < _SMALL, -2.0 / 3.0 + (8.0 / 15.0) * r * r, exact)

    return _radial_vjp(v, np.asarray(grad, dtype=np.float64), seg, _tanh_over_r, dphi_over_r)


# ---------------------------------------------------------------------------
# hyperbolic MLR logit and FC layer
# ---------------------------------------------------------------------------

def _logit_terms(x, z, gamma):
    """|z|, |z| with zeros read as 1, the conformal factor, <x, z/|z|> and the cosh/sinh of 2 gamma."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    znorm = np.sqrt(np.sum(z * z, axis=-1))
    safe = np.where(znorm == 0.0, 1.0, znorm)
    lam = (2.0 / (1.0 - np.sum(x * x, axis=-1)))[:, None]
    # <x, z> / |z| and <x, z / |z|> differ in the last ulp; acceptance
    # criterion 7 checks eigenvalues only to n eps |C|, so either form holds
    return znorm, safe, lam, (x @ z.T) / safe, np.cosh(2.0 * gamma), np.sinh(2.0 * gamma)


def pb_mlr_logit(x, z, gamma):
    """Signed-margin logits 2|z| asinh(lam <x,[z]> cosh(2 gamma) - (lam-1) sinh(2 gamma)).

    x: (B, D) ball points; z: (K, D) directions; gamma: (K,).  Returns (B, K).
    A zero direction yields a zero logit by convention.
    """
    znorm, _, lam, dot, ch, sh = _logit_terms(x, z, gamma)
    return 2.0 * znorm * np.arcsinh(lam * dot * ch - (lam - 1.0) * sh)


def pb_mlr_logit_vjp(x, z, gamma, grad_v):
    """Adjoints (grad_x (B, D), grad_z (K, D), grad_gamma (K,)) of the logits,
    summed over the directions and over the batch."""
    x = np.asarray(x, dtype=np.float64)
    znorm, safe, lam, dot, ch, sh = _logit_terms(x, z, gamma)
    zhat = np.asarray(z, dtype=np.float64) / safe[:, None]
    gv = np.where(znorm == 0.0, 0.0, np.asarray(grad_v, dtype=np.float64))
    arg = lam * dot * ch - (lam - 1.0) * sh
    asc = 1.0 / np.sqrt(1.0 + arg * arg)
    a = gv * 2.0 * znorm * asc
    # d arg / dx = lam^2 (dot ch - sh) x + lam ch zhat
    gx = (lam * lam) * np.sum(a * (dot * ch - sh), axis=1, keepdims=True) * x + lam * ((a * ch) @ zhat)
    # d v / dz = 2 asinh(arg) zhat + 2 asc lam ch (x - dot zhat)
    w = gv * 2.0 * asc * lam * ch
    gz = np.sum(gv * 2.0 * np.arcsinh(arg) - w * dot, axis=0)[:, None] * zhat + w.T @ x
    ggamma = np.sum(a * (2.0 * lam * dot * sh - 2.0 * (lam - 1.0) * ch), axis=0)
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

def seg_concat(y, seg):
    """Beta-concatenation of the parts of ``y``: one ball point of dimension D."""
    return pb_exp0(seg.beta * pb_log0(y, seg))


def seg_concat_vjp(y, seg, grad):
    u = seg.beta * pb_log0(y, seg)
    return pb_log0_vjp(y, seg.beta * pb_exp0_vjp(u, grad), seg)


def seg_split(y, seg):
    """Inverse of seg_concat: the parts of the ball point ``y`` laid out by ``seg``."""
    return pb_exp0(pb_log0(y) / seg.beta, seg)


def seg_split_vjp(y, seg, grad):
    u = pb_log0(y) / seg.beta
    return pb_log0_vjp(y, pb_exp0_vjp(u, grad, seg) / seg.beta)


# ---------------------------------------------------------------------------
# correlation <-> poly-Poincare
# ---------------------------------------------------------------------------

def _poly_n(d):
    """n of a poly-ball point of dimension d = n(n-1)/2."""
    n = (1 + math.isqrt(1 + 8 * d)) // 2
    if d < 1 or dom.lt0_dim(n) != d:
        raise DimensionMismatch(f"dimension {d} is not n(n-1)/2 for an n >= 2")
    return n


def cor_to_ppb(c):
    """Cholesky rows of a correlation matrix mapped to one poly-ball point.

    Returns (y, L): y (..., n(n-1)/2) holds the parts of dimension 1..n-1,
    part r = L[r, :r] / (1 + L[r, r]); L is the Cholesky factor.
    """
    l = la.chol(c)
    n = l.shape[-1]
    seg = poly_segments(n)
    y = dom.lt0_coords(l) / seg.spread(1.0 + la.diagvec(l)[..., 1:])
    return project_ball(y, seg), l


def ppb_to_cor(y):
    """Correlation matrix and Cholesky factor of a poly-ball point (inverse of cor_to_ppb).

    Row r of the factor is the hemisphere point (2 y_r, 1 - |y_r|^2) / (1 + |y_r|^2).
    """
    y = np.asarray(y, dtype=np.float64)
    n = _poly_n(y.shape[-1])
    seg = poly_segments(n)
    sq = seg.dot(y, y)
    u = 1.0 + sq
    l = dom.lt0_from_coords(2.0 * y / seg.spread(u), n)
    idx = np.arange(n)
    l[..., 0, 0] = 1.0
    l[..., idx[1:], idx[1:]] = (1.0 - sq) / u
    c = l @ la.transpose(l)
    c[..., idx, idx] = 1.0
    return c, l


def cor_to_ppb_vjp(l, grad_y):
    """Adjoint of cor_to_ppb given the Cholesky factor of the input."""
    n = l.shape[-1]
    seg = poly_segments(n)
    g = np.asarray(grad_y, dtype=np.float64)
    denom = 1.0 + la.diagvec(l)[..., 1:]
    gl = dom.lt0_from_coords(g / seg.spread(denom), n)
    idx = np.arange(1, n)
    gl[..., idx, idx] = -seg.dot(g, dom.lt0_coords(l)) / denom**2
    return la.chol_backward(l, gl)


def ppb_to_cor_vjp(y, l, grad_c):
    """Adjoint of ppb_to_cor; grad_c pairs with symmetric perturbations."""
    y = np.asarray(y, dtype=np.float64)
    seg = poly_segments(l.shape[-1])
    gl = 2.0 * la.sym(np.asarray(grad_c, dtype=np.float64)) @ l
    ghead = dom.lt0_coords(gl)
    u = 1.0 + seg.dot(y, y)
    coef = seg.dot(ghead, y) + la.diagvec(gl)[..., 1:]
    return 2.0 * ghead / seg.spread(u) - seg.spread((4.0 / u**2) * coef) * y
