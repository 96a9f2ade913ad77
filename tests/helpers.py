"""Shared oracles: central finite differences, random test inputs,
linear-algebra routines without a caller in the library (among them the
spectral matrix functions and their differentials), single-sample
solver entry points, the hemisphere-ball maps and hyperbolic distances the
library does not call, the broadcast Poincare logit and list-of-parts
poly-ball maps, per-sample reference loops for the batched solver kernels,
and the correlation and structural validators, dense prototype bases,
einsum contractions, the per-field conv loop and the correlation-matrix
tangent ReLU the layers once used."""

from dataclasses import dataclass

import numpy as np

from corrgeo import domain as dom
from corrgeo import hyperbolic as hyp
from corrgeo import layers as ly
from corrgeo import linalg as la
from corrgeo import solvers as sv
from corrgeo.errors import (
    DimensionMismatch, NoConvergence, NonFiniteInput, NonPositiveDiagonal, NotPositiveDefinite,
    NotSymmetric,
)


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(b.ravel()), 1e-12)
    return np.linalg.norm((a - b).ravel()) / denom


def central_fd_dir(f, x, v, h=1e-6):
    """Central finite difference of a matrix/array function along direction v."""
    return (np.asarray(f(x + h * v)) - np.asarray(f(x - h * v))) / (2.0 * h)


def fd_grad_sym(loss, s, h=1e-6):
    """Finite-difference gradient of a scalar loss of a symmetric matrix.

    Perturbs symmetric pairs, so the result pairs with symmetric adjoints G as
    out[i, j] = <G, E_ij + E_ji> off the diagonal and out[i, i] = G_ii.
    """
    s = np.asarray(s, dtype=np.float64)
    n = s.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            e[j, i] = 1.0
            if i == j:
                e[i, i] = 1.0
            out[i, j] = out[j, i] = (loss(s + h * e) - loss(s - h * e)) / (2.0 * h)
    return out


def sym_adjoint_as_fd(g):
    """Rearrange a symmetric adjoint G into the pairing produced by fd_grad_sym."""
    g = np.asarray(g, dtype=np.float64)
    out = g + g.T
    np.fill_diagonal(out, np.diagonal(g))
    return out


def fd_grad_free(loss, x, h=1e-6):
    """Finite-difference gradient of a scalar loss of a free array."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    flat = out.ravel()
    xf = x.ravel()
    for k in range(xf.size):
        e = np.zeros_like(xf)
        e[k] = 1.0
        xp = (xf + h * e).reshape(x.shape)
        xm = (xf - h * e).reshape(x.shape)
        flat[k] = (loss(xp) - loss(xm)) / (2.0 * h)
    return out


def random_sym(n, rng, scale=1.0):
    a = rng.standard_normal((n, n))
    s = scale * (a + a.T) / 2.0
    return s


def random_hollow(n, rng, scale=1.0):
    s = random_sym(n, rng, scale)
    np.fill_diagonal(s, 0.0)
    return s


def random_spd(n, rng, cond=10.0):
    """Random well-conditioned SPD matrix (eigenvalues in [1/cond, 1])."""
    a = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    lam = np.linspace(1.0 / cond, 1.0, n)
    return (q * lam) @ q.T


def random_unit_lower(n, rng, scale=0.5):
    k = np.eye(n) + scale * np.tril(rng.standard_normal((n, n)), -1)
    return k


# ---------------------------------------------------------------------------
# linear-algebra oracles
# ---------------------------------------------------------------------------

def sum_all(m):
    """Sum of all entries."""
    return np.asarray(m).sum(axis=(-2, -1))


@dataclass
class SymEig:
    """Eigendecomposition S = U diag(lam) U^T with ascending eigenvalues."""

    u: np.ndarray
    lam: np.ndarray


def sym_eig(s):
    """Eigendecomposition of a symmetric matrix (stack), eigenvalues ascending."""
    s = np.asarray(s, dtype=np.float64)
    gap = np.abs(s - la.transpose(s)).max()
    if gap > 1e-10:
        raise NotSymmetric(f"matrix asymmetric by {gap:.3e}")
    try:
        lam, u = np.linalg.eigh(s)
    except np.linalg.LinAlgError as e:
        raise NoConvergence(-1, np.nan, "eigendecomposition") from e
    return SymEig(u=u, lam=lam)


def chol_diff(p, v):
    """Directional derivative of the Cholesky factor at p along symmetric v."""
    return chol_diff_at(la.chol(p), v)


def chol_diff_at(l, v):
    return l @ la.half_lower(la.inner_solve_spd(l, v))


def chol_diff_inv(l, z):
    """Inverse of the Cholesky differential: recovers v from z = chol_*(v)."""
    return l @ la.transpose(z) + z @ la.transpose(l)


def tri_diff_block(name, a, xi):
    """linalg's triangular derivative ``name`` by the block embedding
    (Higham, Functions of Matrices, 2008, sec. 3.2): the top-right block of
    the degree-(2n-1) series at [[N, xi], [0, N]], summed by plain Horner.

    N is a - I for the log, a for the exp, and its transpose for the
    adjoints ``tri_log_diff_adjoint`` and ``tri_exp_diff_adjoint`` (each
    differential at the transposed base point), which are then exact
    everywhere, not only strictly below the diagonal.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[-1]
    nbase = a - np.eye(n) if name.startswith("tri_log") else a
    if name.endswith("adjoint"):
        nbase = la.transpose(nbase)
    coeffs = (la._log_coeffs if name.startswith("tri_log") else la._exp_coeffs)(2 * n - 1)
    big = np.zeros(np.broadcast_shapes(nbase.shape, np.shape(xi))[:-2] + (2 * n, 2 * n))
    big[..., :n, :n] = nbase
    big[..., n:, n:] = nbase
    big[..., :n, n:] = xi
    out = coeffs[-1] * np.eye(2 * n)
    for c in coeffs[-2::-1]:
        out = out @ big + c * np.eye(2 * n)
    return out[..., :n, n:]


_FUNS = {
    "exp": (np.exp, np.exp, False),
    "log": (np.log, lambda x: 1.0 / x, True),
}


def _fun_pair(kind, p):
    if kind in _FUNS:
        return _FUNS[kind]
    if kind == "power":
        if p is None:
            raise ValueError("power requires an exponent")
        needs_pd = float(p) != int(p) or p < 0
        return (lambda x: x**p), (lambda x: p * x ** (p - 1.0)), needs_pd
    raise ValueError(f"unknown matrix function {kind!r}")


def sym_fun(kind, s, p=None):
    """Matrix function U f(lam) U^T of a symmetric matrix (stack): "exp",
    "log" or "power" with exponent p."""
    f, _, needs_pd = _fun_pair(kind, p)
    lam, u = np.linalg.eigh(np.asarray(s, dtype=np.float64))
    if needs_pd:
        la._check_pd_eigs(lam, f"sym_fun({kind})")
    return la.from_eig(f(lam), u)


def sym_fun_diff(kind, s, v, p=None):
    """Directional derivative of sym_fun(kind, ., p) at s along v, by the
    Daleckii-Krein formula; self-adjoint in v."""
    f, df, needs_pd = _fun_pair(kind, p)
    lam, u = np.linalg.eigh(np.asarray(s, dtype=np.float64))
    if needs_pd:
        la._check_pd_eigs(lam, f"sym_fun_diff({kind})")
    return la.daleckii_krein(u, la.loewner(lam, f, df), np.asarray(v, dtype=np.float64))


def sym_log(s):
    return sym_fun("log", s)


def theta(c):
    """Cholesky factor rescaled to unit diagonal (stacked)."""
    l = la.chol(c)
    return l / la.diagvec(l)[..., :, None]


def theta_inv(k):
    """Inverse of the unit-diagonal Cholesky map: cor_of(k k^T)."""
    k = np.asarray(k, dtype=np.float64)
    return dom.cor_of(k @ la.transpose(k))


def rowzero_inner(a, b):
    """Inner product under which the row-zero coordinate basis is orthonormal."""
    return np.sum(dom.rowzero_coords(a) * dom.rowzero_coords(b), axis=-1)


def diff_at_identity(metric, zmat):
    """Differential of the prototype map at I applied to a hollow matrix."""
    if metric in ("ecm", "lecm"):
        return la.strict_lower(zmat)
    if metric == "olm":
        return zmat
    # lsm
    return zmat - la.diag_from_vec(zmat.sum(axis=-1))


# ---------------------------------------------------------------------------
# single-sample solver entry points over the batched solvers
# ---------------------------------------------------------------------------

@dataclass
class DplusResult:
    d: np.ndarray          # diagonal entries, so D = diag(d)
    iterations: int
    residual: float        # max |diag(exp(D + H)) - 1|


@dataclass
class DstarResult:
    x: np.ndarray          # positive vector, so D* = diag(x)
    iterations: int
    residual: float        # max |C x - 1/x|; the stop test scales tol by max(1, |x|)


def dplus(h, tol=sv.DPLUS_TOL, max_iter=sv.DPLUS_MAX_ITER):
    """Solve for the unit-diagonal shift of a single hollow symmetric matrix."""
    d, iters, res, _, _ = sv.dplus_batch(np.asarray(h, dtype=np.float64)[None], tol, max_iter)
    return DplusResult(d=d[0], iterations=int(iters[0]), residual=float(res[0]))


def off_exp_batch(h, tol=sv.DPLUS_TOL, max_iter=sv.DPLUS_MAX_ITER):
    """exp(diag(d) + h) for the solved shift d: hollow symmetric -> correlation."""
    return sv.dplus_batch(h, tol, max_iter)[3]


def dstar(c, mode="full", tol=sv.DSTAR_TOL, max_iter=sv.DSTAR_MAX_ITER):
    """Solve for the row-sum-normalizing diagonal of a single correlation matrix."""
    x, iters, res, _ = sv.dstar_batch(np.asarray(c, dtype=np.float64)[None], mode, tol, max_iter)
    return DstarResult(x=x[0], iterations=int(iters[0]), residual=float(res[0]))


def scaled_spd_batch(c, mode="full", tol=sv.DSTAR_TOL, max_iter=sv.DSTAR_MAX_ITER):
    """diag(x) C diag(x) with the solved x; unit row sums in full mode."""
    x = sv.dstar_batch(c, mode, tol, max_iter)[0]
    return np.asarray(c, dtype=np.float64) * x[..., :, None] * x[..., None, :], x


def dplus_backward(h, grad_c, tol=sv.DPLUS_TOL, max_iter=sv.DPLUS_MAX_ITER):
    """dplus_backward_batch for one sample, at its solved shift: the adjoint
    of h given that of exp(diag(dplus(h)) + h)."""
    h = np.asarray(h, dtype=np.float64)[None]
    d, _, _, _, eig = sv.dplus_batch(h, tol, max_iter)
    return sv.dplus_backward_batch(np.asarray(grad_c)[None], sv.dplus_eig(h, d, eig))[0]


def dstar_backward(c, grad_sigma, tol=sv.DSTAR_TOL, max_iter=sv.DSTAR_MAX_ITER):
    """dstar_backward_batch for one sample, at its full-mode solve."""
    sigma, x = scaled_spd_batch(np.asarray(c, dtype=np.float64)[None], "full", tol, max_iter)
    return sv.dstar_backward_batch(sigma, np.asarray(grad_sigma)[None], x)[0]


# ---------------------------------------------------------------------------
# Poincare-ball oracles
# ---------------------------------------------------------------------------

def in_ball(y):
    return np.sum(np.asarray(y) ** 2, axis=-1) < 1.0 - hyp.BALL_GUARD


def hyperboloid_dist(h1, h2):
    """Distance between hemisphere points through the hyperboloid model."""
    h1 = np.asarray(h1, dtype=np.float64)
    h2 = np.asarray(h2, dtype=np.float64)
    z1 = np.concatenate([h1[..., :-1], np.ones(h1.shape[:-1] + (1,))], axis=-1) / h1[..., -1:]
    z2 = np.concatenate([h2[..., :-1], np.ones(h2.shape[:-1] + (1,))], axis=-1) / h2[..., -1:]
    arg = -(np.sum(z1[..., :-1] * z2[..., :-1], axis=-1) - z1[..., -1] * z2[..., -1])
    return np.arccosh(np.maximum(arg, 1.0))


def poincare_dist(p, q):
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    d2 = np.sum((p - q) ** 2, axis=-1)
    den = (1.0 - np.sum(p * p, axis=-1)) * (1.0 - np.sum(q * q, axis=-1))
    return np.arccosh(np.maximum(1.0 + 2.0 * d2 / den, 1.0))


def pb_fc(x, zs, gammas):
    """Hyperbolic fully connected layer: y_k from logits via w = sinh(v).

    x: (..., n); zs: (m, n); gammas: (m,).  Returns (..., m) ball points; the
    construction keeps |y| < 1 for any logits.
    """
    v = np.stack([pb_mlr_logit_ref(x, zs[k], gammas[k]) for k in range(len(zs))], axis=-1)
    return hyp.pb_fc_from_logits(v)


def hs_to_pb(x):
    """Hemisphere point (unit norm, positive last coordinate) to ball point."""
    x = np.asarray(x, dtype=np.float64)
    return hyp.project_ball(x[..., :-1] / (1.0 + x[..., -1:]))


def pb_to_hs(y):
    """Ball point to hemisphere point (2y, 1 - |y|^2) / (1 + |y|^2)."""
    y = np.asarray(y, dtype=np.float64)
    sq = np.sum(y * y, axis=-1, keepdims=True)
    u = 1.0 + sq
    return np.concatenate([2.0 * y / u, (1.0 - sq) / u], axis=-1)


def hs_to_pb_vjp(x, grad_p):
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(grad_p, dtype=np.float64)
    denom = 1.0 + x[..., -1:]
    head = g / denom
    last = -np.sum(g * x[..., :-1], axis=-1, keepdims=True) / denom**2
    return np.concatenate([head, last], axis=-1)


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
# the broadcast Poincare logit and the list-of-parts poly-ball maps the
# layers once used: oracles for the matmul and segment forms
# ---------------------------------------------------------------------------

def pb_mlr_logit_ref(x, z, gamma):
    """Logit of broadcast x (..., n), z (..., n), gamma (...) through a
    (..., n) product summed over the last axis."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    znorm = np.sqrt(np.sum(z * z, axis=-1))
    zhat = z / np.where(znorm[..., None] == 0.0, 1.0, znorm[..., None])
    lam = 2.0 / (1.0 - np.sum(x * x, axis=-1))
    arg = lam * np.sum(x * zhat, axis=-1) * np.cosh(2.0 * gamma) - (lam - 1.0) * np.sinh(2.0 * gamma)
    return 2.0 * znorm * np.arcsinh(arg)


def pb_mlr_logit_vjp_ref(x, z, gamma, grad_v):
    """Broadcast adjoints (grad_x, grad_z, grad_gamma) of pb_mlr_logit_ref, not summed."""
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


def beta_concat(parts):
    """Concatenate a list of ball points through the library's seg_concat."""
    if not parts:
        raise DimensionMismatch("need at least one part")
    return hyp.seg_concat(np.concatenate(parts, axis=-1), hyp.segments(tuple(p.shape[-1] for p in parts)))


def beta_split(y, dims):
    """Inverse of beta_concat for the given part dimensions, through seg_split."""
    y = np.asarray(y, dtype=np.float64)
    if sum(dims) != y.shape[-1]:
        raise DimensionMismatch(f"dims {dims} do not sum to {y.shape[-1]}")
    return np.split(hyp.seg_split(y, hyp.segments(tuple(dims))), np.cumsum(dims)[:-1], axis=-1)


def beta_concat_ref(parts):
    dims = [p.shape[-1] for p in parts]
    bn = hyp.beta_fn(sum(dims))
    scaled = [bn / hyp.beta_fn(d) * hyp.pb_log0(p) for p, d in zip(parts, dims)]
    return hyp.pb_exp0(np.concatenate(scaled, axis=-1))


def beta_concat_vjp_ref(parts, grad_y):
    dims = [p.shape[-1] for p in parts]
    bn = hyp.beta_fn(sum(dims))
    scaled = [bn / hyp.beta_fn(d) * hyp.pb_log0(p) for p, d in zip(parts, dims)]
    gu = hyp.pb_exp0_vjp(np.concatenate(scaled, axis=-1), grad_y)
    grads = []
    off = 0
    for p, d in zip(parts, dims):
        grads.append(hyp.pb_log0_vjp(p, gu[..., off : off + d] * (bn / hyp.beta_fn(d))))
        off += d
    return grads


def beta_split_ref(y, dims):
    y = np.asarray(y, dtype=np.float64)
    bn = hyp.beta_fn(y.shape[-1])
    u = hyp.pb_log0(y)
    parts = []
    off = 0
    for d in dims:
        parts.append(hyp.pb_exp0(hyp.beta_fn(d) / bn * u[..., off : off + d]))
        off += d
    return parts


def beta_split_vjp_ref(y, dims, grad_parts):
    y = np.asarray(y, dtype=np.float64)
    bn = hyp.beta_fn(y.shape[-1])
    u = hyp.pb_log0(y)
    gu = np.zeros_like(u)
    off = 0
    for d, gp in zip(dims, grad_parts):
        seg = hyp.beta_fn(d) / bn * u[..., off : off + d]
        gu[..., off : off + d] = hyp.pb_exp0_vjp(seg, gp) * (hyp.beta_fn(d) / bn)
        off += d
    return hyp.pb_log0_vjp(y, gu)


def cor_to_ppb_ref(c):
    """(list of the n-1 Poincare parts of the Cholesky rows, Cholesky factor)."""
    l = la.chol(c)
    return [hs_to_pb(l[..., i, : i + 1]) for i in range(1, l.shape[-1])], l


def ppb_to_cor_ref(parts):
    """(correlation matrix, Cholesky factor) of a list of Poincare parts."""
    n = len(parts) + 1
    l = np.zeros(parts[0].shape[:-1] + (n, n))
    l[..., 0, 0] = 1.0
    for i, p in enumerate(parts, start=1):
        l[..., i, : i + 1] = pb_to_hs(p)
    c = l @ la.transpose(l)
    idx = np.arange(n)
    c[..., idx, idx] = 1.0
    return c, l


def cor_to_ppb_vjp_ref(l, grad_parts):
    gl = np.zeros_like(l)
    for i, gp in enumerate(grad_parts, start=1):
        gl[..., i, : i + 1] = hs_to_pb_vjp(l[..., i, : i + 1], gp)
    return la.chol_backward(l, gl)


def ppb_to_cor_vjp_ref(parts, l, grad_c):
    gl = 2.0 * la.sym(np.asarray(grad_c, dtype=np.float64)) @ l
    return [pb_to_hs_vjp(p, gl[..., i, : i + 1]) for i, p in enumerate(parts, start=1)]


# ---------------------------------------------------------------------------
# per-sample reference loops for the batched solver kernels
# ---------------------------------------------------------------------------

MAX_HALVINGS = 20
ARMIJO_C = 1e-4


def _dstar_residual(c, x):
    return c @ x - 1.0 / x


def _potential_ref(c, x):
    return 0.5 * (x * (c @ x)).sum() - np.log(x).sum()


def damped_update_ref(c, x, f, step, armijo=False):
    """First alpha = 1, 1/2, ..., 2**-20 whose positive trial lowers max|f|, or
    (with armijo, dstar's full mode) meets Armijo on the potential instead."""
    fnorm = np.abs(f).max()
    alpha = 1.0
    for _ in range(MAX_HALVINGS + 1):
        trial = x + alpha * step
        if np.all(trial > 0.0):
            if np.abs(_dstar_residual(c, trial)).max() < fnorm:
                return trial, True, alpha
            if armijo:
                decrease = ARMIJO_C * (f * (trial - x)).sum()
                if _potential_ref(c, trial) <= _potential_ref(c, x) + decrease:
                    return trial, True, alpha
        alpha *= 0.5
    return x, False, 0.0


def _polish_ref(c, x, f, fnorm):
    if fnorm == 0.0:
        return x, fnorm
    jac = c + np.diag(1.0 / x**2)
    trial = x + np.linalg.solve(jac, -f)
    if np.all(trial > 0.0):
        tnorm = np.abs(_dstar_residual(c, trial)).max()
        if tnorm <= fnorm:
            return trial, tnorm
    return x, fnorm


def dstar_start_ref(c):
    """dstar full mode's start t r^(-1/2) for one sample: r = c 1 (1 where r <= 0.05),
    scaled onto x^T c x = n."""
    r = c.sum(axis=1)
    xt = 1.0 / np.sqrt(np.where(r > 0.05, r, 1.0))
    return xt * np.sqrt(len(c) / (xt * (c @ xt)).sum())


def dstar_full_ref(c, tol, max_iter, start="scaled"):
    """Backtracking Newton for c @ x = 1/x, one sample at a time: (x, iters, res, failed).

    ``start`` is "scaled" (the kernel's start) or "ones" (x = 1)."""
    c = np.asarray(c, dtype=np.float64)
    b, n = c.shape[0], c.shape[1]
    if start == "scaled":
        x = np.stack([dstar_start_ref(ck) for ck in c])
    else:
        x = np.ones((b, n))
    iters = np.zeros(b, dtype=np.int64)
    res = np.full(b, np.inf)
    failed = np.zeros(b, dtype=bool)
    for k in range(b):
        xk = x[k]
        for _ in range(max_iter):
            f = _dstar_residual(c[k], xk)
            res[k] = np.abs(f).max()
            if res[k] <= tol * max(1.0, np.abs(xk).max()):
                xk, res[k] = _polish_ref(c[k], xk, f, res[k])
                break
            jac = c[k] + np.diag(1.0 / xk**2)
            step = np.linalg.solve(jac, -f)
            xk, ok, _ = damped_update_ref(c[k], xk, f, step, armijo=True)
            if not ok:
                failed[k] = res[k] > tol * max(1.0, np.abs(xk).max())
                break
            iters[k] += 1
        x[k] = xk
    return x, iters, res, failed


def dstar_newton1_ref(c):
    """One damped Newton step from x = 1, one sample at a time: (x, alpha, failed)."""
    c = np.asarray(c, dtype=np.float64)
    b, n = c.shape[0], c.shape[1]
    x = np.ones((b, n))
    alpha = np.ones(b)
    failed = np.zeros(b, dtype=bool)
    for k in range(b):
        f = c[k] @ x[k] - 1.0
        if np.abs(f).max() == 0.0:
            continue
        jac = c[k] + np.eye(n)
        step = np.linalg.solve(jac, -f)
        x[k], ok, alpha[k] = damped_update_ref(c[k], x[k], f, step)
        failed[k] = not ok
    return x, alpha, failed


def h0_build_ref(u, lw):
    """H0[i,l] = sum_jk U_ij U_ik U_lj U_lk LW_jk by a direct contraction."""
    p = u[..., :, None, :] * u[..., None, :, :]
    return np.einsum("...ilj,...jk,...ilk->...il", p, lw, p)


def _dplus_eval_ref(h, d):
    lam, u = np.linalg.eigh(h + np.diag(d))
    e = (u * u) @ np.exp(lam)
    return lam, u, e, np.abs(e - 1.0).max()


def dplus_newton_ref(h, tol=1e-12, max_iter=100):
    """dplus by eigh alone, one sample at a time: (d, evaluations, residuals, lam, u).

    Backtracking Newton on log diag exp(diag(d) + h) = 0 from d0 = -log diag
    p4(h), p4 the degree-4 Taylor polynomial of exp, with the Jacobian
    h0_build_ref(U, loewner(lam, exp, exp)); each evaluated point is one eigh
    and counts against max_iter, and a trial is taken once its residual
    max|e - 1| is below its base point's.
    """
    h = np.asarray(h, dtype=np.float64)
    b, n = h.shape[0], h.shape[1]
    d, evals, res = np.zeros((b, n)), np.ones(b, dtype=np.int64), np.zeros(b)
    lam, u = np.zeros((b, n)), np.zeros((b, n, n))
    for k in range(b):
        h2 = h[k] @ h[k]
        d[k] = -np.log(la.diagvec(np.eye(n) + h[k] + h2 / 2 + h2 @ h[k] / 6 + h2 @ h2 / 24))
        lam[k], u[k], e, res[k] = _dplus_eval_ref(h[k], d[k])
        while res[k] > tol and evals[k] < max_iter:
            h0 = h0_build_ref(u[k], la.loewner(lam[k], np.exp, np.exp))
            step = np.linalg.solve(h0, -e * np.log(e))
            for alpha in 0.5 ** np.arange(MAX_HALVINGS + 1):
                if evals[k] >= max_iter:
                    break
                evals[k] += 1
                trial = d[k] + alpha * step
                lam_t, u_t, e_t, r_t = _dplus_eval_ref(h[k], trial)
                if r_t < res[k]:
                    d[k], lam[k], u[k], e, res[k] = trial, lam_t, u_t, e_t, r_t
                    break
            else:
                break  # no step length lowered the residual
    return d, evals, res, lam, u


def dplus_history(h, tol=1e-12, max_iter=100):
    """Fixed point d <- d - log(diag(exp(diag(d) + h))) from d = 0 for one sample.

    Returns (d, residual history); one residual per evaluated point, and the
    loop stops at the first one within tol.
    """
    h = np.asarray(h, dtype=np.float64)
    d = np.zeros(h.shape[-1])
    history = []
    for _ in range(max_iter):
        diag = la.diagvec(la.sym_exp(h + np.diag(d)))
        history.append(float(np.abs(diag - 1.0).max()))
        if history[-1] <= tol:
            break
        d -= np.log(diag)
    return d, history


# ---------------------------------------------------------------------------
# structural validators, dense bases and einsum forms of the layer contractions
# ---------------------------------------------------------------------------

def is_valid_correlation(c, tol=dom.VALIDATE_TOL, eps_pd=dom.EPS_PD):
    try:
        dom.validate_correlation(c, tol, eps_pd)
        return True
    except (NonFiniteInput, NotSymmetric, NonPositiveDiagonal, NotPositiveDefinite):
        return False


def is_hollow(v, tol=0.0):
    v = np.asarray(v)
    return (
        np.abs(v - la.transpose(v)).max() <= max(tol, 1e-12)
        and np.abs(la.diagvec(v)).max() <= tol
    )


def is_rowzero(r, tol=dom.VALIDATE_TOL):
    r = np.asarray(r)
    return (
        np.abs(r - la.transpose(r)).max() <= max(tol, 1e-12)
        and np.abs(r.sum(axis=-1)).max() <= tol
    )


def is_strict_lower(x):
    return np.abs(np.triu(x)).max() == 0.0


def has_unit_rows(l, tol=dom.VALIDATE_TOL):
    """Rows of a Cholesky factor of a correlation matrix have unit L2 norm."""
    norms = np.sqrt((np.asarray(l) ** 2).sum(axis=-1))
    return np.abs(norms - 1.0).max() <= tol


def hol_basis(m):
    """Basis of hollow symmetric matrices, (E_ij + E_ji)/sqrt(2), i > j row-major."""
    if m < 2:
        raise ValueError("need m >= 2")
    return dom.hol_from_coords(np.eye(dom.lt0_dim(m)), m)


def rowzero_basis(m):
    """Basis of row-zero symmetric matrices dual to the row-zero coordinates.

    Each element is the zero-row-sum completion of a scaled principal-submatrix
    unit, e.g. (E_ii - E_im - E_mi + E_mm)/sqrt(3) for a diagonal slot.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    return dom.rowzero_from_coords(np.eye(dom.lt0_dim(m)), m)


def metric_basis(metric, m):
    """Prototype-space basis matrices defining the FC output coordinates."""
    if metric in ("ecm", "lecm"):
        return dom.lt0_from_coords(np.eye(dom.lt0_dim(m)), m)
    if metric == "olm":
        return hol_basis(m)
    return rowzero_basis(m)


def fc_param_count(p):
    """Trainable scalar count, asserting the slot layout."""
    slots = dom.lt0_dim(p.m)
    assert p.z.shape == (p.kernels, slots, p.channels, dom.lt0_dim(p.n))
    return p.z.size + p.gamma.size


def _row_sums_ref(z, n):
    """Row sums of the hollow symmetric matrices with strictly-lower entries z."""
    return ly.hollow_from_lower(z, n).sum(-1)


def _slot_gather_ref(s, n):
    """Adjoint of _row_sums_ref: each lower slot (i, j) gathers s_i + s_j."""
    i, j = np.tril_indices(n, -1)
    return s[..., i] + s[..., j]


def _norms_ref(z, metric, n):
    nrm2 = np.einsum("kcd,kcd->k", z, z)
    if metric in ("olm", "lsm"):
        nrm2 = 2.0 * nrm2
    if metric == "lsm":
        s = _row_sums_ref(z, n)
        nrm2 = nrm2 + np.einsum("kci,kci->k", s, s)
    return np.sqrt(nrm2)


def flat_logits_ref(px, z, gamma, metric, n):
    """The flat-metric logits by einsum: (B, K) from (B, C, n, n) prototype
    values and (K, C, dz) normals."""
    inner = np.einsum("bcd,kcd->bk", dom.lt0_coords(px), z)
    if metric in ("olm", "lsm"):
        inner = 2.0 * inner
    if metric == "lsm":
        inner = inner - np.einsum("bci,kci->bk", la.diagvec(px), _row_sums_ref(z, n))
    return inner - gamma * _norms_ref(z, metric, n)


def flat_logits_vjp_ref(px, z, gamma, metric, n, grad_v):
    """(grad_z, grad_gamma, grad_px) of flat_logits_ref by einsum."""
    norms = _norms_ref(z, metric, n)
    gsum = grad_v.sum(axis=0)
    coef = np.where(norms > 0.0, gsum * gamma / np.where(norms > 0.0, norms, 1.0), 0.0)
    zv = np.einsum("bk,kcd->bcd", grad_v, z)
    glow = np.einsum("bk,bcd->kcd", grad_v, dom.lt0_coords(px))
    if metric in ("ecm", "lecm"):
        return glow - coef[:, None, None] * z, -gsum * norms, dom.lt0_from_coords(zv, n)
    if metric == "olm":
        return 2.0 * (glow - coef[:, None, None] * z), -gsum * norms, ly.hollow_from_lower(zv, n)
    diag, s = la.diagvec(px), _row_sums_ref(z, n)
    sbar = -np.einsum("bk,bci->kci", grad_v, diag)
    grad_z = (2.0 * glow + _slot_gather_ref(sbar, n)
              - coef[:, None, None] * (2.0 * z + _slot_gather_ref(s, n)))
    dv = np.einsum("bk,kci->bci", grad_v, s)
    return grad_z, -gsum * norms, ly.hollow_from_lower(zv, n) - la.diag_from_vec(dv)


def fc_expand_ref(metric, v, m):
    """FC logits (..., slots) expanded against the dense basis: (..., m, m)."""
    return np.einsum("...s,sij->...ij", v, metric_basis(metric, m))


def fc_gather_ref(metric, g):
    """Adjoint of fc_expand_ref: (..., m, m) -> (..., slots)."""
    return np.einsum("...ij,sij->...s", g, metric_basis(metric, g.shape[-1]))


def conv_forward_ref(x, params, solver=None):
    """The conv as one ``fc_forward`` per receptive field, on the chart value
    of the input mapped once: (B, n_fields * kernels, m, m) and the cache of
    ``conv_vjp_ref``."""
    inp = ly.map_input(x, params.fc.metric, solver, keep_cache=True)
    fs = params.field_size
    ys, caches = [], []
    for start in range(0, params.in_channels - fs + 1, params.stride):
        field = ly.ChartInput(inp.value[:, start : start + fs], inp.metric, inp.n, inp.power, inp.solver)
        y, cache = ly.fc_forward(field, params.fc, solver)
        ys.append(y)
        caches.append((start, cache))
    return np.concatenate(ys, axis=1), {"caches": caches, "input": inp}


def conv_vjp_ref(params, cache, grad_y):
    """Pullback of ``conv_forward_ref``: one ``fc_vjp`` per field, parameter
    gradients summed and field adjoints added into their channels."""
    k, inp = params.fc.kernels, cache["input"]
    gvalue = np.zeros_like(inp.value)
    gz, ggamma = np.zeros_like(params.fc.z), np.zeros_like(params.fc.gamma)
    for idx, (start, fcache) in enumerate(cache["caches"]):
        grads, gfield = ly.fc_vjp(params.fc, fcache, grad_y[:, idx * k : (idx + 1) * k])
        gz += grads["z"]
        ggamma += grads["gamma"]
        gvalue[:, start : start + params.field_size] += gfield
    return {"z": gz, "gamma": ggamma}, ly._input_adjoint(inp, gvalue)


def tangent_relu_cor_ref(x, metric, solver):
    """The tangent ReLU as a map of (B, C, n, n) correlation matrices, as the
    network once ran it: rectify in ``metric``'s chart, then map back through
    the chart inverse (under phcm, each channel's poly-ball point)."""
    from corrgeo import geometry as geo

    n = x.shape[-1]
    if metric == "phcm":
        seg = hyp.poly_segments(n)
        tan = hyp.pb_log0(hyp.seg_concat(hyp.cor_to_ppb(x)[0], seg))
        return hyp.ppb_to_cor(hyp.seg_split(hyp.pb_exp0(np.maximum(tan, 0.0)), seg))[0]
    coords = geo.prototype_coords(metric, geo.to_prototype(metric, x, solver))
    return geo.from_prototype(metric, geo.prototype_from_coords(metric, np.maximum(coords, 0.0), n), solver)


# ---------------------------------------------------------------------------
# the sample-by-sample dataset generator
# ---------------------------------------------------------------------------

def generate_ref(classes, per_class, n, channels, spread, separation, seed):
    """data.generate drawn and solved one (sample, channel) at a time: each
    round draws one bump for every (sample, channel) still below the
    eigenvalue floor, in order.  Returns (samples, labels, retries), retries
    the draws beyond each (sample, channel)'s first."""
    from corrgeo import data as datamod
    from corrgeo import geometry as geo

    rng = np.random.default_rng(seed)
    anchors = datamod.draw_anchors(classes, channels, n, separation, rng)
    base = [[geo.to_prototype("olm", a) for a in anchor] for anchor in anchors]
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    samples = np.empty((len(labels), channels, n, n))
    pending = [(i, ch) for i in range(len(labels)) for ch in range(channels)]
    draws = 0
    for _ in range(datamod.SAMPLE_RETRIES):
        missed = []
        for i, ch in pending:
            bump = spread * dom.random_hollow(n, rng)
            samples[i, ch] = geo.from_prototype("olm", base[labels[i]][ch] + bump)
            draws += 1
            if np.linalg.eigvalsh(samples[i, ch]).min() < datamod.MIN_EIG_FLOOR:
                missed.append((i, ch))
        pending = missed
        if not pending:
            break
    return samples, labels, draws - len(labels) * channels
