"""Hot solver kernels, batched over the leading axis in numpy.

The implicit diagonal solvers dominate the runtime of the permutation-invariant
geometries.  Each iterative kernel works on the set of still-active samples at
once, with a per-sample stop test and damping schedule, so a sample's result
(iterations included) does not depend on the rest of its batch.
"""

import numpy as np

# no compiled backend exists; the constant stays because perfbench/run.py
# records it in its environment line
USE_NUMBA = False

# damping schedule: alpha in {1, 1/2, ..., 2**-20}
_MAX_HALVINGS = 20


def _sym_exp_batch(s):
    w, v = np.linalg.eigh(s)
    return (v * np.exp(w)[..., None, :]) @ np.swapaxes(v, -1, -2)


def dplus_solve(h, tol, max_iter):
    """Find diagonal vectors d with unit-diagonal exp(diag(d) + h), batched.

    Fixed-point iteration d <- d - log(diag(exp(diag(d) + h))) from d = 0.
    Returns (d, iterations, residuals); a residual above tol means the
    iteration budget ran out for that sample.
    """
    h = np.asarray(h, dtype=np.float64)
    b, n = h.shape[0], h.shape[1]
    d = np.zeros((b, n))
    iters = np.zeros(b, dtype=np.int64)
    res = np.full(b, np.inf)
    active = np.ones(b, dtype=bool)
    eye = np.arange(n)
    for _ in range(max_iter):
        if not active.any():
            break
        s = h[active].copy()
        s[:, eye, eye] += d[active]
        diag = _sym_exp_batch(s)[:, eye, eye]
        r = np.abs(diag - 1.0).max(axis=1)
        iters[active] += 1
        res[active] = r
        done = r <= tol
        upd = np.where(active)[0]
        d[upd[~done]] -= np.log(diag[~done])
        active[upd[done]] = False
    return d, iters, res


def _residual(c, x):
    # a stacked matrix-vector product rounds exactly like the per-sample one
    return (c @ x[..., None])[..., 0] - 1.0 / x


def _newton_step(c, x, f):
    jac = c + np.eye(x.shape[-1]) * (1.0 / x**2)[..., None, :]
    return np.linalg.solve(jac, -f[..., None])[..., 0]


def _damped_update(c, x, fnorm, step):
    """Per sample, take the first alpha that keeps x positive and lowers max|f| below fnorm.

    Returns (x, ok); a sample no alpha helps keeps its x and gets ok False.
    """
    out = x.copy()
    pending = np.ones(len(x), dtype=bool)
    alpha = 1.0
    for _ in range(_MAX_HALVINGS + 1):
        idx = np.flatnonzero(pending)
        if idx.size == 0:
            break
        trial = x[idx] + alpha * step[idx]
        positive = (trial > 0.0).all(axis=-1)
        idx, trial = idx[positive], trial[positive]
        better = np.abs(_residual(c[idx], trial)).max(axis=-1) < fnorm[idx]
        out[idx[better]] = trial[better]
        pending[idx[better]] = False
        alpha *= 0.5
    return out, ~pending


def _polish(c, x, f, fnorm):
    """One undamped Newton step, kept where it stays positive and does not raise max|f|."""
    x, fnorm = x.copy(), fnorm.copy()
    idx = np.flatnonzero(fnorm != 0.0)
    trial = x[idx] + _newton_step(c[idx], x[idx], f[idx])
    positive = (trial > 0.0).all(axis=-1)
    idx, trial = idx[positive], trial[positive]
    tnorm = np.abs(_residual(c[idx], trial)).max(axis=-1)
    keep = tnorm <= fnorm[idx]
    x[idx[keep]] = trial[keep]
    fnorm[idx[keep]] = tnorm[keep]
    return x, fnorm


def dstar_full(c, tol, max_iter):
    """Damped-Newton solve of c @ x = 1/x for positive x, batched.

    Returns (x, iterations, residuals, damping_failed).  The residual is the
    max-norm of c @ x - 1/x; iteration stops once it falls below tol, after
    which one guarded undamped Newton step polishes x to the rounding floor.
    """
    c = np.asarray(c, dtype=np.float64)
    b, n = c.shape[0], c.shape[1]
    x = np.ones((b, n))
    iters = np.zeros(b, dtype=np.int64)
    res = np.full(b, np.inf)
    failed = np.zeros(b, dtype=bool)
    active = np.arange(b)
    for _ in range(max_iter):
        if active.size == 0:
            break
        ca, xa = c[active], x[active]
        f = _residual(ca, xa)
        r = np.abs(f).max(axis=-1)
        res[active] = r
        # scale-aware stop: the attainable floor grows with |x|
        done = r <= tol * np.maximum(1.0, np.abs(xa).max(axis=-1))
        if done.any():
            fin = active[done]
            x[fin], res[fin] = _polish(ca[done], xa[done], f[done], r[done])
            active, ca, xa, f, r = active[~done], ca[~done], xa[~done], f[~done], r[~done]
        x[active], ok = _damped_update(ca, xa, r, _newton_step(ca, xa, f))
        # stalled at the rounding floor; fail only above threshold
        stalled = active[~ok]
        failed[stalled] = res[stalled] > tol * np.maximum(1.0, np.abs(x[stalled]).max(axis=-1))
        active = active[ok]
        iters[active] += 1
    return x, iters, res, failed


def dstar_newton1(c):
    """A single damped Newton step from x = 1, batched.

    Returns (x, damping_failed); positivity of x is guaranteed whenever the
    step succeeds.
    """
    c = np.asarray(c, dtype=np.float64)
    b, n = c.shape[0], c.shape[1]
    x = np.ones((b, n))
    f = _residual(c, x)
    fnorm = np.abs(f).max(axis=-1)
    idx = np.flatnonzero(fnorm != 0.0)
    ci, xi = c[idx], x[idx]
    x[idx], ok = _damped_update(ci, xi, fnorm[idx], _newton_step(ci, xi, f[idx]))
    failed = np.zeros(b, dtype=bool)
    failed[idx] = ~ok
    return x, failed


def h0_build(u, lw):
    """Eigenbasis coupling matrix H0[i,l] = sum_jk U_ij U_ik U_lj U_lk LW_jk, batched.

    One matmul per sample: H0 = Q diag(vec LW) Q^T with Q[i, jk] = U_ij U_ik.
    """
    u = np.asarray(u, dtype=np.float64)
    n = u.shape[-1]
    q = (u[..., :, :, None] * u[..., :, None, :]).reshape(u.shape[:-2] + (n, n * n))
    qw = q * np.reshape(lw, np.shape(lw)[:-2] + (1, n * n))
    return qw @ np.swapaxes(q, -1, -2)
