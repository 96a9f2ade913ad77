"""Hot solver kernels, batched over the leading axis in numpy.

The implicit diagonal solvers dominate the runtime of the permutation-invariant
geometries.  Each iterative kernel works on the set of still-active samples at
once, with a per-sample stop test and damping schedule, so a sample's result
(iterations included) does not depend on the rest of its batch.
"""

import numpy as np

from . import linalg as la

# no compiled backend exists; the constant stays because perfbench/run.py
# records it in its environment line
USE_NUMBA = False

# damping schedule: alpha in {1, 1/2, ..., 2**-20}
_MAX_HALVINGS = 20


def dplus_solve(h, tol, max_iter):
    """Find diagonal vectors d with unit-diagonal exp(diag(d) + h), batched.

    Safeguarded Newton from d = 0 on log(e) = 0, e = diag(exp(S)) and
    S = diag(d) + h = U diag(lam) U^T.  The Jacobian of d -> e is the SPD
    H0 = h0_build(U, loewner(lam, exp, exp)), so a step solves
    H0 delta = -e log(e).  A Newton iterate whose residual max|e - 1| is not
    below that of its base point is discarded for the fixed-point step
    d <- d - log(e) of Archakov & Hansen (2021) from the base point.  Each
    evaluation of S (one eigh) counts as an iteration.

    Returns (d, iterations, residuals, lam, u) with (lam, u) the
    eigendecomposition of the last evaluated S; a residual above tol (or not
    finite) means the iteration budget ran out for that sample or exp
    overflowed at a point it could not step back from.
    """
    h = np.asarray(h, dtype=np.float64)
    b, n = h.shape[0], h.shape[1]
    d = np.zeros((b, n))
    iters = np.zeros(b, dtype=np.int64)
    res = np.full(b, np.inf)
    lam = np.zeros((b, n))
    u = np.zeros((b, n, n))
    # per sample: residual of the last accepted point and its fixed-point step
    base_res = np.full(b, np.inf)
    fixed = np.zeros((b, n))
    newton = np.zeros(b, dtype=bool)  # d is a Newton iterate not yet accepted
    active = np.arange(b)
    eye = np.arange(n)
    for _ in range(max_iter):
        if active.size == 0:
            break
        s = h[active]
        s[:, eye, eye] += d[active]
        lam_a, u_a = np.linalg.eigh(s)
        lam[active], u[active] = lam_a, u_a
        # a Newton iterate far off can overflow; its residual is then inf or
        # NaN and the iterate is rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            e = ((u_a * u_a) @ np.exp(lam_a)[..., None])[..., 0]
        r = np.abs(e - 1.0).max(axis=1)
        iters[active] += 1
        res[active] = r
        go = ~(r <= tol)  # a NaN residual keeps its sample going
        active, lam_a, u_a, e, r = active[go], lam_a[go], u_a[go], e[go], r[go]
        back = newton[active] & ~(r < base_res[active])  # NaN counts as no lower
        d[active[back]] = fixed[active[back]]
        newton[active[back]] = False
        # an accepted point whose residual overflowed gives no finite step:
        # its sample stops there with the residual above tol
        ok = ~back & np.isfinite(r)
        acc, e = active[ok], e[ok]
        log_e = np.log(e)
        base_res[acc], fixed[acc] = r[ok], d[acc] - log_e
        h0 = h0_build(u_a[ok], la.loewner(lam_a[ok], np.exp, np.exp))
        d[acc] += np.linalg.solve(h0, -(e * log_e)[..., None])[..., 0]
        newton[acc] = True
        active = active[back | ok]
    return d, iters, res, lam, u


def _residual(c, x):
    # a stacked matrix-vector product rounds exactly like the per-sample one
    return (c @ x[..., None])[..., 0] - 1.0 / x


def _newton_step(c, x, f):
    jac = c + np.eye(x.shape[-1]) * (1.0 / x**2)[..., None, :]
    return np.linalg.solve(jac, -f[..., None])[..., 0]


def _damped_update(c, x, fnorm, step):
    """Per sample, take the first alpha that keeps x positive and lowers max|f| below fnorm.

    Returns (x, ok, taken); a sample no alpha helps keeps its x, gets ok False
    and taken 0, and every other sample's taken is its alpha.
    """
    out = x.copy()
    pending = np.ones(len(x), dtype=bool)
    taken = np.zeros(len(x))
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
        taken[idx[better]] = alpha
        alpha *= 0.5
    return out, ~pending, taken


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
        x[active], ok, _ = _damped_update(ca, xa, r, _newton_step(ca, xa, f))
        # stalled at the rounding floor; fail only above threshold
        stalled = active[~ok]
        failed[stalled] = res[stalled] > tol * np.maximum(1.0, np.abs(x[stalled]).max(axis=-1))
        active = active[ok]
        iters[active] += 1
    return x, iters, res, failed


def dstar_newton1(c):
    """A single damped Newton step from x = 1, batched.

    Returns (x, alpha, damping_failed) with alpha the step length taken, 1
    where x = 1 already solves the system; positivity of x is guaranteed
    whenever the step succeeds.
    """
    c = np.asarray(c, dtype=np.float64)
    b, n = c.shape[0], c.shape[1]
    x = np.ones((b, n))
    alpha = np.ones(b)
    f = _residual(c, x)
    fnorm = np.abs(f).max(axis=-1)
    idx = np.flatnonzero(fnorm != 0.0)
    ci, xi = c[idx], x[idx]
    x[idx], ok, alpha[idx] = _damped_update(ci, xi, fnorm[idx], _newton_step(ci, xi, f[idx]))
    failed = np.zeros(b, dtype=bool)
    failed[idx] = ~ok
    return x, alpha, failed


def h0_build(u, lw):
    """Eigenbasis coupling matrix H0[i,l] = sum_jk U_ij U_ik U_lj U_lk LW_jk, batched.

    One matmul per sample: H0 = Q diag(vec LW) Q^T with Q[i, jk] = U_ij U_ik.
    """
    u = np.asarray(u, dtype=np.float64)
    n = u.shape[-1]
    q = (u[..., :, :, None] * u[..., :, None, :]).reshape(u.shape[:-2] + (n, n * n))
    qw = q * np.reshape(lw, np.shape(lw)[:-2] + (1, n * n))
    return qw @ np.swapaxes(q, -1, -2)
