"""Shared oracles: central finite differences, random test inputs and
per-sample reference loops for the batched solver kernels."""

import numpy as np


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
# per-sample reference loops for the batched solver kernels
# ---------------------------------------------------------------------------

MAX_HALVINGS = 20


def _dstar_residual(c, x):
    return c @ x - 1.0 / x


def damped_update_ref(c, x, f, step):
    fnorm = np.abs(f).max()
    alpha = 1.0
    for _ in range(MAX_HALVINGS + 1):
        trial = x + alpha * step
        if np.all(trial > 0.0):
            if np.abs(_dstar_residual(c, trial)).max() < fnorm:
                return trial, True
        alpha *= 0.5
    return x, False


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


def dstar_full_ref(c, tol, max_iter):
    """Damped Newton for c @ x = 1/x, one sample at a time: (x, iters, res, failed)."""
    c = np.asarray(c, dtype=np.float64)
    b, n = c.shape[0], c.shape[1]
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
            xk, ok = damped_update_ref(c[k], xk, f, step)
            if not ok:
                failed[k] = res[k] > tol * max(1.0, np.abs(xk).max())
                break
            iters[k] += 1
        x[k] = xk
    return x, iters, res, failed


def dstar_newton1_ref(c):
    """One damped Newton step from x = 1, one sample at a time: (x, failed)."""
    c = np.asarray(c, dtype=np.float64)
    b, n = c.shape[0], c.shape[1]
    x = np.ones((b, n))
    failed = np.zeros(b, dtype=bool)
    for k in range(b):
        f = c[k] @ x[k] - 1.0
        if np.abs(f).max() == 0.0:
            continue
        jac = c[k] + np.eye(n)
        step = np.linalg.solve(jac, -f)
        x[k], ok = damped_update_ref(c[k], x[k], f, step)
        failed[k] = not ok
    return x, failed


def h0_build_ref(u, lw):
    """H0[i,l] = sum_jk U_ij U_ik U_lj U_lk LW_jk by a direct contraction."""
    p = u[..., :, None, :] * u[..., None, :, :]
    return np.einsum("...ilj,...jk,...ilk->...il", p, lw, p)
