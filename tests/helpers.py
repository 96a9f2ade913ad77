"""Shared oracles: central finite differences, random test inputs,
linear-algebra routines without a caller in the library, per-sample
reference loops for the batched solver kernels, and the structural
validators, dense prototype bases and einsum contractions the layers once
used."""

from dataclasses import dataclass

import numpy as np

from corrgeo import domain as dom
from corrgeo import layers as ly
from corrgeo import linalg as la
from corrgeo.errors import NoConvergence, NotSymmetric


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
    adjoints, which are then exact everywhere, not only strictly below the
    diagonal.
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
            xk, ok, _ = damped_update_ref(c[k], xk, f, step)
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
    if p.metric == "phcm":
        return p.z.size + p.gamma.size
    slots = dom.lt0_dim(p.m)
    assert p.z.shape == (p.kernels, slots, p.channels, dom.lt0_dim(p.n))
    return p.z.size + p.gamma.size


def _norms_ref(z, metric, n):
    nrm2 = np.einsum("kcd,kcd->k", z, z)
    if metric in ("olm", "lsm"):
        nrm2 = 2.0 * nrm2
    if metric == "lsm":
        s = ly._z_row_sums(z, n)
        nrm2 = nrm2 + np.einsum("kci,kci->k", s, s)
    return np.sqrt(nrm2)


def flat_logits_ref(px, z, gamma, metric, n):
    """The flat-metric logits by einsum: (B, K) from (B, C, n, n) prototype
    values and (K, C, dz) normals."""
    inner = np.einsum("bcd,kcd->bk", dom.lt0_coords(px), z)
    if metric in ("olm", "lsm"):
        inner = 2.0 * inner
    if metric == "lsm":
        inner = inner - np.einsum("bci,kci->bk", la.diagvec(px), ly._z_row_sums(z, n))
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
    diag, s = la.diagvec(px), ly._z_row_sums(z, n)
    sbar = -np.einsum("bk,bci->kci", grad_v, diag)
    grad_z = (2.0 * glow + ly._gather_row_sums(sbar, n)
              - coef[:, None, None] * (2.0 * z + ly._gather_row_sums(s, n)))
    dv = np.einsum("bk,kci->bci", grad_v, s)
    return grad_z, -gsum * norms, ly.hollow_from_lower(zv, n) - la.diag_from_vec(dv)


def fc_expand_ref(metric, v, m):
    """FC logits (..., slots) expanded against the dense basis: (..., m, m)."""
    return np.einsum("...s,sij->...ij", v, metric_basis(metric, m))


def fc_gather_ref(metric, g):
    """Adjoint of fc_expand_ref: (..., m, m) -> (..., slots)."""
    return np.einsum("...ij,sij->...s", g, metric_basis(metric, g.shape[-1]))
