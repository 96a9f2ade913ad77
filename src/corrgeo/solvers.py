"""Implicit diagonal solvers for the permutation-invariant geometries.

Two solvers, each with an exact reverse-mode rule:

* ``dplus``: the diagonal d making exp(diag(d) + H) unit-diagonal, by one
  Newton method with one budget of evaluations, from d0 = -log diag p4(H),
  p4 the degree-4 Taylor polynomial of exp: the first Archakov & Hansen
  (2021) fixed-point step from d = 0, without an eigh.  While diag(d) + H
  has infinity norm at most 1 (at most 8 for n >= 12, scaled and squared)
  and each evaluation lowers the residual, a sample is evaluated in Taylor
  arithmetic of ``linalg.sym_exp_taylor``'s degree, without an eigh; one
  whose evaluation meets tol is solved, with C that evaluation's
  approximation of exp(diag(d) + H).  Every other sample goes on by
  backtracking Newton on the residual max|diag(exp(diag(d) + H)) - 1| with
  the budget it has left, one eigh per evaluated point, and gets C from the
  last eigendecomposition.  The iteration count is the number of
  evaluations of both kinds.  ``dplus_eig``
  completes the eigendecompositions of the final diag(d) + H, from which
  ``dplus_diff`` forms the differential of H -> exp(diag(d) + H) and
  ``dplus_backward_batch`` its adjoint.
* ``dstar``: the positive vector x with (diag(x) C diag(x)) 1 = 1, i.e. the
  zero of f(x) = C x - 1/x (Marshall & Olkin, 1968), by backtracking Newton
  from x = 1 (``full``) or a single damped Newton step (``newton1``).

``full`` mode pairs with the exact analytic gradients below; ``newton1``
pairs with differentiating through the single step (see
``dstar_newton1_backward``).
"""

import numpy as np

from . import kernels
from . import linalg as la
from .errors import ConfigError, DampingFailure, NoConvergence, SingularH0

DPLUS_TOL = 1e-12
DPLUS_MAX_ITER = 100
DSTAR_TOL = 1e-10
DSTAR_MAX_ITER = 50
H0_COND_LIMIT = 1e12


# ---------------------------------------------------------------------------
# forward solves
# ---------------------------------------------------------------------------

def _as_batch(h):
    h = np.asarray(h, dtype=np.float64)
    return h.reshape((-1,) + h.shape[-2:])


def dplus_batch(h, tol=DPLUS_TOL, max_iter=DPLUS_MAX_ITER):
    """Batched diagonal solve; raises NoConvergence if any sample fails.

    Returns (d, iterations, residuals, c, eig) with c = exp(diag(d) + h) at
    the solved shift.  The iterations count every evaluation of the solve,
    polynomial or eigh, at most max_iter per sample (``kernels.dplus_solve``).
    ``eig`` = (rows, lam, u) holds the eigendecompositions of diag(d) + h
    the solve formed, with rows the flat batch indices of their samples;
    ``dplus_eig`` completes them.
    """
    hb = _as_batch(h)
    d, iters, res, c, eig = kernels.dplus_solve(hb, tol, max_iter)
    if not (res <= tol).all():
        worst = int(np.argmax(res))
        raise NoConvergence(int(iters[worst]), float(res[worst]), "dplus")
    return d.reshape(np.shape(h)[:-1]), iters, res, c.reshape(np.shape(h)), eig


def dplus_eig(h, d, eig):
    """(lam, u) of diag(d) + h for every sample of a ``dplus_batch`` solve.

    ``d`` and ``eig`` = (rows, lam, u) are what the solve returned for h;
    the samples outside rows, which it solved without an eigh, get one
    batched eigh here, the others keep the solve's.
    """
    hb = _as_batch(h)
    db = np.reshape(d, hb.shape[:-1])
    rows, *formed = eig
    lam, u = np.empty(db.shape), np.empty(hb.shape)
    lam[rows], u[rows] = formed
    missing = np.delete(np.arange(len(hb)), rows)
    if missing.size:
        lam[missing], u[missing] = np.linalg.eigh(hb[missing] + la.diag_from_vec(db[missing]))
    return lam.reshape(np.shape(d)), u.reshape(np.shape(h))


def dstar_batch(c, mode="full", tol=DSTAR_TOL, max_iter=DSTAR_MAX_ITER):
    """Batched positive-diagonal solve: (x, iterations, residuals, newton1 alpha or None)."""
    cb = _as_batch(c)
    alpha = None
    if mode == "full":
        x, iters, res, failed = kernels.dstar_full(cb, tol, max_iter)
    elif mode == "newton1":
        x, alpha, failed = kernels.dstar_newton1(cb)
        iters = np.ones(len(x), dtype=np.int64)
        res = np.abs(np.einsum("bij,bj->bi", cb, x) - 1.0 / x).max(axis=1)
        alpha = alpha.reshape(np.shape(c)[:-2])
    else:
        raise ConfigError(f"unknown dstar mode {mode!r}")
    if failed.any():
        raise DampingFailure("no damped step length reduced the residual")
    scale = np.maximum(1.0, np.abs(x).max(axis=-1))
    if alpha is None and (res > tol * scale).any():
        worst = int(np.argmax(res / scale))
        raise NoConvergence(int(iters[worst]), float(res[worst]), "dstar")
    shape = np.asarray(c).shape[:-2] + (cb.shape[-1],)
    return x.reshape(shape), iters, res, alpha


# ---------------------------------------------------------------------------
# exact reverse-mode rules
# ---------------------------------------------------------------------------

def dplus_diff(eig, v):
    """Differential of h -> C = exp(diag(dplus(h)) + h) along symmetric v.

    ``eig`` is (lam, u) of diag(d) + h at the solved shift (``dplus_batch``).
    With DK the Daleckii-Krein map of exp there and w = H0^-1 diag DK(v),
    returns DK(v - diag w): -w is the shift's differential, which keeps the
    unit diagonal.  The map ignores the diagonal of v and is self-adjoint.
    """
    lam, u = eig
    lw = la.loewner(lam, np.exp, np.exp)
    h0 = kernels.h0_build(u, lw)
    # H0 is SPD with its eigenvalues in [min LW, max LW] (kernels.h0_build),
    # so its condition number, its eigenvalue ratio, needs the spectrum only
    # where that range is wider than the limit
    wide = ~(lw.max(axis=(-2, -1)) <= H0_COND_LIMIT * lw.min(axis=(-2, -1)))
    ev = np.linalg.eigvalsh(h0[wide])
    if (ev[..., -1] > H0_COND_LIMIT * ev[..., 0]).any():
        raise SingularH0("eigenbasis coupling matrix condition exceeds 1e12")
    w = np.linalg.solve(h0, la.diagvec(la.daleckii_krein(u, lw, v))[..., None])[..., 0]
    return la.daleckii_krein(u, lw, v - la.diag_from_vec(w))


def dplus_backward_batch(grad_c, eig):
    """Adjoint of h -> C = exp(diag(dplus(h)) + h) given the adjoint of C:
    offmat(dplus_diff(eig, sym(grad_c))), which pairs with hollow dh."""
    return la.offmat(dplus_diff(eig, la.sym(np.asarray(grad_c, dtype=np.float64))))


def dstar_backward_batch(sigma, grad_sigma, x):
    """Adjoint of c -> sigma = diag(x) c diag(x) at the full-mode solution x.

    ``x`` is the solve ``dstar_batch`` returned in full mode and ``sigma``
    the scaled matrix the forward pass formed from it.  Returns the
    symmetric adjoint of c.
    """
    g = np.asarray(grad_sigma, dtype=np.float64)
    vtil = la.diagvec(sigma @ g + g @ sigma)
    n = sigma.shape[-1]
    eye = np.broadcast_to(np.eye(n), sigma.shape)
    mv = np.linalg.solve(eye + sigma, vtil[..., None])[..., 0]
    rank1 = mv[..., :, None] * np.ones(n)  # mv 1^T
    inner = g - la.sym(rank1)
    return x[..., :, None] * inner * x[..., None, :]


def dstar_newton1_backward_batch(c, grad_sigma, x, alpha):
    """Adjoint of c -> diag(x) c diag(x) through one damped Newton step.

    Differentiates the step itself (solve included), with the damping factor
    alpha treated as the constant the forward pass chose (``dstar_batch``
    returns it).
    """
    c = np.asarray(c, dtype=np.float64)
    g = np.asarray(grad_sigma, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n = c.shape[-1]
    ones = np.ones(c.shape[:-2] + (n,))
    r = np.einsum("...ij,...j->...i", c, ones) - 1.0
    eye = np.broadcast_to(np.eye(n), c.shape)
    a = c + eye
    u = np.linalg.solve(a, r[..., None])[..., 0]
    cbar = x[..., :, None] * g * x[..., None, :]
    xbar = 2.0 * np.einsum("...ij,...j->...i", g * c, x)
    stepbar = np.asarray(alpha)[..., None] * xbar
    ubar = -stepbar
    rbar = np.linalg.solve(a, ubar[..., None])[..., 0]
    cbar = cbar - rbar[..., :, None] * u[..., None, :]
    cbar = cbar + rbar[..., :, None] * np.ones_like(rbar)[..., None, :]
    return la.sym(cbar)
