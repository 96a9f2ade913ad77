"""Riemannian geometries on the correlation manifold.

Four flat (pullback-from-Euclidean) metrics share one template: a
diffeomorphism onto a prototype space, its differential, and their inverses.

    metric  prototype space          map                      inverse
    ecm     strictly lower           strict_lower(theta(C))   cor_of(K K^T)
    lecm    strictly lower           tri_log(theta(C))        cor_of(exp(X) exp(X)^T)
    olm     hollow symmetric         off(logm(C))             expm(diag(dplus) + H)
    lsm     row-zero symmetric       logm(D* C D*)            cor_of(expm(R))

The fifth metric (phcm) is the pullback of a product of hyperbolic
hemispheres through the Cholesky rows; only its distance and the layer
pipeline are exposed here.

All maps are batched over leading axes.  ``*_vjp`` functions are the adjoints
of the corresponding differentials under the Frobenius pairing and return
symmetric adjoints for symmetric arguments.
"""

import numpy as np

from . import domain as dom
from . import kernels
from . import linalg as la
from . import solvers as sv
from .errors import UnsupportedMetric

METRICS = ("ecm", "lecm", "olm", "lsm", "phcm")
LOG_EUCLIDEAN = ("ecm", "lecm", "olm", "lsm")

def check_metric(metric, allow_phcm=True):
    if metric not in METRICS:
        raise UnsupportedMetric(f"unknown metric {metric!r}")
    if metric == "phcm" and not allow_phcm:
        raise UnsupportedMetric("operation not available under phcm")
    return metric


def prototype_coords(metric, x):
    """Flatten a prototype element along the module's vectorization contract."""
    if metric in ("ecm", "lecm"):
        return dom.lt0_coords(x)
    if metric == "olm":
        return dom.hol_coords(x)
    if metric == "lsm":
        return dom.rowzero_coords(x)
    raise UnsupportedMetric(metric)


def prototype_from_coords(metric, v, m):
    if metric in ("ecm", "lecm"):
        return dom.lt0_from_coords(v, m)
    if metric == "olm":
        return dom.hol_from_coords(v, m)
    if metric == "lsm":
        return dom.rowzero_from_coords(v, m)
    raise UnsupportedMetric(metric)


# ---------------------------------------------------------------------------
# theta differential and its inverse/adjoint
# ---------------------------------------------------------------------------

def theta_diff_at(l, t, v):
    a = la.inner_solve_spd(l, v)
    return t @ la.half_lower(a) - 0.5 * la.dmat(a) @ t


def theta_diff(c, v):
    l = la.chol(c)
    t = l / la.diagvec(l)[..., :, None]
    return theta_diff_at(l, t, v)


def theta_diff_inv_at(l, c, xi):
    dl_vec = la.diagvec(l)
    lxt = l @ la.transpose(xi)
    dvec = la.diagvec(lxt)
    left = (lxt - c * dvec[..., None, :]) * dl_vec[..., None, :]
    right = dl_vec[..., :, None] * (la.transpose(lxt) - dvec[..., :, None] * c)
    return left + right


def theta_diff_inv(c, xi):
    return theta_diff_inv_at(la.chol(c), np.asarray(c, dtype=np.float64), xi)


def theta_diff_vjp_at(l, t, grad_xi):
    g = np.asarray(grad_xi, dtype=np.float64)
    abar = la.half_lower(la.transpose(t) @ g) - 0.5 * la.dmat(g @ la.transpose(t))
    lt = la.transpose(l)
    w = la.transpose(np.linalg.solve(lt, la.transpose(np.linalg.solve(lt, abar))))
    return la.sym(w)


# ---------------------------------------------------------------------------
# per-metric maps with caches for reverse mode
# ---------------------------------------------------------------------------

def _lsm_forward(c, solver):
    mode = solver.get("dstar_mode", "full")
    tol = solver.get("dstar_tol", sv.DSTAR_TOL)
    max_iter = solver.get("dstar_max_iter", sv.DSTAR_MAX_ITER)
    x, _, _ = sv.dstar_batch(c, mode, tol, max_iter)
    sigma = np.asarray(c, dtype=np.float64) * x[..., :, None] * x[..., None, :]
    r = la.sym_log(sigma)
    if mode == "newton1":
        r = project_rowzero(r)
    return r, {"x": x, "sigma": sigma, "mode": mode}


def project_rowzero(m):
    """Orthogonal projection of a symmetric matrix onto zero row sums."""
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[-1]
    r = m.sum(axis=-1)
    total = r.sum(axis=-1)[..., None]
    s = (r - total / (2.0 * n)) / n
    return m - s[..., :, None] - s[..., None, :]


def prototype_forward(metric, c, solver=None):
    """Map to the prototype space, returning (value, cache) for reverse mode."""
    check_metric(metric, allow_phcm=False)
    c = np.asarray(c, dtype=np.float64)
    if metric in ("ecm", "lecm"):
        l = la.chol(c)
        t = l / la.diagvec(l)[..., :, None]
        if metric == "ecm":
            return la.strict_lower(t), {"l": l, "t": t}
        return la.tri_log(t), {"l": l, "t": t}
    if metric == "olm":
        lam, u = np.linalg.eigh(c)
        la._check_pd_eigs(lam, "off-log")
        logc = (u * np.log(lam)[..., None, :]) @ la.transpose(u)
        return la.offmat(logc), {"lam": lam, "u": u}
    # lsm
    return _lsm_forward(c, solver or {})


def to_prototype(metric, c, solver=None):
    return prototype_forward(metric, c, solver)[0]


def prototype_vjp(metric, c, cache, grad_x):
    """Adjoint of the prototype map at c; returns the symmetric adjoint of c."""
    g = np.asarray(grad_x, dtype=np.float64)
    if metric == "ecm":
        return theta_diff_vjp_at(cache["l"], cache["t"], la.strict_lower(g))
    if metric == "lecm":
        gtheta = la.tri_log_diff_adjoint(cache["t"], g)
        return theta_diff_vjp_at(cache["l"], cache["t"], gtheta)
    if metric == "olm":
        lam, u = cache["lam"], cache["u"]
        lw = la.loewner(lam, np.log, lambda x: 1.0 / x)
        goff = la.offmat(la.sym(g))
        return u @ (lw * (la.transpose(u) @ goff @ u)) @ la.transpose(u)
    if metric == "lsm":
        gs = la.sym(g)
        if cache["mode"] == "newton1":
            gs = project_rowzero(gs)
            gsigma = la.sym_fun_diff("log", cache["sigma"], gs)
            return sv.dstar_newton1_backward_batch(c, gsigma, cache["x"])
        gsigma = la.sym_fun_diff("log", cache["sigma"], gs)
        return sv.dstar_backward_batch(c, gsigma, cache["x"])
    raise UnsupportedMetric(metric)


def inverse_forward(metric, x, solver=None):
    """Map from the prototype space back to correlation matrices, with cache."""
    check_metric(metric, allow_phcm=False)
    x = np.asarray(x, dtype=np.float64)
    solver = solver or {}
    if metric == "ecm":
        n = x.shape[-1]
        k = x + np.eye(n)
        sigma = k @ la.transpose(k)
        return dom.cor_of(sigma), {"k": k, "sigma": sigma}
    if metric == "lecm":
        k = la.tri_exp(x)
        sigma = k @ la.transpose(k)
        return dom.cor_of(sigma), {"k": k, "sigma": sigma}
    if metric == "olm":
        tol = solver.get("dplus_tol", sv.DPLUS_TOL)
        max_iter = solver.get("dplus_max_iter", sv.DPLUS_MAX_ITER)
        _, _, _, lam, u = sv.dplus_batch(x, tol, max_iter)
        c = (u * np.exp(lam)[..., None, :]) @ la.transpose(u)
        return c, {"lam": lam, "u": u}
    # lsm
    sigma = la.sym_exp(x)
    return dom.cor_of(sigma), {"sigma": sigma, "x": x}


def from_prototype(metric, x, solver=None):
    return inverse_forward(metric, x, solver)[0]


def inverse_vjp(metric, x, cache, grad_c):
    """Adjoint of the inverse map at x; pairs with prototype-space perturbations."""
    g = np.asarray(grad_c, dtype=np.float64)
    if metric in ("ecm", "lecm"):
        k, sigma = cache["k"], cache["sigma"]
        gsigma = dom.cor_of_backward(sigma, g)
        gk = 2.0 * gsigma @ k
        if metric == "ecm":
            return la.strict_lower(gk)
        return la.strict_lower(la.tri_exp_diff_adjoint(x, gk))
    if metric == "olm":
        lam, u = cache["lam"], cache["u"]
        lw = la.loewner(lam, np.exp, np.exp)
        gs = u @ (lw * (la.transpose(u) @ la.sym(g) @ u)) @ la.transpose(u)
        return sv.dplus_backward_batch(x, gs, eig=(lam, u))
    if metric == "lsm":
        sigma = cache["sigma"]
        gsigma = dom.cor_of_backward(sigma, g)
        return la.sym_fun_diff("exp", x, gsigma)
    raise UnsupportedMetric(metric)


# ---------------------------------------------------------------------------
# differentials (pushforwards) and their inverses
# ---------------------------------------------------------------------------

def pushforward(metric, c, v, solver=None):
    """Differential of the prototype map at c applied to a tangent vector v."""
    check_metric(metric, allow_phcm=False)
    c = np.asarray(c, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if metric == "ecm":
        return theta_diff(c, v)
    if metric == "lecm":
        l = la.chol(c)
        t = l / la.diagvec(l)[..., :, None]
        return la.tri_log_diff(t, theta_diff_at(l, t, v))
    if metric == "olm":
        return la.offmat(la.sym_fun_diff("log", c, v))
    # lsm (full-mode scaling)
    x, _, _ = sv.dstar_batch(c, "full")
    sigma = c * x[..., :, None] * x[..., None, :]
    dvd = x[..., :, None] * v * x[..., None, :]
    n = c.shape[-1]
    eye = np.broadcast_to(np.eye(n), sigma.shape)
    w = np.linalg.solve(eye + sigma, dvd.sum(axis=-1)[..., None])[..., 0]
    v0 = -2.0 * w
    inner = dvd + 0.5 * (v0[..., :, None] * sigma + sigma * v0[..., None, :])
    return la.sym_fun_diff("log", sigma, inner)


def pushforward_inv(metric, c, w, solver=None):
    """Inverse differential: prototype perturbation back to a tangent vector at c."""
    check_metric(metric, allow_phcm=False)
    c = np.asarray(c, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if metric == "ecm":
        return theta_diff_inv(c, w)
    if metric == "lecm":
        l = la.chol(c)
        t = l / la.diagvec(l)[..., :, None]
        xi = la.tri_exp_diff(la.tri_log(t), w)
        return theta_diff_inv_at(l, c, xi)
    if metric == "olm":
        # the base point of the inverse differential is log(c) itself
        lam_c, u = np.linalg.eigh(c)
        la._check_pd_eigs(lam_c, "off-exp differential")
        mu = np.log(lam_c)
        lw = la.loewner(mu, np.exp, np.exp)
        ut = la.transpose(u)
        exp_star_w = u @ (lw * (ut @ w @ u)) @ ut
        h0 = kernels.h0_build(u, lw)
        rhs = la.diagvec(exp_star_w)
        dshift = -np.linalg.solve(h0, rhs[..., None])[..., 0]
        arg = w + la.diag_from_vec(dshift)
        return u @ (lw * (ut @ arg @ u)) @ ut
    # lsm: inverse differential of the scaled-log map at x = to_prototype(c)
    x, _, _ = sv.dstar_batch(c, "full")
    sigma = c * x[..., :, None] * x[..., None, :]
    r = la.sym_log(sigma)
    e = la.sym_fun_diff("exp", r, w)
    dvec = la.diagvec(e)
    xinv2 = 1.0 / (x * x)
    corr = xinv2[..., :, None] * dvec[..., :, None] * sigma + sigma * (dvec * xinv2)[..., None, :]
    inner = e - 0.5 * corr
    xinv = 1.0 / x
    return xinv[..., :, None] * inner * xinv[..., None, :]


# ---------------------------------------------------------------------------
# Riemannian operators (closed forms of the pullback geometry)
# ---------------------------------------------------------------------------

def riem_inner(metric, c, v, w, solver=None):
    pv = pushforward(metric, c, v, solver)
    pw = pushforward(metric, c, w, solver)
    return np.sum(pv * pw, axis=(-2, -1))


def riem_exp(metric, c, v, solver=None):
    x = to_prototype(metric, c, solver)
    return from_prototype(metric, x + pushforward(metric, c, v, solver), solver)


def riem_log(metric, c, c2, solver=None):
    x = to_prototype(metric, c, solver)
    x2 = to_prototype(metric, c2, solver)
    return pushforward_inv(metric, c, x2 - x, solver)


def geodesic(metric, c, c2, t, solver=None):
    x = to_prototype(metric, c, solver)
    x2 = to_prototype(metric, c2, solver)
    return from_prototype(metric, (1.0 - t) * x + t * x2, solver)


def riem_dist(metric, c, c2, solver=None):
    check_metric(metric)
    if metric == "phcm":
        return phcm_dist(c, c2)
    x = to_prototype(metric, c, solver)
    x2 = to_prototype(metric, c2, solver)
    return np.sqrt(np.sum((x - x2) ** 2, axis=(-2, -1)))


def parallel_transport(metric, c, c2, v, solver=None):
    return pushforward_inv(metric, c2, pushforward(metric, c, v, solver), solver)


def frechet_mean(metric, cs, solver=None):
    """Closed-form mean: inverse image of the prototype-space average."""
    check_metric(metric, allow_phcm=False)
    xs = np.stack([to_prototype(metric, c, solver) for c in cs])
    return from_prototype(metric, xs.mean(axis=0), solver)


# ---------------------------------------------------------------------------
# poly-hyperbolic distance
# ---------------------------------------------------------------------------

def _hemisphere_to_hyperboloid(row):
    """(x_1..x_k, x_last) on the unit hemisphere -> hyperboloid coordinates."""
    return np.concatenate([row[..., :-1], np.ones(row.shape[:-1] + (1,))], axis=-1) / row[..., -1:]


def lorentz_inner(a, b):
    return np.sum(a[..., :-1] * b[..., :-1], axis=-1) - a[..., -1] * b[..., -1]


def phcm_dist(c, c2):
    """Geodesic distance of the product-of-hemispheres geometry.

    Accumulates arccosh terms over the Cholesky rows mapped to the
    hyperboloid; arguments inside rounding distance of 1 are clamped.
    """
    c = np.asarray(c, dtype=np.float64)
    l1 = la.chol(c)
    l2 = la.chol(np.asarray(c2, dtype=np.float64))
    n = l1.shape[-1]
    total = np.zeros(c.shape[:-2])
    for i in range(1, n):
        z1 = _hemisphere_to_hyperboloid(l1[..., i, : i + 1])
        z2 = _hemisphere_to_hyperboloid(l2[..., i, : i + 1])
        arg = -lorentz_inner(z1, z2)
        arg = np.maximum(arg, 1.0)
        total = total + np.arccosh(arg) ** 2
    return np.sqrt(total)
