"""Riemannian geometries on the correlation manifold.

The four flat metrics are pullbacks: a diffeomorphism onto a Euclidean
prototype space (strictly lower for ecm/lecm, hollow symmetric for olm,
row-zero symmetric for lsm), its differential, and their inverses.  Each is
one chart in ``CHARTS``.  ``forward(c, solver)`` and ``inverse(x, solver)``
return the mapped value and a cache of the input and its factorization:

    metric  forward C -> X          forward cache             inverse X -> C
    ecm     strict_lower(theta(C))  c, L = chol(C), theta, X  cor_of(K K^T), K = I + X
    lecm    tri_log(theta(C))       c, L, theta, X            cor_of(K K^T), K = tri_exp(X)
    olm     off(logm(C))            c, (lam, U) of C          expm(diag(dplus(X)) + X)
    lsm     logm(D* C D*)           c, D* = diag(x), D* C D*, cor_of(la.sym_exp_taylor(X))
                                    its (lam, U), newton1 alpha

The inverse caches hold X with K, K K^T and C (ecm, lecm), X with the shift
d and the (lam, U) of diag(d) + X the dplus solve formed, with their samples
(olm), or X, expm(X) and C (lsm).  The differentials (``push``,
``push_inv``) and adjoints (``vjp``, ``inverse_vjp``) take the cache, never
the point, so no base point is factored twice, and they read the cache and
never write it.  What a cache lacks, an adjoint forms on each call: the olm
``inverse_vjp`` the (lam, U) of the samples its solve took without an eigh,
the lsm one the (lam, U) of X.  Each inverse ends in cor_of (ecm, lecm,
lsm) or in the dplus shift (olm), and its differential ``push_inv`` and
adjoint ``inverse_vjp`` end in that map's: ``dom.cor_of_diff`` and
``dom.cor_of_backward``, or ``sv.dplus_diff`` and
``sv.dplus_backward_batch``.  ``coords``, ``from_coords`` and their adjoints
vectorize the prototype space.  The lsm differentials are those of the
full-mode scaling and reject a newton1 cache, so the Riemannian operators
solve lsm in full mode whatever ``dstar_mode`` they are given.

The fifth metric (phcm) is the pullback of a product of hyperbolic
hemispheres through the Cholesky rows; only its distance and the layer
pipeline are exposed here.  All maps are batched over leading axes; the
adjoints are taken under the Frobenius pairing and are symmetric for
symmetric arguments.
"""

import numpy as np

from . import domain as dom
from . import linalg as la
from . import solvers as sv
from .errors import UnsupportedMetric

METRICS = ("ecm", "lecm", "olm", "lsm", "phcm")


def check_metric(metric, allow_phcm=True):
    if metric not in METRICS:
        raise UnsupportedMetric(f"unknown metric {metric!r}")
    if metric == "phcm" and not allow_phcm:
        raise UnsupportedMetric("operation not available under phcm")
    return metric


def project_rowzero(m):
    """Orthogonal projection of a symmetric matrix onto zero row sums."""
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[-1]
    r = m.sum(axis=-1)
    total = r.sum(axis=-1)[..., None]
    s = (r - total / (2.0 * n)) / n
    return m - s[..., :, None] - s[..., None, :]


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def _log_eig(s, what):
    """logm of an SPD stack, with its eigendecomposition (lam, u)."""
    lam, u = np.linalg.eigh(s)
    la._check_pd_eigs(lam, what)
    return la.from_eig(np.log(lam), u), lam, u


def _log_loewner(lam):
    return la.loewner(lam, np.log, lambda x: 1.0 / x)


def _identity(_, v):
    return v


class TriangularChart:
    """ecm and lecm: C -> log(theta(C)) with theta(C) = L / diag(L), L = chol(C).

    ``log``/``exp`` are the triangular log and exp (or their first-order
    stand-ins for ecm) and ``log_diff``/``exp_diff`` their differentials at
    a base point.  Both are polynomials, so each differential at the
    transposed base point is its adjoint (``linalg``'s note on the series).
    """

    def __init__(self, log, exp, log_diff, exp_diff):
        self.log, self.exp = log, exp
        self.log_diff, self.exp_diff = log_diff, exp_diff

    coords = staticmethod(dom.lt0_coords)
    from_coords = staticmethod(dom.lt0_from_coords)
    coords_adjoint = staticmethod(dom.lt0_from_coords)
    from_coords_adjoint = staticmethod(dom.lt0_coords)

    def forward(self, c, solver):
        l = la.chol(c)
        t = l / la.diagvec(l)[..., :, None]
        x = self.log(t)
        return x, {"c": c, "l": l, "t": t, "x": x}

    def inverse(self, x, solver):
        k = self.exp(x)
        sigma = k @ la.transpose(k)
        c = dom.cor_of(sigma)
        return c, {"x": x, "k": k, "sigma": sigma, "c": c}

    def vjp(self, cache, g):
        # the adjoint of theta = L / diag(L), then of L = chol(C)
        l, t = cache["l"], cache["t"]
        g = self.log_diff(la.transpose(t), g)
        return la.chol_backward(l, (g - la.diag_from_vec((g * t).sum(axis=-1))) / la.diagvec(l)[..., :, None])

    def inverse_vjp(self, cache, g):
        gsigma = dom.cor_of_backward(cache["c"], la.diagvec(cache["sigma"]) ** -0.5, g)
        gk = 2.0 * gsigma @ cache["k"]
        return la.strict_lower(self.exp_diff(la.transpose(cache["x"]), gk))

    def push(self, cache, v):
        l, t = cache["l"], cache["t"]
        a = la.inv_congruence(l, v)
        return self.log_diff(t, t @ la.half_lower(a) - 0.5 * la.diagvec(a)[..., :, None] * t)

    def push_inv(self, cache, w):
        # C = cor_of(theta theta^T) with diag(theta theta^T) = diag(L)^-2
        dk = self.exp_diff(cache["x"], w) @ la.transpose(cache["t"])
        return dom.cor_of_diff(cache["c"], la.diagvec(cache["l"]), dk + la.transpose(dk))


class OffLogChart:
    """olm: C -> off(logm(C)); inverse exp(diag(dplus(H)) + H)."""

    coords = staticmethod(dom.hol_coords)
    from_coords = staticmethod(dom.hol_from_coords)
    coords_adjoint = staticmethod(dom.hol_from_coords)
    from_coords_adjoint = staticmethod(dom.hol_from_coords_adjoint)

    def forward(self, c, solver):
        logc, lam, u = _log_eig(c, "off-log")
        return la.offmat(logc), {"c": c, "lam": lam, "u": u}

    def inverse(self, x, solver):
        tol = solver.get("dplus_tol", sv.DPLUS_TOL)
        max_iter = solver.get("dplus_max_iter", sv.DPLUS_MAX_ITER)
        d, _, _, c, eig = sv.dplus_batch(x, tol, max_iter)
        return c, {"x": x, "d": d, "eig": eig}

    def vjp(self, cache, g):
        return la.daleckii_krein(cache["u"], _log_loewner(cache["lam"]), la.offmat(la.sym(g)))

    def inverse_vjp(self, cache, g):
        return sv.dplus_backward_batch(g, sv.dplus_eig(cache["x"], cache["d"], cache["eig"]))

    def push(self, cache, v):
        return la.offmat(la.daleckii_krein(cache["u"], _log_loewner(cache["lam"]), v))

    def push_inv(self, cache, w):
        # log(c) = U diag(log lam) U^T is the point diag(dplus(X)) + X
        return sv.dplus_diff((np.log(cache["lam"]), cache["u"]), w)


class ScaledLogChart:
    """lsm: C -> logm(D* C D*), D* = diag(x) the unit-row-sum scaling; inverse
    cor_of(la.sym_exp_taylor(X)), whose vjp forms the eigh of X."""

    coords = staticmethod(dom.rowzero_coords)
    from_coords = staticmethod(dom.rowzero_from_coords)
    from_coords_adjoint = staticmethod(dom.rowzero_from_coords_adjoint)

    @staticmethod
    def coords_adjoint(cbar, m):
        """Adjoint of rowzero_coords: the coordinate read (leading-submatrix
        entries) and the expansion basis are dual but distinct."""
        cbar = np.asarray(cbar, dtype=np.float64)
        i, j = np.tril_indices(m - 1)
        out = np.zeros(cbar.shape[:-1] + (m, m))
        off = i != j
        half = 0.5 * dom.SQRT6 * cbar[..., off]
        out[..., i[off], j[off]] = half
        out[..., j[off], i[off]] = half
        out[..., i[~off], i[~off]] = dom.SQRT3 * cbar[..., ~off]
        return out

    def forward(self, c, solver):
        tol = solver.get("dstar_tol", sv.DSTAR_TOL)
        s, _, _, alpha = sv.dstar_batch(c, solver.get("dstar_mode", "full"), tol)
        sigma = c * s[..., :, None] * s[..., None, :]
        r, lam, u = _log_eig(sigma, "scaled log")
        if alpha is not None:
            # one newton1 step leaves the row sums off zero
            r = project_rowzero(r)
        return r, {"c": c, "s": s, "sigma": sigma, "lam": lam, "u": u, "alpha": alpha}

    def inverse(self, x, solver):
        sigma = la.sym_exp_taylor(x)
        c = dom.cor_of(sigma)
        return c, {"x": x, "sigma": sigma, "c": c}

    def vjp(self, cache, g):
        gs = la.sym(g) if cache["alpha"] is None else project_rowzero(la.sym(g))
        gsigma = la.daleckii_krein(cache["u"], _log_loewner(cache["lam"]), gs)
        if cache["alpha"] is None:
            return sv.dstar_backward_batch(cache["sigma"], gsigma, cache["s"])
        return sv.dstar_newton1_backward_batch(cache["c"], gsigma, cache["s"], cache["alpha"])

    def inverse_vjp(self, cache, g):
        lam, u = np.linalg.eigh(cache["x"])
        gsigma = dom.cor_of_backward(cache["c"], la.diagvec(cache["sigma"]) ** -0.5, g)
        return la.daleckii_krein(u, la.loewner(lam, np.exp, np.exp), gsigma)

    @staticmethod
    def _full_mode(cache):
        if cache["alpha"] is not None:
            raise UnsupportedMetric("the lsm differentials need a full-mode dstar cache, not newton1")
        return cache["s"], cache["sigma"]

    def push(self, cache, v):
        s, sigma = self._full_mode(cache)
        dvd = s[..., :, None] * v * s[..., None, :]
        eye = np.broadcast_to(np.eye(sigma.shape[-1]), sigma.shape)
        w = np.linalg.solve(eye + sigma, dvd.sum(axis=-1)[..., None])[..., 0]
        v0 = -2.0 * w
        inner = dvd + 0.5 * (v0[..., :, None] * sigma + sigma * v0[..., None, :])
        return la.daleckii_krein(cache["u"], _log_loewner(cache["lam"]), inner)

    def push_inv(self, cache, w):
        # (log lam, U) is the eigendecomposition of the prototype point
        # R = log(sigma), and C = cor_of(sigma) with diag(sigma) = s^2
        s = self._full_mode(cache)[0]
        dsigma = la.daleckii_krein(cache["u"], la.loewner(np.log(cache["lam"]), np.exp, np.exp), w)
        return dom.cor_of_diff(cache["c"], 1.0 / s, dsigma)


CHARTS = {
    "ecm": TriangularChart(
        la.strict_lower, lambda x: x + np.eye(x.shape[-1]), lambda _, v: la.strict_lower(v), _identity,
    ),
    "lecm": TriangularChart(la.tri_log, la.tri_exp, la.tri_log_diff, la.tri_exp_diff),
    "olm": OffLogChart(),
    "lsm": ScaledLogChart(),
}
LOG_EUCLIDEAN = tuple(CHARTS)


def _chart(metric):
    check_metric(metric, allow_phcm=False)
    return CHARTS[metric]


# ---------------------------------------------------------------------------
# public per-metric maps
# ---------------------------------------------------------------------------

def prototype_coords(metric, x):
    """Flatten a prototype element along the module's vectorization contract."""
    return _chart(metric).coords(x)


def prototype_from_coords(metric, v, m):
    return _chart(metric).from_coords(v, m)


def prototype_from_coords_adjoint(metric, g):
    """Adjoint of prototype_from_coords under the Frobenius pairing; g need not be symmetric."""
    return _chart(metric).from_coords_adjoint(np.asarray(g, dtype=np.float64))


def prototype_coords_adjoint(metric, cbar, m):
    """Adjoint of prototype_coords under the symmetric Frobenius pairing."""
    return _chart(metric).coords_adjoint(cbar, m)


def prototype_forward(metric, c, solver=None):
    """Map to the prototype space, returning (value, cache) for reverse mode."""
    return _chart(metric).forward(np.asarray(c, dtype=np.float64), solver or {})


def to_prototype(metric, c, solver=None):
    return prototype_forward(metric, c, solver)[0]


def prototype_vjp(metric, cache, grad_x):
    """Adjoint of the prototype map at the cached point; symmetric in c."""
    return _chart(metric).vjp(cache, np.asarray(grad_x, dtype=np.float64))


def inverse_forward(metric, x, solver=None):
    """Map from the prototype space back to correlation matrices, with cache."""
    return _chart(metric).inverse(np.asarray(x, dtype=np.float64), solver or {})


def from_prototype(metric, x, solver=None):
    return inverse_forward(metric, x, solver)[0]


def inverse_vjp(metric, cache, grad_c):
    """Adjoint of the inverse map at the cached point; pairs with prototype perturbations."""
    return _chart(metric).inverse_vjp(cache, np.asarray(grad_c, dtype=np.float64))


def pushforward(metric, cache, v):
    """Differential of the prototype map at the cached point applied to a tangent vector v."""
    return _chart(metric).push(cache, np.asarray(v, dtype=np.float64))


def pushforward_inv(metric, cache, w):
    """Inverse differential: prototype perturbation back to a tangent vector at the cached point."""
    return _chart(metric).push_inv(cache, np.asarray(w, dtype=np.float64))


# ---------------------------------------------------------------------------
# Riemannian operators (closed forms of the pullback geometry)
# ---------------------------------------------------------------------------

def _full(solver):
    return {**(solver or {}), "dstar_mode": "full"}


def riem_inner(metric, c, v, w, solver=None):
    cache = prototype_forward(metric, c, _full(solver))[1]
    return np.sum(pushforward(metric, cache, v) * pushforward(metric, cache, w), axis=(-2, -1))


def riem_exp(metric, c, v, solver=None):
    x, cache = prototype_forward(metric, c, _full(solver))
    return from_prototype(metric, x + pushforward(metric, cache, v), solver)


def riem_log(metric, c, c2, solver=None):
    x, cache = prototype_forward(metric, c, _full(solver))
    return pushforward_inv(metric, cache, to_prototype(metric, c2, _full(solver)) - x)


def geodesic(metric, c, c2, t, solver=None):
    solver = _full(solver)
    x = to_prototype(metric, c, solver)
    x2 = to_prototype(metric, c2, solver)
    return from_prototype(metric, (1.0 - t) * x + t * x2, solver)


def riem_dist(metric, c, c2, solver=None):
    check_metric(metric)
    if metric == "phcm":
        return phcm_dist(c, c2)
    solver = _full(solver)
    x = to_prototype(metric, c, solver)
    x2 = to_prototype(metric, c2, solver)
    return np.sqrt(np.sum((x - x2) ** 2, axis=(-2, -1)))


def parallel_transport(metric, c, c2, v, solver=None):
    cache = prototype_forward(metric, c, _full(solver))[1]
    cache2 = prototype_forward(metric, c2, _full(solver))[1]
    return pushforward_inv(metric, cache2, pushforward(metric, cache, v))


def frechet_mean(metric, cs, solver=None):
    """Closed-form mean: inverse image of the prototype-space average."""
    solver = _full(solver)
    return from_prototype(metric, to_prototype(metric, np.asarray(cs), solver).mean(axis=0), solver)


# ---------------------------------------------------------------------------
# poly-hyperbolic distance
# ---------------------------------------------------------------------------

def phcm_dist(c, c2):
    """Geodesic distance of the product-of-hemispheres geometry.

    Row r of each Cholesky factor is a hemisphere point, and the hyperboloid
    pairing of the two rows r is (1 - <L1[r, :r], L2[r, :r]>) / (L1[r, r] L2[r, r]);
    the distance is the root sum of squares of the rows' arccosh terms, with
    arguments inside rounding distance of 1 clamped.
    """
    l1 = la.chol(np.asarray(c, dtype=np.float64))
    l2 = la.chol(np.asarray(c2, dtype=np.float64))
    arg = (1.0 - np.tril(l1 * l2, -1).sum(axis=-1)) / (la.diagvec(l1) * la.diagvec(l2))
    return np.sqrt(np.sum(np.arccosh(np.maximum(arg, 1.0)) ** 2, axis=-1))
