"""Domain types for the correlation manifold and its flat prototype spaces.

A correlation matrix is symmetric positive definite with unit diagonal.  The
prototype spaces are carried by plain arrays:

* hollow symmetric  -- symmetric, zero diagonal (tangent space at I)
* row-zero symmetric -- symmetric, zero row sums
* strictly lower triangular

Vectorization contract: coordinates are row-major over (i, j) with i > j for
strictly-lower and hollow elements, and row-major over 1 <= j <= i <= m-1 on
the leading principal submatrix for row-zero elements.  The FC layers and
checkpoint layout rely on this ordering: the FC outputs are scattered into
the prototype space by ``*_from_coords`` and their gradients gathered back by
the adjoints ``*_from_coords_adjoint``.
"""

import numpy as np

from . import linalg as la
from .errors import NonFiniteInput, NonPositiveDiagonal, NotPositiveDefinite, NotSymmetric

EPS_PD = la.EPS_PD
VALIDATE_TOL = 1e-10

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)
SQRT6 = np.sqrt(6.0)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _raise_first(err, bad, what, value=None):
    """Raise ``err`` for the first flagged matrix of a stack of check results;
    ``what`` formats that matrix's ``value``."""
    if np.any(bad):
        at = np.unravel_index(np.argmax(bad), np.shape(bad))
        where = f"matrix {tuple(int(i) for i in at)}: " if at else ""
        raise err(where + what.format(None if value is None else value[at]))


def validate_correlation(c, tol=VALIDATE_TOL, eps_pd=EPS_PD):
    """Check finiteness, symmetry, unit diagonal and positive definiteness of
    a matrix or a stack of them; raise if violated, naming the first bad
    matrix of a stack.

    Inputs violating the contract are rejected, never projected.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim < 2 or c.shape[-1] != c.shape[-2]:
        raise NotSymmetric(f"expected a square matrix, got shape {c.shape}")
    _raise_first(NonFiniteInput, ~np.isfinite(c).all(axis=(-2, -1)), "non-finite entries")
    gap = np.abs(c - la.transpose(c)).max(axis=(-2, -1), initial=0.0)
    _raise_first(NotSymmetric, gap > tol, f"asymmetric by {{:.3e}} (tol {tol:.0e})", gap)
    diag_gap = np.abs(la.diagvec(c) - 1.0).max(axis=-1, initial=0.0)
    _raise_first(NonPositiveDiagonal, diag_gap > tol, "diagonal off unity by {:.3e}", diag_gap)
    lam_min = np.linalg.eigvalsh(c).min(axis=-1, initial=np.inf)
    _raise_first(NotPositiveDefinite, lam_min <= eps_pd, f"min eigenvalue {{:.3e}} <= {eps_pd:.0e}", lam_min)
    return c


def is_valid_correlation(c, tol=VALIDATE_TOL, eps_pd=EPS_PD):
    try:
        validate_correlation(c, tol, eps_pd)
        return True
    except (NonFiniteInput, NotSymmetric, NonPositiveDiagonal, NotPositiveDefinite):
        return False


# ---------------------------------------------------------------------------
# the Cor normalization and the row-normalized Cholesky map
# ---------------------------------------------------------------------------

def cor_of(sigma):
    """Normalize an SPD matrix (stack) to unit diagonal: D^-1/2 sigma D^-1/2."""
    sigma = np.asarray(sigma, dtype=np.float64)
    d = la.diagvec(sigma)
    if d.min() <= 0.0:
        raise NonPositiveDiagonal(f"diagonal entry {d.min():.3e} <= 0")
    s = 1.0 / np.sqrt(d)
    c = sigma * s[..., :, None] * s[..., None, :]
    idx = np.arange(c.shape[-1])
    c[..., idx, idx] = 1.0
    return c


def cor_of_backward(sigma, grad_c):
    """Symmetric adjoint of sigma -> cor_of(sigma).

    The unit diagonal of the output is constant, so any diagonal component of
    grad_c cancels analytically.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    d = la.diagvec(sigma)
    s = 1.0 / np.sqrt(d)
    c = cor_of(sigma)
    g = np.asarray(grad_c, dtype=np.float64)
    term = g * s[..., :, None] * s[..., None, :]
    gc = g @ c
    cg = c @ g
    diag = la.diagvec(gc) + la.diagvec(cg)
    term2 = la.diag_from_vec(0.5 * diag / d)
    return la.sym(term - term2)


def theta(c):
    """Cholesky factor rescaled to unit diagonal (stacked)."""
    l = la.chol(c)
    return l / la.diagvec(l)[..., :, None]


def theta_inv(k):
    """Inverse of the unit-diagonal Cholesky map: cor_of(k k^T)."""
    k = np.asarray(k, dtype=np.float64)
    return cor_of(k @ la.transpose(k))


# ---------------------------------------------------------------------------
# random sampling
# ---------------------------------------------------------------------------

def random_symmetric(n, rng, scale=1.0):
    a = rng.standard_normal((n, n))
    s = np.tril(a, -1)
    s = s + s.T + np.diag(np.diagonal(a))
    return scale * s


def random_correlation(n, spread=1.0, rng=None):
    """Random correlation matrix: cor_of(expm(spread * S)), S symmetric N(0,1).

    Full rank for any spread; deterministic for a seeded generator.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if spread <= 0.0:
        raise ValueError("spread must be positive")
    rng = np.random.default_rng(rng)
    s = random_symmetric(n, rng)
    return cor_of(la.sym_exp(spread * s))


def random_hollow(n, rng, scale=1.0):
    s = random_symmetric(n, rng, scale)
    np.fill_diagonal(s, 0.0)
    return s


# ---------------------------------------------------------------------------
# coordinates in the prototype spaces (row-major contracts)
# ---------------------------------------------------------------------------

def lt0_dim(m):
    return m * (m - 1) // 2


def lt0_coords(x):
    """Strictly-lower entries, row-major."""
    i, j = np.tril_indices(x.shape[-1], -1)
    return np.asarray(x)[..., i, j]


def lt0_from_coords(v, m):
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros(v.shape[:-1] + (m, m))
    i, j = np.tril_indices(m, -1)
    out[..., i, j] = v
    return out


def hol_coords(h):
    """Coordinates of a hollow symmetric element: sqrt(2) * lower entries."""
    return SQRT2 * lt0_coords(h)


def hol_from_coords(v, m):
    low = lt0_from_coords(np.asarray(v) / SQRT2, m)
    return low + la.transpose(low)


def rowzero_coords(r):
    """Coordinates of a row-zero element from its leading principal submatrix.

    Off-diagonal entries scale by sqrt(6), diagonal entries by sqrt(3);
    row-major over 1 <= j <= i <= m-1.
    """
    r = np.asarray(r)
    m = r.shape[-1]
    i, j = np.tril_indices(m - 1)
    scale = np.where(i == j, SQRT3, SQRT6)
    return scale * r[..., i, j]


def rowzero_from_coords(v, m):
    """Rebuild a row-zero element: leading submatrix plus the unique completion."""
    v = np.asarray(v, dtype=np.float64)
    i, j = np.tril_indices(m - 1)
    scale = np.where(i == j, SQRT3, SQRT6)
    lead = np.zeros(v.shape[:-1] + (m - 1, m - 1))
    lead[..., i, j] = v / scale
    lead = lead + la.transpose(np.tril(lead, -1))
    out = np.zeros(v.shape[:-1] + (m, m))
    out[..., : m - 1, : m - 1] = lead
    row_sums = lead.sum(axis=-1)
    out[..., : m - 1, m - 1] = -row_sums
    out[..., m - 1, : m - 1] = -row_sums
    out[..., m - 1, m - 1] = row_sums.sum(axis=-1)
    return out


def hol_from_coords_adjoint(g):
    """Adjoint of hol_from_coords under the Frobenius pairing; g need not be symmetric."""
    return hol_coords(la.sym(g))


def rowzero_from_coords_adjoint(g):
    """Adjoint of rowzero_from_coords under the Frobenius pairing; g need not
    be symmetric.

    The leading block plus the completion's row-sum terms, folded onto the
    lower triangle and divided by the coordinate scales.
    """
    g = np.asarray(g, dtype=np.float64)
    m = g.shape[-1]
    edge = g[..., : m - 1, m - 1] + g[..., m - 1, : m - 1]
    h = g[..., : m - 1, : m - 1] - edge[..., :, None] + g[..., m - 1, m - 1][..., None, None]
    i, j = np.tril_indices(m - 1)
    return (h[..., i, j] + h[..., j, i]) / np.where(i == j, 2.0 * SQRT3, SQRT6)


def rowzero_inner(a, b):
    """Inner product under which the row-zero coordinate basis is orthonormal."""
    return np.sum(rowzero_coords(a) * rowzero_coords(b), axis=-1)
