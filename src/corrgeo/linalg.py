"""Dense symmetric/triangular primitives with forward values and analytic differentials.

Everything accepts stacked inputs (leading batch axes) unless noted.  Gradients
of symmetric-matrix arguments follow the convention that the adjoint G of a
symmetric input S is itself symmetric and pairs as dl = <G, dS> with dS
symmetric, so a finite difference along E_ij + E_ji (i != j) equals 2 G_ij.
"""

import math

import numpy as np

from .errors import (
    BadDiagonal,
    NotPositiveDefinite,
    SingularFactor,
)

EPS_PD = 1e-12


# ---------------------------------------------------------------------------
# structural helpers (exact, no floating error)
# ---------------------------------------------------------------------------

def diagvec(m):
    """Vector of diagonal elements."""
    return np.ascontiguousarray(np.diagonal(m, axis1=-2, axis2=-1))


def diag_from_vec(v):
    """Diagonal matrix (stack) from a vector (stack)."""
    v = np.asarray(v)
    n = v.shape[-1]
    out = np.zeros(v.shape[:-1] + (n, n), dtype=v.dtype)
    idx = np.arange(n)
    out[..., idx, idx] = v
    return out


def dmat(m):
    """Diagonal part of a square matrix, as a diagonal matrix."""
    return diag_from_vec(diagvec(m))


def offmat(m):
    """Matrix with its diagonal zeroed."""
    out = np.array(m, dtype=np.float64, copy=True)
    idx = np.arange(out.shape[-1])
    out[..., idx, idx] = 0.0
    return out


def strict_lower(m):
    """Strictly lower triangular part."""
    return np.tril(m, -1)


def half_lower(m):
    """Strictly lower part plus half the diagonal."""
    return np.tril(m, -1) + 0.5 * dmat(m)


def sym(m):
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def transpose(m):
    return np.swapaxes(m, -1, -2)


# ---------------------------------------------------------------------------
# eigendecomposition and matrix functions
# ---------------------------------------------------------------------------

def _check_pd_eigs(lam, what):
    if lam.min() <= EPS_PD:
        raise NotPositiveDefinite(f"{what}: min eigenvalue {lam.min():.3e} <= {EPS_PD:.0e}")


def loewner(lam, f, df):
    """Matrix of divided differences of f over eigenvalue pairs.

    Near-degenerate pairs (gap below 1e-10 * max(1, |li| + |lj|)) fall back to
    the derivative at the pair midpoint, which keeps the matrix exactly
    symmetric.
    """
    li = lam[..., :, None]
    lj = lam[..., None, :]
    gap = li - lj
    eps = 1e-10 * np.maximum(1.0, np.abs(li) + np.abs(lj))
    near = np.abs(gap) <= eps
    safe = np.where(near, 1.0, gap)
    quot = (f(li) - f(lj)) / safe
    return np.where(near, df(0.5 * (li + lj)), quot)


def from_eig(lam, u):
    """U diag(lam) U^T (stacked)."""
    return (u * lam[..., None, :]) @ transpose(u)


def daleckii_krein(u, lw, v):
    """U (LW o U^T V U) U^T: the differential of a matrix function at U diag(lam) U^T.

    ``lw`` is the Loewner matrix of the function over lam; the map is
    self-adjoint in v.
    """
    ut = transpose(u)
    return u @ (lw * (ut @ v @ u)) @ ut


def sym_exp(s):
    """Matrix exponential U exp(lam) U^T of a symmetric matrix (stack)."""
    lam, u = np.linalg.eigh(np.asarray(s, dtype=np.float64))
    return from_eig(np.exp(lam), u)


def sym_pow(s, p):
    """Matrix power U lam^p U^T of a symmetric matrix (stack); a non-integer
    or negative p needs it positive definite."""
    lam, u = np.linalg.eigh(np.asarray(s, dtype=np.float64))
    if float(p) != int(p) or p < 0:
        _check_pd_eigs(lam, f"sym_pow({p})")
    return from_eig(lam**p, u)


# ---------------------------------------------------------------------------
# Cholesky with its reverse-mode rule
# ---------------------------------------------------------------------------

def chol(p):
    """Lower Cholesky factor with positive diagonal."""
    p = np.asarray(p, dtype=np.float64)
    try:
        return np.linalg.cholesky(p)
    except np.linalg.LinAlgError as e:
        raise NotPositiveDefinite("cholesky pivot failure") from e


def inner_solve_spd(l, v):
    """Congruence l^-1 @ v @ l^-T for a triangular factor l (stacked)."""
    return np.linalg.solve(l, transpose(np.linalg.solve(l, v)))


def chol_backward(l, grad_l):
    """Symmetric adjoint sym(l^-T Phi l^-1), Phi = half_lower(l^T grad_l), of
    p = l @ l.T given its Cholesky factor l and the adjoint of l (dl = <G, dP>
    with dP symmetric; Murray 2016); only the lower triangle of grad_l is read.
    """
    l = np.asarray(l, dtype=np.float64)
    if diagvec(l).min() <= EPS_PD:
        raise SingularFactor("cholesky factor diagonal at or below threshold")
    return sym(inner_solve_spd(transpose(l), half_lower(transpose(l) @ grad_l)))


# ---------------------------------------------------------------------------
# matrix polynomials (Paterson-Stockmeyer order); nilpotent triangular log/exp
# ---------------------------------------------------------------------------

def matrix_poly(nmat, coeffs, xi=None):
    """Evaluate p(N) = sum_j coeffs[j] * N^j for square N (stacked), and with
    ``xi`` its directional derivative Dp(N)[xi]; returns (p(N), Dp or None,
    the power table N^0, ..., N^s the evaluation built).

    For nilpotent N a series of degree >= its index is exact (the triangular
    log/exp below); at any other N, p is a truncated series, such as the
    Taylor polynomials of exp in ``kernels``' dplus solve.

    Paterson-Stockmeyer order: ~2 sqrt(d) matrix products, with the inner
    block combinations fused into one matmul over the table of powers.  The
    derivative runs the product rule through the same scheme (Al-Mohy &
    Higham 2009): D(N^i) = D(N^(i-1)) N + N^(i-1) xi, the power tables are
    contracted with the same coefficients, and the block Horner step
    P <- P N^s + B_b has derivative D <- D N^s + P D(N^s) + D(B_b).
    """
    d = len(coeffs) - 1
    n = nmat.shape[-1]
    eye = np.broadcast_to(np.eye(n), nmat.shape)
    if d <= 0:
        return coeffs[0] * np.array(eye), None if xi is None else np.zeros_like(xi), eye[None]
    s = max(1, math.isqrt(d) + (0 if math.isqrt(d) ** 2 == d else 1))
    nblocks = (d + 1 + s - 1) // s
    cmat = np.zeros((nblocks, s))
    for j, c in enumerate(coeffs):
        cmat[j // s, j % s] = c
    # N^0 ... N^s in one table; the blocks are one matmul over its first s rows
    table = np.empty((s + 1,) + nmat.shape)
    table[0], table[1] = eye, nmat
    for i in range(2, s + 1):
        np.matmul(table[i - 1], nmat, out=table[i])
    blocks = (cmat @ table[:s].reshape(s, -1)).reshape((nblocks,) + nmat.shape)
    out, dout = blocks[-1], None
    if xi is not None:
        xi = np.broadcast_to(xi, np.broadcast_shapes(nmat.shape, np.shape(xi)))
        dtable = np.empty((s + 1,) + xi.shape)
        dtable[0], dtable[1] = 0.0, xi
        for i in range(2, s + 1):
            np.add(dtable[i - 1] @ nmat, table[i - 1] @ xi, out=dtable[i])
        dblocks = (cmat @ dtable[:s].reshape(s, -1)).reshape((nblocks,) + xi.shape)
        dout = dblocks[-1]
    for b in range(nblocks - 2, -1, -1):
        if xi is not None:
            dout = dout @ table[s] + out @ dtable[s] + dblocks[b]
        out = out @ table[s] + blocks[b]
    return out, dout, table


def _log_coeffs(d):
    return [0.0] + [(-1.0) ** (j - 1) / j for j in range(1, d + 1)]


def _exp_coeffs(d):
    """The Taylor coefficients 1/j! of exp for j = 0, ..., d, correctly rounded."""
    return [1 / math.factorial(j) for j in range(d + 1)]


# sym_exp_taylor scales each symmetric X by 2^-s, s >= 0 the least integer
# with ||X||_inf <= 2^s, so A = X / 2^s has ||A||_2 <= ||A||_inf <= 1.  There
# the Taylor polynomial p of exp of degree _EXP_DEGREE is off exp(lam) by at
# most (20/19)/19! = 8.7e-18 at each eigenvalue lam, that is by a factor
# 1 + delta, |delta| <= e (20/19)/19! = 2.4e-17 < u/4 (u = 2^-53).  Squaring
# s times gives exp(X + E), E a function of X with ||E||_2 <= 2^s 2.4e-17 <=
# max(1, 2 ||X||_inf) 2.4e-17: below the rounding of X's own entries, so the
# accuracy is that of the 7 + s matrix products.  Degrees 16 to 19 all take 7
# Paterson-Stockmeyer products; 18 is the least whose truncation is below u.
_EXP_DEGREE = 18


def sym_exp_taylor(x):
    """Matrix exponential of a symmetric matrix (stack) with no eigh: the
    degree-_EXP_DEGREE Taylor polynomial at X / 2^s, squared s times.

    s is chosen per sample from its own infinity norm, so a sample's value
    does not depend on the rest of its batch; the output is exactly
    symmetric, and exp(0) = I exactly.  Where exp(X) overflows the entries
    are inf or NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    # ||X||_inf = frac 2^expo, 1/2 <= frac < 1: s = max(ceil(log2 ||X||_inf), 0), exactly
    frac, expo = np.frexp(np.abs(x).sum(axis=-1).max(axis=-1))
    s = np.maximum(expo - (frac == 0.5), 0)
    p = matrix_poly(np.ldexp(x, -s[..., None, None]), _exp_coeffs(_EXP_DEGREE))[0]
    for k in range(int(s.max(initial=0))):
        more = s > k
        q = p[more]
        p[more] = q @ q
    return sym(p)


def _check_unit_lower(k):
    k = np.asarray(k, dtype=np.float64)
    bad = np.abs(diagvec(k) - 1.0).max()
    if bad > 1e-12:
        raise BadDiagonal(f"diagonal off unity by {bad:.3e}")
    if np.abs(np.triu(k, 1)).max() > 0.0:
        raise BadDiagonal("matrix has entries above the diagonal")
    return k


def tri_log(k):
    """Logarithm of a unit-diagonal lower-triangular matrix (exact finite series)."""
    k = _check_unit_lower(k)
    n = k.shape[-1]
    return matrix_poly(k - np.eye(n), _log_coeffs(n - 1))[0]


def tri_exp(x):
    """Exponential of a strictly lower-triangular matrix (exact finite series)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    return matrix_poly(x, _exp_coeffs(n - 1))[0]


# The series have degree n - 1: for strictly lower N and xi every term of
# degree >= n is zero.  For a polynomial p the adjoint of xi -> Dp(N)[xi] is
# zeta -> Dp(N^T)[zeta] (Al-Mohy & Higham 2009), so each differential, called
# at the transposed base point, is also its adjoint; there the degree-(n-1)
# series is exact only on the strictly lower part -- the part the triangular
# charts' adjoints read.  Both copy the base point contiguous: the adjoints
# pass a transposed view, and matrix_poly's products are slower on one.

def tri_log_diff(k, xi):
    """Directional derivative of tri_log at k along strictly lower xi."""
    k = np.ascontiguousarray(k, dtype=np.float64)
    n = k.shape[-1]
    return matrix_poly(k - np.eye(n), _log_coeffs(n - 1), xi)[1]


def tri_exp_diff(x, xi):
    """Directional derivative of tri_exp at x along strictly lower xi."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return matrix_poly(x, _exp_coeffs(x.shape[-1] - 1), xi)[1]
