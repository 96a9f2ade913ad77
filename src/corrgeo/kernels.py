"""Hot solver kernels, batched over the leading axis in numpy.

The implicit diagonal solvers dominate the runtime of the permutation-invariant
geometries.  Each iterative kernel works on the set of still-active samples at
once, with a per-sample stop test and backtracking, so a sample's result
(iterations included) does not depend on the rest of its batch.
"""

import functools

import numpy as np

from . import linalg as la

# no compiled backend exists; the constant stays because perfbench/run.py
# records it in its environment line
USE_NUMBA = False

# backtracking schedule: alpha in {1, 1/2, ..., 2**-20}
_MAX_HALVINGS = 20
# sufficient decrease of dstar's Armijo test (Nocedal & Wright, 2006, ch. 3)
_ARMIJO_C = 1e-4


def _backtrack(x, step, accept):
    """Per sample, the first trial x + alpha step, alpha = 1, 1/2, ..., 2**-20, that accept takes.

    ``accept(idx, trial)`` gets the indices of the samples still searching and
    their trials, and returns which it takes.  Returns (x, ok, alpha); a
    sample no alpha satisfies keeps its x, gets ok False and alpha 0.
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
        good = accept(idx, trial)
        idx = idx[good]
        out[idx], pending[idx], taken[idx] = trial[good], False, alpha
        alpha *= 0.5
    return out, ~pending, taken


def _dplus_eval(h, idx, d):
    """(lam, u, e, max|e - 1|) at S = diag(d) + h[idx] = U diag(lam) U^T, e = diag(exp(S))."""
    s = h[idx]
    eye = np.arange(h.shape[-1])
    s[:, eye, eye] += d
    lam, u = np.linalg.eigh(s)
    # far from the solution exp can overflow; the residual is then inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        e = ((u * u) @ np.exp(lam)[..., None])[..., 0]
        return lam, u, e, np.abs(e - 1.0).max(axis=1)


def _dplus_start(h):
    """d0 = -log diag p4(h), p4(x) = 1 + x + x^2/2 + x^3/6 + x^4/24, for hollow symmetric h.

    The first Archakov-Hansen (2021) step d <- d - log diag exp(diag(d) + h)
    from d = 0, with exp replaced by p4 and no eigh: diag h^2 = sum_j h_ij^2,
    diag h^3 = sum_j h2_ij h_ij and diag h^4 = sum_j h2_ij^2 with h2 = h h.
    p4(x) - 1 - x >= x^2/3, so diag p4(h) >= 1 and d0 <= 0; a sample whose
    sums overflow starts from d = 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        h2 = h @ h
        h4 = (h2 * h2).sum(axis=-1)
        d = -np.log(1.0 + (h * h).sum(axis=-1) / 2 + (h2 * h).sum(axis=-1) / 6 + h4 / 24)
    return np.where(np.isfinite(d).all(axis=-1, keepdims=True), d, 0.0)


# dplus_solve's polynomial phase evaluates E ~ exp(A), A = diag(d) + h, in
# Taylor arithmetic, with no eigh, and returns the E whose diagonal meets tol
# as C.  p is linalg's Taylor polynomial of exp of degree _EXP_DEGREE.
#
# * ||A||_inf <= 1: E = p(A), so ||A||_2 <= 1 and E is off exp(A) by a factor
#   below 1 + u/4 (the bound above la._EXP_DEGREE, at s = 0).  The Jacobian
#   keeps the terms of degree <= 5 of the power table A^0 ... A^5; the dropped
#   ones weigh at most sum_(k > 5) 1/k! = 1.6e-3 against eigenvalues >= 1/e,
#   so a step from near the solution cuts the error at least 200-fold.
# * 1 < ||A||_inf <= _SCALED_CAP, for n >= _SCALED_MIN_N: with s = ceil(log2
#   ||A||_inf) and m = 2^(s+1) <= 16, E = F^m with F = p(A/m), ||A/m||_2 <=
#   1/2.  The Jacobian of diag exp(A) in d is J = int_0^1 e^(tA) o e^((1-t)A)
#   dt (Higham 2008, eq. 10.15), which is h0_build's H0 with LW_jk = int_0^1
#   e^(t lam_j + (1-t) lam_k) dt.  Composite Simpson with step 1/m over the
#   powers F^k = e^(kA/m) gives each LW_jk times the ratio of Simpson's rule
#   to the integral of e^(cx) over one panel, c = lam_j - lam_k; with |c| / m
#   <= 2 ||A||_inf / m <= 1 that ratio lies in [1, 1.005], so the Simpson J
#   is within a factor 1 + 0.005 of J in the Loewner order, and a step from
#   near the solution cuts the error about 200-fold, as the table Jacobian
#   does.  Each power costs a matmul, so m is capped at 16.  Below
#   _SCALED_MIN_N a batched eigh costs about as much for one sample as for
#   16 (at n = 8, 0.07 against 0.25 ms), so where some samples of a batch
#   still need the eigh Newton, taking the others out of it saves less than
#   their Taylor evaluations cost; from n = 12 on each sample taken out saves
#   4-8 times what its Taylor evaluation costs.
_SCALED_CAP = 8.0
_SCALED_MIN_N = 12


def _taylor_cap(n):
    """The largest ||diag(d) + h||_inf at which an n x n sample is evaluated
    in Taylor arithmetic."""
    return _SCALED_CAP if n >= _SCALED_MIN_N else 1.0


def _poly_jacobian(table):
    """J = d diag p(A) / dd = sum_(a+b<=s) c_(a+b+1) A^a o A^b, batched.

    ``table`` holds A^0 ... A^s; c_k = 1/k!.  A^a o A^b = A^b o A^a, so J is
    summed over a <= b as sum_a A^a o (sum_b w c_(a+b+1) A^b), w = 2 where
    a < b; the terms a = 0, I o A^b, are diagonal.
    """
    s = len(table) - 1
    c = la._exp_coeffs(s + 1)
    jac = np.zeros(table.shape[1:])
    for a in range(s // 2 + 1):
        w = [(2 - (a == b)) * c[a + b + 1] for b in range(a, s + 1 - a)]
        jac += table[a] * np.tensordot(w, table[a:s + 1 - a], axes=1)
    return jac


def _simpson_jacobian(powers):
    """J = sum_k w_k F^k o F^(m-k) ~ int_0^1 e^(tA) o e^((1-t)A) dt, batched.

    ``powers`` holds F^0 ... F^m, F ~ e^(A/m), m even; w is composite
    Simpson's with step 1/m.  F^k o F^(m-k) = F^(m-k) o F^k, so the sum
    folds onto k <= m/2, the terms k < m/2 weighted twice.
    """
    m = len(powers) - 1
    w = np.where(np.arange(m // 2 + 1) % 2, 8.0, 4.0) / (3 * m)
    w[0], w[-1] = 2.0 / (3 * m), w[-1] / 2
    return np.tensordot(w, powers[:m // 2 + 1] * powers[:m // 2 - 1:-1], axes=1)


def _taylor_exp(a, m):
    """(E, jacobian) at A (batched): E = p(A/m)^m ~ exp(A), and jacobian()
    forms J ~ d diag E / dd from the same powers, for m = 1 (the power
    table's Jacobian) or even m (Simpson's)."""
    coeffs = la._exp_coeffs(la._EXP_DEGREE)
    if m == 1:
        p, _, table = la.matrix_poly(a, coeffs)
        return p, lambda: _poly_jacobian(table)
    powers = np.empty((m + 1,) + a.shape)
    powers[0] = np.eye(a.shape[-1])
    powers[1] = la.matrix_poly(a / m, coeffs)[0]
    for k in range(2, m + 1):
        np.matmul(powers[k - 1], powers[1], out=powers[k])
    return powers[m], lambda: _simpson_jacobian(powers)


def _taylor_exp_batch(a, norm):
    """_taylor_exp's (E, jacobian) over a batch, each sample at the m its own
    infinity norm picks: 1 up to norm 1, else 2^(s+1), s = ceil(log2 norm)."""
    # norm = frac 2^expo, 1/2 <= frac < 1: s = max(ceil(log2 norm), 0) exactly
    frac, expo = np.frexp(norm)
    s = np.maximum(expo - (frac == 0.5), 0)
    m = np.where(s == 0, 1, 2 ** (s + 1))
    # a set, not np.unique, whose first call imports 1.7 MB of numpy
    ms = sorted(set(m.tolist()))
    if len(ms) == 1:
        return _taylor_exp(a, ms[0])
    p, parts = np.empty_like(a), []
    for mk in ms:
        g = m == mk
        p[g], part = _taylor_exp(a[g], mk)
        parts.append((g, part))

    def jacobian():
        jac = np.empty_like(a)
        for g, part in parts:
            jac[g] = part()
        return jac
    return p, jacobian


def _dplus_poly_newton(h, d, tol, max_iter):
    """Newton on log diag E = 0, E ~ exp(diag(d) + h) in Taylor arithmetic
    (_taylor_exp), with no eigh.

    A sample takes part while its point's infinity norm is at most
    _taylor_cap(n), its residual max|diag E - 1| is above tol, each
    evaluation lowers it (else the sample is set back to its base point) and
    it has made fewer than max_iter - 1 evaluations, leaving the eigh Newton
    one to form C.  Each evaluation takes m from that point's own norm
    (_taylor_exp_batch).  Returns (d, iterations, res, c): res is the last
    accepted residual, inf for a sample that made no evaluation; where it
    meets tol, c holds that E, and c is unset elsewhere.
    """
    eye = np.arange(h.shape[-1])
    cap = _taylor_cap(h.shape[-1])
    c, base = np.empty_like(h), d.copy()
    res, iters = np.full(len(h), np.inf), np.zeros(len(h), dtype=np.int64)
    idx = np.arange(len(h))
    # the samples still taking part have all made the same number of evaluations
    for _ in range(max_iter - 1):
        a = h[idx]
        a[:, eye, eye] += d[idx]
        norm = np.abs(a).sum(axis=-1).max(axis=-1)
        inside = norm <= cap
        idx, a = idx[inside], a[inside]
        if not idx.size:
            break
        p, jacobian = _taylor_exp_batch(a, norm[inside])
        iters[idx] += 1
        e = la.diagvec(p)
        r = np.abs(e - 1.0).max(axis=-1)
        lower = r < res[idx]
        d[idx[~lower]] = base[idx[~lower]]
        res[idx[lower]] = r[lower]
        go = lower & (r > tol)
        c[idx[lower & ~go]] = p[lower & ~go]
        idx, e = idx[go], e[go]
        if not idx.size:
            break
        base[idx] = d[idx]
        d[idx] += np.linalg.solve(jacobian()[go], -(e * np.log(e))[..., None])[..., 0]
    return d, iters, res, c


def _dplus_eigh_newton(h, d, iters, tol, max_iter):
    """Backtracking Newton on log(e) = 0, e = diag(exp(diag(d) + h)), from d.

    The Jacobian of d -> e is the SPD H0 = h0_build(U, loewner(lam, exp,
    exp)), and a trial is taken once its residual max|e - 1| is below its
    base point's.  Each evaluation is one eigh and one iteration, the one at
    d included, counted on from ``iters`` up to max_iter.  Returns (d,
    iterations, residuals, lam, u), (lam, u) at the returned d.
    """
    # a point that is not finite forms no eigh: its lam, u and e are NaN and
    # its residual inf, so it stops as an overflowed one does (every later
    # point is a finite trial from a finite one)
    k = np.flatnonzero(np.isfinite(h).all(axis=(-2, -1)) & np.isfinite(d).all(axis=-1))
    lam, u = np.full(d.shape, np.nan), np.full(h.shape, np.nan)
    e, res = np.full(d.shape, np.nan), np.full(len(h), np.inf)
    lam[k], u[k], e[k], res[k] = _dplus_eval(h, k, d[k])
    iters = iters + 1
    # an overflowed residual gives no finite step: the sample stops there
    active = np.flatnonzero(np.isfinite(res) & (res > tol))
    while active.size:
        h0 = h0_build(u[active], la.loewner(lam[active], np.exp, np.exp))
        with np.errstate(over="ignore", invalid="ignore"):  # accept rejects such a step
            step = np.linalg.solve(h0, -(e[active] * np.log(e[active]))[..., None])[..., 0]

        def accept(idx, trial):
            # an overflowed step gives no point to evaluate
            good = (iters[active[idx]] < max_iter) & np.isfinite(trial).all(axis=-1)
            k = active[idx[good]]
            iters[k] += 1
            lam_t, u_t, e_t, r = _dplus_eval(h, k, trial[good])
            lower = r < res[k]
            k = k[lower]
            lam[k], u[k], e[k], res[k] = lam_t[lower], u_t[lower], e_t[lower], r[lower]
            good[good] = lower
            return good

        d[active], ok, _ = _backtrack(d[active], step, accept)
        active = active[ok & (res[active] > tol)]
    return d, iters, res, lam, u


def dplus_solve(h, tol, max_iter):
    """Find diagonal vectors d with unit-diagonal C = exp(diag(d) + h), batched.

    One Newton method from _dplus_start's d0 (an Archakov-Hansen, 2021,
    step), with a budget of max_iter evaluations per sample.  A sample whose
    diag(d0) + h has infinity norm at most _taylor_cap(n) (1, or 8 for n >=
    _SCALED_MIN_N) first takes _dplus_poly_newton's steps, in Taylor
    arithmetic with no eigh; one whose polynomial evaluation met tol is done,
    and its C is that evaluation's E ~ exp(diag(d) + h).  Every other sample
    goes on by _dplus_eigh_newton with the budget it has left and gets
    C = U diag(exp lam) U^T.  The iterations
    count the evaluations of both kinds, at most max_iter per sample.

    Returns (d, iterations, residuals, c, (rows, lam, u)) with (lam, u) the
    eigendecompositions of diag(d) + h of the samples ``rows`` (batch
    indices, ascending) that went on by the eigh Newton.  A residual above
    tol (or not finite) means the budget ran out, no step length lowered the
    residual, or exp overflowed at the start; such a sample's c may be inf
    or NaN.
    """
    h = np.asarray(h, dtype=np.float64)
    d, iters, res, c = _dplus_poly_newton(h, _dplus_start(h), tol, max_iter)
    rows = np.flatnonzero(res > tol)
    d[rows], iters[rows], res[rows], lam, u = _dplus_eigh_newton(h[rows], d[rows], iters[rows], tol, max_iter)
    with np.errstate(over="ignore", invalid="ignore"):  # an unconverged sample may overflow
        c[rows] = la.from_eig(np.exp(lam), u)
    return d, iters, res, c, (rows, lam, u)


def _residual(c, x):
    # a stacked matrix-vector product rounds exactly like the per-sample one
    return (c @ x[..., None])[..., 0] - 1.0 / x


def _newton_step(c, x, f):
    jac = c + np.eye(x.shape[-1]) * (1.0 / x**2)[..., None, :]
    return np.linalg.solve(jac, -f[..., None])[..., 0]


def _lowers_fnorm(c, fnorm, idx, trial):
    """Acceptance test for _backtrack: the trial is positive and lowers max|f| below fnorm[idx]."""
    good = (trial > 0.0).all(axis=-1)
    k = np.flatnonzero(good)
    good[k] = np.abs(_residual(c[idx[k]], trial[k])).max(axis=-1) < fnorm[idx[k]]
    return good


def _potential(c, x):
    """phi(x) = x^T c x / 2 - sum(log x), convex on x > 0, with gradient c x - 1/x."""
    return 0.5 * (x * (c @ x[..., None])[..., 0]).sum(axis=-1) - np.log(x).sum(axis=-1)


def _polish(c, x, f, fnorm):
    """One undamped Newton step, kept where it stays positive and does not raise max|f|."""
    trial = x + _newton_step(c, x, f)
    tnorm = np.abs(_residual(c, trial)).max(axis=-1)
    keep = (trial > 0.0).all(axis=-1) & (tnorm <= fnorm)
    return np.where(keep[:, None], trial, x), np.where(keep, tnorm, fnorm)


def _dstar_start(c):
    """x0 = t r^(-1/2), r = c 1 (1 where r <= 0.05), t = sqrt(n / x~^T c x~), x~ = r^(-1/2).

    The scale t puts x0 on x^T c x = n, which every solution of c x = 1/x
    satisfies (Marshall & Olkin, 1968); x0 = 1 for c = I.
    """
    r = c.sum(axis=-1)
    x = 1.0 / np.sqrt(np.where(r > 0.05, r, 1.0))
    return x * np.sqrt(c.shape[-1] / (x * (c @ x[..., None])[..., 0]).sum(axis=-1))[:, None]


def dstar_full(c, tol, max_iter):
    """Backtracking-Newton solve of c @ x = 1/x for positive x from _dstar_start, batched.

    A positive trial is taken if it lowers max|f|, f = c @ x - 1/x, or meets
    Armijo on the potential whose gradient is f (Marshall & Olkin, 1968); the
    max-norm test alone stalls on near-singular c, Armijo at the rounding floor.

    Returns (x, iterations, residuals, damping_failed) with residual max|f|;
    iteration stops once it falls below tol, after which one guarded
    undamped Newton step polishes x to the rounding floor.
    """
    c = np.asarray(c, dtype=np.float64)
    b = c.shape[0]
    x = _dstar_start(c)
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

        def accept(idx, trial):
            good = _lowers_fnorm(ca, r, idx, trial)
            # phi only for the positive trials the max-norm test rejects
            k = np.flatnonzero(~good & (trial > 0.0).all(axis=-1))
            if k.size:
                i = idx[k]
                decrease = _ARMIJO_C * (f[i] * (trial[k] - xa[i])).sum(axis=-1)
                good[k] = _potential(ca[i], trial[k]) <= _potential(ca[i], xa[i]) + decrease
            return good

        x[active], ok, _ = _backtrack(xa, _newton_step(ca, xa, f), accept)
        # stalled at the rounding floor; fail only above threshold
        stalled = active[~ok]
        failed[stalled] = res[stalled] > tol * np.maximum(1.0, np.abs(x[stalled]).max(axis=-1))
        active = active[ok]
        iters[active] += 1
    return x, iters, res, failed


def dstar_newton1(c):
    """A single damped Newton step from x = 1, batched.

    Its length is the first alpha = 1, 1/2, ... that keeps x positive and
    lowers max|c @ x - 1/x|.  Returns (x, alpha, damping_failed) with alpha
    the step length taken, 1 where x = 1 already solves the system.
    """
    c = np.asarray(c, dtype=np.float64)
    x = np.ones(c.shape[:2])
    f = _residual(c, x)
    fnorm = np.abs(f).max(axis=-1)
    alpha, ok = np.ones(len(c)), np.ones(len(c), dtype=bool)
    idx = np.flatnonzero(fnorm != 0.0)
    ci, fi = c[idx], fnorm[idx]
    step = _newton_step(ci, x[idx], f[idx])
    x[idx], ok[idx], alpha[idx] = _backtrack(x[idx], step, lambda i, t: _lowers_fnorm(ci, fi, i, t))
    return x, alpha, ~ok


@functools.lru_cache(maxsize=64)
def _column_pairs(n):
    """Column pairs j <= k of n x n: (j, k, flat index j n + k, weight 1 if j == k else 2)."""
    j, k = np.triu_indices(n)
    pairs = (j, k, j * n + k, np.where(j == k, 1.0, 2.0))
    for a in pairs:
        a.setflags(write=False)
    return pairs


# h0_build forms its pair products R in slices of samples whose R takes at
# most this many bytes, so that R and its weighted copy stay in a core's L2
# cache (2 MB on the 2-vCPU Xeon this was timed on): a whole (16, 30, 30)
# batch, R 1.8 MB, took 1.19-2.17 ms, and 0.98-1.63 ms in slices of 4
# samples.  Batches of (150, 6, 6) and (64, 8, 8), R 150 KB, stay whole.
_H0_SLICE_BYTES = 2**19


def h0_build(u, lw):
    """Eigenbasis coupling matrix H0[i,l] = sum_jk U_ij U_ik U_lj U_lk LW_jk, batched.

    H0 = Q diag(vec LW) Q^T with Q[i, jk] = U_ij U_ik.  Each term is symmetric
    in (j, k) for the symmetric LW, so the sum runs over the n(n+1)/2 column
    pairs j <= k with the off-diagonal ones weighted 2: the pair products are
    gathered as rows of U^T, R[jk, i] = U_ij U_ik, and H0 = R^T diag(w) R, one
    matmul per sample.  Q has orthonormal rows (sum_jk U_ij U_ik U_lj U_lk =
    delta_il), so H0's eigenvalues lie in [min LW, max LW].
    """
    u = np.asarray(u, dtype=np.float64)
    n = u.shape[-1]
    j, k, flat, weight = _column_pairs(n)
    ut = np.swapaxes(u, -1, -2).reshape((-1, n, n))
    w = np.take(np.reshape(lw, (-1, n * n)), flat, axis=-1) * weight
    out = np.empty(ut.shape)
    step = max(1, _H0_SLICE_BYTES // (8 * len(j) * n))
    for lo in range(0, len(ut), step):
        part = ut[lo:lo + step]
        r = np.take(part, j, axis=-2) * np.take(part, k, axis=-2)
        out[lo:lo + step] = np.swapaxes(r, -1, -2) @ (r * w[lo:lo + step, :, None])
    return out.reshape(u.shape)
