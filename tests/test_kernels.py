"""The batched solver kernels match per-sample reference loops exactly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrgeo import kernels
from corrgeo import domain as dom
from corrgeo import geometry as geo
from corrgeo import layers as ly
from corrgeo import linalg as la
from corrgeo import solvers as sv
from corrgeo.errors import DampingFailure, NoConvergence

from helpers import (
    damped_update_ref, dplus_history, dplus_newton_ref, dstar_full_ref, dstar_newton1_ref,
    h0_build_ref, random_hollow, sym_log,
)


def cor_batch(b, n, seed, spread=1.0):
    return np.stack([dom.random_correlation(n, spread, rng=seed + k) for k in range(b)])


def near_singular_batch(b, n, seed, gap=1e-9):
    """Correlations with one pair of variables nearly perfectly anti-correlated.

    The row-scaling solution grows like 1/sqrt(gap) along that pair.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((b, n, n))
    for k in range(b):
        a = rng.standard_normal((n, n + 2))
        a[1] = -a[0] + gap * (k + 1) * rng.standard_normal(n + 2)
        out[k] = dom.cor_of(a @ a.T)
    return out


def assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def hollow_batch(b, n, seed, scale):
    rng = np.random.default_rng(seed)
    return np.stack([random_hollow(n, rng, scale) for _ in range(b)])


def fc30_dplus_inputs(b, seed):
    """The dplus inputs of an olm FC(30 -> 20) forward on b samples at
    ``corrgeo bench``'s initialization scale: (b, 20, 20), as in infer30."""
    inputs = []
    solve = kernels.dplus_solve

    def recording(h, tol, max_iter):
        inputs.append(h.copy())
        return solve(h, tol, max_iter)

    rng = np.random.default_rng(seed)
    fc = ly.init_fc("olm", 30, 20, 1, 1, rng)
    fc.z = rng.standard_normal(fc.z.shape) * ly.init_std(30) / 20
    x = np.stack([dom.random_correlation(30, 1 / np.sqrt(30), rng)[None] for _ in range(b)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "dplus_solve", recording)
        ly.fc_forward(x, fc)
    [h] = inputs
    return h


def start_norms(h):
    """Infinity norm of diag(d0) + h at dplus_solve's start d0."""
    return np.abs(h + la.diag_from_vec(kernels._dplus_start(h))).sum(axis=-1).max(axis=-1)


def eigh_only(monkeypatch):
    """Take every sample of later dplus solves to the eigh Newton from its start."""
    monkeypatch.setattr(kernels, "_taylor_cap", lambda n: -1.0)


def scaled_batch(n):
    """n x n samples whose start norms fall at s = 0, 1, 2 and 3 and above
    the scaled phase's cap of 8 (n = 16)."""
    return np.concatenate([hollow_batch(1, n, 106, 0.05), hollow_batch(1, n, 107, 0.1),
                           hollow_batch(1, n, 108, 0.2), hollow_batch(1, n, 109, 0.5),
                           hollow_batch(1, n, 106, 0.7)])


def sample_rows(got):
    """dplus_solve's output as per-sample rows (d, iterations, residual, c,
    lam, u), with lam and u None for a sample solved without an eigh."""
    d, iters, res, c, (rows, lam, u) = got
    eig = {k: (lam[i], u[i]) for i, k in enumerate(rows)}
    return [(d[k], iters[k], res[k], c[k]) + eig.get(k, (None, None)) for k in range(len(d))]


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            assert (a is None and b is None) or np.array_equal(a, b)


def assert_matches_fixed_point(h, got, tol=1e-12):
    d, iters, res, c, (rows, lam, u) = got
    assert (res <= tol).all()
    for k in range(len(h)):
        d_ref, hist = dplus_history(h[k], tol, 5000)
        assert hist[-1] <= tol
        assert np.abs(d[k] - d_ref).max() <= 1e-10
    # (lam, u) is the eigendecomposition of the final S, not a recomputation,
    # and C is formed from it; the samples without one got C = p(S)
    want_lam, want_u = np.linalg.eigh(h[rows] + la.diag_from_vec(d[rows]))
    assert np.array_equal(lam, want_lam) and np.array_equal(u, want_u)
    assert np.array_equal(c[rows], la.from_eig(np.exp(lam), u))
    assert np.abs(c - la.sym_exp(h + la.diag_from_vec(d))).max() <= 1e-13


class TestDplusSolve:
    def test_zero_input(self):
        assert np.array_equal(kernels._dplus_start(np.zeros((2, 4, 4))), np.zeros((2, 4)))
        d, iters, res, c, (rows, lam, u) = kernels.dplus_solve(np.zeros((2, 4, 4)), 1e-12, 100)
        assert np.array_equal(d, np.zeros((2, 4)))
        # one polynomial evaluation finds d = 0 solved, with C = p(0) = I
        assert np.array_equal(iters, [1, 1]) and rows.size == 0 and lam.shape == (0, 4)
        assert np.array_equal(res, [0.0, 0.0])
        assert np.array_equal(c, np.broadcast_to(np.eye(4), (2, 4, 4)))

    @pytest.mark.parametrize("n", [2, 6, 8, 30])
    def test_matches_fixed_point(self, n):
        h = np.concatenate([hollow_batch(2, n, n + k, scale)
                            for k, scale in enumerate((0.1, 0.5, 1.0, 1.5))])
        got = kernels.dplus_solve(h, 1e-12, 100)
        if n > 2:
            assert got[1].max() <= 8
        assert_matches_fixed_point(h, got)

    def test_rejected_trial_halves_from_base(self, monkeypatch):
        # a negated Jacobian makes every Newton trial raise the residual, so
        # the solve evaluates the start d0 and then d0 + 2**-k step for
        # k = 0..20 from that base point, one eigh each, and stops there
        # unconverged
        h0_build, evaluate, backtrack = kernels.h0_build, kernels._dplus_eval, kernels._backtrack
        points, searches = [], []

        def recording(h, idx, d):
            points.append(d.copy())
            return evaluate(h, idx, d)

        def searching(x, step, accept):
            searches.append((x.copy(), step.copy()))
            return backtrack(x, step, accept)

        monkeypatch.setattr(kernels, "h0_build", lambda u, lw: -h0_build(u, lw))
        monkeypatch.setattr(kernels, "_dplus_eval", recording)
        monkeypatch.setattr(kernels, "_backtrack", searching)
        h = hollow_batch(3, 5, 70, 0.8)
        got = kernels.dplus_solve(h, 1e-12, 100)
        assert np.array_equal(got[1], [22, 22, 22])
        assert len(points) == 22 and np.array_equal(points[0], kernels._dplus_start(h))
        [(base, step)] = searches
        assert np.array_equal(base, points[0])
        for k, trial in enumerate(points[1:]):
            assert np.array_equal(trial, base + 2.0**-k * step)
        # what is returned is the base point d0 and its evaluation
        first = kernels.dplus_solve(h, 1e-12, 1)
        assert_same_rows([r[:1] + r[2:] for r in sample_rows(got)],
                         [r[:1] + r[2:] for r in sample_rows(first)])

    def test_spread_inputs_converge(self):
        # at scale 12 these six exhausted 100 evaluations when a rejected
        # Newton iterate fell back to the Archakov-Hansen fixed-point step
        for n, seed in [(4, 14), (6, 14), (6, 23), (8, 0), (8, 4), (8, 16)]:
            h = random_hollow(n, np.random.default_rng(seed), 12.0)[None]
            d, iters, res, _, _ = kernels.dplus_solve(h, 1e-12, 100)
            assert res[0] <= 1e-12, (n, seed)
            c = la.sym_exp(h[0] + np.diag(d[0]))
            assert np.abs(la.diagvec(c) - 1.0).max() <= 1e-10

    def test_natural_backtracking(self, monkeypatch):
        # large off-diagonal entries make some Newton trials overshoot; the
        # h0_build calls count the base points a step was taken from, and the
        # other evaluations past the first were rejected trials
        rows = []
        h0_build = kernels.h0_build

        def counting(u, lw):
            rows.append(len(u))
            return h0_build(u, lw)

        monkeypatch.setattr(kernels, "h0_build", counting)
        h = hollow_batch(6, 6, 80, 5.0)
        got = kernels.dplus_solve(h, 1e-12, 100)
        rejected = got[1].sum() - len(h) - sum(rows)
        assert rejected > 0
        assert_matches_fixed_point(h, got)

    def test_budget_exhausted(self):
        h = hollow_batch(4, 8, 90, 1.5)
        d, iters, res, _, _ = kernels.dplus_solve(h, 1e-12, 2)
        assert np.array_equal(iters, [2, 2, 2, 2])
        assert (res > 1e-12).all()
        with pytest.raises(NoConvergence):
            sv.dplus_batch(h, max_iter=2)

    def test_overflow_stops_sample(self):
        # exp(H) overflows at d = 0 (entries around 1000), so the first point
        # gives no finite step; the other samples are unaffected
        big = hollow_batch(1, 4, 0, 1000.0)
        h = np.concatenate([hollow_batch(2, 4, 97, 0.5), big])
        got = kernels.dplus_solve(h, 1e-12, 100)
        assert got[1][2] == 1 and not got[2][2] <= 1e-12
        assert_same_rows(sample_rows(got)[:2], sample_rows(kernels.dplus_solve(h[:2], 1e-12, 100)))
        with pytest.raises(NoConvergence):
            sv.dplus_batch(big)
        with pytest.raises(NoConvergence):
            geo.from_prototype("olm", big[0])

    def test_non_finite_point_stops_sample(self, monkeypatch):
        # a point with an inf or NaN entry (datagen's --spread 1e308 overflows
        # its bumps) gives the eigh nothing to decompose: the sample stops
        # after one evaluation at residual inf, its C NaN, and the others
        # take the eigh path as they do alone
        bad = hollow_batch(2, 4, 5, 0.5)
        bad[0, 0, 1] = bad[0, 1, 0] = np.inf
        bad[1, 2, 3] = bad[1, 3, 2] = np.nan
        h = np.concatenate([hollow_batch(2, 4, 97, 3.0), bad])
        eigh = np.linalg.eigh

        def finite_eigh(a):
            assert np.isfinite(a).all()
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", finite_eigh)
        got = kernels.dplus_solve(h, 1e-12, 100)
        assert np.array_equal(got[1][2:], [1, 1]) and np.array_equal(got[2][2:], [np.inf, np.inf])
        assert np.isnan(got[3][2:]).all() and (got[2][:2] <= 1e-12).all()
        assert_same_rows(sample_rows(got)[:2], sample_rows(kernels.dplus_solve(h[:2], 1e-12, 100)))
        for b in bad:
            with pytest.raises(NoConvergence, match="residual inf"):
                sv.dplus_batch(b)

    def test_overflowed_step_stops_sample(self):
        # at entries 730, exp(S) is finite at the start but e log(e)
        # overflows: the Newton step is not finite, so no trial is evaluated
        far = np.array([[[0.0, 730.0], [730.0, 0.0]]])
        h = np.concatenate([hollow_batch(2, 2, 97, 0.5), far])
        got = kernels.dplus_solve(h, 1e-12, 100)
        assert got[1][2] == 1 and np.isfinite(got[2][2]) and not got[2][2] <= 1e-12
        with pytest.raises(NoConvergence):
            sv.dplus_batch(far)
        # at entries 705 the step overflowed at d = 0; from the start it does
        # not, and exp(d + H) has unit diagonal at d = -log cosh(705)
        d, iters, res, _, _ = kernels.dplus_solve(np.array([[[0.0, 705.0], [705.0, 0.0]]]), 1e-12, 100)
        assert res[0] <= 1e-12
        assert np.abs(d[0] + np.log(np.cosh(705.0))).max() <= 1e-12 * 705.0

    def test_batch_independent(self):
        # the scale-0.1 samples start inside the polynomial phase's bound
        h = np.concatenate([np.zeros((1, 6, 6)), hollow_batch(3, 6, 95, 0.5),
                            hollow_batch(3, 6, 96, 5.0), hollow_batch(3, 6, 94, 0.1)])
        assert (start_norms(h[-3:]) <= 1.0).all()
        got = sample_rows(kernels.dplus_solve(h, 1e-12, 100))
        # solved in Taylor arithmetic: no eigendecomposition, 3 evaluations (1 at 0)
        assert [r[1] for r in got][-3:] == [3, 3, 3] and got[0][1] == 1
        assert all(r[4] is None for r in got[-3:] + got[:1])
        for k in range(len(h)):
            assert_same_rows(got[k:k + 1], sample_rows(kernels.dplus_solve(h[k:k + 1], 1e-12, 100)))
        # at n = 16 each sample's own norm picks its scaling, s = 0 ... 3, and
        # the one above the cap takes the eigh path
        h = scaled_batch(16)
        norms = start_norms(h)
        assert (norms[:-1] <= 2.0 ** np.arange(4)).all() and (norms[1:] > 2.0 ** np.arange(4)).all()
        got = kernels.dplus_solve(h, 1e-12, 100)
        assert got[4][0].tolist() == [4] and (got[2] <= 1e-12).all()
        rows = sample_rows(got)
        for k in range(len(h)):
            assert_same_rows(rows[k:k + 1], sample_rows(kernels.dplus_solve(h[k:k + 1], 1e-12, 100)))

    @pytest.mark.parametrize("scale", [0.1, 0.5, 1.0, 3.0, 12.0])
    @pytest.mark.parametrize("n", [2, 5, 30])
    def test_start_finite_nonpositive(self, n, scale):
        # diag p4(H) >= 1 for hollow H, so d0 = -log diag p4(H) <= 0
        d0 = kernels._dplus_start(hollow_batch(6, n, 10 * n + int(scale * 10), scale))
        assert np.isfinite(d0).all() and (d0 <= 0.0).all()

    def test_start_of_overflowed_sums_is_zero(self):
        # entries 1e80 overflow diag H^4, so that sample starts from d = 0 and
        # stops where exp overflows; its batch-mates are untouched
        huge = np.array([[[0.0, 1e80], [1e80, 0.0]]])
        h = np.concatenate([hollow_batch(2, 2, 98, 1.5), huge])
        d0 = kernels._dplus_start(h)
        assert np.array_equal(d0[2], [0.0, 0.0])
        assert np.array_equal(d0[:2], kernels._dplus_start(h[:2])) and (d0[:2] < 0.0).all()
        got = kernels.dplus_solve(h, 1e-12, 100)
        assert got[1][2] == 1 and not got[2][2] <= 1e-12
        assert_same_rows(sample_rows(got)[:2], sample_rows(kernels.dplus_solve(h[:2], 1e-12, 100)))

    def test_start_saves_an_evaluation(self):
        # olm FC(30 -> 20) outputs at bench_forward's initialization scale
        # solve in 2 evaluations from the start, both in Taylor arithmetic,
        # with C from the last polynomial and no eigh (3 evaluations from
        # d = 0)
        h = fc30_dplus_inputs(8, 20)
        _, iters, _, _, (rows, _, _) = kernels.dplus_solve(h, sv.DPLUS_TOL, sv.DPLUS_MAX_ITER)
        assert np.array_equal(iters, np.full(8, 2)) and rows.size == 0

    def test_poly_phase_matches_eigh_reference(self, monkeypatch):
        # infer30 shapes: one polynomial step, then the polynomial evaluation
        # that finds it converged and gives C, with no eigh; an eigh-only
        # Newton takes two
        h = fc30_dplus_inputs(32, 21)
        assert h.shape == (32, 20, 20) and (start_norms(h) <= 1.0).all()
        polys = []
        poly = la.matrix_poly
        monkeypatch.setattr(la, "matrix_poly", lambda *a: polys.append(len(a[0])) or poly(*a))
        d, iters, res, c, eig = kernels.dplus_solve(h, 1e-12, 100)
        assert polys == [32, 32] and eig[0].size == 0
        d_ref, evals, res_ref, lam_ref, u_ref = dplus_newton_ref(h, 1e-12, 100)
        assert np.array_equal(iters, np.full(32, 2)) and np.array_equal(evals, np.full(32, 2))
        assert (res <= 1e-12).all() and (res_ref <= 1e-12).all()
        assert np.abs(d - d_ref).max() <= 1e-11
        # C = p(S) is the eigh reference's C, and its diagonal is the one
        # the residual measured
        c_ref = la.from_eig(np.exp(lam_ref), u_ref)
        assert np.abs(c - c_ref).max() <= 1e-12
        assert np.array_equal(np.abs(la.diagvec(c) - 1.0).max(axis=-1), res)
        # the eigendecomposition formed on demand is that of the returned point
        lam, u = sv.dplus_eig(h, d, eig)
        assert np.abs(lam - lam_ref).max() <= 1e-11
        assert np.abs(la.from_eig(lam, u) - la.from_eig(lam_ref, u_ref)).max() <= 1e-11
        want_lam, want_u = np.linalg.eigh(h + la.diag_from_vec(d))
        assert np.array_equal(lam, want_lam) and np.array_equal(u, want_u)

    def test_samples_above_bound_take_the_eigh_path(self, monkeypatch):
        # n = 20 FC outputs scaled by 40 start above the cap of 8, and n = 8
        # samples above 1 are below the size the scaled phase takes: their
        # (d, iters, residual, lam, u) are those of the solve without
        # polynomial steps, and the samples below the bound solve with no eigh
        below = fc30_dplus_inputs(5, 22)
        for h, bound in [(np.concatenate([below[:2], 40.0 * below[2:], below[2:]]), 8.0),
                         (np.concatenate([hollow_batch(2, 8, 94, 0.1), hollow_batch(3, 8, 93, 0.3),
                                          hollow_batch(3, 8, 94, 0.1)]), 1.0)]:
            above = start_norms(h) > bound
            assert np.array_equal(above, [False, False, True, True, True, False, False, False])
            got = kernels.dplus_solve(h, 1e-12, 100)
            with monkeypatch.context() as mp:
                eigh_only(mp)
                reference = kernels.dplus_solve(h, 1e-12, 100)
            rows, rows_eigh = sample_rows(got), sample_rows(reference)
            assert_same_rows([rows[k] for k in np.flatnonzero(above)],
                             [rows_eigh[k] for k in np.flatnonzero(above)])
            assert np.array_equal(got[4][0], np.flatnonzero(above))
            assert (got[2] <= 1e-12).all()
            # the FC outputs below the bound make their 2 evaluations; the
            # n = 8 samples above 1 are within the cap of n >= _SCALED_MIN_N
            assert (got[1][~above] == 2).all() if bound == 8.0 else (start_norms(h[above]) <= 8.0).all()

    def test_poly_residual_above_tol_continues_on_eigh(self, monkeypatch):
        # with the bound at the start point's norm, one polynomial step
        # takes each 2 x 2 sample out of the bound still above tol; the eigh
        # Newton goes on from there to d = -log cosh t, on the same count
        for t in (0.6, 0.7, 0.74):
            h = np.array([[[0.0, t], [t, 0.0]]])
            monkeypatch.setattr(kernels, "_taylor_cap", lambda n: start_norms(h)[0])
            d0 = kernels._dplus_start(h)
            d1, iters1, res1, _ = kernels._dplus_poly_newton(h, d0.copy(), 1e-12, 100)
            assert iters1[0] == 1 and 1e-12 < res1[0] < np.inf
            assert (d1 != d0).all()
            assert kernels._dplus_eval(h, np.arange(1), d1)[3][0] > 1e-12
            d, iters, res, _, (rows, _, _) = kernels.dplus_solve(h, 1e-12, 100)
            assert iters[0] >= 3 and rows.tolist() == [0] and res[0] <= 1e-12
            assert np.abs(d + np.log(np.cosh(t))).max() <= 1e-14

    def test_poly_trial_that_raises_the_residual_is_dropped(self, monkeypatch):
        # a negated polynomial Jacobian steps away from the solution, so the
        # second evaluation does not lower the residual: the sample goes back
        # to the start d0, and the eigh Newton goes on from d0 with 2 of its
        # evaluations spent
        jacobian, evaluate = kernels._poly_jacobian, kernels._dplus_eval
        points = []
        monkeypatch.setattr(kernels, "_poly_jacobian", lambda table: -jacobian(table))
        monkeypatch.setattr(kernels, "_dplus_eval", lambda h, idx, d: points.append(d.copy()) or evaluate(h, idx, d))
        h = hollow_batch(2, 6, 94, 0.1)
        assert (start_norms(h) <= 1.0).all()
        got = kernels.dplus_solve(h, 1e-12, 100)
        assert np.array_equal(points[0], kernels._dplus_start(h))
        eigh_only(monkeypatch)
        reference = kernels.dplus_solve(h, 1e-12, 100)
        assert np.array_equal(got[1], reference[1] + 2) and (got[2] <= 1e-12).all()
        assert_same_rows([r[:1] + r[2:] for r in sample_rows(got)],
                         [r[:1] + r[2:] for r in sample_rows(reference)])

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 100])
    def test_one_budget(self, monkeypatch, max_iter):
        # start norms on both sides of the bound (n = 6) and at s = 0 ... 3
        # and above the cap (n = 16): every evaluation, in Taylor arithmetic
        # or by eigh, counts once in iters and against max_iter, and a
        # sample's row does not depend on its batch-mates
        h6 = np.concatenate([hollow_batch(3, 6, 94, 0.1), hollow_batch(3, 6, 95, 0.5),
                             hollow_batch(2, 6, 93, 0.2)])
        norms = start_norms(h6)
        assert (norms <= 1.0).sum() == 5 and (norms > 1.0).sum() == 3
        poly, evaluate = la.matrix_poly, kernels._dplus_eval
        evals = []
        monkeypatch.setattr(la, "matrix_poly", lambda *a: evals.append(len(a[0])) or poly(*a))
        monkeypatch.setattr(kernels, "_dplus_eval", lambda h, idx, d: evals.append(len(idx)) or evaluate(h, idx, d))
        for h in (h6, scaled_batch(16)):
            evals.clear()
            got = kernels.dplus_solve(h, 1e-12, max_iter)
            assert (got[1] <= max_iter).all() and got[1].sum() == sum(evals)
            rows = sample_rows(got)
            for k in range(len(h)):
                evals.clear()
                alone = kernels.dplus_solve(h[k:k + 1], 1e-12, max_iter)
                assert alone[1][0] == sum(evals)
                assert_same_rows(rows[k:k + 1], sample_rows(alone))
            # an exhausted budget stops a sample unconverged, and the batch fails
            failed = got[2] > 1e-12
            assert failed.any() == (max_iter <= 3) and (got[1][failed] == max_iter).all()
            if failed.any():
                with pytest.raises(NoConvergence):
                    sv.dplus_batch(h, max_iter=max_iter)
            else:
                assert (sv.dplus_batch(h, max_iter=max_iter)[2] <= 1e-12).all()

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_poly_jacobian_is_the_series_derivative(self, n):
        # column j is the derivative of diag p(A) along E_jj, p the Taylor
        # polynomial of degree s + 1 for the power table A^0 ... A^s
        rng = np.random.default_rng(n)
        a = np.stack([random_hollow(n, rng) + np.diag(rng.standard_normal(n)) for _ in range(3)])
        a /= np.abs(a).sum(axis=-1).max(axis=-1)[:, None, None]
        table = la.matrix_poly(a, la._exp_coeffs(la._EXP_DEGREE))[2]
        assert len(table) == 6
        jac = kernels._poly_jacobian(table)
        coeffs = la._exp_coeffs(len(table))
        for j in range(n):
            e_j = np.zeros((n, n))
            e_j[j, j] = 1.0
            column = la.diagvec(la.matrix_poly(a, coeffs, e_j)[1])
            assert np.abs(jac[:, :, j] - column).max() <= 1e-14

    def test_poly_truncation_below_tol(self):
        # at norm 1, and at the cap scaled by its m = 16, the Taylor
        # remainder sits well below the tolerance
        q = la._EXP_DEGREE
        for norm in (1.0, kernels._SCALED_CAP / 16):
            assert norm ** (q + 1) / math.factorial(q + 1) <= sv.DPLUS_TOL / 100

    @pytest.mark.parametrize("norm", [1.5, 3.0, 6.0])
    def test_simpson_jacobian_within_its_bound(self, norm):
        # at s = 1, 2, 3 (m = 4, 8, 16) Simpson's J lies between the exact
        # derivative J0 = h0_build(U, loewner(lam, exp, exp)) and 1.005 J0 in
        # the Loewner order, and E = F^m is exp(A) to rounding
        rng = np.random.default_rng(int(norm * 10))
        a = np.stack([sym_log(dom.random_correlation(30, 1.0, rng=rng)) for _ in range(3)])
        a *= norm / np.abs(a).sum(axis=-1).max(axis=-1)[:, None, None]
        m = 2 ** (math.ceil(math.log2(norm)) + 1)
        e, jacobian = kernels._taylor_exp(a, m)
        jac = jacobian()
        lam, u = np.linalg.eigh(a)
        exact = kernels.h0_build(u, la.loewner(lam, np.exp, np.exp))
        assert np.abs(e - la.sym_exp(a)).max() <= 1e-14 * np.exp(norm)
        inv = np.linalg.inv(np.linalg.cholesky(exact))
        ratio = np.linalg.eigvalsh(inv @ la.sym(jac) @ la.transpose(inv))
        assert ratio.min() >= 1.0 - 1e-12 and ratio.max() <= 1.005
        # one Simpson panel of e^(cx) at |hc| = 1 sets the 1.005
        x = 1.0
        assert 1.0 < x / 3 * (1 + 4 * np.exp(x) + np.exp(2 * x)) / np.expm1(2 * x) <= 1.005

    def test_geom30_norms_solve_without_eigh(self):
        # n = 30 inputs with start norms 1.5-6.9, those of geom30's olm
        # solves: every sample solves in the scaled phase within 4
        # evaluations, and agrees with the eigh Newton to the tolerance's level
        h = np.concatenate([hollow_batch(1, 30, 300 + k, scale)
                            for k, scale in enumerate(np.linspace(0.068, 0.27, 12))])
        norms = start_norms(h)
        assert 1.5 <= norms.min() <= 1.6 and 6.5 <= norms.max() <= 6.9
        d, iters, res, c, (rows, _, _) = kernels.dplus_solve(h, 1e-12, 100)
        assert rows.size == 0 and (res <= 1e-12).all() and iters.max() <= 4
        d_ref, _, _, lam_ref, u_ref = dplus_newton_ref(h, 1e-12, 100)
        assert np.abs(d - d_ref).max() <= 1e-11
        assert np.abs(c - la.from_eig(np.exp(lam_ref), u_ref)).max() <= 1e-11


class TestDstarFull:
    def test_mixed_iteration_counts(self):
        c = np.concatenate([cor_batch(6, 8, 0, 0.3), cor_batch(6, 8, 50, 2.5)])
        got = kernels.dstar_full(c, 1e-10, 50)
        assert len(np.unique(got[1])) > 3
        assert not got[3].any()
        assert_same(got, dstar_full_ref(c, 1e-10, 50))

    def test_near_singular(self):
        c = np.concatenate([near_singular_batch(5, 6, 1), cor_batch(3, 6, 9)])
        got = kernels.dstar_full(c, 1e-10, 50)
        assert np.abs(got[0]).max() > 1e4
        assert_same(got, dstar_full_ref(c, 1e-10, 50))

    def test_near_singular_converges(self):
        # smallest eigenvalues 6e-10 to 4e-8: with the max-norm test alone
        # three of these four ran out of 50 steps; Armijo on the potential
        # lets the long steps along the near-null direction through
        c = near_singular_batch(4, 8, 0, gap=1e-4)
        assert np.linalg.eigvalsh(c).min(axis=-1).max() < 1e-7
        got = kernels.dstar_full(c, 1e-10, 50)
        assert (got[1] < 50).all() and not got[3].any()
        assert (got[2] <= 1e-10 * np.abs(got[0]).max(axis=-1)).all()
        assert_same(got, dstar_full_ref(c, 1e-10, 50))

    def test_zero_tolerance_runs_the_budget(self):
        # a zero tolerance is below the rounding floor, where Armijo on the
        # potential still takes steps: every sample runs the full budget and
        # none reports a damping failure
        c = cor_batch(8, 6, 20, 2.0)
        got = kernels.dstar_full(c, 0.0, 50)
        assert (got[1] == 50).all() and not got[3].any()
        assert_same(got, dstar_full_ref(c, 0.0, 50))

    def test_damping_failure(self, monkeypatch):
        # an ascent direction meets neither acceptance test at any alpha, so
        # the first step fails; both modes report it and dstar_batch raises
        newton_step = kernels._newton_step
        monkeypatch.setattr(kernels, "_newton_step", lambda c, x, f: -newton_step(c, x, f))
        c = cor_batch(4, 6, 20, 2.0)
        x, iters, res, failed = kernels.dstar_full(c, 1e-10, 50)
        assert failed.all() and not iters.any() and np.array_equal(x, kernels._dstar_start(c))
        assert kernels.dstar_newton1(c)[2].all()
        for mode in ("full", "newton1"):
            with pytest.raises(DampingFailure):
                sv.dstar_batch(c, mode)

    def test_budget_exhausted(self):
        c = cor_batch(8, 6, 30, 2.5)
        got = kernels.dstar_full(c, 1e-10, 3)
        assert (got[1] == 3).any()
        assert_same(got, dstar_full_ref(c, 1e-10, 3))

    @pytest.mark.parametrize("n", [2, 8, 30])
    def test_single_sample(self, n):
        c = cor_batch(1, n, 40 + n, 1.5)
        assert_same(kernels.dstar_full(c, 1e-10, 50), dstar_full_ref(c, 1e-10, 50))

    def test_identity_needs_no_step(self):
        c = np.stack([np.eye(4), cor_batch(1, 4, 3)[0]])
        x, iters, res, failed = kernels.dstar_full(c, 1e-10, 50)
        assert iters[0] == 0 and res[0] == 0.0 and np.array_equal(x[0], np.ones(4))
        assert_same((x, iters, res, failed), dstar_full_ref(c, 1e-10, 50))

    def test_start_is_one_at_identity(self):
        assert np.array_equal(kernels._dstar_start(np.eye(5)[None]), np.ones((1, 5)))

    def test_start_on_near_singular_and_negative_row_sums(self):
        # rows 0 and 1 nearly anti-correlated: every sample has a row sum
        # below 0, where the start reads r as 1
        c = np.concatenate([near_singular_batch(6, 8, 2), near_singular_batch(4, 8, 0, gap=1e-4)])
        assert (c.sum(axis=-1) < 0).any(axis=-1).all()
        x = kernels._dstar_start(c)
        assert np.isfinite(x).all() and (x > 0).all()
        quad = np.einsum("bi,bij,bj->b", x, c, x)
        assert np.allclose(quad, 8.0, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("spread", [0.3, 1.0])
    def test_start_saves_steps(self, spread):
        # per sample the start can cost a step or two more; over a batch of
        # 64 at n = 30 it lowers the mean and does not raise the max
        c = cor_batch(64, 30, 0, spread)
        scaled = kernels.dstar_full(c, 1e-10, 50)[1]
        ones = dstar_full_ref(c, 1e-10, 50, start="ones")[1]
        assert scaled.mean() < ones.mean() and scaled.max() <= ones.max()


class TestDampedUpdate:
    def test_every_halving_count(self):
        # scaling the Newton step by 2**k moves the accepted alpha k halvings
        # later, through the last one (2**-20) and past it into failure
        c = cor_batch(1, 6, 60, 2.0)[0]
        x = np.ones(6)
        f = c @ x - 1.0 / x
        step = np.linalg.solve(c + np.eye(6), -f)
        b = 26
        steps = np.stack([step * 2.0**k for k in range(b)])
        cb, fnorm = np.broadcast_to(c, (b, 6, 6)), np.full(b, np.abs(f).max())
        got = kernels._backtrack(np.ones((b, 6)), steps,
                                 lambda idx, trial: kernels._lowers_fnorm(cb, fnorm, idx, trial))
        want = [damped_update_ref(c, x, f, s) for s in steps]
        assert np.array_equal(got[0], np.stack([w[0] for w in want]))
        assert np.array_equal(got[1], np.array([w[1] for w in want]))
        assert np.array_equal(got[2], np.array([w[2] for w in want]))
        assert got[1][:15].all() and not got[1][-3:].any()


class TestDstarNewton1:
    def test_mixed_batch(self):
        c = np.concatenate([np.eye(6)[None], cor_batch(6, 6, 200), near_singular_batch(3, 6, 5)])
        got = kernels.dstar_newton1(c)
        assert not got[2].any()
        assert_same(got, dstar_newton1_ref(c))

    def test_single_sample(self):
        c = cor_batch(1, 30, 7)
        assert_same(kernels.dstar_newton1(c), dstar_newton1_ref(c))


class TestH0Build:
    @pytest.mark.parametrize("n", [1, 5, 30])
    def test_matches_contraction(self, n):
        rng = np.random.default_rng(3 + n)
        s = np.stack([la.sym(rng.standard_normal((n, n))) for _ in range(4)])
        lam, u = np.linalg.eigh(s)
        lw = la.loewner(lam, np.exp, np.exp)
        got = kernels.h0_build(u, lw)
        want = h0_build_ref(u, lw)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_extra_batch_axes(self):
        rng = np.random.default_rng(11)
        s = la.sym(rng.standard_normal((2, 3, 4, 4)))
        lam, u = np.linalg.eigh(s)
        lw = la.loewner(lam, np.exp, np.exp)
        got = kernels.h0_build(u, lw)
        assert got.shape == (2, 3, 4, 4)
        assert np.linalg.norm(got - h0_build_ref(u, lw)) <= 1e-13 * np.linalg.norm(got)

    @pytest.mark.parametrize("shape", [(7, 30, 30), (2, 3, 6, 6)])
    def test_slices_are_bitwise_the_whole_batch(self, monkeypatch, shape):
        # slices of 1 sample, of 3 (an uneven last one) and the whole batch
        # give the same bits, extra batch axes included
        rng = np.random.default_rng(12)
        lam, u = np.linalg.eigh(la.sym(rng.standard_normal(shape)))
        lw = la.loewner(lam, np.exp, np.exp)
        n = shape[-1]
        per_sample = 8 * n * n * (n + 1) // 2
        got = []
        for samples in (1, 3, 10**6):
            monkeypatch.setattr(kernels, "_H0_SLICE_BYTES", samples * per_sample)
            got.append(kernels.h0_build(u, lw))
        assert got[0].shape == shape
        assert np.array_equal(got[0], got[2]) and np.array_equal(got[1], got[2])

    @settings(max_examples=40)
    @given(n=st.integers(1, 30), spread=st.floats(0.0, 25.0), low=st.floats(-10.0, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_eigenvalues_within_loewner_range(self, n, spread, low, seed):
        # Q[i, jk] = U_ij U_ik has orthonormal rows, so H0 = Q diag(vec LW) Q^T
        # has its eigenvalues in [min LW, max LW], so cond(H0) <= e^(lam_max -
        # lam_min)
        rng = np.random.default_rng(seed)
        lam = np.sort(low + spread * rng.random(n))
        u = np.linalg.qr(rng.standard_normal((n, n)))[0]
        lw = la.loewner(lam, np.exp, np.exp)
        ev = np.linalg.eigvalsh(kernels.h0_build(u, lw))
        slack = 20 * n * np.finfo(float).eps * lw.max()
        assert ev[0] >= lw.min() - slack
        assert ev[-1] <= lw.max() + slack

    def test_dplus_solve_matches_contraction_build(self, monkeypatch):
        # geom30 shapes: the pair-sum build takes the same Newton steps as
        # the full contraction, to the same d
        c = cor_batch(16, 30, 200, spread=0.3)
        h = la.offmat(sym_log(c))
        d, iters, res, _, _ = kernels.dplus_solve(h, 1e-12, 100)
        monkeypatch.setattr(kernels, "h0_build", h0_build_ref)
        d_ref, iters_ref, _, _, _ = kernels.dplus_solve(h, 1e-12, 100)
        assert (res <= 1e-12).all() and iters.max() > 2
        assert np.array_equal(iters, iters_ref)
        assert np.abs(d - d_ref).max() <= 1e-12
