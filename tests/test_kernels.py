"""The batched solver kernels match per-sample reference loops exactly."""

import numpy as np
import pytest

from corrgeo import kernels
from corrgeo import domain as dom
from corrgeo import linalg as la

from helpers import damped_update_ref, dstar_full_ref, dstar_newton1_ref, h0_build_ref


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

    def test_damping_failure(self):
        # a zero tolerance is below the rounding floor: the damped step
        # eventually stalls and the sample is reported as failed
        c = cor_batch(8, 6, 20, 2.0)
        got = kernels.dstar_full(c, 0.0, 50)
        assert got[3].any()
        assert_same(got, dstar_full_ref(c, 0.0, 50))

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
        got = kernels._damped_update(np.broadcast_to(c, (b, 6, 6)), np.ones((b, 6)),
                                     np.full(b, np.abs(f).max()), steps)
        want = [damped_update_ref(c, x, f, s) for s in steps]
        assert np.array_equal(got[0], np.stack([w[0] for w in want]))
        assert np.array_equal(got[1], np.array([w[1] for w in want]))
        assert got[1][:15].all() and not got[1][-3:].any()


class TestDstarNewton1:
    def test_mixed_batch(self):
        c = np.concatenate([np.eye(6)[None], cor_batch(6, 6, 200), near_singular_batch(3, 6, 5)])
        got = kernels.dstar_newton1(c)
        assert not got[1].any()
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
