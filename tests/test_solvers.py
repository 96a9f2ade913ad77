import numpy as np
import pytest

from corrgeo import domain as dom
from corrgeo import linalg as la
from corrgeo import solvers as sv
from corrgeo.errors import ConfigError, SingularH0

from helpers import (
    dplus, dplus_backward, dplus_history, dstar, dstar_backward, fd_grad_sym, off_exp_batch,
    is_valid_correlation, random_hollow, rel_err, scaled_spd_batch, sym_adjoint_as_fd,
)


def scaled_hollow(n, rng, cap=2.0):
    h = random_hollow(n, rng)
    scale = np.abs(h).max()
    if scale > cap:
        h *= cap / scale
    return h


class TestDplus:
    def test_zero_input(self):
        res = dplus(np.zeros((3, 3)))
        assert np.array_equal(res.d, np.zeros(3))
        # solved by one evaluation in Taylor arithmetic, with no eigh
        assert res.iterations == 1
        assert res.residual == 0.0

    def test_two_by_two_closed_form(self):
        h = 1.0
        hol = np.array([[0.0, h], [h, 0.0]])
        res = dplus(hol)
        assert np.abs(res.d - (-np.log(np.cosh(h)))).max() < 1e-10

    def test_residual_sweep(self):
        rng = np.random.default_rng(0)
        for n in (4, 8, 16):
            for _ in range(20):
                h = scaled_hollow(n, rng)
                res = dplus(h, max_iter=200)
                assert res.residual < 1e-12
                c = la.sym_exp(h + np.diag(res.d))
                assert np.abs(la.diagvec(c) - 1.0).max() < 1e-12
                assert is_valid_correlation(c)

    def test_sixty_iterations_n6(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h = scaled_hollow(6, rng)
            res = dplus(h)
            assert res.residual < 1e-12
            assert res.iterations <= 60

    def test_residual_monotone_after_first(self):
        rng = np.random.default_rng(1)
        findings = []
        for seed in range(30):
            h = scaled_hollow(6, rng)
            _, hist = dplus_history(h)
            tail = hist[1:]
            if any(b > a for a, b in zip(tail, tail[1:])):
                findings.append(seed)
        # exponential convergence is claimed, monotonicity is not: record only
        if findings:
            print(f"note: non-monotone dplus residual tails on seeds {findings}")

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        hs = np.stack([scaled_hollow(5, rng) for _ in range(7)])
        d, iters, res, _, _ = sv.dplus_batch(hs)
        for k in range(7):
            single = dplus(hs[k])
            assert np.allclose(d[k], single.d, atol=1e-14)


class TestDplusBackward:
    def test_zero_cotangent(self):
        rng = np.random.default_rng(3)
        h = scaled_hollow(4, rng)
        out = dplus_backward(h, np.zeros((4, 4)))
        assert np.abs(out).max() == 0.0

    def test_two_by_two_tanh_derivative(self):
        h = 0.7

        def loss(hol):
            return off_exp_batch(hol[None])[0][0, 1]

        hol = np.array([[0.0, h], [h, 0.0]])
        grad_c = np.zeros((2, 2))
        grad_c[0, 1] = 1.0
        g = dplus_backward(hol, grad_c)
        # loss = tanh(h) along the symmetric pair, so <G, E01 + E10> = sech(h)^2
        analytic = np.cosh(h) ** -2
        assert abs(2 * g[0, 1] - analytic) < 1e-8
        assert abs(2 * g[0, 1] - fd_grad_sym(loss, hol)[0, 1]) < 1e-6

    def test_random_gradcheck(self):
        rng = np.random.default_rng(4)
        h = scaled_hollow(5, rng, cap=1.5)
        w = la.sym(rng.standard_normal((5, 5)))

        def loss(hol):
            return np.sum(off_exp_batch(hol[None])[0] * w)

        g = dplus_backward(h, w)
        fd = fd_grad_sym(loss, h)
        np.fill_diagonal(fd, 0.0)
        assert rel_err(sym_adjoint_as_fd(g), fd) < 1e-5

    def test_singular_h0_raises(self):
        # for [[0, h], [h, 0]] the shift is log(2) - h up to exp(-2h), and the
        # coupling matrix has eigenvalues 1/2 and about 1/(2h).  At h = 1e13
        # its condition number exceeds the 1e12 limit; the solve from d = 0
        # would overflow, so the backward pass is handed the closed-form point.
        h = 1e13
        hol = np.array([[0.0, h], [h, 0.0]])
        s = hol + np.diag(np.full(2, np.log(2.0) - h))
        grad_y = np.zeros((1, 2, 2))
        grad_y[0, 0, 1] = grad_y[0, 1, 0] = 1.0
        with pytest.raises(SingularH0):
            sv.dplus_backward_batch(grad_y, np.linalg.eigh(s[None]))

    def test_singular_sample_in_a_batch_raises(self):
        # one ill-conditioned sample among well-conditioned ones fails the batch
        rng = np.random.default_rng(8)
        h = np.stack([scaled_hollow(2, rng, cap=1.5) for _ in range(5)])
        d, _, _, _, eig = sv.dplus_batch(h)
        lam, u = sv.dplus_eig(h, d, eig)
        grad_y = la.sym(rng.standard_normal((5, 2, 2)))
        sv.dplus_backward_batch(grad_y, (lam, u))
        big = 1e13
        s = np.array([[np.log(2.0) - big, big], [big, np.log(2.0) - big]])
        lam_s, u_s = np.linalg.eigh(s)
        lam = np.concatenate([lam[:2], lam_s[None], lam[2:]])
        u = np.concatenate([u[:2], u_s[None], u[2:]])
        grad_y = np.concatenate([grad_y[:2], np.array([[[0.0, 1.0], [1.0, 0.0]]]), grad_y[2:]])
        with pytest.raises(SingularH0):
            sv.dplus_backward_batch(grad_y, (lam, u))


class TestDstar:
    def test_unknown_mode_is_config_error(self):
        with pytest.raises(ConfigError, match="bogus"):
            sv.dstar_batch(np.eye(3)[None], "bogus")

    def test_identity(self):
        res = dstar(np.eye(4))
        assert np.array_equal(res.x, np.ones(4))
        assert res.residual == 0.0

    def test_two_by_two_closed_form(self):
        r = 0.5
        c = np.array([[1.0, r], [r, 1.0]])
        res = dstar(c)
        assert np.abs(res.x - (1 + r) ** -0.5).max() < 1e-10
        sigma = np.diag(res.x) @ c @ np.diag(res.x)
        assert np.abs(sigma.sum(axis=1) - 1.0).max() < 1e-10

    def test_row_sum_sweep(self):
        for seed in range(30):
            c = dom.random_correlation(6, 1.0, rng=seed)
            sigma, x = scaled_spd_batch(c[None], "full")
            assert np.abs(sigma[0].sum(axis=1) - 1.0).max() < 1e-8
            assert x.min() > 0.0

    def test_unique_fixed_point_from_perturbed_starts(self):
        # same zero reached when the iteration starts away from 1
        c = dom.random_correlation(5, 1.0, rng=7)
        x_ref = sv.dstar_batch(c[None], "full")[0]

        def newton_from(x0):
            x = x0.copy()
            for _ in range(60):
                f = c @ x - 1.0 / x
                if np.abs(f).max() <= 1e-12:
                    break
                jac = c + np.diag(1.0 / x**2)
                step = np.linalg.solve(jac, -f)
                alpha = 1.0
                while alpha > 2**-20:
                    trial = x + alpha * step
                    if np.all(trial > 0) and np.abs(c @ trial - 1 / trial).max() < np.abs(f).max():
                        x = trial
                        break
                    alpha /= 2
            return x

        for delta in (0.1, -0.1):
            x = newton_from(np.ones(5) * (1 + delta))
            assert np.abs(x - x_ref[0]).max() < 1e-8

    def test_newton1_positive_no_guarantee(self):
        c = dom.random_correlation(6, 1.5, rng=8)
        res = dstar(c, mode="newton1")
        assert res.x.min() > 0.0
        assert res.iterations == 1


class TestDstarBackward:
    def test_zero_cotangent(self):
        c = dom.random_correlation(4, 1.0, rng=9)
        out = dstar_backward(c, np.zeros((4, 4)))
        assert np.abs(out).max() == 0.0

    def test_identity_base(self):
        rng = np.random.default_rng(10)
        g = la.sym(rng.standard_normal((4, 4)))

        def loss(c):
            sigma, _ = scaled_spd_batch(dom.cor_of(c)[None], "full", tol=1e-13)
            return np.sum(sigma[0] * g)

        got = dstar_backward(np.eye(4), g)
        fd = fd_grad_sym(loss, np.eye(4))
        np.fill_diagonal(fd, 0.0)
        offdiag = sym_adjoint_as_fd(got)
        np.fill_diagonal(offdiag, 0.0)
        assert rel_err(offdiag, fd) < 1e-6

    def test_random_gradcheck(self):
        rng = np.random.default_rng(11)
        c = dom.random_correlation(5, 1.0, rng=11)
        g = la.sym(rng.standard_normal((5, 5)))

        def loss(cm):
            sigma, _ = scaled_spd_batch(dom.cor_of(cm)[None], "full", tol=1e-13)
            return np.sum(sigma[0] * g)

        got = dstar_backward(c, g)
        fd = fd_grad_sym(loss, c)
        np.fill_diagonal(fd, 0.0)
        offdiag = sym_adjoint_as_fd(got)
        np.fill_diagonal(offdiag, 0.0)
        assert rel_err(offdiag, fd) < 1e-5

    def test_newton1_iterate_through_gradcheck(self):
        rng = np.random.default_rng(12)
        c = dom.random_correlation(5, 1.0, rng=13)
        g = la.sym(rng.standard_normal((5, 5)))

        def loss(cm):
            cn = dom.cor_of(cm)
            sigma, _ = scaled_spd_batch(cn[None], "newton1")
            return np.sum(sigma[0] * g)

        x, _, _, alpha = sv.dstar_batch(c[None], "newton1")
        got = sv.dstar_newton1_backward_batch(c[None], g[None], x, alpha)[0]
        fd = fd_grad_sym(loss, c)
        np.fill_diagonal(fd, 0.0)
        offdiag = sym_adjoint_as_fd(got)
        np.fill_diagonal(offdiag, 0.0)
        assert rel_err(offdiag, fd) < 1e-5
