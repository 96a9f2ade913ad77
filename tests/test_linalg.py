import math

import numpy as np
import pytest

from corrgeo import domain as dom
from corrgeo import linalg as la
from corrgeo.errors import BadDiagonal, NotPositiveDefinite, NotSymmetric

from helpers import (
    central_fd_dir,
    chol_diff,
    chol_diff_inv,
    congruence_two_solves,
    fd_grad_sym,
    random_spd,
    random_sym,
    random_unit_lower,
    rel_err,
    sum_all,
    sym_adjoint_as_fd,
    sym_eig,
    sym_fun,
    sym_fun_diff,
    sym_log,
    tri_diff_block,
)


class TestHelpers:
    def test_half_lower_identity(self):
        assert np.array_equal(la.half_lower(np.eye(2)), 0.5 * np.eye(2))

    def test_offmat_diagonal(self):
        assert np.array_equal(la.offmat(np.diag([1.0, 2.0, 3.0])), np.zeros((3, 3)))

    def test_strict_lower(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(la.strict_lower(m), np.array([[0.0, 0.0], [3.0, 0.0]]))

    def test_exactness(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 4))
        assert np.array_equal(la.diag_from_vec(la.diagvec(m)) + la.offmat(m), m)
        assert np.array_equal(la.diagvec(la.diag_from_vec(m[0])), m[0])
        assert sum_all(m) == m.sum()


class TestSymEig:
    def test_identity(self):
        e = sym_eig(np.eye(3))
        assert np.allclose(e.lam, 1.0)
        assert np.allclose(e.u @ e.u.T, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        e = sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(e.lam, [1.0, 3.0])

    def test_reconstruct(self):
        rng = np.random.default_rng(1)
        s = random_sym(5, rng)
        e = sym_eig(s)
        assert rel_err((e.u * e.lam) @ e.u.T, s) < 1e-9
        assert np.abs(e.u.T @ e.u - np.eye(5)).max() < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestSymFun:
    def test_log_identity(self):
        assert np.abs(sym_log(np.eye(4))).max() < 1e-14

    def test_exp_diagonal(self):
        out = la.sym_exp(np.diag([1.0, 0.0]))
        assert np.allclose(out, np.diag([np.e, 1.0]), atol=1e-14)

    def test_power_half_diagonal(self):
        out = la.sym_pow(np.diag([4.0, 9.0]), 0.5)
        assert np.allclose(out, np.diag([2.0, 3.0]), atol=1e-12)

    def test_power_needs_pd_unless_natural(self):
        s = np.diag([4.0, -1.0])
        for p in (0.5, -1.0, -2):
            with pytest.raises(NotPositiveDefinite):
                la.sym_pow(s, p)
        assert np.array_equal(la.sym_pow(s, 2), np.diag([16.0, 1.0]))

    def test_log_exp_roundtrip(self):
        rng = np.random.default_rng(2)
        for n in (2, 4, 8, 16):
            for _ in range(100):
                s = random_sym(n, rng)
                assert rel_err(sym_log(la.sym_exp(s)), s) < 1e-8

    def test_log_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            sym_log(np.diag([1.0, -1.0]))

    def test_batched(self):
        rng = np.random.default_rng(3)
        s = np.stack([random_spd(4, rng) for _ in range(5)])
        out = sym_log(s)
        for i in range(5):
            assert rel_err(out[i], sym_log(s[i])) < 1e-13


class TestSymExpTaylor:
    @staticmethod
    def scaled(n, rng, norms):
        """Random symmetric n x n matrices with the given infinity norms."""
        s = np.stack([random_sym(n, rng) for _ in norms])
        return s * (np.asarray(norms) / np.abs(s).sum(axis=-1).max(axis=-1))[:, None, None]

    @pytest.mark.parametrize("n", [2, 3, 10, 30])
    def test_matches_eigh(self, n):
        # the truncation is below rounding, so each of the 7 + s products adds
        # about n u of relative error and each squaring doubles what came
        # before; the eigh reference is off by about n u ||X|| <= n u 2^s
        rng = np.random.default_rng(30 + n)
        norms = [0.0, 0.3, 1.0, 1.5, 3.0, 7.0, 12.0, 25.0, 50.0] * 4
        x = self.scaled(n, rng, norms)
        got, ref = la.sym_exp_taylor(x), la.sym_exp(x)
        for norm, g, r in zip(norms, got, ref):
            s = max(0, math.ceil(math.log2(norm))) if norm else 0
            tol = 2**s * (8 + s) * n * 2.0**-53
            assert np.abs(g - r).max() <= tol * np.abs(r).max(), (n, norm)

    def test_symmetric_and_exact_at_zero(self):
        rng = np.random.default_rng(31)
        out = la.sym_exp_taylor(self.scaled(20, rng, [0.4, 2.0, 9.0, 40.0]))
        assert np.array_equal(out, la.transpose(out))
        assert np.array_equal(la.sym_exp_taylor(np.zeros((2, 5, 5))), np.broadcast_to(np.eye(5), (2, 5, 5)))

    @pytest.mark.parametrize("n", [3, 20, 30])
    def test_batch_independent(self, n):
        """A sample's value is bitwise the same alone and in a batch of other norms."""
        rng = np.random.default_rng(32)
        x = self.scaled(n, rng, [0.0, 0.3, 1.0, 2.0, 5.0, 13.0, 50.0, 0.9, 7.5])
        out = la.sym_exp_taylor(x)
        for k in range(len(x)):
            assert np.array_equal(la.sym_exp_taylor(x[k]), out[k])
        assert np.array_equal(la.sym_exp_taylor(x[[6, 2, 4]]), out[[6, 2, 4]])

    def test_overflow_is_not_masked(self):
        # exp of an eigenvalue above log(max float) overflows, as it does on the eigh path
        x = np.diag([800.0, -800.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(la.sym_exp(x)).all()
            assert not np.isfinite(la.sym_exp_taylor(x)).all()


class TestSymFunDiff:
    def test_exp_at_zero(self):
        rng = np.random.default_rng(4)
        v = random_sym(3, rng)
        assert rel_err(sym_fun_diff("exp", np.zeros((3, 3)), v), v) < 1e-12

    def test_log_at_identity(self):
        rng = np.random.default_rng(5)
        v = random_sym(3, rng)
        assert rel_err(sym_fun_diff("log", np.eye(3), v), v) < 1e-12

    def test_scalar_multiple_of_identity(self):
        rng = np.random.default_rng(6)
        v = random_sym(4, rng)
        c = 0.7
        out = sym_fun_diff("exp", c * np.eye(4), v)
        assert rel_err(out, np.exp(c) * v) < 1e-12

    @pytest.mark.parametrize("kind,make", [
        ("exp", lambda rng: random_sym(4, rng)),
        ("log", lambda rng: random_spd(4, rng)),
    ])
    def test_matches_finite_differences(self, kind, make):
        rng = np.random.default_rng(7)
        s = make(rng)
        v = random_sym(4, rng)
        fd = central_fd_dir(lambda x: sym_fun(kind, x), s, v)
        assert rel_err(sym_fun_diff(kind, s, v), fd) < 1e-5

    def test_power_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        s = random_spd(4, rng)
        v = random_sym(4, rng)
        fd = central_fd_dir(lambda x: la.sym_pow(x, 0.5), s, v)
        assert rel_err(sym_fun_diff("power", s, v, p=0.5), fd) < 1e-5

    def test_linearity(self):
        rng = np.random.default_rng(9)
        s = random_spd(4, rng)
        v, w = random_sym(4, rng), random_sym(4, rng)
        lhs = sym_fun_diff("log", s, 2.0 * v + 3.0 * w)
        rhs = 2.0 * sym_fun_diff("log", s, v) + 3.0 * sym_fun_diff("log", s, w)
        assert rel_err(lhs, rhs) < 1e-10

    def test_self_adjoint(self):
        rng = np.random.default_rng(10)
        s = random_spd(5, rng)
        a, b = random_sym(5, rng), random_sym(5, rng)
        lhs = np.sum(sym_fun_diff("exp", s, a) * b)
        rhs = np.sum(a * sym_fun_diff("exp", s, b))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


class TestChol:
    def test_identity(self):
        assert np.array_equal(la.chol(np.eye(3)), np.eye(3))

    def test_two_by_two(self):
        out = la.chol(np.array([[1.0, 0.6], [0.6, 1.0]]))
        assert np.allclose(out, [[1.0, 0.0], [0.6, 0.8]], atol=1e-15)

    def test_reconstruct(self):
        rng = np.random.default_rng(11)
        p = random_spd(6, rng)
        l = la.chol(p)
        assert rel_err(l @ l.T, p) < 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        p = random_spd(5, rng)
        assert np.array_equal(la.chol(p), la.chol(p))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            la.chol(np.diag([1.0, -2.0]))


class TestCholDiff:
    def test_at_identity(self):
        rng = np.random.default_rng(13)
        v = random_sym(4, rng)
        assert rel_err(chol_diff(np.eye(4), v), la.half_lower(v)) < 1e-13

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        p = random_spd(5, rng)
        v = random_sym(5, rng)
        fd = central_fd_dir(la.chol, p, v)
        assert rel_err(chol_diff(p, v), fd) < 1e-5

    def test_roundtrip_inverse(self):
        rng = np.random.default_rng(15)
        p = random_spd(5, rng)
        v = random_sym(5, rng)
        l = la.chol(p)
        z = chol_diff(p, v)
        assert rel_err(chol_diff_inv(l, z), v) < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(16)
        p = random_spd(4, rng)
        v, w = random_sym(4, rng), random_sym(4, rng)
        lhs = chol_diff(p, 1.5 * v - 0.5 * w)
        rhs = 1.5 * chol_diff(p, v) - 0.5 * chol_diff(p, w)
        assert rel_err(lhs, rhs) < 1e-10


class TestInvCongruence:
    """inv_congruence (one inverse of the factor and two matmuls) and the
    chol_backward that ends in it, against the two-LU-solve congruence, on
    Cholesky factors of correlation matrices up to cond(C) ~ 1e11.  Relative
    to the largest entry, each reads within 3.5e-15 of a long-double
    triangular-substitution reference at these points, and the two within
    5.7e-15 of each other (n = 3, cond(C) = 5.6e10); the bound is 2e-14."""

    @staticmethod
    def factors(n, cond, seed):
        rng = np.random.default_rng(seed)
        c = np.stack([dom.cor_of(random_spd(n, rng, cond)) for _ in range(4)])
        grad_l = np.tril(rng.standard_normal((4, n, n)))
        return la.chol(c), np.stack([random_sym(n, rng) for _ in range(4)]), grad_l

    @staticmethod
    def close(got, want):
        return np.abs(got - want).max() <= 2e-14 * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 3, 8, 16, 30])
    @pytest.mark.parametrize("cond", [1e1, 1e6, 1e11])
    def test_matches_two_solves(self, n, cond):
        l, v, grad_l = self.factors(n, cond, 40 + n)
        lt = la.transpose(l)
        # chol_backward hands the congruence a lower-triangular, not a
        # symmetric, matrix: the order l^-1 v l^-T is pinned on both kinds
        tril = np.tril(np.random.default_rng(n).standard_normal(v.shape))
        for k in (slice(None), 0):
            for w in (v[k], tril[k]):
                assert self.close(la.inv_congruence(l[k], w), congruence_two_solves(l[k], w))
            want = la.sym(congruence_two_solves(lt[k], la.half_lower(lt[k] @ grad_l[k])))
            assert self.close(la.chol_backward(l[k], grad_l[k]), want)


class TestCholBackward:
    def test_zero_cotangent(self):
        rng = np.random.default_rng(17)
        p = random_spd(4, rng)
        l = la.chol(p)
        assert np.abs(la.chol_backward(l, np.zeros((4, 4)))).max() == 0.0

    def test_entry_loss_two_by_two(self):
        r = 0.37
        p = np.array([[1.0, r], [r, 1.0]])

        def loss(s):
            return la.chol(s)[1, 0]

        l = la.chol(p)
        grad_l = np.zeros((2, 2))
        grad_l[1, 0] = 1.0
        g = la.chol_backward(l, grad_l)
        assert rel_err(sym_adjoint_as_fd(g), fd_grad_sym(loss, p)) < 1e-7

    def test_random_gradcheck(self):
        rng = np.random.default_rng(18)
        p = random_spd(6, rng)
        grad_l = np.tril(rng.standard_normal((6, 6)))

        def loss(s):
            return np.sum(la.chol(s) * grad_l)

        g = la.chol_backward(la.chol(p), grad_l)
        assert rel_err(sym_adjoint_as_fd(g), fd_grad_sym(loss, p)) < 1e-5


class TestTriSeries:
    def test_log_identity(self):
        assert np.abs(la.tri_log(np.eye(4))).max() == 0.0

    def test_log_two_by_two(self):
        a = 0.83
        k = np.array([[1.0, 0.0], [a, 1.0]])
        assert np.allclose(la.tri_log(k), [[0.0, 0.0], [a, 0.0]], atol=1e-15)

    def test_exp_zero(self):
        assert np.array_equal(la.tri_exp(np.zeros((3, 3))), np.eye(3))

    def test_exp_three_by_three_hand(self):
        a, b = 0.4, -1.1
        x = np.zeros((3, 3))
        x[1, 0] = a
        x[2, 1] = b
        out = la.tri_exp(x)
        assert abs(out[1, 0] - a) < 1e-15
        assert abs(out[2, 1] - b) < 1e-15
        assert abs(out[2, 0] - a * b / 2.0) < 1e-15

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_roundtrip(self, n):
        rng = np.random.default_rng(19)
        for _ in range(100):
            k = random_unit_lower(n, rng)
            assert np.abs(la.tri_exp(la.tri_log(k)) - k).max() < 1e-12
            x = np.tril(rng.standard_normal((n, n)), -1) * 0.5
            assert np.abs(la.tri_log(la.tri_exp(x)) - x).max() < 1e-12

    def test_log_rejects_bad_diagonal(self):
        with pytest.raises(BadDiagonal):
            la.tri_log(np.diag([1.0, 1.0 + 1e-9]))

    def test_diff_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        n = 5
        k = random_unit_lower(n, rng)
        xi = np.tril(rng.standard_normal((n, n)), -1)
        fd = central_fd_dir(la.tri_log, k, xi)
        assert rel_err(la.tri_log_diff(k, xi), fd) < 1e-6
        x = np.tril(rng.standard_normal((n, n)), -1) * 0.7
        fd = central_fd_dir(la.tri_exp, x, xi)
        assert rel_err(la.tri_exp_diff(x, xi), fd) < 1e-6

    def test_diff_inverse_pair(self):
        rng = np.random.default_rng(21)
        n = 6
        k = random_unit_lower(n, rng)
        xi = np.tril(rng.standard_normal((n, n)), -1)
        x = la.tri_log(k)
        back = la.tri_exp_diff(x, la.tri_log_diff(k, xi))
        assert rel_err(back, xi) < 1e-10

    @pytest.mark.parametrize("name", [
        "tri_log_diff", "tri_exp_diff", "tri_log_diff_adjoint", "tri_exp_diff_adjoint",
    ])
    def test_diff_matches_block_formula(self, name):
        # degree n - 1 is exact for strictly lower directions; the adjoints
        # (each differential at the transposed base point) are exact on the
        # strictly lower part, the part the triangular charts read
        rng = np.random.default_rng(23)
        adjoint = name.endswith("adjoint")
        diff = getattr(la, name.removesuffix("_adjoint"))
        for n in list(range(2, 13)) + [20, 30]:
            for scale in (0.3, 1.0, 3.0):
                for batch in ((), (3,)):
                    base = scale * np.tril(rng.standard_normal(batch + (n, n)), -1)
                    if name.startswith("tri_log"):
                        base = base + np.eye(n)
                    xi = rng.standard_normal(batch + (n, n))
                    if adjoint:
                        got = diff(la.transpose(base), xi)
                    else:
                        xi = np.tril(xi, -1)
                        got = diff(base, xi)
                    want = tri_diff_block(name, base, xi)
                    if adjoint:
                        got, want = la.strict_lower(got), la.strict_lower(want)
                    assert rel_err(got, want) < 1e-13, (n, scale, batch)

    def test_adjoint_pairing(self):
        """<D(N)[xi], zeta> = <xi, D(N^T)[zeta]> for strictly lower xi and any
        zeta: the pairing the triangular charts' vjp and inverse_vjp rest on."""
        rng = np.random.default_rng(22)
        for name in ("tri_log_diff", "tri_exp_diff"):
            diff = getattr(la, name)
            for n in list(range(2, 13)) + [20, 30]:
                for scale in (0.3, 1.0, 3.0):
                    for batch in ((), (3,)):
                        base = scale * np.tril(rng.standard_normal(batch + (n, n)), -1)
                        if name == "tri_log_diff":
                            base = base + np.eye(n)
                        xi = np.tril(rng.standard_normal(batch + (n, n)), -1)
                        zeta = rng.standard_normal(batch + (n, n))
                        push, pull = diff(base, xi), diff(la.transpose(base), zeta)
                        lhs = np.sum(push * zeta, axis=(-2, -1))
                        rhs = np.sum(xi * pull, axis=(-2, -1))
                        norms = (np.sum(push**2 + xi**2, axis=(-2, -1))
                                 * np.sum(zeta**2 + pull**2, axis=(-2, -1)))
                        bound = 1e-14 * np.sqrt(norms)
                        assert (np.abs(lhs - rhs) <= bound).all(), (name, n, scale, batch)

    @pytest.mark.parametrize("n", [2, 5, 30])
    def test_value_unchanged_by_derivative(self, n):
        rng = np.random.default_rng(24)
        x = np.tril(rng.standard_normal((4, n, n)), -1)
        xi = np.tril(rng.standard_normal((4, n, n)), -1)
        coeffs = la._log_coeffs(n - 1)
        alone, none, _ = la.matrix_poly(x, coeffs)
        with_diff, _, _ = la.matrix_poly(x, coeffs, xi)
        assert none is None
        assert np.array_equal(alone, with_diff)
