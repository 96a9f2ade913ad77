import numpy as np
import pytest

from corrgeo import domain as dom
from corrgeo import linalg as la
from corrgeo.errors import NonFiniteInput, NonPositiveDiagonal, NotPositiveDefinite, NotSymmetric

from helpers import (
    central_fd_dir, fd_grad_sym, has_unit_rows, hol_basis, is_rowzero, is_valid_correlation, random_spd, rel_err,
    rowzero_basis, rowzero_inner, sym_adjoint_as_fd, theta, theta_inv,
)


class TestCorOf:
    def test_identity(self):
        assert np.array_equal(dom.cor_of(np.eye(3)), np.eye(3))

    def test_diagonal_input(self):
        assert np.array_equal(dom.cor_of(np.diag([4.0, 9.0])), np.eye(2))

    def test_hand_value(self):
        sigma = np.array([[4.0, 2.0], [2.0, 9.0]])
        expect = np.array([[1.0, 1.0 / 3.0], [1.0 / 3.0, 1.0]])
        assert rel_err(dom.cor_of(sigma), expect) < 1e-15

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        sigma = random_spd(5, rng)
        c = dom.cor_of(sigma)
        assert np.abs(dom.cor_of(c) - c).max() < 1e-12

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(NonPositiveDiagonal):
            dom.cor_of(np.diag([1.0, -1.0]))

    def test_backward_gradcheck(self):
        rng = np.random.default_rng(1)
        sigma = random_spd(5, rng)
        g = rng.standard_normal((5, 5))
        g = (g + g.T) / 2

        def loss(s):
            return np.sum(dom.cor_of(s) * g)

        got = dom.cor_of_backward(dom.cor_of(sigma), np.diag(sigma) ** -0.5, g)
        assert rel_err(sym_adjoint_as_fd(got), fd_grad_sym(loss, sigma)) < 1e-6

    @pytest.mark.parametrize("n, seed", [(2, 3), (5, 4), (9, 5)])
    def test_diff_matches_finite_differences(self, n, seed):
        rng = np.random.default_rng(seed)
        sigma, ds = random_spd(n, rng), la.sym(rng.standard_normal((n, n)))
        got = dom.cor_of_diff(dom.cor_of(sigma), np.diag(sigma) ** -0.5, ds)
        assert rel_err(got, central_fd_dir(dom.cor_of, sigma, ds)) < 1e-7
        assert np.array_equal(np.diag(got), np.zeros(n))

    @pytest.mark.parametrize("n, seed", [(2, 6), (5, 7), (9, 8)])
    def test_diff_pairs_with_backward(self, n, seed):
        """<cor_of_diff(ds), G> = <ds, cor_of_backward(G)>, batched, G not symmetric."""
        rng = np.random.default_rng(seed)
        sigma = np.stack([random_spd(n, rng) for _ in range(3)])
        ds = la.sym(rng.standard_normal((3, n, n)))
        g = rng.standard_normal((3, n, n))
        c, d = dom.cor_of(sigma), la.diagvec(sigma) ** -0.5
        jv, jtg = dom.cor_of_diff(c, d, ds), dom.cor_of_backward(c, d, g)
        assert np.array_equal(jtg, la.transpose(jtg))
        lhs, rhs = np.sum(jv * g, axis=(-2, -1)), np.sum(ds * jtg, axis=(-2, -1))
        scale = np.linalg.norm(jv) * np.linalg.norm(g) + np.linalg.norm(ds) * np.linalg.norm(jtg)
        assert np.abs(lhs - rhs).max() < 1e-13 * scale


class TestValidation:
    def test_accepts_random(self):
        for n in (4, 8, 16):
            for seed in range(50):
                c = dom.random_correlation(n, 1.0, rng=seed)
                assert is_valid_correlation(c)

    def test_cor_of_random_spd_sweep(self):
        from helpers import random_spd
        for n in (4, 8, 16):
            rng = np.random.default_rng(n)
            for _ in range(1000):
                c = dom.cor_of(random_spd(n, rng, cond=100.0))
                assert is_valid_correlation(c)

    def test_rejects_asymmetric_diag_pd(self):
        c = np.eye(3)
        c[0, 1] = 1e-6
        assert not is_valid_correlation(c)
        with pytest.raises(NonPositiveDiagonal):
            dom.validate_correlation(np.diag([1.0, 1.0 + 1e-6]))
        bad = np.array([[1.0, 0.9999999999999], [0.9999999999999, 1.0]])
        bad[0, 1] = bad[1, 0] = 1.0 + 1e-13
        with pytest.raises(NotPositiveDefinite):
            dom.validate_correlation(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # nan > tol is false, so a symmetry check alone lets NaN through
        c = np.eye(3)
        c[1, 0] = c[0, 1] = bad
        with pytest.raises(NonFiniteInput):
            dom.validate_correlation(c)
        assert not is_valid_correlation(c)

    def test_stack_names_first_bad_matrix(self):
        stack = np.stack([dom.random_correlation(4, 0.5, rng=s) for s in range(6)]).reshape(3, 2, 4, 4)
        assert dom.validate_correlation(stack) is not None
        cases = [  # matrix, entry, value, error; all ones is singular
            ((2, 1), (0, 3), np.nan, NonFiniteInput),
            ((1, 0), (0, 3), 0.9, NotSymmetric),
            ((0, 1), (2, 2), 1.5, NonPositiveDiagonal),
            ((2, 0), slice(None), 1.0, NotPositiveDefinite),
        ]
        for at, entry, value, err in cases:
            bad = stack.copy()
            bad[at][entry] = value
            with pytest.raises(err, match=rf"matrix \({at[0]}, {at[1]}\)"):
                dom.validate_correlation(bad)


class TestTheta:
    def test_identity(self):
        assert np.array_equal(theta(np.eye(4)), np.eye(4))

    def test_hand_value(self):
        r = 0.6
        t = theta(np.array([[1.0, r], [r, 1.0]]))
        assert abs(t[1, 0] - r / np.sqrt(1 - r * r)) < 1e-15
        assert t[0, 0] == 1.0 and t[1, 1] == 1.0

    def test_unit_diagonal_exact(self):
        c = dom.random_correlation(6, 1.0, rng=2)
        t = theta(c)
        assert np.array_equal(la.diagvec(t), np.ones(6))

    def test_roundtrip(self):
        c = dom.random_correlation(8, 1.0, rng=3)
        assert rel_err(theta_inv(theta(c)), c) < 1e-9

    def test_chol_rows_unit_norm(self):
        c = dom.random_correlation(7, 1.2, rng=4)
        assert has_unit_rows(la.chol(c))


class TestRandomCorrelation:
    def test_small_spread_near_identity(self):
        for spread in (1e-3, 1e-4):
            c = dom.random_correlation(5, spread, rng=5)
            assert np.abs(c - np.eye(5)).max() < 10 * spread

    def test_deterministic(self):
        a = dom.random_correlation(6, 0.8, rng=6)
        b = dom.random_correlation(6, 0.8, rng=6)
        assert np.array_equal(a, b)

    def test_validation_sweep(self):
        for seed in range(1000):
            c = dom.random_correlation(6, 1.0, rng=seed)
            assert is_valid_correlation(c)


class TestBases:
    def test_hol_m2(self):
        b = hol_basis(2)
        assert b.shape == (1, 2, 2)
        assert rel_err(b[0], np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2)) < 1e-15

    def test_hol_gram_identity(self):
        b = hol_basis(5)
        gram = np.einsum("aij,bij->ab", b, b)
        assert np.abs(gram - np.eye(len(b))).max() < 1e-14

    def test_hol_zero_diagonal(self):
        for e in hol_basis(4):
            assert np.abs(np.diagonal(e)).max() == 0.0

    def test_rowzero_m2(self):
        b = rowzero_basis(2)
        assert b.shape == (1, 2, 2)
        expect = np.array([[1.0, -1.0], [-1.0, 1.0]]) / np.sqrt(3)
        assert rel_err(b[0], expect) < 1e-15

    def test_rowzero_row_sums(self):
        for m in (2, 3, 5):
            for e in rowzero_basis(m):
                assert np.abs(e.sum(axis=0)).max() < 1e-15
                assert np.abs(e - e.T).max() == 0.0

    def test_rowzero_gram_identity(self):
        for m in (2, 3, 5):
            b = rowzero_basis(m)
            d = len(b)
            gram = np.empty((d, d))
            for a in range(d):
                for c in range(d):
                    gram[a, c] = rowzero_inner(b[a], b[c])
            assert np.abs(gram - np.eye(d)).max() < 1e-12

    def test_row_major_ordering(self):
        b = hol_basis(3)
        assert b[0][1, 0] != 0.0
        assert b[1][2, 0] != 0.0
        assert b[2][2, 1] != 0.0


class TestCoords:
    def test_hol_roundtrip(self):
        rng = np.random.default_rng(7)
        h = dom.random_hollow(5, rng)
        v = dom.hol_coords(h)
        assert rel_err(dom.hol_from_coords(v, 5), h) < 1e-15
        assert abs(np.sum(v * v) - np.sum(h * h)) < 1e-12

    def test_rowzero_roundtrip(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal(dom.lt0_dim(5))
        r = dom.rowzero_from_coords(v, 5)
        assert is_rowzero(r, tol=1e-12)
        assert rel_err(dom.rowzero_coords(r), v) < 1e-14

    def test_lt0_roundtrip(self):
        rng = np.random.default_rng(9)
        x = np.tril(rng.standard_normal((4, 4)), -1)
        assert np.array_equal(dom.lt0_from_coords(dom.lt0_coords(x), 4), x)
