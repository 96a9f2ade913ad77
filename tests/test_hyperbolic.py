import numpy as np
import pytest

from corrgeo import domain as dom
from corrgeo import hyperbolic as hyp
from corrgeo.errors import DimensionMismatch

from helpers import (
    beta_concat, beta_concat_ref, beta_concat_vjp_ref, beta_split, beta_split_ref, beta_split_vjp_ref, cor_to_ppb_ref,
    cor_to_ppb_vjp_ref, fd_grad_free, hs_to_pb, hs_to_pb_vjp, hyperboloid_dist, in_ball, pb_fc,
    pb_mlr_logit_ref, pb_mlr_logit_vjp_ref, pb_to_hs, pb_to_hs_vjp, poincare_dist, ppb_to_cor_ref,
    ppb_to_cor_vjp_ref, rel_err,
)


def rand_ball(dim, rng, rmax=0.8):
    v = rng.standard_normal(dim)
    r = rng.uniform(0.0, rmax)
    return r * v / np.linalg.norm(v)


def rand_hemisphere(dim, rng):
    v = rng.standard_normal(dim + 1)
    v /= np.linalg.norm(v)
    v[-1] = abs(v[-1]) + 1e-3
    return v / np.linalg.norm(v)


class TestIsometries:
    def test_north_pole(self):
        x = np.array([0.0, 0.0, 1.0])
        assert np.array_equal(hs_to_pb(x), np.zeros(2))
        assert np.allclose(pb_to_hs(np.zeros(2)), x)

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        for dim in range(1, 10):
            h = rand_hemisphere(dim, rng)
            assert np.abs(pb_to_hs(hs_to_pb(h)) - h).max() < 1e-12
            p = rand_ball(dim, rng)
            assert np.abs(hs_to_pb(pb_to_hs(p)) - p).max() < 1e-12

    def test_distance_preserved(self):
        rng = np.random.default_rng(1)
        for dim in (1, 3, 6):
            h1, h2 = rand_hemisphere(dim, rng), rand_hemisphere(dim, rng)
            dh = hyperboloid_dist(h1, h2)
            dp = poincare_dist(hs_to_pb(h1), hs_to_pb(h2))
            assert abs(dh - dp) < 1e-9

    def test_vjp_pairings(self):
        rng = np.random.default_rng(2)
        h = rand_hemisphere(4, rng)
        p = rand_ball(4, rng)
        g5 = rng.standard_normal(5)
        g4 = rng.standard_normal(4)
        fd = fd_grad_free(lambda x: np.sum(pb_to_hs(x) * g5), p)
        assert rel_err(pb_to_hs_vjp(p, g5), fd) < 1e-7
        fd = fd_grad_free(lambda x: np.sum(hs_to_pb(x) * g4), h)
        assert rel_err(hs_to_pb_vjp(h, g4), fd) < 1e-7


class TestOriginMaps:
    def test_zero_fixed(self):
        assert np.array_equal(hyp.pb_log0(np.zeros(3)), np.zeros(3))
        assert np.array_equal(hyp.pb_exp0(np.zeros(3)), np.zeros(3))

    def test_scalar_hand_value(self):
        out = hyp.pb_log0(np.array([0.5]))
        assert abs(out[0] - 0.5493061443340549) < 1e-12

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        for dim in range(1, 9):
            p = rand_ball(dim, rng)
            assert np.abs(hyp.pb_exp0(hyp.pb_log0(p)) - p).max() < 1e-12
            v = rng.standard_normal(dim)
            assert np.abs(hyp.pb_log0(hyp.pb_exp0(v)) - v).max() < 1e-12

    def test_small_radius_stable(self):
        tiny = np.full(3, 1e-9)
        assert rel_err(hyp.pb_log0(tiny), tiny) < 1e-12
        assert rel_err(hyp.pb_exp0(tiny), tiny) < 1e-12

    def test_vjps(self):
        rng = np.random.default_rng(4)
        p = rand_ball(5, rng)
        g = rng.standard_normal(5)
        fd = fd_grad_free(lambda x: np.sum(hyp.pb_log0(x) * g), p)
        assert rel_err(hyp.pb_log0_vjp(p, g), fd) < 1e-6
        v = rng.standard_normal(5) * 0.7
        fd = fd_grad_free(lambda x: np.sum(hyp.pb_exp0(x) * g), v)
        assert rel_err(hyp.pb_exp0_vjp(v, g), fd) < 1e-6

    def test_guard_band_rescales(self):
        v = np.array([30.0, 0.0])
        p = hyp.pb_exp0(v)
        assert np.sum(p * p) < 1.0
        assert np.isfinite(hyp.pb_log0(p)).all()


def logit(x, z, gamma):
    """The logit of one point x against one normal z through the (B, K) form."""
    return hyp.pb_mlr_logit(np.asarray(x)[None], np.asarray(z)[None], [gamma])[0, 0]


def logit_vjp(x, z, gamma, grad_v):
    gx, gz, gg = hyp.pb_mlr_logit_vjp(np.asarray(x)[None], np.asarray(z)[None], [gamma], [[grad_v]])
    return gx[0], gz[0], gg[0]


class TestMlrLogit:
    def test_origin_value(self):
        z = np.array([1.0, 2.0])
        gamma = 0.3
        v = logit(np.zeros(2), z, gamma)
        assert abs(v - (-4.0 * gamma * np.linalg.norm(z))) < 1e-12

    def test_zero_gamma_origin(self):
        assert logit(np.zeros(3), np.ones(3), 0.0) == 0.0

    def test_zero_direction_convention(self):
        rng = np.random.default_rng(5)
        p = rand_ball(3, rng)
        assert logit(p, np.zeros(3), 0.7) == 0.0
        gx, gz, gg = logit_vjp(p, np.zeros(3), 0.7, 1.0)
        assert np.abs(gx).max() == 0.0 and np.abs(gz).max() == 0.0 and gg == 0.0

    def test_vjp_matches_fd(self):
        rng = np.random.default_rng(6)
        p = rand_ball(4, rng)
        z = rng.standard_normal(4)
        gamma = 0.4
        gx, gz, gg = logit_vjp(p, z, gamma, 1.0)
        assert rel_err(gx, fd_grad_free(lambda x: logit(x, z, gamma), p)) < 1e-6
        assert rel_err(gz, fd_grad_free(lambda w: logit(p, w, gamma), z)) < 1e-6
        fdg = fd_grad_free(lambda g: logit(p, z, g[0]), np.array([gamma]))
        assert abs(gg - fdg[0]) < 1e-6 * max(1.0, abs(fdg[0]))


class TestFc:
    def test_zero_params(self):
        x = np.zeros(3)
        y = pb_fc(x, np.zeros((2, 3)), np.zeros(2))
        assert np.array_equal(y, np.zeros(2))

    def test_scalar_tanh_identity(self):
        s = 1.3
        y = hyp.pb_fc_from_logits(np.array([s]))
        assert abs(y[0] - np.tanh(s / 2.0)) < 1e-12

    def test_norm_below_one_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            v = rng.uniform(-30, 30, size=4)
            y = hyp.pb_fc_from_logits(v)
            assert np.sum(y * y) < 1.0

    def test_defining_relation_readback(self):
        # reading the output back through the signed-distance form recovers v_k
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = rng.standard_normal(5) * 2.0
            y = hyp.pb_fc_from_logits(v)
            back = np.arcsinh(2.0 * y / (1.0 - np.sum(y * y)))
            assert rel_err(back, v) < 1e-8

    def test_vjp(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal(4)
        g = rng.standard_normal(4)
        got = hyp.pb_fc_from_logits_vjp(v, g)
        fd = fd_grad_free(lambda w: np.sum(hyp.pb_fc_from_logits(w) * g), v)
        assert rel_err(got, fd) < 1e-6


class TestBetaOps:
    def test_single_part_identity(self):
        rng = np.random.default_rng(10)
        p = rand_ball(4, rng)
        assert np.abs(beta_concat([p]) - p).max() < 1e-12

    def test_zero_parts(self):
        out = beta_concat([np.zeros(2), np.zeros(3)])
        assert np.array_equal(out, np.zeros(5))

    def test_concat_split_roundtrip(self):
        rng = np.random.default_rng(11)
        parts = [rand_ball(d, rng) for d in (1, 3, 2, 5)]
        y = beta_concat(parts)
        back = beta_split(y, [1, 3, 2, 5])
        for a, b in zip(parts, back):
            assert np.abs(a - b).max() < 1e-10

    def test_order_invariance_grid(self):
        # two-stage (rows then all) versus one-shot concatenation on a 2x3 grid
        rng = np.random.default_rng(12)
        grid = [[rand_ball(d, rng) for d in (2, 4, 6)] for _ in range(2)]
        flat = [p for row in grid for p in row]
        oneshot = beta_concat(flat)
        rows = [beta_concat(row) for row in grid]
        twostage = beta_concat(rows)
        assert np.abs(oneshot - twostage).max() < 1e-10

    def test_split_order_invariance(self):
        rng = np.random.default_rng(13)
        y = rand_ball(24, rng)
        dims = [2, 4, 6, 2, 4, 6]
        oneshot = beta_split(y, dims)
        halves = beta_split(y, [12, 12])
        twostage = beta_split(halves[0], [2, 4, 6]) + beta_split(halves[1], [2, 4, 6])
        for a, b in zip(oneshot, twostage):
            assert np.abs(a - b).max() < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            beta_split(np.zeros(5), [2, 2])

    def test_vjps(self):
        rng = np.random.default_rng(14)
        parts = [rand_ball(d, rng, 0.6) for d in (2, 3)]
        g = rng.standard_normal(5)
        seg = hyp.segments((2, 3))
        grads = np.split(hyp.seg_concat_vjp(np.concatenate(parts), seg, g), [2])
        for k in range(2):
            def loss(p, k=k):
                ps = [p if i == k else parts[i] for i in range(2)]
                return np.sum(beta_concat(ps) * g)
            assert rel_err(grads[k], fd_grad_free(loss, parts[k])) < 1e-6
        y = rand_ball(5, rng, 0.6)
        gparts = [rng.standard_normal(2), rng.standard_normal(3)]
        got = hyp.seg_split_vjp(y, seg, np.concatenate(gparts))
        fd = fd_grad_free(
            lambda q: sum(np.sum(a * b) for a, b in zip(beta_split(q, [2, 3]), gparts)), y
        )
        assert rel_err(got, fd) < 1e-6


def split_parts(y, n):
    """The Poincare parts of dimension 1, ..., n-1 of a poly-ball point,
    whose last axis must hold exactly n(n-1)/2 coordinates."""
    assert np.shape(y)[-1] == n * (n - 1) // 2, np.shape(y)
    return np.split(y, np.cumsum(hyp.poly_dims(n))[:-1], axis=-1)


class TestCorPpb:
    def test_identity_maps_to_zeros(self):
        y, _ = hyp.cor_to_ppb(np.eye(4))
        for p in split_parts(y, 4):
            assert np.abs(p).max() < 1e-14

    def test_two_by_two_hand_value(self):
        r = 0.6
        y, _ = hyp.cor_to_ppb(np.array([[1.0, r], [r, 1.0]]))
        assert y.shape == (1,)  # one part, of dimension 1
        assert abs(y[0] - 1.0 / 3.0) < 1e-12

    def test_roundtrip(self):
        for seed in range(10):
            c = dom.random_correlation(6, 1.0, rng=seed)
            y, _ = hyp.cor_to_ppb(c)
            assert all(in_ball(p) for p in split_parts(y, 6))
            back = hyp.ppb_to_cor(y)[0]
            assert np.abs(back - c).max() < 1e-9

    def test_vjps(self):
        rng = np.random.default_rng(15)
        c = dom.random_correlation(4, 1.0, rng=16)
        y, l = hyp.cor_to_ppb(c)
        gparts = [rng.standard_normal(i) for i in (1, 2, 3)]

        def loss(cm):
            ps, _ = hyp.cor_to_ppb(cm)
            return sum(np.sum(a * b) for a, b in zip(split_parts(ps, 4), gparts))

        g = hyp.cor_to_ppb_vjp(l, np.concatenate(gparts))
        from helpers import fd_grad_sym, sym_adjoint_as_fd
        fd = fd_grad_sym(loss, c)
        np.fill_diagonal(fd, 0.0)
        got = sym_adjoint_as_fd(g)
        np.fill_diagonal(got, 0.0)
        assert rel_err(got, fd) < 1e-6

        gc = np.asarray(rng.standard_normal((4, 4)))
        gc = (gc + gc.T) / 2

        def loss2(flat):
            return np.sum(hyp.ppb_to_cor(flat)[0] * gc)

        got = hyp.ppb_to_cor_vjp(y, l, gc)
        fd = fd_grad_free(loss2, y)
        assert rel_err(got, fd) < 1e-6


def rel_close(a, b, tol=1e-13):
    """Relative agreement of an array form with its oracle (exact zeros match exactly)."""
    a, b = np.asarray(a), np.asarray(b)
    if not np.any(b):
        return not np.any(a)
    return rel_err(a, b) <= tol


class TestSegmentForms:
    """The one-array poly-ball maps and the matmul logits against the
    list-of-parts and broadcast oracles they replace."""

    @pytest.mark.parametrize("n", [2, 3, 8, 30])
    @pytest.mark.parametrize("b", [1, 4])
    def test_cor_ppb_maps(self, n, b):
        rng = np.random.default_rng(100 * n + b)
        c = np.stack([dom.random_correlation(n, 1.0 / np.sqrt(n), rng) for _ in range(b)])
        parts, l_ref = cor_to_ppb_ref(c)
        y, l = hyp.cor_to_ppb(c)
        assert np.array_equal(l, l_ref)
        assert rel_close(y, np.concatenate(parts, axis=-1))
        back, lb = hyp.ppb_to_cor(y)
        back_ref, lb_ref = ppb_to_cor_ref(parts)
        assert rel_close(back, back_ref) and rel_close(lb, lb_ref)
        g = rng.standard_normal(y.shape)
        got = hyp.cor_to_ppb_vjp(l, g)
        assert rel_close(got, cor_to_ppb_vjp_ref(l, split_parts(g, n)))
        gc = rng.standard_normal(c.shape)
        got = hyp.ppb_to_cor_vjp(y, lb, gc)
        assert rel_close(got, np.concatenate(ppb_to_cor_vjp_ref(parts, lb_ref, gc), axis=-1))

    @pytest.mark.parametrize("n", [2, 3, 8, 30])
    @pytest.mark.parametrize("b", [1, 4])
    @pytest.mark.parametrize("copies", [1, 3])
    def test_beta_segments(self, n, b, copies):
        rng = np.random.default_rng(1000 * n + 10 * b + copies)
        dims = hyp.poly_dims(n) * copies
        parts = [np.stack([rand_ball(d, rng) for _ in range(b)]) for d in dims]
        y = np.concatenate(parts, axis=-1)
        seg = hyp.poly_segments(n, copies)
        pt = hyp.seg_concat(y, seg)
        assert rel_close(pt, beta_concat_ref(parts))
        g = rng.standard_normal(pt.shape)
        assert rel_close(hyp.seg_concat_vjp(y, seg, g), np.concatenate(beta_concat_vjp_ref(parts, g), axis=-1))
        assert rel_close(hyp.seg_split(pt, seg), np.concatenate(beta_split_ref(pt, dims), axis=-1))
        gparts = np.split(g, np.cumsum(dims)[:-1], axis=-1)
        assert rel_close(hyp.seg_split_vjp(pt, seg, g), beta_split_vjp_ref(pt, dims, gparts))

    @pytest.mark.parametrize("b,k,d", [(1, 1, 3), (5, 1, 7), (1, 4, 7), (6, 5, 20), (3, 4, 435)])
    def test_logits(self, b, k, d):
        rng = np.random.default_rng(b + 10 * k + 100 * d)
        x = np.stack([rand_ball(d, rng) for _ in range(b)])
        z = rng.standard_normal((k, d))
        z[0] = 0.0  # a zero normal
        gamma = rng.standard_normal(k) * 0.3
        v = hyp.pb_mlr_logit(x, z, gamma)
        assert v.shape == (b, k)
        assert rel_close(v, pb_mlr_logit_ref(x[:, None], z, gamma))
        assert np.array_equal(v[:, 0], np.zeros(b))
        gv = rng.standard_normal((b, k))
        gx, gz, gg = hyp.pb_mlr_logit_vjp(x, z, gamma, gv)
        rx, rz, rg = pb_mlr_logit_vjp_ref(x[:, None], z, gamma, gv)
        assert gx.shape == x.shape and gz.shape == z.shape and gg.shape == gamma.shape
        assert rel_close(gx, rx.sum(axis=1)) and rel_close(gz, rz.sum(axis=0)) and rel_close(gg, rg.sum(axis=0))
        assert np.array_equal(gz[0], np.zeros(d)) and gg[0] == 0.0

    def test_guard_band_rescales_one_part(self):
        seg = hyp.segments((1, 2, 3))
        rng = np.random.default_rng(17)
        parts = [rand_ball(1, rng), rand_ball(2, rng), rand_ball(3, rng)]
        edge = rng.standard_normal(2)
        parts[1] = edge / np.linalg.norm(edge) * np.sqrt(1.0 - 0.5 * hyp.BALL_GUARD)
        y = hyp.project_ball(np.concatenate(parts), seg)
        got = np.split(y, [1, 3])
        assert np.array_equal(got[0], parts[0]) and np.array_equal(got[2], parts[2])
        assert np.array_equal(got[1], hyp.project_ball(parts[1]))
        assert np.sum(got[1] ** 2) < np.sum(parts[1] ** 2) < 1.0
        # through the exponential: only the part sent far out reaches the band
        v = [0.5 * rng.standard_normal(1), np.array([30.0, 0.0]), 0.5 * rng.standard_normal(3)]
        out = np.split(hyp.pb_exp0(np.concatenate(v), seg), [1, 3])
        for a, w in zip(out, v):
            assert np.array_equal(a, hyp.pb_exp0(w))
        assert np.sum(out[1] ** 2) < 1.0
