import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrgeo import domain as dom
from corrgeo import geometry as geo
from corrgeo import layers as ly
from corrgeo.errors import NonFiniteInput

from helpers import (
    fc_expand_ref, fc_gather_ref, fc_param_count, flat_logits_ref, flat_logits_vjp_ref,
    metric_basis, rel_err,
)

METRICS5 = ["ecm", "lecm", "olm", "lsm", "phcm"]
FLAT = ["ecm", "lecm", "olm", "lsm"]


def batch_of_correlations(b, ch, n, seed, spread=1.0):
    out = np.empty((b, ch, n, n))
    k = 0
    for i in range(b):
        for j in range(ch):
            out[i, j] = dom.random_correlation(n, spread, rng=seed * 1000 + k)
            k += 1
    return out


def numeric_grads(net, x, labels, h=1e-6):
    params = {k: v.copy() for k, v in net.param_dict().items()}

    def loss_at(p):
        net.load_param_dict(p)
        logits = ly.network_forward(net, x)
        loss, _ = ly.softmax_xent(logits, labels)
        return loss

    grads = {}
    for key, val in params.items():
        g = np.zeros_like(val)
        flat = g.ravel()
        for idx in range(val.size):
            for sgn in (1.0, -1.0):
                p = {k: v.copy() for k, v in params.items()}
                p[key].ravel()[idx] += sgn * h
                flat[idx] += sgn * loss_at(p) / (2 * h)
        grads[key] = g
    net.load_param_dict(params)
    return grads


class TestParams:
    def test_fc_param_count_formula(self):
        n, m, c = 6, 4, 3
        rng = np.random.default_rng(0)
        for metric in FLAT:
            fc = ly.init_fc(metric, n, m, c, 1, rng)
            slots = m * (m - 1) // 2
            expect = slots * (c * n * (n - 1) // 2 + 1)
            assert fc_param_count(fc) == expect

    def test_phcm_fc_param_count(self):
        n, m, c = 5, 4, 2
        fc = ly.init_fc("phcm", n, m, c, 1, np.random.default_rng(1))
        dm, dz = m * (m - 1) // 2, n * (n - 1) // 2
        assert fc.z.shape == (dm, c * dz)
        assert fc.gamma.shape == (dm,)


class TestMlr:
    def test_ecm_hand_value(self):
        r = 0.6
        c = np.array([[[[1.0, r], [r, 1.0]]]])
        params = ly.init_mlr("ecm", 2, 1, 1, np.random.default_rng(2))
        params.z = np.array([[[2.0]]])
        params.gamma = np.array([1.0])
        v, _ = ly.mlr_forward(c, params)
        assert abs(v[0, 0] - (-0.5)) < 1e-12

    @pytest.mark.parametrize("metric", FLAT)
    def test_identity_input_logits(self, metric):
        rng = np.random.default_rng(3)
        params = ly.init_mlr(metric, 4, 2, 3, rng)
        params.z = rng.standard_normal(params.z.shape)
        params.gamma = rng.standard_normal(3)
        x = np.broadcast_to(np.eye(4), (1, 2, 4, 4)).copy()
        v, _ = ly.mlr_forward(x, params)
        zmat = ly.hollow_from_lower(params.z, 4)
        w = ly.diff_at_identity(metric, zmat)
        norms = np.sqrt(np.einsum("kcij,kcij->k", w, w))
        assert rel_err(v[0], -params.gamma * norms) < 1e-9

    @pytest.mark.parametrize("metric", METRICS5)
    def test_zero_z_gives_zero_logits(self, metric):
        params = ly.init_mlr(metric, 4, 2, 3, np.random.default_rng(4))
        params.z = np.zeros_like(params.z)
        params.gamma = np.ones(3)
        x = batch_of_correlations(2, 2, 4, 5)
        v, _ = ly.mlr_forward(x, params)
        assert np.abs(v).max() < 1e-12

    def test_phcm_identity_input(self):
        rng = np.random.default_rng(6)
        params = ly.init_mlr("phcm", 4, 1, 3, rng)
        x = np.broadcast_to(np.eye(4), (1, 1, 4, 4)).copy()
        v, _ = ly.mlr_forward(x, params)
        znorm = np.sqrt((params.z**2).sum(axis=1))
        assert rel_err(v[0], -4.0 * params.gamma * znorm) < 1e-9


class TestFc:
    @pytest.mark.parametrize("metric", METRICS5)
    def test_zero_params_identity(self, metric):
        params = ly.init_fc(metric, 5, 4, 2, 1, np.random.default_rng(7))
        params.z = np.zeros_like(params.z)
        x = batch_of_correlations(2, 2, 5, 8)
        y, _ = ly.fc_forward(x, params)
        assert y.shape == (2, 1, 4, 4)
        assert np.abs(y - np.eye(4)).max() < 1e-9

    def test_lsm_assembly_hand_case(self):
        # a single nonzero first coordinate sqrt(3) fills the row-zero completion
        basis = metric_basis("lsm", 3)
        v = np.zeros(3)
        v[0] = np.sqrt(3.0)
        big = np.einsum("s,sij->ij", v, basis)
        expect = np.zeros((3, 3))
        expect[0, 0] = 1.0
        expect[0, 2] = expect[2, 0] = -1.0
        expect[2, 2] = 1.0
        assert rel_err(big, expect) < 1e-12
        assert np.abs(big.sum(axis=0)).max() < 1e-12

    @pytest.mark.parametrize("metric", METRICS5)
    def test_output_validity_moderate_box(self, metric):
        rng = np.random.default_rng(9)
        params = ly.init_fc(metric, 5, 4, 2, 1, rng)
        for trial in range(25):
            params.z = rng.uniform(-0.35, 0.35, size=params.z.shape)
            params.gamma = rng.uniform(-0.35, 0.35, size=params.gamma.shape)
            x = batch_of_correlations(1, 2, 5, 10 + trial)
            y, _ = ly.fc_forward(x, params, solver={"dplus_max_iter": 1000})
            c = y[0, 0]
            assert np.abs(np.diagonal(c) - 1.0).max() < 1e-9
            assert np.linalg.eigvalsh(c).min() > 0.0

    @pytest.mark.parametrize("metric", METRICS5)
    def test_output_validity_full_box(self, metric):
        # entries up to +-3 drive outputs within 1e-26 of the elliptope
        # boundary, below float64 resolution, so positivity is asserted at
        # the eigensolver rounding floor there
        rng = np.random.default_rng(109)
        params = ly.init_fc(metric, 5, 4, 2, 1, rng)
        floor = -64 * np.finfo(np.float64).eps
        for trial in range(25):
            params.z = rng.uniform(-3.0, 3.0, size=params.z.shape)
            params.gamma = rng.uniform(-3.0, 3.0, size=params.gamma.shape)
            x = batch_of_correlations(1, 2, 5, 50 + trial)
            y, _ = ly.fc_forward(
                x, params, solver={"dplus_tol": 1e-10, "dplus_max_iter": 5000}
            )
            c = y[0, 0]
            assert np.abs(np.diagonal(c) - 1.0).max() < 1e-9
            assert np.linalg.eigvalsh(c).min() > floor

    @pytest.mark.parametrize("metric", FLAT)
    def test_defining_equation_readback(self, metric):
        # identity instances must stay inside the validated manifold: draws
        # whose output correlation is numerically singular are out of domain
        rng = np.random.default_rng(11)
        params = ly.init_fc(metric, 5, 4, 1, 1, rng)
        checked = 0
        for t in range(70):
            params.z = rng.standard_normal(params.z.shape) * ly.init_std(5)
            params.gamma = rng.standard_normal(params.gamma.shape) * 0.05
            x = batch_of_correlations(1, 1, 5, 600 + t)
            y, cache = ly.fc_forward(x, params)
            # conditioning guard: the log read-back amplifies rounding by
            # 1/lam_min, so the 1e-8 identity needs a representable instance
            if np.linalg.eigvalsh(y[0, 0]).min() < 1e-6:
                continue
            v = geo.prototype_coords(metric, cache["big_v"])
            readback = geo.to_prototype(metric, y[:, 0], solver={"dstar_tol": 1e-12})
            back = geo.prototype_coords(metric, readback)
            assert np.abs(back - v.reshape(back.shape)).max() < 1e-8
            checked += 1
        assert checked >= 30


class TestFlatContractions:
    """The matmul logits and the coordinate scatter/gather against their
    einsum and dense-basis forms."""

    @pytest.mark.parametrize("metric", FLAT)
    @pytest.mark.parametrize("b, c, k", [(6, 3, 4), (1, 2, 1), (1, 1, 3), (5, 2, 1)])
    def test_logits_and_vjp_match_einsum(self, metric, b, c, k):
        n = 5
        rng = np.random.default_rng(100 * b + 10 * c + k)
        px = geo.to_prototype(metric, batch_of_correlations(b, c, n, 40 + k))
        z = rng.standard_normal((k, c, dom.lt0_dim(n)))
        z[k - 1] = 0.0  # a zero normal takes the masked norm branch
        gamma = rng.standard_normal(k)
        grad_v = rng.standard_normal((b, k))
        v, cache = ly._flat_logits(px, z, gamma, metric, n)
        cache["gamma"] = gamma
        assert v.shape == (b, k)
        assert rel_err(v, flat_logits_ref(px, z, gamma, metric, n)) < 1e-12
        got = ly._flat_logits_vjp(cache, metric, n, grad_v)
        want = flat_logits_vjp_ref(px, z, gamma, metric, n, grad_v)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert rel_err(g, w) < 1e-12

    @pytest.mark.parametrize("metric", FLAT)
    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_scatter_gather_match_dense_basis(self, metric, m):
        rng = np.random.default_rng(m)
        v = rng.standard_normal((3, 2, dom.lt0_dim(m)))
        g = rng.standard_normal((3, 2, m, m))
        assert rel_err(geo.prototype_from_coords(metric, v, m), fc_expand_ref(metric, v, m)) < 1e-12
        assert rel_err(geo.prototype_from_coords_adjoint(metric, g), fc_gather_ref(metric, g)) < 1e-12

    @pytest.mark.parametrize("metric", FLAT)
    def test_fc_matches_dense_pipeline(self, metric):
        n, m, c, b = 5, 4, 2, 3
        rng = np.random.default_rng(47)
        params = ly.init_fc(metric, n, m, c, 2, rng)
        params.z = rng.standard_normal(params.z.shape) * ly.init_std(n)
        params.gamma = rng.standard_normal(params.gamma.shape) * 0.1
        x = batch_of_correlations(b, c, n, 48)
        y, cache = ly.fc_forward(x, params)
        grad_y = rng.standard_normal(y.shape)
        grads, gx = ly.fc_vjp(params, cache, grad_y)

        solver = ly.DEFAULT_LAYER_SOLVER
        px, pcache = geo.prototype_forward(metric, x, solver)
        k, slots = params.z.shape[:2]
        z = params.z.reshape(k * slots, c, -1)
        gamma = params.gamma.reshape(-1)
        v = flat_logits_ref(px, z, gamma, metric, n)
        y_ref, icache = geo.inverse_forward(metric, fc_expand_ref(metric, v.reshape(b, k, slots), m))
        assert rel_err(y, y_ref) < 1e-12
        gv = fc_gather_ref(metric, geo.inverse_vjp(metric, icache, grad_y)).reshape(b, -1)
        gz, ggamma, gpx = flat_logits_vjp_ref(px, z, gamma, metric, n, gv)
        assert rel_err(grads["z"], gz.reshape(params.z.shape)) < 1e-12
        assert rel_err(grads["gamma"], ggamma.reshape(params.gamma.shape)) < 1e-12
        assert rel_err(gx, geo.prototype_vjp(metric, pcache, gpx)) < 1e-12


def dot_product_gap(f, point, direction, w, pullback, h=1e-6):
    """|<J u, w> - <u, J^T w>| and its norm scale, with J u a central
    difference of f at ``point`` along ``direction`` (dicts of arrays) and
    J^T w = pullback(w) keyed like them."""
    step = lambda sgn: {key: val + sgn * h * direction[key] for key, val in point.items()}
    ju = (f(step(1.0)) - f(step(-1.0))) / (2.0 * h)
    jtw = pullback(w)
    pair = sum(np.sum(direction[key] * jtw[key]) for key in point)
    unorm = np.sqrt(sum(np.sum(u * u) for u in direction.values()))
    jtwnorm = np.sqrt(sum(np.sum(g * g) for g in jtw.values()))
    scale = np.linalg.norm(ju) * np.linalg.norm(w) + unorm * jtwnorm
    return abs(np.sum(ju * w) - pair), scale


def hollow_batch(shape, n, rng):
    return np.stack([dom.random_hollow(n, rng) for _ in range(int(np.prod(shape)))]).reshape(shape + (n, n))


class TestLayerAdjoints:
    """Dot-product tests <J u, w> = <u, J^T w> for the olm and lsm layer
    pullbacks, jointly in the input and the parameters; J u is a central
    difference, so the bound is the difference's accuracy, not rounding."""

    cases = settings(derandomize=True, deadline=None, database=None, max_examples=20)
    inputs = given(
        n=st.integers(3, 6),
        b=st.integers(1, 3),
        c=st.integers(1, 2),
        k=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    TOL = 1e-6

    @staticmethod
    def point(rng, b, c, n):
        x = np.stack([dom.random_correlation(n, 1.0 / np.sqrt(n), rng) for _ in range(b * c)])
        return x.reshape(b, c, n, n), 0.1 * hollow_batch((b, c), n, rng)

    @pytest.mark.parametrize("metric", ["olm", "lsm"])
    @cases
    @inputs
    def test_fc(self, metric, n, b, c, k, seed):
        rng = np.random.default_rng(seed)
        m = 2 + k % 3
        params = ly.init_fc(metric, n, m, c, k, rng)
        params.z = rng.standard_normal(params.z.shape) * ly.init_std(n)
        params.gamma = rng.standard_normal(params.gamma.shape) * 0.1
        x, dx = self.point(rng, b, c, n)

        def f(p):
            return ly.fc_forward(p["x"], ly.FcParams(metric, n, m, c, k, p["z"], p["gamma"]))[0]

        cache = ly.fc_forward(x, params)[1]

        def pullback(w):
            grads, gx = ly.fc_vjp(params, cache, w)
            return {**grads, "x": gx}

        point = {"x": x, "z": params.z, "gamma": params.gamma}
        direction = {"x": dx, "z": rng.standard_normal(params.z.shape), "gamma": rng.standard_normal(params.gamma.shape)}
        gap, scale = dot_product_gap(f, point, direction, rng.standard_normal((b, k, m, m)), pullback)
        assert gap <= self.TOL * scale

    @pytest.mark.parametrize("metric", ["olm", "lsm"])
    @cases
    @inputs
    def test_mlr(self, metric, n, b, c, k, seed):
        rng = np.random.default_rng(seed)
        params = ly.init_mlr(metric, n, c, k, rng)
        params.z = rng.standard_normal(params.z.shape) * ly.init_std(n)
        params.gamma = rng.standard_normal(k) * 0.1
        x, dx = self.point(rng, b, c, n)

        def f(p):
            return ly.mlr_forward(p["x"], ly.MlrParams(metric, n, c, k, p["z"], p["gamma"]))[0]

        cache = ly.mlr_forward(x, params)[1]

        def pullback(w):
            grads, gx = ly.mlr_vjp(params, cache, w)
            return {**grads, "x": gx}

        point = {"x": x, "z": params.z, "gamma": params.gamma}
        direction = {"x": dx, "z": rng.standard_normal(params.z.shape), "gamma": rng.standard_normal(k)}
        gap, scale = dot_product_gap(f, point, direction, rng.standard_normal((b, k)), pullback)
        assert gap <= self.TOL * scale

    @pytest.mark.parametrize("metric", ["olm", "lsm"])
    @cases
    @inputs
    def test_tangent_relu(self, metric, n, b, c, k, seed):
        rng = np.random.default_rng(seed)
        x, dx = self.point(rng, b, c, n)
        x, dx = x.reshape(-1, n, n), dx.reshape(-1, n, n)
        cache = ly.tangent_relu_forward(x, metric)[1]
        gap, scale = dot_product_gap(
            lambda p: ly.tangent_relu_forward(p["x"], metric)[0], {"x": x}, {"x": dx},
            rng.standard_normal(x.shape), lambda w: {"x": ly.tangent_relu_vjp(cache, w)},
        )
        assert gap <= self.TOL * scale


class TestConv:
    def test_shape_arithmetic(self):
        rng = np.random.default_rng(13)
        conv = ly.init_conv("ecm", 4, 3, 3, 2, 1, 2, rng)
        assert conv.n_fields == 2
        x = batch_of_correlations(2, 3, 4, 14)
        y, _ = ly.conv_forward(x, conv)
        assert y.shape == (2, 4, 3, 3)

    def test_zero_params_identity(self):
        rng = np.random.default_rng(15)
        conv = ly.init_conv("olm", 4, 3, 3, 2, 1, 2, rng)
        conv.fc.z = np.zeros_like(conv.fc.z)
        x = batch_of_correlations(1, 3, 4, 16)
        y, _ = ly.conv_forward(x, conv)
        assert np.abs(y - np.eye(3)).max() < 1e-9

    def test_global_field_equals_fc(self):
        rng = np.random.default_rng(17)
        conv = ly.init_conv("lecm", 4, 3, 2, 2, 1, 1, rng)
        x = batch_of_correlations(2, 2, 4, 18)
        y_conv, _ = ly.conv_forward(x, conv)
        y_fc, _ = ly.fc_forward(x, conv.fc)
        assert np.array_equal(y_conv, y_fc)


class TestActivations:
    def test_power_identity(self):
        c = dom.random_correlation(4, 1.0, rng=19)
        assert np.array_equal(ly.power_activation(c, 1), c)

    def test_power_inverse(self):
        c = dom.random_correlation(3, 1.0, rng=20)
        assert rel_err(ly.power_activation(c, -1.0), np.linalg.inv(c)) < 1e-10

    @pytest.mark.parametrize("metric", METRICS5)
    def test_tangent_relu_identity_fixed(self, metric):
        x = np.eye(4)[None]
        y, _ = ly.tangent_relu_forward(x, metric)
        assert np.abs(y - np.eye(4)).max() < 1e-9

    @pytest.mark.parametrize("metric", FLAT)
    def test_tangent_relu_nonneg_identity(self, metric):
        rng = np.random.default_rng(21)
        coords = np.abs(rng.standard_normal(dom.lt0_dim(4))) * 0.3
        px = geo.prototype_from_coords(metric, coords, 4)
        c = geo.from_prototype(metric, px)
        y, _ = ly.tangent_relu_forward(c[None], metric)
        assert np.abs(y[0] - c).max() < 1e-8


class TestSoftmax:
    def test_uniform_logits(self):
        logits = np.zeros((4, 5))
        loss, grad = ly.softmax_xent(logits, np.array([0, 1, 2, 3]))
        assert abs(loss - np.log(5)) < 1e-12

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(22)
        logits = rng.standard_normal((3, 4))
        labels = np.array([1, 0, 3])
        _, grad = ly.softmax_xent(logits, labels)
        h = 1e-6
        for i in range(3):
            for j in range(4):
                lp = logits.copy(); lp[i, j] += h
                lm = logits.copy(); lm[i, j] -= h
                fd = (ly.softmax_xent(lp, labels)[0] - ly.softmax_xent(lm, labels)[0]) / (2 * h)
                assert abs(fd - grad[i, j]) < 1e-8


def tiny_network(conv_metric, mlr_metric, seed=0, solver=None):
    rng = np.random.default_rng(seed)
    net = ly.build_network(
        conv_metric, mlr_metric, n_in=4, channels=2, field_size=2, stride=1,
        kernels=1, m_hidden=3, classes=3, rng=rng, solver=solver or {},
    )
    # scales keep every intermediate well inside the elliptope: finite
    # differences lose meaning near the boundary where curvature ~ 1/lam_min
    net.conv.fc.z = rng.standard_normal(net.conv.fc.z.shape) * 0.15
    net.conv.fc.gamma = rng.standard_normal(net.conv.fc.gamma.shape) * 0.1
    net.mlr.z = rng.standard_normal(net.mlr.z.shape) * 0.3
    net.mlr.gamma = rng.standard_normal(net.mlr.gamma.shape) * 0.2
    return net


class TestNetworkGradients:
    @pytest.mark.parametrize("conv_metric", METRICS5)
    @pytest.mark.parametrize("mlr_metric", METRICS5)
    def test_full_gradcheck_all_pairs(self, conv_metric, mlr_metric):
        net = tiny_network(conv_metric, mlr_metric, seed=23)
        x = batch_of_correlations(2, 2, 4, 24)
        labels = np.array([0, 2])
        loss, grads, _ = ly.forward_backward(net, x, labels)
        fd = numeric_grads(net, x, labels)
        for key in fd:
            assert rel_err(grads[key], fd[key]) < 1e-4, key

    def test_lsm_full_mode_exact_gradient(self):
        net = tiny_network("lsm", "lsm", seed=25, solver={"dstar_mode": "full"})
        x = batch_of_correlations(2, 2, 4, 26)
        labels = np.array([1, 0])
        loss, grads, _ = ly.forward_backward(net, x, labels)
        fd = numeric_grads(net, x, labels)
        for key in fd:
            assert rel_err(grads[key], fd[key]) < 1e-4, key

    @pytest.mark.parametrize("metric", METRICS5)
    def test_gradcheck_with_activation(self, metric):
        net = tiny_network(metric, metric, seed=27)
        net.activation = "tangent_relu"
        x = batch_of_correlations(2, 2, 4, 28)
        labels = np.array([2, 1])
        loss, grads, _ = ly.forward_backward(net, x, labels)
        fd = numeric_grads(net, x, labels)
        for key in fd:
            assert rel_err(grads[key], fd[key]) < 1e-4, (metric, key)

    def test_zero_param_model_uniform_probs(self):
        net = tiny_network("ecm", "olm", seed=29)
        net.mlr.z = np.zeros_like(net.mlr.z)
        net.mlr.gamma = np.zeros_like(net.mlr.gamma)
        x = batch_of_correlations(2, 2, 4, 30)
        logits = ly.network_forward(net, x)
        assert np.abs(logits).max() < 1e-10

    @pytest.mark.parametrize("metric", METRICS5)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, metric, bad):
        net = tiny_network(metric, metric, seed=33)
        x = batch_of_correlations(2, 2, 4, 34)
        x[1, 0, 2, 1] = x[1, 0, 1, 2] = bad
        with pytest.raises(NonFiniteInput):
            ly.network_forward(net, x)

    def test_power_preprocessing(self):
        net = tiny_network("ecm", "ecm", seed=31)
        net.power = 0.5
        x = batch_of_correlations(2, 2, 4, 32)
        logits = ly.network_forward(net, x)
        assert np.isfinite(logits).all()
