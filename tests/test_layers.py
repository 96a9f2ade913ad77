import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrgeo import domain as dom
from corrgeo import geometry as geo
from corrgeo import hyperbolic as hyp
from corrgeo import layers as ly
from corrgeo import train as trainmod
from corrgeo.errors import (
    ConfigError, InvalidDimension, NonFiniteInput, NonPositiveDiagonal, NotPositiveDefinite, NotSymmetric,
    ShapeMismatch,
)

from helpers import (
    conv_forward_ref, conv_vjp_ref, diff_at_identity, fc_expand_ref, fc_gather_ref, fc_param_count,
    flat_logits_ref, flat_logits_vjp_ref, metric_basis, rel_err, tangent_relu_cor_ref,
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
        assert fc.z.shape == (1, dm, c, dz)
        assert fc.gamma.shape == (1, dm)
        assert fc_param_count(fc) == dm * (c * dz + 1)

    @pytest.mark.parametrize("metric", METRICS5[1:])
    def test_init_draws_the_same_numbers_for_every_metric(self, metric):
        """Every metric draws ecm's numbers; phcm reads them row-major."""
        for init, args in ((ly.init_mlr, (5, 3, 4)), (ly.init_fc, (5, 4, 3, 2))):
            ref = init("ecm", *args, np.random.default_rng(3))
            got = init(metric, *args, np.random.default_rng(3))
            assert np.array_equal(got.z, ref.z) and np.array_equal(got.gamma, ref.gamma)


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
        w = diff_at_identity(metric, zmat)
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
        znorm = np.sqrt((params.z**2).sum(axis=(1, 2)))
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

    def test_unknown_dstar_mode_is_config_error(self):
        params = ly.init_fc("lsm", 4, 3, 1, 1, np.random.default_rng(9))
        with pytest.raises(ConfigError, match="bogus"):
            ly.fc_forward(batch_of_correlations(2, 1, 4, 10), params, solver={"dstar_mode": "bogus"})

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
    @pytest.mark.parametrize("b, c, k, n", [
        pytest.param(6, 3, 4, 5, id="6-3-4"), pytest.param(1, 2, 1, 5, id="1-2-1"),
        pytest.param(1, 1, 3, 5, id="1-1-3"), pytest.param(5, 2, 1, 5, id="5-2-1"),
        pytest.param(3, 2, 2, 2, id="3-2-2-n2"),  # a single lower slot
    ])
    def test_logits_and_vjp_match_einsum(self, metric, b, c, k, n):
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
    """Dot-product tests <J u, w> = <u, J^T w> for the olm, lsm and phcm layer
    pullbacks (the activation's under all five metrics), jointly in the input
    and the parameters; J u is a central difference, so the bound is the
    difference's accuracy, not rounding."""

    cases = settings(max_examples=20)
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

    @pytest.mark.parametrize("metric", ["olm", "lsm", "phcm"])
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

    def fc_bench(self, metric):
        """(inverse cache, a copy of it after the forward, dot-product gap,
        scale) of FC(30 -> 20) at ``corrgeo bench``'s weights on 4 samples."""
        from test_geometry import TestFactorizationCounts

        rng, params, _, x = TestFactorizationCounts.fc_mlr(metric, bench=True)
        cache = ly.fc_forward(x, params)[1]
        formed = dict(cache["icache"])

        def f(p):
            return ly.fc_forward(p["x"], ly.FcParams(metric, 30, 20, 1, 1, p["z"], p["gamma"]))[0]

        def pullback(w):
            grads, gx = ly.fc_vjp(params, cache, w)
            return {**grads, "x": gx}

        point = {"x": x, "z": params.z, "gamma": params.gamma}
        direction = {"x": 0.1 * hollow_batch((4, 1), 30, rng), "z": rng.standard_normal(params.z.shape),
                     "gamma": rng.standard_normal(params.gamma.shape)}
        gap, scale = dot_product_gap(f, point, direction, rng.standard_normal((4, 1, 20, 20)), pullback)
        return cache["icache"], formed, gap, scale

    def test_fc_olm_bench(self):
        # at corrgeo bench's weights every FC(30 -> 20) output solves in
        # Taylor arithmetic (the solve formed no eigendecomposition), so the
        # pullback runs on the eigendecompositions the vjp forms
        _, formed, gap, scale = self.fc_bench("olm")
        assert formed["eig"][0].size == 0
        assert gap <= self.TOL * scale

    def test_fc_lsm_bench(self):
        # the FC(30 -> 20) outputs are exponentials by scaling and squaring,
        # so the pullback runs on the eigendecompositions of X the vjp forms,
        # and keeps none of them in the cache
        icache, formed, gap, scale = self.fc_bench("lsm")
        assert "lam" not in formed and icache.keys() == formed.keys()
        assert all(icache[k] is formed[k] for k in formed)
        assert gap <= self.TOL * scale

    @pytest.mark.parametrize("metric", ["olm", "lsm", "phcm"])
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

    @pytest.mark.parametrize("metric", METRICS5)
    @cases
    @inputs
    def test_tangent_relu(self, metric, n, b, c, k, seed):
        """On a raw batch mapped with its chart's cache, so that the pullback
        also runs through the chart's vjp."""
        rng = np.random.default_rng(seed)
        x, dx = self.point(rng, b, c, n)

        def f(p):
            return ly.tangent_relu_forward(ly.map_input(p["x"], metric))[0].value

        cache = ly.tangent_relu_forward(ly.map_input(x, metric, keep_cache=True))[1]
        gap, scale = dot_product_gap(
            f, {"x": x}, {"x": dx}, rng.standard_normal(f({"x": x}).shape),
            lambda w: {"x": ly.tangent_relu_vjp(cache, w)},
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
        y_conv, conv_cache = ly.conv_forward(x, conv)
        y_fc, fc_cache = ly.fc_forward(x, conv.fc)
        assert np.array_equal(y_conv, y_fc)
        w = rng.standard_normal(y_fc.shape)
        conv_grads, conv_gx = ly.conv_vjp(conv, conv_cache, w)
        fc_grads, fc_gx = ly.fc_vjp(conv.fc, fc_cache, w)
        assert conv_grads.keys() == fc_grads.keys()
        for key in fc_grads:
            assert np.array_equal(conv_grads[key], fc_grads[key]), key
        assert np.array_equal(conv_gx, fc_gx)

    # overlapping fields, so the input adjoint sums over the shared channels
    MULTI_FIELD = pytest.mark.parametrize("c, field_size, stride", [(4, 2, 1), (5, 3, 2)])

    @staticmethod
    def multi_field(metric, c, field_size, stride, seed):
        rng = np.random.default_rng(seed)
        conv = ly.init_conv(metric, 4, 3, c, field_size, stride, 2, rng)
        conv.fc.z = rng.standard_normal(conv.fc.z.shape) * 0.15
        conv.fc.gamma = rng.standard_normal(conv.fc.gamma.shape) * 0.1
        return conv, batch_of_correlations(3, c, 4, seed + 1), rng

    @pytest.mark.parametrize("metric", METRICS5)
    @MULTI_FIELD
    def test_multi_field_matches_per_field_loop(self, metric, c, field_size, stride):
        conv, x, rng = self.multi_field(metric, c, field_size, stride, 41)
        y, cache = ly.conv_forward(x, conv)
        y_ref, cache_ref = conv_forward_ref(x, conv)
        assert y.shape == (3, conv.n_fields * 2, 3, 3)
        assert rel_err(y, y_ref) <= 1e-13
        w = rng.standard_normal(y.shape)
        grads, gx = ly.conv_vjp(conv, cache, w)
        grads_ref, gx_ref = conv_vjp_ref(conv, cache_ref, w)
        for key in grads_ref:
            assert rel_err(grads[key], grads_ref[key]) <= 1e-13, key
        assert rel_err(gx, gx_ref) <= 1e-13
        assert ly.conv_vjp(conv, cache, w, input_adjoint=False)[1] is None

    @pytest.mark.parametrize("metric", METRICS5)
    @MULTI_FIELD
    def test_multi_field_adjoint(self, metric, c, field_size, stride):
        """Dot-product test of the conv pullback, jointly in the input and the
        parameters (see TestLayerAdjoints)."""
        conv, x, rng = self.multi_field(metric, c, field_size, stride, 43)
        fc = conv.fc

        def f(p):
            params = ly.FcParams(metric, fc.n, fc.m, field_size, fc.kernels, p["z"], p["gamma"])
            return ly.conv_forward(p["x"], ly.ConvParams(params, c, field_size, stride))[0]

        y, cache = ly.conv_forward(x, conv)

        def pullback(w):
            grads, gx = ly.conv_vjp(conv, cache, w)
            return {**grads, "x": gx}

        point = {"x": x, "z": fc.z, "gamma": fc.gamma}
        direction = {
            "x": 0.1 * hollow_batch(x.shape[:2], 4, rng),
            "z": rng.standard_normal(fc.z.shape), "gamma": rng.standard_normal(fc.gamma.shape),
        }
        gap, scale = dot_product_gap(f, point, direction, rng.standard_normal(y.shape), pullback)
        assert gap <= TestLayerAdjoints.TOL * scale

    @pytest.mark.parametrize("sizes", [{"stride": 0}, {"stride": -1}, {"field_size": 0}, {"kernels": 0}])
    def test_bad_conv_sizes_rejected(self, sizes):
        args = {"in_channels": 4, "field_size": 2, "stride": 1, "kernels": 2, **sizes}
        with pytest.raises(ShapeMismatch):
            ly.init_conv("ecm", 4, 3, rng=np.random.default_rng(0), **args)

    @pytest.mark.parametrize("n, m", [(1, 3), (4, 1)])
    def test_bad_fc_dimensions_rejected(self, n, m):
        with pytest.raises(InvalidDimension):
            ly.init_fc("ecm", n, m, 1, 1, np.random.default_rng(0))
        with pytest.raises(InvalidDimension):
            ly.init_conv("ecm", n, m, 2, 2, 1, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("n, channels, classes, error", [
        (1, 1, 2, InvalidDimension), (0, 1, 2, InvalidDimension),
        (4, 0, 2, ShapeMismatch), (4, 1, 0, ShapeMismatch),
    ])
    def test_bad_mlr_sizes_rejected(self, n, channels, classes, error):
        with pytest.raises(error):
            ly.init_mlr("ecm", n, channels, classes, np.random.default_rng(0))


class TestActivations:
    def test_power_identity(self):
        c = dom.random_correlation(4, 1.0, rng=19)
        assert np.array_equal(ly.power_activation(c, 1), c)

    def test_power_inverse(self):
        c = dom.random_correlation(3, 1.0, rng=20)
        assert rel_err(ly.power_activation(c, -1.0), np.linalg.inv(c)) < 1e-10

    @pytest.mark.parametrize("metric", METRICS5)
    def test_tangent_relu_identity_fixed(self, metric):
        inp = ly.map_input(np.eye(4)[None, None], metric)
        out, _ = ly.tangent_relu_forward(inp)
        assert np.abs(out.value - inp.value).max() < 1e-12

    @pytest.mark.parametrize("metric", FLAT)
    def test_tangent_relu_nonneg_identity(self, metric):
        rng = np.random.default_rng(21)
        coords = np.abs(rng.standard_normal(dom.lt0_dim(4))) * 0.3
        px = geo.prototype_from_coords(metric, coords, 4)
        # full mode: the lsm chart value of C is then px, whose coordinates are nonnegative
        inp = ly.map_input(geo.from_prototype(metric, px)[None, None], metric, {"dstar_mode": "full"})
        out, _ = ly.tangent_relu_forward(inp)
        assert np.abs(out.value - inp.value).max() < 1e-12

    @pytest.mark.parametrize("metric, mode", [
        ("ecm", "newton1"), ("lecm", "newton1"), ("olm", "newton1"), ("phcm", "newton1"), ("lsm", "full"),
    ])
    def test_tangent_relu_is_the_chart_composition(self, metric, mode):
        """The activation on the chart value equals the activation on correlation
        matrices (rectify in the chart, map back with the chart inverse) read
        through the chart again."""
        solver = {"dstar_mode": mode}
        x = batch_of_correlations(5, 3, 4, 41)
        inp = ly.map_input(x, metric, solver)
        ref = ly.map_input(tangent_relu_cor_ref(x, metric, solver), metric, solver)
        out, _ = ly.tangent_relu_forward(inp)
        assert out.cache is None and (out.metric, out.n, out.solver) == (ref.metric, ref.n, ref.solver)
        assert rel_err(out.value, ref.value) < 1e-10


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

    @pytest.mark.parametrize("conv_metric, mlr_metric, mode", [
        *(pytest.param(m, m, "newton1", id=m) for m in METRICS5),
        pytest.param("lsm", "lsm", "full", id="lsm-full"),
        pytest.param("ecm", "olm", "newton1", id="ecm-olm"),
        pytest.param("phcm", "lsm", "newton1", id="phcm-lsm"),
    ])
    def test_gradcheck_with_activation(self, conv_metric, mlr_metric, mode):
        net = tiny_network(conv_metric, mlr_metric, seed=27, solver={"dstar_mode": mode})
        net.activation = "tangent_relu"
        x = batch_of_correlations(2, 2, 4, 28)
        labels = np.array([2, 1])
        loss, grads, _ = ly.forward_backward(net, x, labels)
        fd = numeric_grads(net, x, labels)
        for key in fd:
            assert rel_err(grads[key], fd[key]) < 1e-4, (conv_metric, mlr_metric, key)

    @pytest.mark.parametrize("metric", ["olm", "lsm", "phcm"])
    def test_activation_maps_the_chart_once(self, monkeypatch, metric):
        """With the input mapped ahead, a training step with the activation maps
        through each chart once each way: the conv output map and the MLR chart."""
        if metric == "phcm":
            module, names = hyp, ("cor_to_ppb", "cor_to_ppb_vjp", "ppb_to_cor", "ppb_to_cor_vjp")
        else:
            module, names = geo, ("prototype_forward", "prototype_vjp", "inverse_forward", "inverse_vjp")
        net = tiny_network(metric, metric, seed=43)
        net.activation = "tangent_relu"
        inputs = ly.network_input(net, batch_of_correlations(3, 2, 4, 44))
        calls = {}
        for name in names:
            def counting(*args, _inner=getattr(module, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
        ly.forward_backward(net, inputs, np.array([0, 2, 1]))
        assert calls == dict.fromkeys(names, 1)

    @pytest.mark.parametrize("metric", METRICS5)
    def test_gradient_keys_and_shapes_are_the_params(self, metric):
        net = tiny_network(metric, metric, seed=39)
        _, grads, _ = ly.forward_backward(net, batch_of_correlations(2, 2, 4, 40), np.array([0, 1]))
        params = net.param_dict()
        assert grads.keys() == params.keys()
        for key, val in params.items():
            assert grads[key].shape == val.shape, key

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

    @pytest.mark.parametrize("metric", METRICS5)
    @pytest.mark.parametrize("bad, err", [
        ("scaled", NonPositiveDiagonal), ("asymmetric", NotSymmetric), ("indefinite", NotPositiveDefinite),
    ])
    def test_non_correlation_input_rejected(self, metric, bad, err):
        """A raw batch is validated before the chart, which would map a scaled
        or asymmetric matrix silently; the error names the first bad matrix."""
        net = tiny_network(metric, metric, seed=33)
        x = batch_of_correlations(2, 2, 4, 34)
        if bad == "scaled":
            x[1, 1] *= 2.0
        elif bad == "asymmetric":
            x[1, 1, 2, 1] += 0.1
        else:
            x[1, 1] = np.full((4, 4), -0.5) + 1.5 * np.eye(4)
        with pytest.raises(err, match=r"^matrix \(1, 1\): "):
            ly.network_forward(net, x)
        with pytest.raises(err):
            ly.forward_backward(net, x, np.array([0, 1]))

    def test_power_preprocessing(self):
        net = tiny_network("ecm", "ecm", seed=31)
        net.power = 0.5
        x = batch_of_correlations(2, 2, 4, 32)
        logits = ly.network_forward(net, x)
        assert np.isfinite(logits).all()


def forward_backward_with_input_adjoint(net, x, labels):
    """forward_backward whose conv pullback also forms the adjoint of the
    (powered) network input: (grads, that adjoint)."""
    x = np.asarray(x, dtype=np.float64)
    if net.power != 1.0:
        x = dom.cor_of(ly.power_activation(x, net.power))
    y, conv_cache = ly.conv_forward(x, net.conv, net.solver)
    act_cache = None
    if net.activation == "tangent_relu":
        y, act_cache = ly.tangent_relu_forward(ly.map_input(y, net.mlr.metric, net.solver, keep_cache=True))
    logits, mlr_cache = ly.mlr_forward(y, net.mlr, net.solver)
    mlr_grads, g = ly.mlr_vjp(net.mlr, mlr_cache, ly.softmax_xent(logits, labels)[1])
    if act_cache is not None:
        g = ly.tangent_relu_vjp(act_cache, g)
    conv_grads, gx = ly.conv_vjp(net.conv, conv_cache, g)
    grads = {f"conv.{k}": v for k, v in conv_grads.items()}
    grads.update({f"mlr.{k}": v for k, v in mlr_grads.items()})
    return grads, gx


class TestDataSideWork:
    """The network input is data: its pullback forms no input adjoint, and a
    dataset mapped once and sliced gives what mapping each batch gives."""

    @pytest.mark.parametrize("metric", METRICS5)
    @pytest.mark.parametrize("variant", ["plain", "power", "tangent_relu"])
    def test_parameter_gradients_bitwise(self, metric, variant):
        net = tiny_network(metric, metric, seed=35)
        if variant == "power":
            net.power = 0.5
        elif variant == "tangent_relu":
            net.activation = "tangent_relu"
        x = batch_of_correlations(3, 2, 4, 36)
        labels = np.array([0, 2, 1])
        _, grads, _ = ly.forward_backward(net, x, labels)
        ref, gx = forward_backward_with_input_adjoint(net, x, labels)
        assert set(grads) == set(ref)
        for key in ref:
            assert np.array_equal(grads[key], ref[key]), key
        assert gx.shape == x.shape and np.isfinite(gx).all()

    @pytest.mark.parametrize("metric", METRICS5)
    @pytest.mark.parametrize("mode", ["newton1", "full"])
    def test_sliced_dataset_logits_bitwise(self, metric, mode):
        """11 samples in batches of 4; 3 channels in overlapping fields of 2."""
        rng = np.random.default_rng(37)
        net = ly.build_network(
            metric, metric, n_in=4, channels=3, field_size=2, stride=1, kernels=1,
            m_hidden=3, classes=3, rng=rng, power=0.5, solver={"dstar_mode": mode},
        )
        x = batch_of_correlations(11, 3, 4, 38, spread=0.5)
        inputs = trainmod.map_dataset(net, x, 4)
        assert isinstance(inputs, ly.ChartInput) and len(inputs) == 11
        order = rng.permutation(11)
        for start in range(0, 11, 4):
            idx = order[start : start + 4]
            sliced = ly.network_forward(net, inputs[idx])
            assert np.array_equal(sliced, ly.network_forward(net, x[idx]))
        assert np.array_equal(ly.network_forward(net, inputs), ly.network_forward(net, x))
