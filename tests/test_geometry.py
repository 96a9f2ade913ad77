import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrgeo import domain as dom
from corrgeo import geometry as geo
from corrgeo import layers as ly
from corrgeo import linalg as la
from corrgeo import solvers as sv
from corrgeo.errors import UnsupportedMetric

from helpers import (
    central_fd_dir, is_hollow, is_rowzero, is_strict_lower, is_valid_correlation, rel_err, sym_log,
)

LE = geo.LOG_EUCLIDEAN


def rand_cor(n, seed, spread=1.0):
    return dom.random_correlation(n, spread, rng=seed)


def rand_tangent(n, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    return dom.random_hollow(n, rng, scale)


def push(metric, c, v):
    return geo.pushforward(metric, geo.prototype_forward(metric, c)[1], v)


def push_inv(metric, c, w):
    return geo.pushforward_inv(metric, geo.prototype_forward(metric, c)[1], w)


class TestPrototypeMaps:
    @pytest.mark.parametrize("metric", LE)
    def test_identity_maps_to_zero(self, metric):
        x = geo.to_prototype(metric, np.eye(5))
        assert np.abs(x).max() < 1e-12

    def test_ecm_hand_value(self):
        r = 0.6
        x = geo.to_prototype("ecm", np.array([[1.0, r], [r, 1.0]]))
        assert abs(x[1, 0] - 0.75) < 1e-12
        assert x[0, 0] == 0.0 and x[1, 1] == 0.0

    def test_lsm_hand_value(self):
        r = 0.5
        c = np.array([[1.0, r], [r, 1.0]])
        x = geo.to_prototype("lsm", c)
        expect = sym_log(c / (1.0 + r))
        assert rel_err(x, expect) < 1e-9
        assert np.abs(x.sum(axis=1)).max() < 1e-10

    @pytest.mark.parametrize("metric", LE)
    def test_zero_maps_to_identity(self, metric):
        c = geo.from_prototype(metric, np.zeros((4, 4)))
        assert rel_err(c, np.eye(4)) < 1e-12

    def test_olm_two_by_two_hyperbolic(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        c = geo.from_prototype("olm", h)
        t = np.tanh(1.0)
        assert rel_err(c, np.array([[1.0, t], [t, 1.0]])) < 1e-10

    @pytest.mark.parametrize("metric", LE)
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_roundtrip(self, metric, n):
        for seed in range(10):
            c = rand_cor(n, seed)
            x = geo.to_prototype(metric, c)
            back = geo.from_prototype(metric, x)
            assert np.abs(back - c).max() < 1e-8

    @pytest.mark.parametrize("metric", LE)
    def test_prototype_structure(self, metric):
        c = rand_cor(6, 3)
        x = geo.to_prototype(metric, c)
        if metric in ("ecm", "lecm"):
            assert is_strict_lower(x)
        elif metric == "olm":
            assert is_hollow(x, tol=1e-14)
        else:
            assert is_rowzero(x, tol=1e-8)


class TestPushforward:
    def test_olm_identity_base(self):
        v = rand_tangent(4, 0)
        assert rel_err(push("olm", np.eye(4), v), v) < 1e-12

    def test_lsm_identity_base(self):
        v = rand_tangent(4, 1)
        expect = v - np.diag(v.sum(axis=1))
        assert rel_err(push("lsm", np.eye(4), v), expect) < 1e-9

    @pytest.mark.parametrize("metric", ["ecm", "lecm"])
    def test_lower_identity_base(self, metric):
        v = rand_tangent(4, 2)
        assert rel_err(push(metric, np.eye(4), v), np.tril(v, -1)) < 1e-12

    @pytest.mark.parametrize("metric", LE)
    def test_matches_finite_differences(self, metric):
        c = rand_cor(5, 4)
        v = rand_tangent(5, 5, scale=0.3)
        fd = central_fd_dir(lambda m: geo.to_prototype(metric, m), c, v)
        assert rel_err(push(metric, c, v), fd) < 1e-5

    @pytest.mark.parametrize("metric", LE)
    def test_linear(self, metric):
        c = rand_cor(4, 6)
        v, w = rand_tangent(4, 7), rand_tangent(4, 8)
        lhs = push(metric, c, 2.0 * v - 0.25 * w)
        rhs = 2.0 * push(metric, c, v) - 0.25 * push(metric, c, w)
        assert rel_err(lhs, rhs) < 1e-10

    @pytest.mark.parametrize("metric", LE)
    @pytest.mark.parametrize("n", [4, 8])
    def test_roundtrip_inverse(self, metric, n):
        c = rand_cor(n, 9)
        v = rand_tangent(n, 10)
        w = push(metric, c, v)
        assert rel_err(push_inv(metric, c, w), v) < 1e-8
        assert np.abs(push_inv(metric, c, np.zeros((n, n)))).max() < 1e-14

    def test_lsm_newton1_recentered_to_rowzero(self):
        # the single-step mode loses exact zero row sums; the projection
        # restores membership exactly
        c = rand_cor(6, 77)
        x = geo.to_prototype("lsm", c, solver={"dstar_mode": "newton1"})
        assert np.abs(x.sum(axis=-1)).max() < 1e-13
        assert np.abs(x - x.T).max() < 1e-12

    def test_lsm_differentials_reject_newton1_cache(self):
        # they are the differentials of the full-mode scaling; at a newton1
        # point they would be those of neither map
        c = rand_cor(6, 4)
        cache = geo.prototype_forward("lsm", c, {"dstar_mode": "newton1"})[1]
        with pytest.raises(UnsupportedMetric):
            geo.pushforward("lsm", cache, rand_tangent(6, 5))
        with pytest.raises(UnsupportedMetric):
            geo.pushforward_inv("lsm", cache, np.zeros((6, 6)))

    def test_lsm_identity_right_inverse(self):
        rng = np.random.default_rng(11)
        w = dom.rowzero_from_coords(rng.standard_normal(dom.lt0_dim(5)), 5)
        v = push_inv("lsm", np.eye(5), w)
        assert rel_err(push("lsm", np.eye(5), v), w) < 1e-9


class TestVjps:
    @pytest.mark.parametrize("metric", LE)
    def test_prototype_vjp_pairing(self, metric):
        c = rand_cor(5, 12)
        v = rand_tangent(5, 13, 0.3)
        rng = np.random.default_rng(14)
        g = rng.standard_normal((5, 5))
        x, cache = geo.prototype_forward(metric, c)
        lhs = np.sum(geo.pushforward(metric, cache, v) * g)
        gbar = geo.prototype_vjp(metric, cache, g)
        rhs = np.sum(gbar * v)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("metric", LE)
    def test_inverse_vjp_pairing(self, metric):
        n = 5
        rng = np.random.default_rng(15)
        if metric in ("ecm", "lecm"):
            x = np.tril(rng.standard_normal((n, n)), -1) * 0.4
            dx = np.tril(rng.standard_normal((n, n)), -1)
        elif metric == "olm":
            x = dom.random_hollow(n, rng, 0.4)
            dx = dom.random_hollow(n, rng)
        else:
            x = dom.rowzero_from_coords(0.4 * rng.standard_normal(dom.lt0_dim(n)), n)
            dx = dom.rowzero_from_coords(rng.standard_normal(dom.lt0_dim(n)), n)
        g = la.sym(rng.standard_normal((n, n)))
        c, cache = geo.inverse_forward(metric, x)
        fd = central_fd_dir(lambda z: geo.from_prototype(metric, z), x, dx)
        lhs = np.sum(fd * g)
        gx = geo.inverse_vjp(metric, cache, g)
        rhs = np.sum(gx * dx)
        assert abs(lhs - rhs) < 1e-5 * max(1.0, abs(rhs))

    def test_lsm_newton1_vjp_with_tiny_step_component(self):
        # the newton1 step's first component is ~1e-16, so a step length
        # read back as max((x - 1) / step) overshoots the true alpha = 1
        t = -0.20282642044691368
        c = np.array([[1.0, 0.3, t], [0.3, 1.0, 0.4], [t, 0.4, 1.0]])
        solver = {"dstar_mode": "newton1"}
        rng = np.random.default_rng(0)
        _, cache = geo.prototype_forward("lsm", c, solver)
        for _ in range(3):
            v = dom.random_hollow(3, rng)
            g = rng.standard_normal((3, 3))
            fd = central_fd_dir(lambda m: geo.to_prototype("lsm", m, solver), c, v)
            lhs = np.sum(fd * g)
            rhs = np.sum(geo.prototype_vjp("lsm", cache, g) * v)
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


class TestCoordinateAdjoints:
    """<from_coords(v), G> = <v, from_coords_adjoint(G)> with G not symmetric:
    the gather the FC pullback uses is the exact transpose of the scatter."""

    @pytest.mark.parametrize("metric", LE)
    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_pairing(self, metric, m):
        rng = np.random.default_rng(m)
        v = rng.standard_normal((4, dom.lt0_dim(m)))
        g = rng.standard_normal((4, m, m))
        lhs = np.sum(geo.prototype_from_coords(metric, v, m) * g, axis=(-2, -1))
        rhs = np.sum(v * geo.prototype_from_coords_adjoint(metric, g), axis=-1)
        assert np.abs(lhs - rhs).max() < 1e-14 * np.linalg.norm(v) * np.linalg.norm(g)


class TestTriangularAdjoints:
    """Dot-product tests for the ecm/lecm charts: <push(v), g> = <v, vjp(g)>
    and <push_inv(w), G> = <w, inverse_vjp(G)>, alongside the finite-difference
    gates above."""

    cases = settings(max_examples=25)
    inputs = given(
        n=st.integers(2, 30),
        spread=st.sampled_from([0.5, 1.0, 2.0]),
        seed=st.integers(0, 2**32 - 1),
    )

    @pytest.mark.parametrize("metric", ["ecm", "lecm"])
    @cases
    @inputs
    def test_push_vjp(self, metric, n, spread, seed):
        rng = np.random.default_rng(seed)
        c = rand_cor(n, rng, spread / np.sqrt(n))
        v = dom.random_hollow(n, rng)
        g = rng.standard_normal((n, n))
        cache = geo.prototype_forward(metric, c)[1]
        jv = geo.pushforward(metric, cache, v)
        jtg = geo.prototype_vjp(metric, cache, g)
        scale = np.linalg.norm(jv) * np.linalg.norm(g) + np.linalg.norm(v) * np.linalg.norm(jtg)
        assert abs(np.sum(jv * g) - np.sum(v * jtg)) < 1e-12 * scale

    @pytest.mark.parametrize("metric", ["ecm", "lecm"])
    @cases
    @inputs
    def test_push_inv_inverse_vjp(self, metric, n, spread, seed):
        rng = np.random.default_rng(seed)
        c = rand_cor(n, rng, spread / np.sqrt(n))
        w = np.tril(rng.standard_normal((n, n)), -1)
        big_g = la.sym(rng.standard_normal((n, n)))
        x, cache = geo.prototype_forward(metric, c)
        icache = geo.inverse_forward(metric, x)[1]
        jw = geo.pushforward_inv(metric, cache, w)
        jtg = geo.inverse_vjp(metric, icache, big_g)
        scale = np.linalg.norm(jw) * np.linalg.norm(big_g) + np.linalg.norm(w) * np.linalg.norm(jtg)
        assert abs(np.sum(jw * big_g) - np.sum(w * jtg)) < 1e-12 * scale


class TestSpectralAdjoints:
    """Dot-product tests for the olm and lsm charts, as for ecm/lecm above:
    <push(v), g> = <v, vjp(g)> and <push_inv(w), G> = <w, inverse_vjp(G)>,
    with w in the chart's prototype space (hollow, or row-zero) and the lsm
    chart solved in full mode."""

    cases = TestTriangularAdjoints.cases
    inputs = TestTriangularAdjoints.inputs

    @pytest.mark.parametrize("metric", ["olm", "lsm"])
    @cases
    @inputs
    def test_push_vjp(self, metric, n, spread, seed):
        rng = np.random.default_rng(seed)
        c = rand_cor(n, rng, spread / np.sqrt(n))
        v = dom.random_hollow(n, rng)
        g = rng.standard_normal((n, n))
        cache = geo.prototype_forward(metric, c)[1]
        jv = geo.pushforward(metric, cache, v)
        jtg = geo.prototype_vjp(metric, cache, g)
        scale = np.linalg.norm(jv) * np.linalg.norm(g) + np.linalg.norm(v) * np.linalg.norm(jtg)
        assert abs(np.sum(jv * g) - np.sum(v * jtg)) < 1e-12 * scale

    @pytest.mark.parametrize("metric", ["olm", "lsm"])
    @cases
    @inputs
    def test_push_inv_inverse_vjp(self, metric, n, spread, seed):
        rng = np.random.default_rng(seed)
        c = rand_cor(n, rng, spread / np.sqrt(n))
        if metric == "olm":
            w = dom.random_hollow(n, rng)
        else:
            w = dom.rowzero_from_coords(rng.standard_normal(dom.lt0_dim(n)), n)
        big_g = la.sym(rng.standard_normal((n, n)))
        x, cache = geo.prototype_forward(metric, c)
        icache = geo.inverse_forward(metric, x)[1]
        jw = geo.pushforward_inv(metric, cache, w)
        jtg = geo.inverse_vjp(metric, icache, big_g)
        scale = np.linalg.norm(jw) * np.linalg.norm(big_g) + np.linalg.norm(w) * np.linalg.norm(jtg)
        assert abs(np.sum(jw * big_g) - np.sum(w * jtg)) < 1e-12 * scale


class TestFactorizationCounts:
    """Each Riemannian operator factors each base point once."""

    @staticmethod
    def count(monkeypatch, op):
        tally = {"chol": 0, "dstar": 0, "eigh": 0, "dplus_evals": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                # a dplus solve runs one eigh per evaluation
                tally[key] += int(np.sum(out[1])) if key == "dplus_evals" else 1
                return out
            return wrapped

        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
            mp.setattr(np.linalg, "cholesky", counting("chol", np.linalg.cholesky))
            mp.setattr(sv, "dstar_batch", counting("dstar", sv.dstar_batch))
            mp.setattr(sv, "dplus_batch", counting("dplus_evals", sv.dplus_batch))
            op()
        return tally["chol"], tally["dstar"], tally["eigh"] - tally["dplus_evals"]

    @pytest.mark.parametrize("metric, op, expect", [
        ("lsm", "log", (0, 2, 2)), ("lsm", "exp", (0, 1, 1)),
        ("olm", "log", (0, 0, 2)), ("olm", "exp", (0, 0, 1)),
        ("ecm", "log", (2, 0, 0)), ("ecm", "exp", (1, 0, 0)),
        ("lecm", "log", (2, 0, 0)), ("lecm", "exp", (1, 0, 0)),
    ])
    def test_riem_log_exp(self, monkeypatch, metric, op, expect):
        """(cholesky, dstar, eigh outside dplus) calls for one pair."""
        c, c2, v = rand_cor(6, 90), rand_cor(6, 91), rand_tangent(6, 92, 0.2)
        if op == "log":
            got = self.count(monkeypatch, lambda: geo.riem_log(metric, c, c2))
        else:
            got = self.count(monkeypatch, lambda: geo.riem_exp(metric, c, v))
        assert got == expect

    @staticmethod
    def count_matrices(monkeypatch, op):
        """Matrices through each LAPACK routine during op(): batch sizes summed."""
        tally = dict.fromkeys(("cholesky", "eigh", "eigvalsh", "inv", "solve"), 0)

        def counting(name, fn):
            def wrapped(a, *args, **kwargs):
                batch = np.shape(a)[:-2]
                if name == "solve":
                    batch = np.broadcast_shapes(batch, np.shape(args[0])[:-2])
                tally[name] += int(np.prod(batch))
                return fn(a, *args, **kwargs)
            return wrapped

        with monkeypatch.context() as mp:
            for name in tally:
                mp.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
            op()
        return {k: v for k, v in tally.items() if v}

    @pytest.mark.parametrize("metric, log, exp, pt", [
        ("ecm", {"cholesky": 2}, {"cholesky": 1, "inv": 1}, {"cholesky": 2, "inv": 1}),
        ("lecm", {"cholesky": 2}, {"cholesky": 1, "inv": 1}, {"cholesky": 2, "inv": 1}),
        ("olm", {"eigh": 2, "solve": 1}, {"eigh": 13, "solve": 8}, {"eigh": 2, "solve": 1}),
        ("lsm", {"eigh": 2, "solve": 12}, {"eigh": 1, "solve": 9}, {"eigh": 2, "solve": 13}),
    ])
    def test_riem_log_exp_pt_matrices(self, monkeypatch, metric, log, exp, pt):
        """Matrices through each LAPACK routine in riem_log, riem_exp and
        parallel_transport of one pair, dplus solves included; olm's log and
        transport bound the condition of dplus_diff's coupling matrix by its
        Loewner range, with no eigvalsh at these points."""
        c, c2, v = rand_cor(6, 90), rand_cor(6, 91), rand_tangent(6, 92, 0.2)
        assert self.count_matrices(monkeypatch, lambda: geo.riem_log(metric, c, c2)) == log
        assert self.count_matrices(monkeypatch, lambda: geo.riem_exp(metric, c, v)) == exp
        assert self.count_matrices(monkeypatch, lambda: geo.parallel_transport(metric, c, c2, v)) == pt

    @staticmethod
    def fc_mlr(metric, bench=False):
        """(rng, FC, MLR, 4 input samples): FC(8 -> 6, 2 channels) + MLR(3
        classes), or with ``bench`` FC(30 -> 20) + MLR(10 classes) with the
        weights and inputs of ``corrgeo bench``."""
        if not bench:
            rng = np.random.default_rng(95)
            fc = ly.init_fc(metric, 8, 6, 2, 1, rng)
            mlr = ly.init_mlr(metric, 6, 1, 3, rng)
            x = np.stack([[rand_cor(8, 96 + 2 * b + c) for c in range(2)] for b in range(4)])
            return rng, fc, mlr, x
        rng = np.random.default_rng(20)
        fc = ly.init_fc(metric, 30, 20, 1, 1, rng)
        fc.z = rng.standard_normal(fc.z.shape) * ly.init_std(30) / 20
        mlr = ly.init_mlr(metric, 20, 1, 10, rng)
        mlr.z = rng.standard_normal(mlr.z.shape) * ly.init_std(20)
        x = np.stack([dom.random_correlation(30, 1 / np.sqrt(30), rng)[None] for _ in range(4)])
        return rng, fc, mlr, x

    @pytest.mark.parametrize("metric, small, bench", [
        ("ecm", [], []), ("lecm", [], []), ("phcm", [], []),
        ("olm", [("dplus", [3, 3, 3, 4])], [("dplus", [2, 2, 2, 2])]),
        ("lsm", [("dstar", [8, 8, 6, 6, 5, 6, 7, 8]), ("dstar", [5, 4, 8, 5])],
         [("dstar", [5, 5, 5, 5]), ("dstar", [3, 3, 3, 3])]),
    ])
    def test_fc_mlr_solver_iterations(self, monkeypatch, metric, small, bench):
        """dplus evaluations and dstar steps per sample, solve by solve, of
        one FC + MLR forward in full mode: FC(8 -> 6, 2 channels) + MLR(3
        classes) as in test_fc_mlr_layers, and FC(30 -> 20) + MLR(10 classes)."""
        solver = {"dstar_mode": "full"}
        for at_bench, want in ((False, small), (True, bench)):
            _, fc, mlr, x = self.fc_mlr(metric, at_bench)
            calls = []

            def recording(name, fn):
                def wrapped(*args, **kwargs):
                    out = fn(*args, **kwargs)
                    calls.append((name, out[1].tolist()))
                    return out
                return wrapped

            with monkeypatch.context() as mp:
                mp.setattr(sv, "dplus_batch", recording("dplus", sv.dplus_batch))
                mp.setattr(sv, "dstar_batch", recording("dstar", sv.dstar_batch))
                ly.mlr_forward(ly.fc_forward(x, fc, solver)[0], mlr, solver)
            assert calls == want, at_bench

    @pytest.mark.parametrize("metric, forward, vjp", [
        ("ecm", {"cholesky": 12}, {"inv": 12}),
        ("lecm", {"cholesky": 12}, {"inv": 12}),
        ("phcm", {"cholesky": 12}, {"inv": 12}),
        ("olm", {"eigh": 25, "solve": 9}, {"solve": 4}),
        ("lsm", {"eigh": 12, "solve": 88}, {"eigh": 4, "solve": 12}),
    ])
    def test_fc_mlr_layers(self, monkeypatch, metric, forward, vjp):
        """Matrices factored by an FC(8 -> 6, 2 channels) + MLR(3 classes)
        forward and vjp on 4 samples; lsm in full mode."""
        rng, fc, mlr, x = self.fc_mlr(metric)
        solver = {"dstar_mode": "full"}
        grad_v = rng.standard_normal((4, 3))
        caches = {}

        def run_forward():
            caches["y"], caches["fc"] = ly.fc_forward(x, fc, solver)
            caches["mlr"] = ly.mlr_forward(caches["y"], mlr, solver)[1]

        def run_vjp():
            gy = ly.mlr_vjp(mlr, caches["mlr"], grad_v)[1]
            ly.fc_vjp(fc, caches["fc"], gy)

        assert self.count_matrices(monkeypatch, run_forward) == forward
        assert self.count_matrices(monkeypatch, run_vjp) == vjp

    def test_fc_mlr_layers_olm_bench(self, monkeypatch):
        """olm FC(30 -> 20) + MLR(10 classes) at ``corrgeo bench``'s weights
        on 4 samples: the FC outputs solve in Taylor arithmetic, so the
        forward factors only the inputs and the MLR's chart points, and each
        inverse_vjp forms the outputs' eigendecompositions afresh."""
        rng, fc, mlr, x = self.fc_mlr("olm", bench=True)
        grad_v = rng.standard_normal((4, 10))
        caches, evals = {}, []
        solve = sv.dplus_batch

        def recording(*args):
            out = solve(*args)
            evals.append(out[1])
            return out

        def run_forward():
            caches["y"], caches["fc"] = ly.fc_forward(x, fc)
            caches["mlr"] = ly.mlr_forward(caches["y"], mlr)[1]

        def run_vjp():
            gy = ly.mlr_vjp(mlr, caches["mlr"], grad_v)[1]
            ly.fc_vjp(fc, caches["fc"], gy)
            caches["gy"] = gy

        monkeypatch.setattr(sv, "dplus_batch", recording)
        assert self.count_matrices(monkeypatch, run_forward) == {"eigh": 8, "solve": 4}
        assert len(evals) == 1 and np.array_equal(evals[0], np.full(4, 2))
        assert self.count_matrices(monkeypatch, run_vjp) == {"eigh": 4, "solve": 4}
        icache = caches["fc"]["icache"]
        again = self.count_matrices(
            monkeypatch, lambda: geo.inverse_vjp("olm", icache, caches["gy"]))
        assert again == {"eigh": 4, "solve": 4}
        assert sorted(icache) == ["d", "eig", "x"]

    def test_lsm_inverse_vjp_eighs_once(self, monkeypatch):
        """An lsm FC(30 -> 20) forward at ``corrgeo bench``'s weights on 4
        samples factors only its inputs: the chart inverse makes no eigh.
        Each inverse_vjp forms the eigendecompositions of X once, and keeps
        none of them in the cache."""
        rng, fc, _, x = self.fc_mlr("lsm", bench=True)
        caches = {}

        def run_forward():
            caches["fc"] = ly.fc_forward(x, fc)[1]

        grad_y = rng.standard_normal((4, 1, 20, 20))
        assert self.count_matrices(monkeypatch, run_forward) == {"eigh": 4, "solve": 4}
        icache = caches["fc"]["icache"]
        for _ in range(2):
            assert self.count_matrices(monkeypatch, lambda: geo.inverse_vjp("lsm", icache, grad_y)) == {"eigh": 4}
        assert sorted(icache) == ["c", "sigma", "x"]


def _frozen(cache):
    """(key, the object, a copy of its value) for each cache entry; tuples
    (olm's ``eig``) are unpacked."""
    out = []
    for key, val in cache.items():
        for k, item in enumerate(val if isinstance(val, tuple) else (val,)):
            out.append(((key, k), item, None if item is None else np.array(item, copy=True)))
    return out


class TestCachesReadOnly:
    """The differentials and adjoints read a chart cache and never write it:
    the same keys, objects and bits after each call, and the same result on
    a second call."""

    @staticmethod
    def points(metric):
        c = np.stack([rand_cor(6, 110 + k, 0.8) for k in range(3)])
        x = geo.to_prototype(metric, c, {"dstar_mode": "full"})
        # olm: the scaled samples solve in Taylor arithmetic, the rest by eigh
        return c, np.concatenate([x, 0.05 * x])

    @staticmethod
    def check(cache, op):
        before = _frozen(cache)
        first = op()
        after = _frozen(cache)
        assert [k for k, _, _ in after] == [k for k, _, _ in before]
        for (_, obj, val), (_, obj2, _) in zip(before, after):
            assert obj2 is obj
            assert (obj is None and val is None) or np.array_equal(obj, val)
        assert np.array_equal(op(), first)

    @pytest.mark.parametrize("metric", LE)
    def test_inverse_vjp(self, metric):
        _, x = self.points(metric)
        cache = geo.inverse_forward(metric, x)[1]
        g = np.random.default_rng(120).standard_normal(x.shape)
        if metric == "olm":
            assert 0 < cache["eig"][0].size < len(x)
        self.check(cache, lambda: geo.inverse_vjp(metric, cache, g))

    @pytest.mark.parametrize("metric", LE)
    def test_forward_maps(self, metric):
        c, _ = self.points(metric)
        cache = geo.prototype_forward(metric, c, {"dstar_mode": "full"})[1]
        rng = np.random.default_rng(121)
        g, v = rng.standard_normal(c.shape), np.stack([rand_tangent(6, 122 + k, 0.2) for k in range(3)])
        self.check(cache, lambda: geo.prototype_vjp(metric, cache, g))
        self.check(cache, lambda: geo.pushforward(metric, cache, v))
        self.check(cache, lambda: geo.pushforward_inv(metric, cache, geo.pushforward(metric, cache, v)))


class TestRiemannianOps:
    @pytest.mark.parametrize("metric", LE)
    def test_exp_log_roundtrip(self, metric):
        c, c2 = rand_cor(6, 16), rand_cor(6, 17)
        v = geo.riem_log(metric, c, c2)
        assert np.abs(geo.riem_exp(metric, c, v) - c2).max() < 1e-8

    def test_lsm_full_mode_whatever_dstar_mode(self):
        """geodesic, riem_dist and frechet_mean solve lsm in full mode, as
        the other Riemannian operators do."""
        c = np.stack([rand_cor(6, 40 + k) for k in range(3)])
        c2 = np.stack([rand_cor(6, 43 + k) for k in range(3)])
        newton1 = {"dstar_mode": "newton1"}
        assert np.array_equal(geo.geodesic("lsm", c, c2, 0.3, newton1), geo.geodesic("lsm", c, c2, 0.3))
        assert np.array_equal(geo.geodesic("lsm", c, c2, 0.0, newton1), geo.geodesic("lsm", c, c2, 0.0))
        assert np.array_equal(geo.riem_dist("lsm", c, c2, newton1), geo.riem_dist("lsm", c, c2))
        assert np.array_equal(geo.frechet_mean("lsm", c, newton1), geo.frechet_mean("lsm", c))

    @pytest.mark.parametrize("metric", LE)
    def test_geodesic_endpoints(self, metric):
        c, c2 = rand_cor(5, 18), rand_cor(5, 19)
        assert np.abs(geo.geodesic(metric, c, c2, 0.0) - c).max() < 1e-8
        assert np.abs(geo.geodesic(metric, c, c2, 1.0) - c2).max() < 1e-8
        assert np.abs(geo.geodesic(metric, c, c, 0.37) - c).max() < 1e-8

    @pytest.mark.parametrize("metric", LE)
    def test_dist_axioms(self, metric):
        c, c2 = rand_cor(5, 20), rand_cor(5, 21)
        assert geo.riem_dist(metric, c, c) < 1e-10
        d12 = geo.riem_dist(metric, c, c2)
        d21 = geo.riem_dist(metric, c2, c)
        assert d12 > 0
        assert abs(d12 - d21) < 1e-10
        x, x2 = geo.to_prototype(metric, c), geo.to_prototype(metric, c2)
        assert abs(d12 - np.linalg.norm(x - x2)) < 1e-10

    @pytest.mark.parametrize("metric", LE)
    def test_frechet_mean(self, metric):
        c = rand_cor(5, 22)
        assert np.abs(geo.frechet_mean(metric, [c, c]) - c).max() < 1e-10
        cs = [rand_cor(5, s) for s in (23, 24, 25)]
        mean = geo.frechet_mean(metric, cs)
        assert is_valid_correlation(mean)
        xs = np.stack([geo.to_prototype(metric, ci) for ci in cs])
        assert rel_err(geo.to_prototype(metric, mean), xs.mean(axis=0)) < 1e-7

    @pytest.mark.parametrize("metric", LE)
    def test_parallel_transport_preserves_inner(self, metric):
        c, c2 = rand_cor(5, 26), rand_cor(5, 27)
        v, w = rand_tangent(5, 28), rand_tangent(5, 29)
        tv = geo.parallel_transport(metric, c, c2, v)
        tw = geo.parallel_transport(metric, c, c2, w)
        before = geo.riem_inner(metric, c, v, w)
        after = geo.riem_inner(metric, c2, tv, tw)
        assert abs(before - after) < 1e-8 * max(1.0, abs(before))

    @pytest.mark.parametrize("metric", LE)
    def test_transport_to_self_is_identity(self, metric):
        c = rand_cor(5, 30)
        v = rand_tangent(5, 31)
        assert rel_err(geo.parallel_transport(metric, c, c, v), v) < 1e-8

    @pytest.mark.parametrize("metric", LE)
    def test_inner_positive(self, metric):
        c = rand_cor(5, 32)
        v = rand_tangent(5, 33)
        assert geo.riem_inner(metric, c, v, v) > 0

    def test_phcm_rejects_generic_ops(self):
        c = rand_cor(4, 34)
        with pytest.raises(UnsupportedMetric):
            geo.to_prototype("phcm", c)
        with pytest.raises(UnsupportedMetric):
            geo.riem_exp("phcm", c, np.zeros((4, 4)))


class TestInvariances:
    def test_lsm_inverse_consistency(self):
        for seed in range(5):
            c = rand_cor(6, seed + 40)
            inv_c = dom.cor_of(np.linalg.inv(c))
            lhs = geo.to_prototype("lsm", inv_c)
            rhs = -geo.to_prototype("lsm", c)
            assert np.abs(lhs - rhs).max() < 1e-8

    @pytest.mark.parametrize("metric", ["olm", "lsm"])
    @pytest.mark.parametrize("n", [4, 6])
    def test_permutation_equivariance(self, metric, n):
        rng = np.random.default_rng(50)
        c = rand_cor(n, 51)
        p = np.eye(n)[rng.permutation(n)]
        lhs = geo.to_prototype(metric, p @ c @ p.T)
        rhs = p @ geo.to_prototype(metric, c) @ p.T
        assert np.abs(lhs - rhs).max() < 1e-8
        c2 = rand_cor(n, 52)
        d1 = geo.riem_dist(metric, p @ c @ p.T, p @ c2 @ p.T)
        d2 = geo.riem_dist(metric, c, c2)
        assert abs(d1 - d2) < 1e-8


class TestPhcmDist:
    def test_zero_on_equal(self):
        c = rand_cor(5, 60)
        assert geo.phcm_dist(c, c) < 1e-6

    def test_two_by_two_hand_value(self):
        r = 0.6
        c = np.array([[1.0, r], [r, 1.0]])
        d = geo.phcm_dist(c, np.eye(2))
        assert abs(d - np.arccosh(1.0 / np.sqrt(1 - r * r))) < 1e-12
        assert abs(d - 0.6931471805599453) < 1e-6

    def test_symmetry_positivity(self):
        c, c2 = rand_cor(5, 61), rand_cor(5, 62)
        assert abs(geo.phcm_dist(c, c2) - geo.phcm_dist(c2, c)) < 1e-12
        assert geo.phcm_dist(c, c2) > 0

    def test_triangle_inequality_sweep(self):
        for seed in range(200):
            a = rand_cor(5, 3 * seed)
            b = rand_cor(5, 3 * seed + 1)
            c = rand_cor(5, 3 * seed + 2)
            dab = geo.phcm_dist(a, b)
            dbc = geo.phcm_dist(b, c)
            dac = geo.phcm_dist(a, c)
            assert dac <= dab + dbc + 1e-10
