import numpy as np
import pytest

from corrgeo import cli, data as datamod, io
from corrgeo.config import RunConfig, parse_config_text
from corrgeo.errors import (
    ConfigError, DampingFailure, InfeasibleSeparation, IoError, NoConvergence, NonFiniteLoss,
    NotPositiveDefinite,
)
from corrgeo import domain as dom
from corrgeo import train as trainmod


class TestTensorFiles:
    def test_roundtrip_byte_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((3, 2, 4, 4))
        path = tmp_path / "t.cort"
        io.write_tensor(path, arr)
        back = io.read_tensor(path)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)
        io.write_tensor(tmp_path / "t2.cort", back)
        assert (tmp_path / "t.cort").read_bytes() == (tmp_path / "t2.cort").read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.cort"
        io.write_tensor(path, np.zeros((2, 3)))
        blob = path.read_bytes()
        assert blob[:4] == b"CORT"
        assert blob[4] == 1 and blob[5] == 0
        assert int.from_bytes(blob[8:12], "little") == 2
        assert int.from_bytes(blob[12:16], "little") == 2
        assert int.from_bytes(blob[16:20], "little") == 3
        assert len(blob) == 20 + 6 * 8

    def test_labels_roundtrip(self, tmp_path):
        labels = np.array([0, 2, 1, 2], dtype=np.int64)
        path = tmp_path / "l.corl"
        io.write_labels(path, labels)
        assert np.array_equal(io.read_labels(path), labels)
        blob = path.read_bytes()
        assert blob[:4] == b"CORL"
        assert int.from_bytes(blob[4:8], "little") == 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.cort"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(IoError):
            io.read_tensor(path)

    def test_checkpoint_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        params = {"conv.z": rng.standard_normal((1, 3, 2, 6)), "mlr.gamma": np.zeros(3)}
        io.write_checkpoint(tmp_path / "ckpt", ["seed = 0"], params)
        config, back = io.read_checkpoint(tmp_path / "ckpt")
        assert config["seed"] == "0"
        for key in params:
            assert np.array_equal(back[key], params[key])


class TestConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_parse_roundtrip(self):
        cfg = RunConfig(conv_metric="olm", lr=0.05, epochs=7)
        back = parse_config_text("\n".join(cfg.lines()))
        assert back == cfg

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# comment\n\nconv_metric = lsm\nlr = 0.5\n")
        assert cfg.conv_metric == "lsm" and cfg.lr == 0.5

    @pytest.mark.parametrize("line", [
        "conv_metric = nope", "lr = -1", "optimizer = rmsprop",
        "unknown_key = 1", "epochs = -1", "dstar_mode = newton2",
        "lr = nan", "lr = inf", "power = nan", "power = inf", "weight_decay = -0.1",
        "dplus_tol = 0", "dplus_tol = -1", "dplus_tol = inf", "dstar_tol = 0",
        "dstar_tol = nan", "dplus_max_iter = 0", "n_in = 1", "m_hidden = 1",
    ])
    def test_rejects_bad_values(self, line):
        with pytest.raises(ConfigError):
            parse_config_text(line)


class TestDatagen:
    def test_zero_noise_equals_anchor(self, tmp_path):
        samples, labels = datamod.generate(2, 3, 4, 1, 1e-9, 1.0, seed=5)
        for cls in (0, 1):
            block = samples[labels == cls]
            for s in block:
                assert np.abs(s - block[0]).max() < 1e-6

    def test_deterministic_files(self, tmp_path):
        for sub in ("a", "b"):
            s, l = datamod.generate(3, 4, 5, 2, 0.3, 1.5, seed=9)
            datamod.save_dataset(tmp_path / sub, s, l)
        assert (tmp_path / "a/samples.cort").read_bytes() == (tmp_path / "b/samples.cort").read_bytes()
        assert (tmp_path / "a/labels.corl").read_bytes() == (tmp_path / "b/labels.corl").read_bytes()

    def test_all_samples_valid(self, tmp_path):
        s, l = datamod.generate(3, 5, 5, 2, 0.4, 1.5, seed=11)
        datamod.save_dataset(tmp_path / "d", s, l)
        back, lb = datamod.load_dataset(tmp_path / "d")
        assert np.array_equal(back, s) and np.array_equal(lb, l)
        for sample in back:
            for ch in sample:
                assert dom.is_valid_correlation(ch)

    def test_anchor_separation_enforced(self):
        from corrgeo import geometry as geo
        rng = np.random.default_rng(12)
        anchors = datamod.draw_anchors(3, 1, 5, 2.0, rng)
        for i in range(3):
            for j in range(i):
                d = geo.riem_dist("olm", anchors[i][0], anchors[j][0])
                assert d >= 2.0

    def test_infeasible_raises(self):
        rng = np.random.default_rng(13)
        with pytest.raises(InfeasibleSeparation):
            datamod.draw_anchors(4, 1, 3, 50.0, rng)


def write_tiny_setup(tmp_path, epochs=3, metric="ecm"):
    cfg = RunConfig(
        conv_metric=metric, mlr_metric=metric, n_in=4, channels=2,
        field_size=2, stride=1, kernels=1, m_hidden=3, classes=2,
        epochs=epochs, batch_size=8, lr=0.05, seed=3,
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("\n".join(cfg.lines()) + "\n")
    samples, labels = datamod.generate(2, 8, 4, 2, 0.2, 1.5, seed=4)
    datamod.save_dataset(tmp_path / "data", samples, labels)
    return cfg, cfg_path


class TestTrainEval:
    def test_train_then_eval_matches_log(self, tmp_path):
        cfg, cfg_path = write_tiny_setup(tmp_path)
        rc = cli.main(["train", "--config", str(cfg_path), "--data", str(tmp_path / "data"),
                       "--out", str(tmp_path / "ckpt")])
        assert rc == 0
        lines = (tmp_path / "ckpt/metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,acc,seconds"
        assert len(lines) == cfg.epochs + 1
        final_acc = float(lines[-1].split(",")[2])
        _, net = trainmod.load_checkpoint_network(tmp_path / "ckpt")
        samples, labels = datamod.load_dataset(tmp_path / "data")
        acc, confusion = trainmod.evaluate(net, samples, labels)
        assert acc == final_acc
        assert confusion.sum() == len(samples)

    def test_confusion_matches_per_sample_counts(self, tmp_path):
        from corrgeo import layers as ly

        cfg = RunConfig(
            conv_metric="lecm", mlr_metric="lecm", n_in=4, channels=2,
            field_size=2, stride=1, kernels=1, m_hidden=3, classes=3, seed=5,
        )
        net = trainmod.build_from_config(cfg)
        samples, labels = datamod.generate(3, 9, 4, 2, 0.3, 1.0, seed=7)
        # batches of 5 repeat (label, prediction) pairs within a batch
        acc, confusion = trainmod.evaluate(net, samples, labels, batch_size=5)
        pred = ly.predict(ly.network_forward(net, samples))
        expected = np.zeros((3, 3), dtype=np.int64)
        for t, p in zip(labels, pred):
            expected[t, p] += 1
        assert np.array_equal(confusion, expected)
        assert acc == np.trace(expected) / len(samples)

    def test_bitwise_deterministic_training(self, tmp_path):
        cfg, cfg_path = write_tiny_setup(tmp_path, epochs=2)
        for sub in ("r1", "r2"):
            rc = cli.main(["train", "--config", str(cfg_path), "--data",
                           str(tmp_path / "data"), "--out", str(tmp_path / sub)])
            assert rc == 0
        for name in ("conv.z", "conv.gamma", "mlr.z", "mlr.gamma"):
            a = (tmp_path / f"r1/{name}.cort").read_bytes()
            b = (tmp_path / f"r2/{name}.cort").read_bytes()
            assert a == b

    def test_zero_epoch_checkpoint_near_chance(self, tmp_path):
        cfg, cfg_path = write_tiny_setup(tmp_path, epochs=1)
        cfg_text = (tmp_path / "run.cfg").read_text().replace("epochs = 1", "epochs = 0")
        (tmp_path / "run.cfg").write_text(cfg_text)
        rc = cli.main(["train", "--config", str(cfg_path), "--data", str(tmp_path / "data"),
                       "--out", str(tmp_path / "ckpt0")])
        assert rc == 0
        _, net = trainmod.load_checkpoint_network(tmp_path / "ckpt0")
        samples, labels = datamod.load_dataset(tmp_path / "data")
        acc, _ = trainmod.evaluate(net, samples, labels)
        assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("name, blob", [
        ("samples.cort", b"CORT\x01"),
        ("samples.cort", b"CORT\x01\x00\x00\x00\x03\x00\x00\x00\x04\x00\x00\x00"),
        ("labels.corl", b"CORL\x01"),
    ])
    def test_truncated_header_is_io_error(self, tmp_path, name, blob):
        cfg, cfg_path = write_tiny_setup(tmp_path)
        (tmp_path / "data" / name).write_bytes(blob)
        rc = cli.main(["train", "--config", str(cfg_path), "--data", str(tmp_path / "data"),
                       "--out", str(tmp_path / "ckpt")])
        assert rc == 3

    @pytest.mark.parametrize("bad", [2, -1])
    def test_label_out_of_range_is_config_error(self, tmp_path, bad):
        cfg, cfg_path = write_tiny_setup(tmp_path)
        samples, labels = datamod.load_dataset(tmp_path / "data")
        labels[3] = bad
        datamod.save_dataset(tmp_path / "bad", samples, labels)
        rc = cli.main(["train", "--config", str(cfg_path), "--data",
                       str(tmp_path / "bad"), "--out", str(tmp_path / "x")])
        assert rc == 1
        rc = cli.main(["train", "--config", str(cfg_path), "--data",
                       str(tmp_path / "data"), "--out", str(tmp_path / "ckpt")])
        assert rc == 0
        rc = cli.main(["eval", "--ckpt", str(tmp_path / "ckpt"), "--data", str(tmp_path / "bad")])
        assert rc == 1

    def test_invalid_sample_is_io_error(self, tmp_path, capsys):
        cfg, cfg_path = write_tiny_setup(tmp_path)
        samples, labels = datamod.load_dataset(tmp_path / "data")
        samples[5, 1, 2, 0] = samples[5, 1, 0, 2] = np.nan
        datamod.save_dataset(tmp_path / "bad", samples, labels)
        with pytest.raises(IoError, match=r"matrix \(5, 1\): non-finite"):
            datamod.load_dataset(tmp_path / "bad")
        rc = cli.main(["train", "--config", str(cfg_path), "--data",
                       str(tmp_path / "bad"), "--out", str(tmp_path / "x")])
        assert rc == 3
        rc = cli.main(["train", "--config", str(cfg_path), "--data",
                       str(tmp_path / "data"), "--out", str(tmp_path / "ckpt")])
        assert rc == 0
        rc = cli.main(["eval", "--ckpt", str(tmp_path / "ckpt"), "--data", str(tmp_path / "bad")])
        assert rc == 3
        assert "matrix (5, 1)" in capsys.readouterr().err

    def test_shape_mismatch_is_config_error(self, tmp_path):
        cfg, cfg_path = write_tiny_setup(tmp_path)
        samples, labels = datamod.generate(2, 4, 5, 2, 0.2, 1.5, seed=6)
        datamod.save_dataset(tmp_path / "wrong", samples, labels)
        rc = cli.main(["train", "--config", str(cfg_path), "--data",
                       str(tmp_path / "wrong"), "--out", str(tmp_path / "x")])
        assert rc == 1


class TestGradcheckCli:
    def test_passes_on_tiny_config(self, tmp_path):
        cfg = RunConfig(n_in=4, channels=2, field_size=2, m_hidden=3, classes=2)
        path = tmp_path / "g.cfg"
        path.write_text("\n".join(cfg.lines()))
        assert cli.main(["gradcheck", "--config", str(path)]) == 0


class TestBenchCli:
    def test_metric_subset_and_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        rc = cli.main(["bench", "--dims", "6", "--metrics", "ecm,olm",
                       "--repeats", "2", "--csv", str(csv_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ecm" in out and "olm" in out and "lecm" not in out
        header = csv_path.read_text().splitlines()[0]
        assert header == "dim,ecm,olm"

    def test_rejects_small_dims(self):
        assert cli.main(["bench", "--dims", "2", "--repeats", "1"]) == 1


class TestHyperplaneCli:
    def _write_z(self, tmp_path, metric):
        if metric == "phcm":
            z = np.array([0.5, -0.2, 0.3])
        else:
            z = np.zeros((3, 3))
            z[1, 0] = z[0, 1] = 1.0
            z[2, 0] = z[0, 2] = -0.5
        path = tmp_path / "z.cort"
        io.write_tensor(path, z)
        return path

    @pytest.mark.parametrize("metric", ["ecm", "olm", "phcm"])
    def test_grid_output(self, tmp_path, metric):
        zpath = self._write_z(tmp_path, metric)
        out = tmp_path / "grid.csv"
        rc = cli.main(["hyperplane", "--metric", metric, "--z", str(zpath),
                       "--gamma", "0.0", "--grid", "5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r21,r31,r32,v"
        rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
        assert 0 < len(rows) < 5**3  # PD filter removed corners
        # the origin is on the hyperplane when gamma = 0
        origin = [r for r in rows if r[:3] == (0.0, 0.0, 0.0)]
        assert origin and abs(origin[0][3]) < 1e-12

    def test_sign_change_across_surface(self, tmp_path):
        zpath = self._write_z(tmp_path, "ecm")
        out = tmp_path / "grid.csv"
        assert cli.main(["hyperplane", "--metric", "ecm", "--z", str(zpath),
                         "--gamma", "0.0", "--grid", "7", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()[1:]
        rows = [tuple(float(x) for x in ln.split(",")) for ln in lines]
        by_line = {}
        for r21, r31, r32, v in rows:
            by_line.setdefault((r31, r32), []).append((r21, v))
        flips = 0
        for pts in by_line.values():
            vs = [v for _, v in sorted(pts)]
            flips += sum(1 for a, b in zip(vs, vs[1:]) if np.sign(a) != np.sign(b))
        assert flips > 0

    def test_wrong_dim_rejected(self, tmp_path):
        path = tmp_path / "z.cort"
        io.write_tensor(path, np.zeros((4, 4)))
        rc = cli.main(["hyperplane", "--metric", "ecm", "--z", str(path),
                       "--gamma", "0.0", "--grid", "3", "--out", str(tmp_path / "o.csv")])
        assert rc == 2


class TestTrainingFailures:
    """Typed failures inside train.train name the epoch and batch they came
    from and keep their class; the tiny setup has 2 batches per epoch."""

    @staticmethod
    def fail_at(monkeypatch, call, outcome):
        """Make the ``call``-th forward_backward (0-based) raise or return ``outcome``."""
        from corrgeo import layers as ly

        monkeypatch.undo()  # a second patch wraps the original, not the first patch
        inner = ly.forward_backward
        calls = []

        def patched(net, x, labels):
            calls.append(1)
            if len(calls) - 1 != call:
                return inner(net, x, labels)
            if isinstance(outcome, Exception):
                raise outcome
            _, grads, logits = inner(net, x, labels)
            return outcome, grads, logits

        monkeypatch.setattr(ly, "forward_backward", patched)

    @pytest.mark.parametrize("err", [
        NotPositiveDefinite("min eigenvalue -1.000e-03 <= 1e-12"),
        NoConvergence(15, 6.3e-05, "dstar"),
        DampingFailure("no damped step"),
    ])
    def test_error_names_epoch_and_batch(self, tmp_path, monkeypatch, capsys, err):
        cfg, cfg_path = write_tiny_setup(tmp_path)
        self.fail_at(monkeypatch, 3, err)
        with pytest.raises(type(err)) as info:
            trainmod.train(cfg, tmp_path / "data", tmp_path / "a", log=lambda _: None)
        assert type(info.value) is type(err)
        assert str(info.value) == f"epoch 1, batch 1: {err}"
        assert info.value.__cause__ is err
        if isinstance(err, NoConvergence):
            assert (info.value.iterations, info.value.residual) == (15, 6.3e-05)
        self.fail_at(monkeypatch, 3, err)
        rc = cli.main(["train", "--config", str(cfg_path), "--data", str(tmp_path / "data"),
                       "--out", str(tmp_path / "b")])
        assert rc == 2
        assert "epoch 1, batch 1: " in capsys.readouterr().err

    @pytest.mark.parametrize("loss", [np.nan, np.inf])
    def test_non_finite_loss(self, tmp_path, monkeypatch, capsys, loss):
        cfg, cfg_path = write_tiny_setup(tmp_path)
        self.fail_at(monkeypatch, 2, loss)
        with pytest.raises(NonFiniteLoss, match=r"^epoch 1, batch 0: training loss is"):
            trainmod.train(cfg, tmp_path / "data", tmp_path / "a", log=lambda _: None)
        self.fail_at(monkeypatch, 2, loss)
        rc = cli.main(["train", "--config", str(cfg_path), "--data", str(tmp_path / "data"),
                       "--out", str(tmp_path / "b")])
        assert rc == 2
        assert "epoch 1, batch 0: training loss is" in capsys.readouterr().err

    def test_evaluate_error_names_epoch_and_batch(self, tmp_path, monkeypatch):
        from corrgeo import layers as ly

        cfg, _ = write_tiny_setup(tmp_path)
        inner = ly.network_forward
        evals = []

        def patched(net, x, tape=None):
            if tape is None:  # evaluate's passes; training records a tape
                evals.append(1)
                if len(evals) == 2:
                    raise NotPositiveDefinite("min eigenvalue 0")
            return inner(net, x, tape)

        monkeypatch.setattr(ly, "network_forward", patched)
        # one evaluation batch per epoch: the second pass is epoch 1's
        with pytest.raises(NotPositiveDefinite, match=r"^epoch 1: evaluation batch 0: min eigenvalue 0$"):
            trainmod.train(cfg, tmp_path / "data", tmp_path / "a", log=lambda _: None)
        evals.clear()
        net = trainmod.build_from_config(cfg)
        samples, labels = datamod.load_dataset(tmp_path / "data")
        with pytest.raises(NotPositiveDefinite, match=r"^evaluation batch 1: "):
            trainmod.evaluate(net, samples, labels, batch_size=8)
