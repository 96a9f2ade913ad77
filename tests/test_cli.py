import struct
from dataclasses import replace

import numpy as np
import pytest

from corrgeo import cli, data as datamod, io
from corrgeo.config import RunConfig, load_config, parse_config_text
from corrgeo.errors import (
    ConfigError, DampingFailure, InfeasibleSeparation, IoError, NoConvergence, NonFiniteLoss,
    NotPositiveDefinite,
)
from corrgeo import train as trainmod

from helpers import generate_ref, is_valid_correlation


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

    def test_huge_shape_is_io_error(self, tmp_path):
        # 2^31 * 2^31 * 4 elements wrap to 0 in int64: the empty payload must not pass
        path = tmp_path / "huge.cort"
        path.write_bytes(b"CORT\x01\x00\x00\x00" + struct.pack("<4I", 3, 2**31, 2**31, 4))
        with pytest.raises(IoError, match="payload length"):
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

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError):
            RunConfig(seed=-1).validate()
        with pytest.raises(ConfigError):
            parse_config_text("seed = -1")

    def test_invalid_utf8_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xff\xfe seed = 1\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_config(path)
        assert cli.main(["gradcheck", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err


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
                assert is_valid_correlation(ch)

    @pytest.mark.parametrize("args", [
        (3, 30, 5, 2, 0.3, 1.5, 9),     # 180 draws in three chunks, no retry
        (2, 10, 5, 2, 3.0, 1.0, 0),     # retries
        (2, 10, 5, 1, 4.0, 1.0, 3),     # retries
        # far bumps whose dplus solve ran out of evaluations when a rejected
        # Newton iterate fell back to the fixed-point step
        (2, 5, 5, 1, 5.0, 1.0, 3),
        (2, 5, 5, 1, 6.0, 1.0, 0),
    ])
    def test_batched_generate_matches_sequential(self, args):
        samples, labels = datamod.generate(*args)
        ref_samples, ref_labels, retries = generate_ref(*args)
        assert np.array_equal(samples, ref_samples) and np.array_equal(labels, ref_labels)
        assert labels.dtype == ref_labels.dtype
        assert (retries > 0) == (args[4] > 1.0)

    def test_batched_generate_raises_as_sequential(self):
        args = (2, 5, 5, 1, 200.0, 1.0, 3)  # a bump whose dplus solve runs out of evaluations
        with pytest.raises(NoConvergence) as ref:
            generate_ref(*args)
        with pytest.raises(NoConvergence) as got:
            datamod.generate(*args)
        assert str(got.value) == str(ref.value)

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

    @pytest.mark.parametrize("flag, value", [
        ("--dim", "1"), ("--classes", "-1"), ("--classes", "0"), ("--per-class", "0"),
        ("--channels", "0"), ("--spread", "nan"), ("--spread", "-1"), ("--sep", "inf"),
        ("--seed", "-1"),
    ])
    def test_cli_rejects_bad_arguments(self, tmp_path, capsys, flag, value):
        args = {"--classes": "2", "--per-class": "2", "--dim": "4", flag: value}
        argv = ["datagen", "--out", str(tmp_path / "d")] + [a for kv in args.items() for a in kv]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"config error: {flag} must be")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("spread", ["1e6", "1e308"])
    def test_overflowing_spread_is_numerical_failure(self, tmp_path, capsys, spread):
        # at 1e308 the bumps themselves overflow to inf
        argv = ["datagen", "--out", str(tmp_path / "d"), "--classes", "2", "--per-class", "3",
                "--dim", "4", "--spread", spread]
        with np.errstate(over="ignore"):
            assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: dplus: no convergence") and "residual inf" in err
        assert not (tmp_path / "d").exists()


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

    def test_evaluation_passes_are_even(self, tmp_path, monkeypatch):
        from corrgeo import layers as ly

        cfg, _ = write_tiny_setup(tmp_path)
        net = trainmod.build_from_config(cfg)
        samples, labels = datamod.load_dataset(tmp_path / "data")
        inner = ly.network_forward
        lengths = []

        def patched(net, x):
            lengths.append(len(x))
            return inner(net, x)

        monkeypatch.setattr(ly, "network_forward", patched)
        trainmod.evaluate(net, samples, labels, batch_size=5)
        # 16 samples in ceil(16 / 5) = 4 passes, not 5 + 5 + 5 + 1
        assert lengths == [4, 4, 4, 4]

    @pytest.mark.parametrize("metric", ["ecm", "lecm", "olm", "lsm", "phcm"])
    def test_evaluation_does_not_depend_on_pass_length(self, tmp_path, metric):
        cfg, _ = write_tiny_setup(tmp_path, metric=metric)
        net = trainmod.train(cfg, tmp_path / "data", tmp_path / "ckpt", log=lambda _: None)
        samples, labels = datamod.load_dataset(tmp_path / "data")
        acc, confusion = trainmod.evaluate(net, samples, labels)
        assert (confusion.sum(axis=0) > 0).all()  # both classes are predicted
        for batch_size in (1, 5):
            got = trainmod.evaluate(net, samples, labels, batch_size=batch_size)
            assert got[0] == acc and np.array_equal(got[1], confusion)

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

    def test_old_layout_phcm_checkpoint(self, tmp_path):
        """A phcm checkpoint in the earlier layout, normals (K, C*dz) and FC
        gamma (kernels*slots,), evaluates to the same logits: it holds the
        current layout's numbers in row-major order."""
        from corrgeo import layers as ly

        cfg = RunConfig(
            conv_metric="phcm", mlr_metric="phcm", n_in=4, channels=3, field_size=2,
            stride=1, kernels=2, m_hidden=3, classes=3, seed=6,
        )
        net = trainmod.build_from_config(cfg)
        rng = np.random.default_rng(7)
        for val in net.param_dict().values():
            val += rng.standard_normal(val.shape) * 0.1
        fc, mlr = net.conv.fc, net.mlr
        old = {  # 2 kernels x 3 slots on 2 channels of dz = 6; 3 classes on 4 channels of dz = 3
            "conv.z": fc.z.reshape(6, 12), "conv.gamma": fc.gamma.reshape(6),
            "mlr.z": mlr.z.reshape(3, 12), "mlr.gamma": mlr.gamma,
        }
        io.write_checkpoint(tmp_path / "ckpt", cfg.lines(), old)
        _, back = trainmod.load_checkpoint_network(tmp_path / "ckpt")
        assert back.conv.fc.z.shape == (6, 12) and back.conv.fc.gamma.shape == (6,)
        samples, labels = datamod.generate(3, 4, 4, 3, 0.3, 1.0, seed=8)
        assert np.array_equal(ly.network_forward(back, samples), ly.network_forward(net, samples))
        assert trainmod.evaluate(back, samples, labels)[0] == trainmod.evaluate(net, samples, labels)[0]

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

    def test_train_and_eval_validate_each_sample_once(self, tmp_path, monkeypatch):
        """load_dataset checks the 16 two-channel samples; the mapping that
        follows, the training steps and the evaluations do not check them again."""
        from corrgeo import domain as dom

        cfg, cfg_path = write_tiny_setup(tmp_path)
        checked = []
        validate = dom.validate_correlation
        monkeypatch.setattr(dom, "validate_correlation",
                            lambda c, *a: checked.append(np.shape(c)[:-2]) or validate(c, *a))
        assert cli.main(["train", "--config", str(cfg_path), "--data", str(tmp_path / "data"),
                         "--out", str(tmp_path / "ckpt")]) == 0
        assert checked == [(16, 2)]
        checked.clear()
        assert cli.main(["eval", "--ckpt", str(tmp_path / "ckpt"), "--data", str(tmp_path / "data")]) == 0
        assert checked == [(16, 2)]

    @pytest.mark.parametrize("batch_size", [5, 256])
    def test_evaluate_checks_raw_samples(self, tmp_path, batch_size):
        """A raw array given to evaluate is checked before it is mapped; the
        error names the bad matrix by its place in the whole dataset."""
        from corrgeo.errors import NonFiniteInput, NotSymmetric

        cfg, _ = write_tiny_setup(tmp_path)
        net = trainmod.build_from_config(cfg)
        samples, labels = datamod.load_dataset(tmp_path / "data")
        bad = samples.copy()
        bad[9, 1, 2, 0] = bad[9, 1, 0, 2] = np.inf
        with pytest.raises(NonFiniteInput, match=r"^matrix \(9, 1\): non-finite"):
            trainmod.evaluate(net, bad, labels, batch_size=batch_size)
        bad = samples.copy()
        bad[12, 0, 3, 1] += 0.1
        with pytest.raises(NotSymmetric, match=r"^matrix \(12, 0\): asymmetric"):
            trainmod.evaluate(net, bad, labels, batch_size=batch_size)

    @pytest.mark.parametrize("count", [10, 20])
    def test_label_count_mismatch_is_io_error(self, tmp_path, capsys, count):
        cfg, cfg_path = write_tiny_setup(tmp_path)
        samples, labels = datamod.load_dataset(tmp_path / "data")
        datamod.save_dataset(tmp_path / "bad", samples, np.resize(labels, count))
        with pytest.raises(IoError, match=f"{count} labels for {len(samples)} samples"):
            datamod.load_dataset(tmp_path / "bad")
        rc = cli.main(["train", "--config", str(cfg_path), "--data",
                       str(tmp_path / "bad"), "--out", str(tmp_path / "x")])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"{count} labels for {len(samples)} samples" in err and "Traceback" not in err
        assert cli.main(["train", "--config", str(cfg_path), "--data",
                         str(tmp_path / "data"), "--out", str(tmp_path / "ckpt")]) == 0
        rc = cli.main(["eval", "--ckpt", str(tmp_path / "ckpt"), "--data", str(tmp_path / "bad")])
        assert rc == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_shape_mismatch_is_config_error(self, tmp_path):
        cfg, cfg_path = write_tiny_setup(tmp_path)
        samples, labels = datamod.generate(2, 4, 5, 2, 0.2, 1.5, seed=6)
        datamod.save_dataset(tmp_path / "wrong", samples, labels)
        rc = cli.main(["train", "--config", str(cfg_path), "--data",
                       str(tmp_path / "wrong"), "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_eval_shape_mismatch_is_config_error(self, tmp_path, capsys):
        """eval checks the data against the checkpoint's config as train does;
        a (N, n, n) file is one channel."""
        cfg, cfg_path = write_tiny_setup(tmp_path, epochs=0)
        assert cli.main(["train", "--config", str(cfg_path), "--data", str(tmp_path / "data"),
                         "--out", str(tmp_path / "ckpt")]) == 0
        samples, labels = datamod.generate(2, 4, 5, 2, 0.2, 1.5, seed=6)
        datamod.save_dataset(tmp_path / "wrong_n", samples, labels)
        datamod.save_dataset(tmp_path / "one_channel", samples[:, 0, :4, :4], labels)
        capsys.readouterr()
        for bad, shape in (("wrong_n", "(8, 2, 5, 5)"), ("one_channel", "(8, 1, 4, 4)")):
            rc = cli.main(["eval", "--ckpt", str(tmp_path / "ckpt"), "--data", str(tmp_path / bad)])
            assert rc == 1
            assert capsys.readouterr().err.startswith(f"config error: data shape {shape} does not match")

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_dataset_is_config_error(self, tmp_path, capsys, command):
        """A dataset of 0 samples has no mean loss and no accuracy."""
        cfg, cfg_path = write_tiny_setup(tmp_path, epochs=0)
        assert cli.main(["train", "--config", str(cfg_path), "--data", str(tmp_path / "data"),
                         "--out", str(tmp_path / "ckpt")]) == 0
        samples, labels = datamod.load_dataset(tmp_path / "data")
        datamod.save_dataset(tmp_path / "empty", samples[:0], labels[:0])
        capsys.readouterr()
        if command == "train":
            args = ["--config", str(cfg_path), "--out", str(tmp_path / "out")]
        else:
            args = ["--ckpt", str(tmp_path / "ckpt")]
        assert cli.main([command, *args, "--data", str(tmp_path / "empty")]) == 1
        assert capsys.readouterr().err.startswith("config error: the dataset has no samples")
        assert not (tmp_path / "out").exists()

    def test_one_channel_file_trains_and_evaluates(self, tmp_path):
        cfg = replace(write_tiny_setup(tmp_path)[0], channels=1, field_size=1, epochs=1)
        (tmp_path / "one.cfg").write_text("\n".join(cfg.lines()) + "\n")
        samples, labels = datamod.load_dataset(tmp_path / "data")
        datamod.save_dataset(tmp_path / "one_channel", samples[:, 0], labels)
        assert cli.main(["train", "--config", str(tmp_path / "one.cfg"), "--data",
                         str(tmp_path / "one_channel"), "--out", str(tmp_path / "ckpt")]) == 0
        assert cli.main(["eval", "--ckpt", str(tmp_path / "ckpt"), "--data", str(tmp_path / "one_channel")]) == 0

    @pytest.mark.parametrize("case", ["no shape", "bad shape", "missing block", "wrong size", "non-finite",
                                      "not utf-8", "path in name", "nul in name"])
    def test_bad_checkpoint_is_io_error(self, tmp_path, capsys, case):
        cfg, cfg_path = write_tiny_setup(tmp_path, epochs=0)
        ckpt = tmp_path / "ckpt"
        assert cli.main(["train", "--config", str(cfg_path), "--data", str(tmp_path / "data"),
                         "--out", str(ckpt)]) == 0
        lines = (ckpt / "manifest.txt").read_text().splitlines()
        at = {line.split()[1]: k for k, line in enumerate(lines) if line.startswith("tensor ")}
        if case == "no shape":
            lines[at["conv.z"]] = "tensor conv.z"
        elif case == "bad shape":
            lines[at["conv.z"]] = "tensor conv.z 1,x"
        elif case == "path in name":  # a readable tensor file outside the checkpoint
            io.write_tensor(tmp_path / "outside.cort", np.zeros((2, 2)))
            lines[at["conv.z"]] = "tensor ../outside 2,2"
        elif case == "nul in name":
            lines[at["conv.z"]] = "tensor conv.z\0 1,2"
        elif case == "missing block":
            del lines[at["conv.gamma"]]
        elif case == "wrong size":  # an MLR for 4 classes, not 2
            io.write_tensor(ckpt / "mlr.gamma.cort", np.zeros(4))
            lines[at["mlr.gamma"]] = "tensor mlr.gamma 4"
        elif case == "non-finite":
            z = io.read_tensor(ckpt / "mlr.z.cort")
            z.flat[1] = np.nan
            io.write_tensor(ckpt / "mlr.z.cort", z)
        text = ("\n".join(lines) + "\n").encode()
        (ckpt / "manifest.txt").write_bytes(b"\xff\xfe" + text if case == "not utf-8" else text)
        capsys.readouterr()
        rc = cli.main(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path / "data")])
        err = capsys.readouterr().err
        assert rc == 3 and err.startswith("io error: ") and "Traceback" not in err
        if case.endswith("in name"):
            assert "bad tensor name" in err


class TestGradcheckCli:
    def test_passes_on_tiny_config(self, tmp_path):
        cfg = RunConfig(n_in=4, channels=2, field_size=2, m_hidden=3, classes=2)
        path = tmp_path / "g.cfg"
        path.write_text("\n".join(cfg.lines()))
        assert cli.main(["gradcheck", "--config", str(path)]) == 0

    def test_rejects_negative_seed(self, tmp_path, capsys):
        path = tmp_path / "g.cfg"
        path.write_text("\n".join(RunConfig().lines()))
        assert cli.main(["gradcheck", "--config", str(path), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: seed must be") and "Traceback" not in err

    @pytest.mark.parametrize("line", [
        *(f"{key} = 999999999999999999999" for key in ("n_in", "channels", "kernels", "m_hidden", "classes")),
        "n_in = 3000000000", "m_hidden = 3000000000",
        # about 10^14 bytes: within an array's size limit, beyond any machine's memory
        "n_in = 1000000",
        # two fields, but 10^18 channels in each input sample
        "channels = 1000000000000000001\nfield_size = 1\nstride = 1000000000000000000",
    ])
    def test_unallocatable_network_is_config_error(self, tmp_path, capsys, line):
        path = tmp_path / "g.cfg"
        path.write_text(line + "\n")
        assert cli.main(["gradcheck", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: the network needs") and "Traceback" not in err


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

    @pytest.mark.parametrize("flags", [
        ["--dims", "x"], ["--dims", "6,x"], ["--dims", ","], ["--repeats", "0"], ["--repeats", "-2"],
    ])
    def test_rejects_bad_arguments(self, capsys, flags):
        assert cli.main(["bench", "--dims", "6", "--metrics", "ecm", "--repeats", "1", *flags]) == 1
        assert capsys.readouterr().err.startswith("config error: ")


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

    @pytest.mark.parametrize("flag, value", [
        ("--grid", "-3"), ("--grid", "0"), ("--gamma", "nan"), ("--gamma", "inf"),
    ])
    def test_rejects_bad_arguments(self, tmp_path, capsys, flag, value):
        zpath = self._write_z(tmp_path, "ecm")
        out = tmp_path / "grid.csv"
        args = {"--gamma": "0.0", "--grid": "3", flag: value}
        argv = ["hyperplane", "--metric", "ecm", "--z", str(zpath), "--out", str(out)]
        assert cli.main(argv + [a for kv in args.items() for a in kv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flag[2:]} must be") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("metric, entry", [("olm", np.nan), ("phcm", np.inf)])
    def test_rejects_non_finite_weights(self, tmp_path, capsys, metric, entry):
        zpath = self._write_z(tmp_path, metric)
        z = io.read_tensor(zpath)
        z.flat[1] = entry
        io.write_tensor(zpath, z)
        out = tmp_path / "grid.csv"
        rc = cli.main(["hyperplane", "--metric", metric, "--z", str(zpath),
                       "--gamma", "0.0", "--grid", "3", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: z must be finite") and "Traceback" not in err
        assert not out.exists()

    def test_huge_shape_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "z.cort"
        path.write_bytes(b"CORT\x01\x00\x00\x00" + struct.pack("<4I", 3, 2**31, 2**31, 4))
        out = tmp_path / "grid.csv"
        rc = cli.main(["hyperplane", "--metric", "ecm", "--z", str(path),
                       "--gamma", "0.0", "--grid", "3", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3 and err.startswith("io error: ") and "Traceback" not in err
        assert not out.exists()

    def test_wrong_dim_rejected(self, tmp_path):
        path = tmp_path / "z.cort"
        io.write_tensor(path, np.zeros((4, 4)))
        rc = cli.main(["hyperplane", "--metric", "ecm", "--z", str(path),
                       "--gamma", "0.0", "--grid", "3", "--out", str(tmp_path / "o.csv")])
        assert rc == 2


class TestOutputPaths:
    """An output path that cannot be created or written is an IoError (exit
    3): a file where a directory should be, or a path under a file."""

    @pytest.mark.parametrize("command", ["datagen", "train", "bench", "hyperplane"])
    def test_unwritable_output_is_io_error(self, tmp_path, capsys, command):
        _, cfg_path = write_tiny_setup(tmp_path, epochs=1)
        zpath = tmp_path / "z.cort"
        io.write_tensor(zpath, np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv, flag, targets = {
            "datagen": (["datagen", "--classes", "2", "--per-class", "2", "--dim", "4"], "--out",
                        [blocker, blocker / "x"]),
            "train": (["train", "--config", str(cfg_path), "--data", str(tmp_path / "data")], "--out",
                      [blocker, blocker / "x"]),
            "bench": (["bench", "--dims", "4", "--metrics", "ecm", "--repeats", "1"], "--csv",
                      [blocker / "x.csv", tmp_path]),
            "hyperplane": (["hyperplane", "--metric", "ecm", "--z", str(zpath), "--gamma", "0.0",
                            "--grid", "3"], "--out", [blocker / "q.csv", tmp_path]),
        }[command]
        for target in targets:
            assert cli.main(argv + [flag, str(target)]) == 3, target
            err = capsys.readouterr().err
            assert err.startswith("io error: cannot ") and str(target) in err
        assert blocker.read_text() == ""


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

        def patched(net, x):  # evaluate's passes; training steps call forward_backward
            evals.append(1)
            if len(evals) == 2:
                raise NotPositiveDefinite("min eigenvalue 0")
            return inner(net, x)

        monkeypatch.setattr(ly, "network_forward", patched)
        # one evaluation batch per epoch: the second pass is epoch 1's
        with pytest.raises(NotPositiveDefinite, match=r"^epoch 1: evaluation samples 0-15: min eigenvalue 0$"):
            trainmod.train(cfg, tmp_path / "data", tmp_path / "a", log=lambda _: None)
        evals.clear()
        net = trainmod.build_from_config(cfg)
        samples, labels = datamod.load_dataset(tmp_path / "data")
        with pytest.raises(NotPositiveDefinite, match=r"^evaluation samples 8-15: "):
            trainmod.evaluate(net, samples, labels, batch_size=8)

    def test_input_chart_error_names_samples(self, tmp_path, monkeypatch, capsys):
        """The dataset is mapped once, batch_size samples at a time, before
        training (16 samples, batches of 8) and on entry to evaluate."""
        from corrgeo import layers as ly

        cfg, cfg_path = write_tiny_setup(tmp_path)
        err = NoConvergence(15, 6.3e-05, "dstar")
        inner = ly.map_input
        calls = []

        def patched(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise err
            return inner(*args, **kwargs)

        monkeypatch.setattr(ly, "map_input", patched)
        with pytest.raises(NoConvergence) as info:
            trainmod.train(cfg, tmp_path / "data", tmp_path / "a", log=lambda _: None)
        assert type(info.value) is NoConvergence
        assert str(info.value) == f"input chart, samples 8-15: {err}"
        assert info.value.__cause__ is err
        assert (info.value.iterations, info.value.residual) == (15, 6.3e-05)
        calls.clear()
        rc = cli.main(["train", "--config", str(cfg_path), "--data", str(tmp_path / "data"),
                       "--out", str(tmp_path / "b")])
        assert rc == 2
        assert "input chart, samples 8-15: " in capsys.readouterr().err
        calls.clear()
        net = trainmod.build_from_config(cfg)
        samples, labels = datamod.load_dataset(tmp_path / "data")
        with pytest.raises(NoConvergence, match=r"^input chart, samples 5-9: dstar: "):
            trainmod.evaluate(net, samples, labels, batch_size=5)

    def test_mapped_input_needs_its_network(self, tmp_path):
        from corrgeo import layers as ly

        cfg, _ = write_tiny_setup(tmp_path)
        samples, labels = datamod.load_dataset(tmp_path / "data")
        net = trainmod.build_from_config(cfg)
        inputs = trainmod.map_dataset(net, samples, cfg.batch_size)
        loss, _, _ = ly.forward_backward(net, inputs[:4], labels[:4])
        assert np.isfinite(loss)
        for other in (replace(cfg, conv_metric="olm"), replace(cfg, power=0.5)):
            other_net = trainmod.build_from_config(other)
            with pytest.raises(ConfigError, match=r"^input mapped under metric ecm, power 1.0"):
                ly.forward_backward(other_net, inputs[:4], labels[:4])
            with pytest.raises(ConfigError):
                trainmod.evaluate(other_net, inputs, labels)
