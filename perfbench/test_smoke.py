"""Smoke test of the benchmark at tiny sizes (a few seconds in all).

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that traced spans nest and their self times add up to the traced wall time,
that the tracing overhead is reported, that host probes stay out of the timed
pieces they scale, and that the last line of the output is the result object
the benchmark contract asks for.
"""

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "train8": dataclasses.replace(
        run.Train8(), n=4, m_hidden=3, generated_per_class=10, train_per_class=10,
        separation=1.5, batch=10, epochs=3),
    "infer30": dataclasses.replace(run.Infer30(), n=5, m_out=3, classes=2, batch=4, units=2),
    "geom30": dataclasses.replace(run.Geom30(), n=5, pairs=3, units=2),
}


def expected(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [n for n, _ in run.per_layer_names()] == [m["name"] for m in SPEC["per_layer"]]


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics(name, tmp_path):
    tally = run.Tally()
    metrics, _ = run.measure(TINY[name], 3, 0.1, tmp_path, tally)
    assert tally.failed == 0
    assert {k: u for k, (_, u) in metrics.items()} == expected("end_to_end")
    assert all(v is not None and v > 0 for v, _ in metrics.values())


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run(name, tmp_path):
    tally = run.Tally()
    metrics, _, tracer = run.measure_traced(TINY[name], 3, 0.1, tmp_path, tally)
    assert tally.failed == 0
    assert {k: u for k, (_, u) in metrics.items()} == expected("per_layer")
    assert tracer.nesting_errors() == []
    for root in (s for s in tracer.spans if s.name == "bench.round"):
        inside = [s for s in tracer.spans if root.start <= s.start and s.end <= root.end]
        wall = root.end - root.start
        assert abs(sum(s.self_s for s in inside) - wall) <= 0.03 * wall
    assert "bench.trace_overhead.pct" in metrics
    layer = {s.name.split(".")[0] for s in tracer.spans}
    assert {"bench", "solvers", "geometry"} <= layer
    if name == "train8":
        assert {"layers", "train", "hyperbolic", "kernels", "data", "io"} <= layer
        assert metrics["solvers.dplus_batch.forward_share.olm"][0] > 0
        assert metrics["solvers.dplus_batch.iters_mean_last_epoch.olm"][0] > 0


def test_host_probe_stays_outside_timed_pieces():
    probe = run.HostProbe()
    t0 = probe.clock()
    probe.sample()
    probe.sample(force=False)  # within PROBE_EVERY_S of the last: skipped
    assert len(probe.took) == 1
    assert probe.clock() - t0 < probe.took[0]
    probe.sample()
    mid = (probe.at[0] + probe.at[1]) / 2
    assert probe.scale(mid) == pytest.approx(2 * run.PROBE_REF_S / sum(probe.took))


def test_result_line(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "geom30", TINY["geom30"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "geom30", "--seed", "5", "--seconds", "0.1"]) == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(expected("end_to_end"))
    printed = "\n".join(lines[:-1])
    for name in list(expected("end_to_end")) + ["failed_frac"]:
        assert name in printed
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"nproc", "python", "numpy", "blas", "use_numba", "commit"} <= set(env)
