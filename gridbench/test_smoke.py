"""Smoke test of the benchmark itself: one op per workload, the output
schema, the metric names against BENCHMARK.json, and tampered
certificates counted as failed ops.

    python3 -m pytest -q gridbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

import hostspeed
import run
import workloads

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def spec():
    with open(BENCHMARK) as f:
        return json.load(f)


def bench_result(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_spec_matches_benchmark():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in s["per_layer"]] == run.PER_LAYER
    for m in s["per_layer"]:
        assert m["unit"] == run._layer_unit(m["name"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_op_schema(workload):
    detail, result = bench_result("--workload", workload, "--seed", "3",
                                  "--seconds", "0", "--trace", "0",
                                  "--ops", "1")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, m in result["metrics"].items():
        assert m["unit"] == run.END_TO_END[name]
        assert m["value"] > 0
    prov = detail["provenance"]
    assert prov["kernel"] in ("pure", "cython")
    assert prov["seed"] == 3 and prov["GRIDLAB_THREADS"] == "unset"
    assert detail["host_speed"]["probes"] > 0


def test_traced_schema():
    detail, result = bench_result("--workload", "lift_scale", "--seed", "0",
                                  "--seconds", "0", "--trace", "1",
                                  "--ops", "2")
    assert set(result["metrics"]) == set(run.PER_LAYER)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_total + m["trace.unlisted_self_s"] + m["trace.untraced_s"] \
        == pytest.approx(m["trace.wall_s"])
    assert m["kernels.min_fill_order.calls"] > 0


@pytest.mark.parametrize("workload, index", [("tw_exact", 2),
                                             ("transfer", 0)])
def test_tampered_certificate_counts_as_failed(tmp_path, workload, index):
    bench, stream, _, _ = run.set_up(workload, 0, str(tmp_path / "in"))
    ops = run.run_ops(bench, stream, 0, count=index + 2, tamper={index})
    assert len(ops["failures"]) == 1
    assert "gridlab check" in ops["failures"][0]
    assert "exit 1" in ops["failures"][0]
    metrics, detail = run.end_to_end(ops, [(0.0, 1.0)], len(stream),
                                     lambda t0, t1: t1 - t0)
    assert detail["fail_frac"] == 1 / (index + 2)
    assert metrics["verified_frac"]["value"] == 1 - 1 / (index + 2)


def test_tail_does_not_depend_on_pass_count():
    one_pass = [float(i) for i in range(1, 41)]
    for passes in (2, 3, 4):
        value, _, n = run.tail(one_pass * passes, len(one_pass))
        assert value == 35.0 and n == 40 * passes


def test_probe_reports_reference_time_without_its_own():
    probe = hostspeed.SpeedProbe()
    for t in (0.0, 0.1, 0.2):
        probe.starts.append(t)
        probe.durations.append(2 * hostspeed.PROBE_REF_S)
        probe._spent.append(probe._spent[-1] + 2 * hostspeed.PROBE_REF_S)
    # half speed, one probe inside the interval
    assert probe.normalize(0.05, 0.15) == pytest.approx(
        (0.1 - 2 * hostspeed.PROBE_REF_S) / 2)


def test_expected_spans_are_per_layer_metrics():
    names = {n.rpartition(".")[0] for n in run.PER_LAYER}
    for spans in run.EXPECTED_SPANS.values():
        assert set(spans) <= names
