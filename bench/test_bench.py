"""Smoke tests of the benchmark itself (not part of the library suite).

    python3 -m pytest bench/test_bench.py -q

Each test runs a workload's smoke configuration, which finishes in seconds.
"""

import json
import sys

import pytest

import hostspeed
import run
import tracing
from insdelcode.gf import BinaryField

WORKLOADS = sorted(run.WORKLOADS)
SMOKE = dict(seed=3, seconds=0.2, smoke=True)


def library_bindings() -> dict:
    """Every module attribute and class attribute of the library."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "insdelcode":
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def assert_same_bindings(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    changed = [k for k, v in before.items() if after[k] is not v]
    assert not changed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_installs_no_wrappers(workload, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("untraced run created a Tracer")

    monkeypatch.setattr(tracing, "Tracer", refuse)
    before = library_bindings()
    result, _ = run.run(workload, trace=False, **SMOKE)
    assert_same_bindings(before, library_bindings())
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_in_op_wall_time(workload):
    before = library_bindings()
    result, info = run.run(workload, trace=True, **SMOKE)
    assert_same_bindings(before, library_bindings())
    assert result["correct"] and info["absent"] == []
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    op_self = sum(metrics[f"{s}.self_ms"] for s in run.OP_SPANS)
    assert 0 < op_self <= metrics["trace.op_ms"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_digest_fails_ops(workload):
    golden = json.loads(run.GOLDEN.read_text())
    ref = golden[workload]
    for key, digests in ref.items():
        if key == "message":
            continue
        if isinstance(digests, list) and isinstance(digests[0], str):
            ref[key] = ["0" * 16] * len(digests)
        else:  # separator grid point -> [seed index, a, runs digest]
            digests[2] = "0" * 16
    result, info = run.run(workload, trace=False, golden=golden, **SMOKE)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["success_frac"]["value"] < 1.0
    assert info["failures"]


def test_scaling_follows_the_calibration_samples_around_each_op():
    ref = hostspeed.REFERENCE_S
    # op 0 lies between two samples at reference speed, op 1 between one
    # at reference speed and one at half that speed
    scaled = hostspeed.scale([0.1, 0.2], [ref, ref, 2 * ref])
    assert scaled[0] == pytest.approx(0.1)
    assert scaled[1] == pytest.approx(0.2 / 1.5)
    with pytest.raises(AssertionError):
        hostspeed.scale([0.1], [ref])


def test_tracer_counts_field_mul_and_restores():
    field = BinaryField(6)
    with tracing.Tracer([field]) as trace:
        assert field.mul(3, 5) == BinaryField(6).mul(3, 5)
    assert trace.counts["gf.mul.calls"] == 1
    assert "mul" not in vars(field)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [
        "linear-gf64", "affine-eps0.1", "separator-build"]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
