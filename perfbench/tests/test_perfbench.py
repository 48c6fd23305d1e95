"""Tests of the benchmark's inputs, its output contract and its traced run."""
import itertools
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import run  # noqa: E402
from rigidfp.partitions import PAIR_SIDES, Theory, is_rigid, is_theory_member  # noqa: E402


def _bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def test_generated_inputs_are_rigid_members():
    for seed in (1, 2):
        pairs = list(itertools.islice(inputs.pair_stream(seed), 300))
        assert len(set(pairs)) == len(pairs)
        for theory, prime, dprime in pairs:
            side1, side2 = PAIR_SIDES[Theory(theory)]
            assert is_theory_member(prime, side1) and is_rigid(prime, side1)
            assert is_theory_member(dprime, side2) and is_rigid(dprime, side2)
        for theory, p in itertools.islice(inputs.collapse_stream(seed), 100):
            assert theory in ("B", "D")
            assert is_theory_member(p, theory) and is_rigid(p, theory)
            odd_boxes = sum(v for v in p if v % 2)
            assert inputs.ODD_BOXES[0] <= odd_boxes <= inputs.ODD_BOXES[1]


def test_collapse_stream_is_finite_and_never_repeats_an_odd_part():
    items = list(inputs.collapse_stream(3))
    span = inputs.ODD_BOXES[1] - inputs.ODD_BOXES[0] + 1
    assert span * inputs.ODD_BOX_ROUNDS // 2 < len(items) <= span * inputs.ODD_BOX_ROUNDS
    odd_parts = [tuple(v for v in p if v % 2) for _, p in items]
    assert len(set(odd_parts)) == len(odd_parts)


def test_same_seed_gives_same_inputs():
    for stream in inputs.STREAMS.values():
        first = list(itertools.islice(stream(7), 50))
        again = list(itertools.islice(stream(7), 50))
        other = list(itertools.islice(stream(8), 50))
        assert first == again
        assert inputs.digest(first) == inputs.digest(again) != inputs.digest(other)


def test_untraced_run_prints_the_declared_metrics_and_a_digest():
    lines, result = _bench("pair-stream", 3, 0.4, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == _declared("end_to_end")
    provenance = json.loads(next(ln for ln in lines if ln.startswith("provenance "))[11:])
    assert provenance["seed"] == 3 and len(provenance["input_digest"]) == 16


def test_traced_stream_runs_never_enumerate():
    for workload in ("pair-stream", "collapse-roundtrip"):
        _, result = _bench(workload, 5, 0.5, 1)
        metrics = result["metrics"]
        assert result["correct"]
        assert list(metrics) == _declared("per_layer")
        for name in ("enumerate_rigid", "enumerate_members", "enumerate_rigid_pairs"):
            assert metrics[f"partitions.{name}.calls"]["value"] == 0
        assert metrics["fingerprint.fingerprint.calls"]["value"] > 0


def test_declared_per_layer_metrics_match_the_benchmark():
    assert [name for name, _ in run.per_layer_names()] == _declared("per_layer")
