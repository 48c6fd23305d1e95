"""The rigidfp benchmark: one workload per call, checked and timed.

    python3 perfbench/run.py --workload suite-sweep --seed 1 --seconds 30 --trace 0

Every job runs in a fresh interpreter (perfbench/worker.py), one after the
other, so each pays the cold start that `rigidfp check` pays.  --trace 0
repeats the same work in several processes spread over the run, takes each
suite or item at its median repeat, and prints the end-to-end metrics.
Durations are scaled to the speed of a reference kernel sampled around
them (reference.py), which cancels the slow spells of a shared machine.  --trace 1 runs fixed
work once plain and once traced and prints the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Exit code
0 when every item passed, 1 when one failed, 2 when the benchmark could not
run (no rigidfp source, a worker crashed or ran out of time).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

import inputs
from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
PACKAGE = os.path.join(ROOT, "src", "rigidfp", "__init__.py")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("suite-sweep", "pair-stream", "collapse-roundtrip")
PASSES = 5              # fresh processes per untraced stream run, one set-up each
# Items in one traced stream run, per second of --seconds: fixed work, so
# calls and counts repeat exactly for a given seed.
TRACED_ITEMS_PER_S = {"pair-stream": 100, "collapse-roundtrip": 8}
RUN_LIMIT_S = 170       # every worker must end by then


class BenchError(Exception):
    """The benchmark itself could not run."""


def spawn(job: dict, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"out of time before job {job}")
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(job)], cwd=ROOT,
                              capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"job {job} ran past the {RUN_LIMIT_S} s limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"job {job} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(samples, p: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def sweep_jobs(trace: bool, seconds: float, deadline: float):
    """suite-sweep: whole cycles over the suites, one fresh process per suite."""
    runs = []
    start = time.monotonic()
    while not runs or (not trace and time.monotonic() - start < seconds):
        for name, _, _ in inputs.SUITES:
            job = {"suite": name}
            if trace:
                runs.append((spawn(job, deadline), spawn(traced(job, name), deadline)))
            else:
                runs.append(spawn(job, deadline))
    return runs


def stream_jobs(workload: str, trace: bool, seed: int, seconds: float, deadline: float):
    """Stream workloads: PASSES fresh processes over the same items.

    The first runs for its share of the time, rounded up to whole cycles of
    the stream's input classes so every run holds the same mix, and fixes
    the item count; the others repeat exactly those items.  Traced, one
    plain and one traced pass over a fixed count.
    """
    job = {"workload": workload, "seed": seed}
    if trace:
        job["items"] = int(TRACED_ITEMS_PER_S[workload] * seconds)
        return [(spawn(job, deadline), spawn(traced(job, workload), deadline))]
    first = spawn(dict(job, budget_s=seconds / PASSES), deadline)
    job["items"] = len(first["latencies_us"])
    return [first] + [spawn(job, deadline) for _ in range(PASSES - 1)]


def traced(job: dict, tag: str) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    return dict(job, spans_out=os.path.join(OUT_DIR, f"{tag}.spans.jsonl"))


def work(result: dict) -> tuple[int, float]:
    """Items a job completed and the seconds they took."""
    if "suite" in result:
        return result["checked"], result["wall_s"]
    return len(result["latencies_us"]), sum(result["latencies_us"]) / 1e6


def attempted(result: dict) -> int:
    if "suite" in result:
        return next(pinned for name, _, pinned in inputs.SUITES if name == result["suite"])
    return len(result["latencies_us"])


def per_unit(results: list[dict]) -> list[tuple[int, float]]:
    """(items, seconds) of each unit of work, the median over its repeats.

    A unit is one suite for suite-sweep and one item for the streams; every
    repeat ran in its own fresh process, so no repeat reuses another's work.
    """
    if "suite" in results[0]:
        repeats = {}
        for r in results:
            repeats.setdefault(r["suite"], []).append(r)
        return [(runs[0]["checked"], statistics.median(r["wall_s"] for r in runs))
                for runs in repeats.values()]
    if len({r["digest"] for r in results}) != 1:
        raise BenchError("passes over one stream saw different inputs")
    return [(1, statistics.median(us) / 1e6) for us in zip(*(r["latencies_us"] for r in results))]


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    """The user-facing metrics of an untraced run, and the figures behind them."""
    units = per_unit(results)
    samples = [seconds * 1e6 for _, seconds in units]
    items, busy = map(sum, zip(*units))
    tails = {f"item_p{p}_us": percentile(samples, p) for p in (50, 90, 99)}
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "items_per_s": (items / busy, "1/s"),
        **{name: (value, "us") for name, value in tails.items()},
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
    }
    all_items = sum(work(r)[0] for r in results)
    detail = {
        "processes": len(results), "item_samples": len(samples),
        **{f"{name}_beyond": sum(s > v for s in samples) for name, v in tails.items()},
        "unscaled_setup_s": statistics.median(r["setup_raw_s"] for r in results),
        "unscaled_items_per_s": all_items / sum(r["raw_s"] for r in results),
    }
    return metrics, detail


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for layer, functions in LAYERS.items():
        for fn in functions:
            names += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s")]
    names += [
        ("partitions.enumerate_rigid.distinct_ratio", "ratio"),
        ("partitions.rigid_per_member", "ratio"),
        ("fingerprint.diagnostic_ratio", "ratio"),
        ("blocks.decompose_per_item", "ratio"),
        ("closedform.inverse.sp_calls_per_call", "ratio"),
    ]
    for name, _, _ in inputs.SUITES:
        names += [(f"checks.{name}.wall_s", "s"), (f"checks.{name}.checked", "count")]
    names.append(("trace.overhead_ratio", "ratio"))
    return names


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    """Per-layer metrics from (plain, traced) result pairs of the same work."""
    calls, self_s, returned = Counter(), Counter(), Counter()
    distinct = diagnostics = inverse_sp = 0
    for _, result in pairs:
        layers = result["layers"]
        calls.update(layers["calls"])
        self_s.update(layers["self_s"])
        returned.update(layers["returned"])
        distinct += layers["rigid_distinct_args"]
        diagnostics += layers["diagnostics"]
        inverse_sp += layers["inverse_sp_calls"]
    plain_items, plain_s = map(sum, zip(*(work(p) for p, _ in pairs)))
    traced_items, traced_s = map(sum, zip(*(work(t) for _, t in pairs)))
    values = {}
    for name, unit in per_layer_names():
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls[span]
        elif stat == "self_s":
            values[name] = self_s[span]
    inverse_calls = calls["closedform.xs_inverse"] + calls["closedform.ys_inverse"]
    values.update({
        "partitions.enumerate_rigid.distinct_ratio":
            ratio(distinct, calls["partitions.enumerate_rigid"]),
        "partitions.rigid_per_member":
            ratio(returned["partitions.enumerate_rigid"],
                  returned["partitions.enumerate_members"]),
        "fingerprint.diagnostic_ratio": ratio(diagnostics, calls["fingerprint.fingerprint"]),
        "blocks.decompose_per_item": ratio(calls["blocks.decompose_blocks"], traced_items),
        "closedform.inverse.sp_calls_per_call": ratio(inverse_sp, inverse_calls),
        "trace.overhead_ratio": ratio(plain_items / plain_s, traced_items / traced_s),
    })
    suites = {t["suite"]: t for _, t in pairs if "suite" in t}
    for name, _, _ in inputs.SUITES:
        values[f"checks.{name}.wall_s"] = suites[name]["wall_s"] if name in suites else 0.0
        values[f"checks.{name}.checked"] = suites[name]["checked"] if name in suites else 0
    return {name: (values[name], unit) for name, unit in per_layer_names()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(PACKAGE):
        print(f"error: no rigidfp source at {os.path.dirname(PACKAGE)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    trace = bool(args.trace)
    try:
        if args.workload == "suite-sweep":
            runs = sweep_jobs(trace, args.seconds, deadline)
        else:
            runs = stream_jobs(args.workload, trace, args.seed, args.seconds, deadline)
        metrics, detail = (per_layer(runs), {}) if trace else end_to_end(runs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = [r for run in runs for r in (run if trace else (run,))]
    n_attempted = sum(map(attempted, results))
    n_failed = sum(r["failed"] for r in results)
    digests = [r.get("digest", "") for r in results]
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu": cpu_model(), "commit": git_commit(),
        "input_digest": inputs.digest(digests if any(digests) else inputs.SUITES),
    }
    print("provenance " + json.dumps(provenance))
    print("detail " + json.dumps(detail))
    print("fail_ratio " + json.dumps(n_failed / n_attempted if n_attempted else 0.0))
    for r in results:
        for message in r["failures"]:
            print(f"FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": n_attempted,
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if n_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
