"""The jobs one benchmark worker runs: a single suite, or a slice of a stream.

Every call into rigidfp goes through a module attribute looked up at call
time, so the wrappers that spans.SpanStore installs see it.  Every timed
unit is followed by a sample of the reference kernel (REF_SHARE of the
unit's time) and reported scaled to the kernel's nominal speed, with the
sample before it (see reference.py).
"""
from __future__ import annotations

import hashlib
import itertools
import json
import sys
import time
from array import array
from contextlib import nullcontext

import inputs
import reference

# From sys.modules: the package re-exports the function `fingerprint`, which
# hides the submodule of that name from attribute access.
P = sys.modules["rigidfp.partitions"]
F = sys.modules["rigidfp.fingerprint"]
BL = sys.modules["rigidfp.blocks"]
CF = sys.modules["rigidfp.closedform"]
CHECKS = sys.modules["rigidfp.checks"]
CLI = sys.modules["rigidfp.cli"]

MAX_FAILURE_MESSAGES = 5
REF_SHARE = 0.25
REF_FIRST_NS = 100e6  # kernel sample before a job's first unit


class CheckFailed(Exception):
    """An item's output broke the property the workload checks."""


def pair_item(item) -> str:
    """Both fingerprint paths on one pair, cross-checked, as a CLI record."""
    theory, prime, dprime = item
    pair = P.OperatorPair(prime, dprime, theory)
    direct = F.fingerprint(pair)
    via_blocks = BL.block_fingerprint(direct.tagged, pair.theory)
    if not direct.same_outcome(via_blocks):
        raise CheckFailed("block path disagrees with the direct pipeline")
    if theory != "C":
        if direct.weyl is None:
            raise CheckFailed(f"diagnostic: {direct.diagnostic.message()}")
        total = sum(direct.weyl.alpha) + sum(direct.weyl.beta)
        if total != pair.rank:
            raise CheckFailed(f"|alpha|+|beta|={total} != rank {pair.rank}")
    return json.dumps(CLI.result_record(direct))


def collapse_item(item) -> None:
    """Collapse the odd part, invert it, and check both closed forms."""
    theory, p = item
    sigma = CF.split_parity(p).odd_part
    if theory == "B":
        image, lost, back = CF.xs_map(sigma), 1, CF.xs_inverse
    else:
        image, lost, back = CF.ys_map(sigma), 0, CF.ys_inverse
    if sum(sigma) - sum(image) != lost:
        raise CheckFailed(f"collapse of {sigma} lost {sum(sigma) - sum(image)} boxes")
    if any(row % 2 for row in P.transpose(image)):
        raise CheckFailed(f"collapse image {image} has an odd transpose row")
    if back(image) != sigma:
        raise CheckFailed(f"round trip of {sigma} broken")
    closed = CF.closed_form_fingerprint_BD(p, theory)
    if F.fingerprint(P.OperatorPair(p, (), theory)).weyl != closed:
        raise CheckFailed("closed-form fingerprint disagrees with the pipeline")
    if CF.unipotent_mu_factored(p, theory) != F.sp_map(p).mu_partition():
        raise CheckFailed("factored mu disagrees with sp_map")


ITEMS = {"pair-stream": pair_item, "collapse-roundtrip": collapse_item}


def run_suite(job: dict, store) -> dict:
    """One suite at its stretch rank; failures are counted, not raised."""
    name, rank, pinned = next(s for s in inputs.SUITES if s[0] == job["suite"])
    span = store.span(f"checks.{name}") if store else nullcontext()
    ref_ns = reference.ns_per_call(REF_FIRST_NS)
    start = time.perf_counter_ns()
    try:
        with span:
            report = CHECKS.run_suite(name, rank)
    except Exception as exc:  # a suite that raises fails all its inputs
        report, error = None, f"{name}: {type(exc).__name__}: {exc}"
    raw_ns = time.perf_counter_ns() - start
    wall_s = reference.scaled(raw_ns, ref_ns, reference.ns_per_call(REF_SHARE * raw_ns)) / 1e9
    result = {"suite": name, "wall_s": wall_s, "raw_s": raw_ns / 1e9}
    if report is None:
        return dict(result, checked=0, failed=pinned, failures=[error])
    problems = list(report.failures)
    if report.checked != pinned:
        problems.insert(0, f"{name}: checked {report.checked} inputs, pinned {pinned}")
    return dict(
        result,
        checked=report.checked,
        failed=pinned if report.checked != pinned else len(report.failures),
        failures=problems[:MAX_FAILURE_MESSAGES],
    )


def run_stream(job: dict, store) -> dict:
    """Items of one stream for a time budget or an item count.

    A budget ends only at a whole cycle of the stream's input classes.  Only
    the item itself is timed, not its generation.  Latencies are kept in a
    flat array and inputs only as a running digest, so the memory the
    benchmark adds stays small whatever the item count.
    """
    run_item = ITEMS[job["workload"]]
    stream = inputs.STREAMS[job["workload"]](job["seed"])
    if "items" in job:
        stream = itertools.islice(stream, job["items"])
    deadline = time.perf_counter() + job["budget_s"] if "budget_s" in job else None
    latencies_us = array("d")
    raw_ns = 0
    failures = []
    digest = hashlib.sha256()
    cycle = inputs.CYCLES[job["workload"]]
    ref_ns = reference.ns_per_call(REF_FIRST_NS)
    for index, item in enumerate(stream):
        if (deadline is not None and index and index % cycle == 0
                and time.perf_counter() >= deadline):
            break
        digest.update(repr(item).encode())
        if store:
            store.item = index
        start = time.perf_counter_ns()
        try:
            run_item(item)
        except Exception as exc:  # an item that raises is a failed item
            failures.append(f"{item!r}: {type(exc).__name__}: {exc}")
        took = time.perf_counter_ns() - start
        ref_after = reference.ns_per_call(REF_SHARE * took)
        latencies_us.append(reference.scaled(took, ref_ns, ref_after) / 1e3)
        raw_ns += took
        ref_ns = ref_after
    return {
        "latencies_us": latencies_us.tolist(),
        "raw_s": raw_ns / 1e9,
        "failed": len(failures),
        "failures": failures[:MAX_FAILURE_MESSAGES],
        "digest": digest.hexdigest()[:16],
    }
