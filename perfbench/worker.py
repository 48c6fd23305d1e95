"""One benchmark job in a fresh interpreter.

    python3 perfbench/worker.py '<job as JSON>'

Times the import of rigidfp, rigidfp.checks and rigidfp.cli from the
checkout's src/ before anything else is loaded (between two samples of the
reference kernel), runs the job (traced if the job asks), and prints one
JSON line with the results, the set-up time and the peak resident set size
of this process.
"""
import os
import sys
import time

import reference

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SETUP_REF_NS = 20e6  # kernel time sampled on each side of the import

_before = reference.ns_per_call(SETUP_REF_NS)
_start = time.perf_counter_ns()
sys.path.insert(0, SRC)
import rigidfp  # noqa: E402
import rigidfp.checks  # noqa: E402,F401
import rigidfp.cli  # noqa: E402,F401
SETUP_NS = time.perf_counter_ns() - _start
_after = reference.ns_per_call(SETUP_REF_NS)

import json  # noqa: E402
import resource  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    if not rigidfp.__file__.startswith(SRC + os.sep):
        print(f"error: imported rigidfp from {rigidfp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    job = json.loads(sys.argv[1])
    store = spans.SpanStore() if job.get("spans_out") else None
    run = workloads.run_suite if "suite" in job else workloads.run_stream
    with store.installed() if store else nullcontext():
        result = run(job, store)
    result["setup_s"] = reference.scaled(SETUP_NS, _before, _after) / 1e9
    result["setup_raw_s"] = SETUP_NS / 1e9
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if store:
        result["layers"] = store.summary()
        store.write(job["spans_out"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
