"""Span store for the traced run.

Each public rigidfp function named in LAYERS is replaced, in every module
namespace that looks it up by name, with a wrapper that records a span
(name, start, end, parent span, item id).  Spans stay in memory as a flat
array and are summarised and written out when the job ends.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

LAYERS = {
    "partitions": ("enumerate_rigid", "enumerate_members", "enumerate_rigid_pairs",
                   "OperatorPair", "combine"),
    "fingerprint": ("fingerprint", "sp_map", "tau_table", "extract_weyl_pair"),
    "blocks": ("decompose_blocks", "block_fingerprint"),
    "closedform": ("xs_map", "ys_map", "xs_inverse", "ys_inverse",
                   "closed_form_fingerprint_BD", "unipotent_mu_factored"),
    "cli": ("result_record",),
}

# Every namespace that binds one of the names above: the package re-exports
# them, and the modules import them from each other by name.
CALLER_MODULES = ("rigidfp", "rigidfp.partitions", "rigidfp.fingerprint", "rigidfp.blocks",
                  "rigidfp.closedform", "rigidfp.checks", "rigidfp.cli")

FIELDS = ("name", "start_ns", "end_ns", "parent", "item")
WIDTH = len(FIELDS)
INVERSES = ("closedform.xs_inverse", "closedform.ys_inverse")


class SpanStore:
    """Spans of one process, plus the counts taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rows = array("q")
        self._stack: list[int] = []
        self.item = -1
        self.rigid_args: set = set()
        self.returned: Counter = Counter()
        self.diagnostics = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        index = len(self.rows) // WIDTH
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.rows.extend((self._id(name), time.perf_counter_ns(), 0, parent, self.item))
        return index

    def close(self, index: int) -> None:
        self.rows[index * WIDTH + 2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def _observe(self, name: str, args, result) -> None:
        if name == "partitions.enumerate_rigid":
            self.rigid_args.add(tuple(args[:2]))
            self.returned[name] += len(result)
        elif name == "partitions.enumerate_members":
            self.returned[name] += len(result)
        elif name == "fingerprint.fingerprint":
            self.diagnostics += result.diagnostic is not None

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self._observe(name, args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for layer, names in LAYERS.items():
                home = sys.modules[f"rigidfp.{layer}"]
                for name in names:
                    original = getattr(home, name)
                    traced = self.wrap(f"{layer}.{name}", original)
                    for module in map(sys.modules.get, CALLER_MODULES):
                        if vars(module).get(name) is original:
                            saved.append((module, name, original))
                            setattr(module, name, traced)
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    def summary(self) -> dict:
        """Calls and self time per span name, and the counts behind the ratios."""
        rows, n = self.rows, len(self.rows) // WIDTH
        covered = [0] * n
        for i in range(n):
            parent = rows[i * WIDTH + 3]
            if parent >= 0:
                covered[parent] += rows[i * WIDTH + 2] - rows[i * WIDTH + 1]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        inverse_ids = {self._ids.get(name) for name in INVERSES}
        sp_id = self._ids.get("fingerprint.sp_map")
        inverse_sp_calls = 0
        for i in range(n):
            nid, start, end, parent, _ = rows[i * WIDTH:(i + 1) * WIDTH]
            name = self.names[nid]
            calls[name] += 1
            self_ns[name] += end - start - covered[i]
            if nid == sp_id and parent >= 0 and rows[parent * WIDTH] in inverse_ids:
                inverse_sp_calls += 1
        return {
            "calls": dict(calls),
            "self_s": {name: ns / 1e9 for name, ns in self_ns.items()},
            "inverse_sp_calls": inverse_sp_calls,
            "rigid_distinct_args": len(self.rigid_args),
            "returned": dict(self.returned),
            "diagnostics": self.diagnostics,
        }

    def write(self, path: str) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": FIELDS, "names": self.names}) + "\n")
            rows = self.rows
            for i in range(0, len(rows), WIDTH):
                fh.write(json.dumps(rows[i:i + WIDTH].tolist()) + "\n")
