"""ASCII Young diagrams; lambda''-origin rows are drawn with '*'."""
from __future__ import annotations

from .partitions import DPRIME, TaggedPartition


def render_tagged(tp: TaggedPartition) -> str:
    lines = []
    for i, v in enumerate(tp.values):
        ch = "*" if tp.origins is not None and tp.origins[i] == DPRIME else "#"
        lines.append(ch * v)
    return "\n".join(lines)
