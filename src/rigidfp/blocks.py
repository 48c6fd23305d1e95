"""Block decomposition of the merged partition and the per-block pipeline.

Blocks are contiguous row segments cut wherever the cumulative box count is
even and the row value changes, so every block starts at an even count and
stands alone.  Running the Sp map on each block and joining the results end
to end must reproduce the direct pipeline; that equivalence is the module's
correctness contract.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .fingerprint import (
    FingerprintOptions,
    FingerprintResult,
    SpTrace,
    finish_fingerprint,
    sp_map,
)
from .partitions import DPRIME, INTERLEAVE, PRIME, TaggedPartition, Theory

OPERATOR_LABELS = frozenset({
    "mu_e11", "mu_e12", "mu_e21", "mu_e22",
    "mu_o11", "mu_o12", "mu_o21", "mu_o22",
    "mu_e1", "mu_e2", "mu_o1", "mu_o2", "mu_II",
})


@dataclass(frozen=True)
class Block:
    """A contiguous row segment [start, end) of the tagged partition."""

    start: int
    end: int
    kind: str  # "I" | "II" | "III" | "S"
    operator_label: str | None


def _classify(values, origins):
    """Kind and reporting label for one block.

    Kinds follow the box-count and pairing structure; the operator label is
    a best-effort classification of which named pattern the block realizes
    and is attached for reporting only.
    """
    rows = Counter(zip(origins, values))
    sums = {}
    for (o, v), n in rows.items():
        sums[o] = sums.get(o, 0) + v * n
    if sum(values) % 2:
        # The unpaired leading row of the pair lives here (B theory only).
        # Rows come from two origins, so an odd total has exactly one odd one.
        odd_origin = next(o for o, s in sums.items() if s % 2)
        letter = "o" if odd_origin == PRIME else "e"
        position = "2" if origins[0] == odd_origin else "1"
        return "I", f"mu_{letter}{position}"
    if any(n % 2 for n in rows.values()):
        return "S", None
    if len(sums) == 1:
        return "II", "mu_II"
    # Inserted rows: the origin that does not own both boundary rows.
    if origins[0] == origins[-1]:
        inserted = DPRIME if origins[0] == PRIME else PRIME
    else:
        inserted = min(sums, key=lambda o: (sums[o], o))
    parities = {v % 2 for o, v in rows if o == inserted}
    if len(parities) > 1:
        return "III", None
    letter = "o" if parities.pop() else "e"
    upper = "1" if origins[0] != inserted else "2"
    lower = "1" if origins[-1] != inserted else "2"
    return "III", f"mu_{letter}{upper}{lower}"


def _bounds(tp: TaggedPartition) -> list[tuple[int, int]]:
    """(start, end) of each block (INTERLEAVE mode only).

    Cut points are exactly the row boundaries where the cumulative box
    count is even and the adjacent values differ.
    """
    if tp.mode != INTERLEAVE:
        raise ValueError("block decomposition requires INTERLEAVE mode")
    values = tp.values
    if not values:
        return []
    cuts = [0]
    cum = 0
    for j in range(len(values) - 1):
        cum += values[j]
        if cum % 2 == 0 and values[j] != values[j + 1]:
            cuts.append(j + 1)
    cuts.append(len(values))
    return list(zip(cuts, cuts[1:]))


def decompose_blocks(tp: TaggedPartition) -> list[Block]:
    """Cut the tagged partition into blocks and classify each one."""
    return [
        Block(start, end, *_classify(tp.values[start:end], tp.origins[start:end]))
        for start, end in _bounds(tp)
    ]


def block_fingerprint(tp: TaggedPartition, theory,
                      opts: FingerprintOptions | None = None) -> FingerprintResult:
    """Second computation path: per-block Sp fragments, then the shared back half.

    Must equal the direct pipeline on the same tagged partition.
    """
    theory = Theory(theory)
    opts = opts or FingerprintOptions()
    mu: list[int] = []
    for start, end in _bounds(tp):
        mu.extend(sp_map(tp.values[start:end]).mu_values)
    return finish_fingerprint(SpTrace(tp.values, tuple(mu)), tp, theory, opts)
