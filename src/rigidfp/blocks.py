"""Block decomposition of the merged partition and the per-block pipeline.

Blocks are contiguous row segments cut wherever the cumulative box count is
even and the row value changes.  Evaluating the Sp rule per block (seeded
with the entry parity) and concatenating must reproduce the direct pipeline;
that equivalence is the module's correctness contract.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .fingerprint import (
    FingerprintOptions,
    FingerprintResult,
    SpTrace,
    _pack_trace,
    _sp_core,
    finish_fingerprint,
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
    entry_parity: int  # parity of the box count above the block


def _parity_letter(values) -> str | None:
    parities = {v % 2 for v in values}
    if parities == {0}:
        return "e"
    if parities == {1}:
        return "o"
    return None


def _classify(values, origins):
    """Kind and reporting label for one block.

    Kinds follow the box-count and pairing structure; the operator label is
    a best-effort classification of which named pattern the block realizes
    and is attached for reporting only.
    """
    boxes = sum(values)
    per_origin: dict[str, list[int]] = {}
    for v, o in zip(values, origins):
        per_origin.setdefault(o, []).append(v)
    if boxes % 2 == 1:
        # The unpaired leading row of the pair lives here (B theory only).
        odd_origin = None
        for o, vals in per_origin.items():
            if sum(vals) % 2 == 1:
                odd_origin = o
        label = None
        if odd_origin is not None:
            letter = "o" if odd_origin == PRIME else "e"
            position = "2" if origins[0] == odd_origin else "1"
            label = f"mu_{letter}{position}"
        return "I", label
    if len(per_origin) == 1:
        paired = all(n % 2 == 0 for n in Counter(values).values())
        return ("II", "mu_II") if paired else ("S", None)
    paired = all(
        all(n % 2 == 0 for n in Counter(vals).values())
        for vals in per_origin.values()
    )
    if not paired:
        return "S", None
    # Inserted rows: the origin that does not own both boundary rows.
    if origins[0] == origins[-1]:
        inserted = DPRIME if origins[0] == PRIME else PRIME
    else:
        inserted = min(per_origin, key=lambda o: (sum(per_origin[o]), o))
    letter = _parity_letter(per_origin[inserted])
    if letter is None:
        return "III", None
    upper = "1" if origins[0] != inserted else "2"
    lower = "1" if origins[-1] != inserted else "2"
    return "III", f"mu_{letter}{upper}{lower}"


def decompose_blocks(tp: TaggedPartition, theory) -> list[Block]:
    """Cut the tagged partition into blocks (INTERLEAVE mode only).

    Cut points are exactly the row boundaries where the cumulative box
    count is even and the adjacent values differ.
    """
    Theory(theory)
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
    blocks = []
    cum = 0
    for start, end in zip(cuts, cuts[1:]):
        kind, label = _classify(values[start:end], tp.origins[start:end])
        blocks.append(Block(start, end, kind, label, cum % 2))
        cum = (cum + sum(values[start:end])) % 2
    return blocks


def block_sp(block: Block, tp: TaggedPartition) -> SpTrace:
    """Sp evaluated on the block's rows in isolation, seeded by entry parity."""
    values = tp.values[block.start:block.end]
    return _pack_trace(values, *_sp_core(values, seed_parity=block.entry_parity))


def block_fingerprint(tp: TaggedPartition, theory,
                      opts: FingerprintOptions | None = None) -> FingerprintResult:
    """Second computation path: per-block Sp fragments, then the shared back half.

    Must equal the direct pipeline on the same tagged partition.
    """
    theory = Theory(theory)
    opts = opts or FingerprintOptions()
    blocks = decompose_blocks(tp, theory)
    mu: list[int] = []
    signs: list[int] = []
    for b in blocks:
        frag = block_sp(b, tp)
        mu.extend(frag.mu_values)
        signs.extend(frag.signs)
    trace = _pack_trace(tp.values, mu, signs)
    return finish_fingerprint(trace, tp, theory, opts, blocks=tuple(blocks))
