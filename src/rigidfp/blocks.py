"""Block decomposition of the merged partition and the per-block path.

Blocks are contiguous row segments cut wherever the cumulative box count is
even and the row value changes, so every block starts at an even count and
stands alone as a unipotent partition.  The block path is the closed-form
group walk of closedform, which finds these blocks itself, reads each
block's image and [alpha; beta], joins them and counts the image values two
blocks share.  It must reproduce the direct pipeline's image and outcome
with no shared value, which is the module's correctness contract, and
shares no code with the pipeline's Sp, tau and extraction stages.  _bounds
cuts the same blocks for reporting (decompose_blocks).
"""
from __future__ import annotations

from typing import NamedTuple

from .closedform import _walk
from .fingerprint import ExtractionDiagnostic, WeylPair
from .partitions import DPRIME, INTERLEAVE, PRIME, TaggedPartition, Theory

# Reporting only: block_fingerprint picks its closed form by theory alone.
OPERATOR_LABELS = frozenset({
    "mu_e12", "mu_e21", "mu_o12", "mu_o21",
    "mu_e1", "mu_e2", "mu_o1", "mu_o2", "mu_II",
})


class Block(NamedTuple):
    """A contiguous row segment [start, end) of the tagged partition.

    A named tuple, so it compares equal to the plain tuple
    (start, end, kind, operator_label).
    """

    start: int
    end: int
    kind: str  # "I" | "II" | "III" | "S"
    operator_label: str | None


def _classify(values, origins):
    """Kind and reporting label for one block of combine output.

    Three facts about such blocks carry the classification:
    - only the last block of a B pair has an odd total (kind I), since every
      cut falls at an even box count;
    - a paired block, where each origin has an even number of rows of each
      value, is one value group, since the cut after that group fires;
    - the stable merge keeps each origin's rows of one value together.
    The operator label names which pattern the block realizes and is
    attached for reporting only.
    """
    if sum(values) % 2:
        # The unpaired leading row of the pair lives here.  Rows come from
        # two origins, so an odd total has exactly one odd origin.
        prime_odd = sum(v for v, o in zip(values, origins) if o == PRIME) % 2
        odd_origin = PRIME if prime_odd else DPRIME
        return "I", f"mu_{'eo'[prime_odd]}{'2' if origins[0] == odd_origin else '1'}"
    n, first = len(values), origins.count(origins[0])
    if values[0] != values[-1] or first % 2 or n % 2:
        return "S", None
    if first == n:
        return "II", "mu_II"
    # The inserted origin has fewer rows (on a tie, dprime); its rows come
    # last ("12") or first ("21").
    inserted_last = (n - first, origins[-1]) < (first, origins[0])
    return "III", f"mu_{'eo'[values[0] % 2]}{'12' if inserted_last else '21'}"


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
    """Cut the tagged partition into blocks and classify each one.

    tp must come from combine in INTERLEAVE mode: the classifier relies on
    its stable merge (each origin's rows of one value are adjacent).
    """
    return [
        Block(start, end, *_classify(tp.values[start:end], tp.origins[start:end]))
        for start, end in _bounds(tp)
    ]


class BlockResult(NamedTuple):
    """What the block path produces: the image mu as a partition, [alpha; beta]
    or the extraction diagnostic, and the number of image values that more
    than one block produces (0 when the blocks' union is valid).

    A named tuple like the pipeline's records, so it compares equal to the
    plain tuple (mu, weyl, diagnostic, shared_values).
    """

    mu: tuple[int, ...]
    weyl: WeylPair | None
    diagnostic: ExtractionDiagnostic | None
    shared_values: int


def block_fingerprint(tp: TaggedPartition, theory) -> BlockResult:
    """Second computation path: a closed form per block, and their union.

    One group walk over the rows (closedform._walk) closes a block at each
    even box count, where the closed forms start, and reads every block's
    image into one table; tp must come from combine in INTERLEAVE mode.  The
    closed forms fix all three conditions and the theory's default iii
    variant: C passes the origins, which are condition (iii) under the Sp
    variant; B and D pass none.
    """
    if tp.mode != INTERLEAVE:
        raise ValueError("block decomposition requires INTERLEAVE mode")
    if type(theory) is not Theory:
        theory = Theory(theory)
    origins = tp.origins if theory is Theory.C else None
    return BlockResult(*_walk(tp.values, origins))
