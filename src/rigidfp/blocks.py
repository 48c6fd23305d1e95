"""Block decomposition of the merged partition and the per-block path.

Blocks are contiguous row segments cut wherever the cumulative box count is
even and the row value changes, so every block starts at an even count and
stands alone as a unipotent partition.  decompose_blocks is the one place
that cuts them, and classifies them for reporting; only its tp must come
from combine in INTERLEAVE mode.  The block path is the closed-form group
walk of closedform over all the rows, in either mode, which is the union of
the walks of these blocks (the lemma in closedform._walk's docstring).
closedform.side_fingerprint walks the same rows read off the pair's two
sides, with no merge, and the unipotent closed forms are its lambda'' = ()
case.  The block path must reproduce the direct pipeline's image and
outcome, which is the module's correctness contract, and shares no code
with the pipeline's Sp, tau and extraction stages.
"""
from typing import NamedTuple

from .closedform import BlockResult, _walk  # re-exported: block_fingerprint returns it
from .partitions import INTERLEAVE, TaggedPartition, _as_theory


class Block(NamedTuple):
    """A contiguous row segment [start, end) of the tagged partition.

    A named tuple, so it compares equal to the plain tuple
    (start, end, kind, operator_label).
    """

    start: int
    end: int
    kind: str  # "I" | "II" | "III" | "S"
    operator_label: str | None


def decompose_blocks(tp: TaggedPartition) -> list[Block]:
    """Cut the tagged partition into blocks and classify each one.

    One pass over the value groups, the steps of closedform._groups, with no
    slice of the rows: a group end where the box count is even closes a
    block, and so does the last row.  tp must come from combine in
    INTERLEAVE mode, whose merge keeps each origin's rows of one value
    together, so a group is the run of its first origin's rows and
    then the other origin's.  A row is lambda''s when it has a datum in
    tp.prime_odd, and within a group the lambda' rows share one datum, so a
    run is a stretch of equal data.  The kind follows from the last group
    of the block:
    - an odd count (kind I) can close only the last block of a B pair;
    - a block of more than one group is S: its last group turns an odd
      count even, so it holds an odd number of rows;
    - a block of one group is II when one origin holds its rows, III when
      each origin holds an even number of them, and S otherwise.
    The operator label names which pattern the block realizes and is
    attached for reporting only: block_fingerprint reads no label.
    """
    if tp.mode != INTERLEAVE:
        raise ValueError("block decomposition requires INTERLEAVE mode")
    values, datum = tp.values, tp.prime_odd
    blocks = []
    odd = prime_boxes = start = i = 0  # prime_boxes: parity of the block's lambda' boxes
    end = len(values)
    while i < end:
        v, d = values[i], datum[i]
        j = i + 1
        while j < end and values[j] == v and datum[j] == d:
            j += 1
        first = j - i
        while j < end and values[j] == v:
            j += 1
        n = j - i
        if v % 2:
            odd ^= n % 2
            prime_boxes ^= (first if d is not None else n - first) % 2
        i = j
        if odd and i < end:
            continue
        if odd:
            # The unpaired leading row of the pair lives here.  Rows come
            # from two origins, so an odd total has exactly one odd origin:
            # lambda' when prime_boxes.  "2" when the block's first row is
            # that origin's.
            kind = "I"
            label = f"mu_{'eo'[prime_boxes]}{'12'[(datum[start] is not None) == prime_boxes]}"
        elif first % 2 or n % 2:
            kind, label = "S", None
        elif first == n:
            kind, label = "II", "mu_II"
        else:
            # The inserted origin has fewer rows (on a tie, the one without
            # a datum, lambda''); its rows come last ("12") or first ("21").
            inserted_last = (n - first, datum[i - 1] is not None) < (first, d is not None)
            kind = "III"
            label = f"mu_{'eo'[v % 2]}{'12' if inserted_last else '21'}"
        blocks.append(Block(start, i, kind, label))
        prime_boxes, start = 0, i
    return blocks


def block_fingerprint(tp: TaggedPartition, theory) -> BlockResult:
    """Second computation path: a closed form per block, and their union.

    One group walk over all the rows (closedform._walk), which is the union
    of the walks of the decompose_blocks blocks, by the lemma its docstring
    states.  tp may come from combine in either mode.  The closed forms fix
    all three conditions and the theory's default iii variant: the walk
    reads condition (iii) off tp.prime_odd, under SO in B and D and under
    Sp in C.
    """
    return _walk(tp.values, tp.prime_odd, not _as_theory(theory).paired)

