"""Seeded benchmark inputs, built from multiplicity vectors.

A rigid partition has no gaps: every value 1..k occurs.  Values of the
"paired" parity (even for B/D, odd for C) need an even multiplicity, values
of the other parity may occur any number of times except exactly twice, and
B needs an odd total while C/D need an even one.  The generators below pick
multiplicities under those rules directly, so they never call the program's
enumeration.  The same seed always yields the same stream.
"""
from __future__ import annotations

import hashlib
import itertools
import random

# (suite, stretch rank, inputs it must check).  The ranks sit above the
# defaults in rigidfp.checks.DEFAULT_MAX_RANK; the counts are pinned so that
# a rewrite which drops or adds inputs fails the benchmark.
SUITES = (
    ("path-equivalence", 12, 6030),
    ("rank-identity", 12, 6030),
    ("sp-locality", 16, 17102),
    ("factorization", 16, 917),
    ("closed-form", 16, 649),
    ("collapse-bijection", 18, 213),
)

SIDES = {"B": ("B", "D"), "C": ("C", "C"), "D": ("D", "D")}

PAIR_ROWS = (20, 100)       # rows of the merged diagram of one pair
UNIPOTENT_EVERY = 5         # every fifth pair has an empty lambda''
ODD_BOXES = (30, 60)        # box count of the odd part of a collapse input
ODD_BOX_STRIDE = 7          # walks all box counts in a mixed order
FILL_TRIES = 20             # random fills tried per top
ODD_BOX_ROUNDS = 20         # walks over all box counts in one collapse stream


def rigid_partition(rng: random.Random, theory: str, rows: int) -> tuple[int, ...]:
    """A rigid partition of the theory with at least `rows` rows (values 1..k)."""
    paired = 1 if theory == "C" else 0  # parity whose values need even multiplicity
    mult: list[int] = []
    while sum(mult) < rows:
        v = len(mult) + 1
        mult.append(rng.choice((2, 4)) if v % 2 == paired else rng.choice((1, 1, 3, 4, 5)))
    if theory != "C":
        odd_rows = sum(mult[0::2])  # multiplicities of the odd values 1, 3, 5, ...
        if odd_rows % 2 != (theory == "B"):
            i = 2 * rng.randrange((len(mult) + 1) // 2)
            mult[i] = 5 if mult[i] == 4 else 4  # flips the parity, never gives 2
    return tuple(v for v in range(len(mult), 0, -1) for _ in range(mult[v - 1]))


def pair_stream(seed: int):
    """Endless stream of (theory, lambda', lambda'') rigid pairs.

    Theories rotate B, C, D; every UNIPOTENT_EVERY-th pair is unipotent.
    The merged diagram has PAIR_ROWS rows, split at random between sides.
    With tens of random multiplicities per pair, repeats are so unlikely
    that the stream keeps no record of past pairs (its memory stays flat).
    """
    rng = random.Random(f"pair-stream:{seed}")
    for i in itertools.count():
        theory = "BCD"[i % 3]
        side1, side2 = SIDES[theory]
        rows = rng.randint(*PAIR_ROWS)
        if i % UNIPOTENT_EVERY == UNIPOTENT_EVERY - 1:
            yield theory, rigid_partition(rng, side1, rows), ()
        else:
            rows1 = rng.randint(rows // 4, 3 * rows // 4)
            yield (theory, rigid_partition(rng, side1, rows1),
                   rigid_partition(rng, side2, rows - rows1))


def staircase_odd_part(rng: random.Random, total: int, round_: int, seen) -> dict[int, int] | None:
    """Multiplicities of odd values 1, 3, ..., top summing to `total` boxes.

    Starts from the staircase (each odd value once) under one of the three
    largest tops that fit, the round picking which one comes first, and
    spends the rest on bumps that keep multiplicities != 2: 1 -> 3 adds 2v
    boxes, 1 -> 4 adds 3v and m -> m + 1 adds v once m >= 3.  Returns the
    first fill not in `seen`, or None when none is found.
    """
    top = 1
    while ((top + 3) // 2) ** 2 <= total:
        top += 2
    tops = [t for t in (top, top - 2, top - 4) if t > 0]
    first = round_ % len(tops)
    for t in tops[first:] + tops[:first]:
        for _ in range(FILL_TRIES):
            mult = {v: 1 for v in range(1, t + 1, 2)}
            left = total - ((t + 1) // 2) ** 2
            while left > 0:
                moves = [(v, k) for v, m in mult.items()
                         for k in ((2, 3) if m == 1 else (1,)) if k * v <= left]
                if not moves:
                    break
                v, k = rng.choice(moves)
                mult[v] += k
                left -= k * v
            if left == 0 and tuple(sorted(mult.items())) not in seen:
                return mult
    return None


def collapse_stream(seed: int):
    """Stream of (theory, partition): rigid B/D unipotent inputs.

    The odd part of each partition is staircase-like with a box count that
    walks ODD_BOXES in a fixed mixed order; an odd count gives B, an even
    one D.  Even values fill the gaps with multiplicity 2 or 4.  Odd parts
    never repeat within one stream, and the stream ends after ODD_BOX_ROUNDS
    walks, while fresh odd parts are still cheap to find.
    """
    rng = random.Random(f"collapse-roundtrip:{seed}")
    lo, hi = ODD_BOXES
    span = hi - lo + 1
    seen = set()
    for i in range(ODD_BOX_ROUNDS * span):
        boxes = lo + (i * ODD_BOX_STRIDE) % span
        odd = staircase_odd_part(rng, boxes, i // span, seen)
        if odd is None:
            continue  # this box count has no unseen odd part left
        seen.add(tuple(sorted(odd.items())))
        top = max(odd) + rng.randrange(2)
        mult = {v: odd.get(v) or rng.choice((2, 4)) for v in range(1, top + 1)}
        theory = "B" if boxes % 2 else "D"
        yield theory, tuple(v for v in range(top, 0, -1) for _ in range(mult[v]))


STREAMS = {"pair-stream": pair_stream, "collapse-roundtrip": collapse_stream}
# Items after which each stream has covered every input class once: theory
# x unipotent for pairs, odd box count for collapse inputs.
CYCLES = {"pair-stream": 3 * UNIPOTENT_EVERY, "collapse-roundtrip": ODD_BOXES[1] - ODD_BOXES[0] + 1}


def digest(items) -> str:
    """Short sha256 of the items' reprs, in order."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]
