"""Closed forms for unipotent operators: parity split, collapse maps, group formulas.

Every closed form runs on one engine, the group walk's pass (_groups), which
has two readers.  The collapse maps on the all-odd subpartition, their
inverses' confirming forward map and the factored mu read it through
_collapse, which builds only the image.  The fingerprint formulas read it
through _walk, which builds the image and [alpha; beta] as a BlockResult.
side_fingerprint is the one default-options walk of a pair's two sides, and
the unipotent closed forms are its lambda'' = () case, so no closed form
reads combine.  From fingerprint the module imports only record types,
never a pipeline stage, so the closed forms are a second route,
independent of the pipeline, that must agree with it.  The walk also serves
the block path (blocks.block_fingerprint).  It cuts no blocks: its
docstring states why it is the union of the walks of the blocks that
blocks.decompose_blocks cuts.
"""
from itertools import repeat
from operator import ge, mod
from typing import NamedTuple

from .fingerprint import ExtractionDiagnostic, WeylPair
from .partitions import (
    Theory,
    _as_theory,
    is_theory_member,
    validate_partition,
)


class ParitySplit(NamedTuple):
    """The parts of a partition split by value parity, order preserved.

    A named tuple, so it compares equal to the plain tuple (odd_part, even_part).
    """

    odd_part: tuple[int, ...]
    even_part: tuple[int, ...]


def split_parity(p) -> ParitySplit:
    return _split(validate_partition(p))


def _split(p: tuple[int, ...]) -> ParitySplit:
    """split_parity of a partition already validated."""
    odd, even = [], []
    for v in p:
        (odd if v % 2 else even).append(v)
    return ParitySplit(tuple(odd), tuple(even))


_COLLAPSE_NAMES = ("ys_map", "xs_map")  # indexed by the number of boxes lost


def _require_all_odd(sigma, lost: int) -> tuple[int, ...]:
    """sigma validated as the input of the collapse map losing `lost` boxes."""
    name = _COLLAPSE_NAMES[lost]
    sigma = validate_partition(sigma)
    if not all(map(mod, sigma, repeat(2))):
        raise ValueError(f"{name} requires all-odd parts, got {sigma}")
    if sum(sigma) % 2 != lost:
        kind = "odd" if lost else "even"
        raise ValueError(f"{name} requires {kind} total, got {sum(sigma)}")
    return sigma


def _collapse(sigma: tuple[int, ...]) -> tuple[int, ...]:
    """The image of an all-odd partition, unchecked: the collapse maps' core.

    It reads the walk's group pass (_groups) and builds only the image,
    with no [alpha; beta] and no record.  sigma must be valid with all-odd
    parts; its total's parity is the number of boxes the map loses.
    """
    mu = []
    for v, c in _groups(sigma)[0].items():
        mu += [v] * c
    return tuple(mu)


def _expand(p, lost: int) -> tuple[int, ...]:
    """The all-odd preimage of p under _collapse(., lost), in one pass over p.

    The Sp rule keeps the row order and changes an odd row only at its
    group boundary: a first row gains a box when the box count above it is
    odd, a last row loses one when that count is even.  So an even image
    row w came from w - 1 or w + 1 as the preimage count above it is odd or
    even, odd rows are unchanged, and a final 1 deleted by xs_map is the
    one box left over.  The candidate is confirmed by one forward map.
    """
    p = validate_partition(p)
    target = sum(p) + lost
    sigma: list[int] = []
    run = 0
    for w in p:
        v = w if w % 2 else (w - 1 if run % 2 else w + 1)
        sigma.append(v)
        run += v
    if target - run == 1:
        sigma.append(1)
    candidate = tuple(sigma)
    if (
        sum(candidate) != target
        or not all(map(ge, candidate, candidate[1:]))
        or _collapse(candidate) != p
    ):
        raise ValueError(f"{p} is not in the image of {_COLLAPSE_NAMES[lost]}")
    return candidate


def xs_map(sigma) -> tuple[int, ...]:
    """Collapse an all-odd partition of odd total; loses exactly one box.

    The image is C-type.  On the odd part of a rigid B partition (every odd
    value up to the largest present, none exactly twice) its transpose rows
    are also all even; off that domain one may be odd: (3,) -> (2,).
    """
    return _collapse(_require_all_odd(sigma, 1))


def ys_map(sigma) -> tuple[int, ...]:
    """Collapse an all-odd partition of even total; box count is preserved.

    On the odd part of a rigid D partition (every odd value up to the
    largest present, none exactly twice) the image has all-even transpose
    rows and is D-type.  Off that domain neither need hold: (5, 1) -> (4, 2).
    """
    return _collapse(_require_all_odd(sigma, 0))


def xs_inverse(p) -> tuple[int, ...]:
    """Expansion inverting xs_map: linear-time, confirmed by one forward map."""
    return _expand(p, 1)


def ys_inverse(p) -> tuple[int, ...]:
    """Expansion inverting ys_map: linear-time, confirmed by one forward map."""
    return _expand(p, 0)


def _require_member(p: tuple[int, ...], theory: Theory) -> None:
    """The closed forms' gate: a validated p must be a member of theory."""
    if not is_theory_member(p, theory):
        raise ValueError(f"{p} is not a {theory.value}-type partition")


def unipotent_mu_factored(p, theory) -> tuple[int, ...]:
    """mu of a unipotent operator via the collapse of its odd parts.

    B: xs_map(odd parts) joined with the even parts; D: ys_map likewise.
    In C the result is the partition itself: every odd value of a C member
    has even multiplicity, so the walk moves none of its rows (_groups).  A
    member's odd parts are a valid all-odd partition whose total has the
    member's parity, so they are collapsed without a second check.
    """
    theory = _as_theory(theory)
    p = validate_partition(p)
    _require_member(p, theory)
    odd_part, even_part = _split(p)
    return tuple(sorted(_collapse(odd_part) + even_part, reverse=True))


class BlockResult(NamedTuple):
    """What the group walk produces: the image mu as a partition, and
    [alpha; beta] or the extraction diagnostic.

    A named tuple like the pipeline's records, so it compares equal to the
    plain tuple (mu, weyl, diagnostic).
    """

    mu: tuple[int, ...]
    weyl: WeylPair | None
    diagnostic: ExtractionDiagnostic | None


def _groups(values, datum=None, so=False) -> tuple[dict[int, int], set[int]]:
    """The group walk's pass: the image's multiplicities and its tau = -1 values.

    The walk takes one step per group of n rows of the value v, over the
    descending rows.  An odd group gains a box at its first row when the box
    count above it is odd, and loses its last box when the count through it
    is odd (a lost 1 is a deleted row).  That parity is also the open
    deficit, so the changed even values (condition (i)) and the even groups
    inside a deficit (condition (ii)) are the tau = -1 values.  An odd group
    flips the parity by n mod 2 and an even group leaves it alone.

    Condition (iii) reads datum, a TaggedPartition.prime_odd column: an
    even group's rows are unchanged, so its value also has tau = -1 when
    so is in the group's data, an odd lambda'-datum under the SO variant
    (so True: B/D) or an even one under Sp (so False: C).  Without datum (a
    B/D member's rows, or the vacuous variant) (iii) adds nothing.  In a C
    member or an INTERLEAVE C merge every odd value has even multiplicity,
    so the parity stays even, nothing moves, and (iii) alone makes
    tau = -1.

    The multiplicities come keyed by value, largest first; a value may
    appear with multiplicity 0.  Two readers share the pass: _walk and the
    collapse maps' _collapse.
    """
    counts, tau_neg = {}, set()
    odd = i = 0  # odd: parity of the box count above the group
    end = len(values)
    while i < end:
        v = values[i]
        j = i + 1
        while j < end and values[j] == v:
            j += 1
        n = j - i
        if v % 2 == 0:
            counts[v] = counts.get(v, 0) + n
            if odd or datum and so in datum[i:j]:
                tau_neg.add(v)
        else:
            gain = odd
            odd ^= n % 2
            if gain:
                counts[v + 1] = counts.get(v + 1, 0) + 1
                tau_neg.add(v + 1)
            counts[v] = n - gain - odd
            if odd and v > 1:
                counts[v - 1] = 1
                tau_neg.add(v - 1)
        i = j
    return counts, tau_neg


def _walk(values, datum=None, so=False) -> BlockResult:
    """The BlockResult of a B/D or C member's rows, or of a merged pair's.

    It reads the group pass (_groups, which states the walk's rules): a
    tau = -1 value feeds beta with each of its rows, every other value
    feeds alpha with its pairs; an unpaired one makes the outcome an
    ExtractionDiagnostic and weyl None.

    The walk cuts nothing, yet it is the union of the walks of the blocks
    that blocks.decompose_blocks cuts: each block starts at an even count,
    as the walk does, and every producer of an image value lies in one block.
    - An odd value has only its own group.  An even value w has at most
      three producers: the loss at w + 1, its own group, the gain at w - 1.
    - The loss leaves the count odd, an even group keeps its parity and the
      gain needs an odd count above it: the count stays odd from the first
      producer to the last.
    - A block closes only at an even count.
    """
    counts, tau_neg = _groups(values, datum, so)
    mu, alpha, beta, bad = [], [], [], []
    for v, c in counts.items():
        mu += [v] * c
        if v in tau_neg:
            beta += [v // 2] * c
        elif c % 2:
            bad.append((v, c))
        else:
            alpha += [v] * (c // 2)
    if bad:
        return tuple.__new__(BlockResult, (
            tuple(mu), None, tuple.__new__(ExtractionDiagnostic, (tuple(bad),))))
    return tuple.__new__(BlockResult, (
        tuple(mu), tuple.__new__(WeylPair, (tuple(alpha), tuple(beta))), None))


def side_fingerprint(prime, dprime, theory: Theory) -> BlockResult:
    """The walk of a pair's two sides under the default options, with no merge.

    Under either tie-break the INTERLEAVE merge's rows are
    sorted(lambda' + lambda''), and the walk reads the datum on even groups
    only, where a lambda' row's datum is even.  So in B and D (SO) the
    datum never fires (iii) and none is passed, and in C (Sp) (iii) fires
    on exactly the even values lambda' holds: the column is False on the
    rows whose value lambda' holds.  The result therefore equals
    block_fingerprint(combine(pair, tie_break=t), theory) for both t.  The
    sides are taken as valid, theory as a Theory; at dprime = () this is
    the walk of the unipotent operator (prime; -).
    """
    values = sorted(prime + dprime, reverse=True)
    if not theory.paired:
        return _walk(values)
    held = set(prime)
    return _walk(values, [v not in held for v in values])


def closed_form_fingerprint_C(p) -> WeylPair:
    """Fingerprint of a C unipotent operator (p; -): the side walk of (p; ()).

    Under the Sp variant of (iii) the walk moves no row of a member and
    every even value has tau = -1, as lambda' = p holds it: beta halves
    each even row, alpha takes each odd value with half its multiplicity,
    and the result is never a diagnostic.
    """
    p = validate_partition(p)
    _require_member(p, Theory.C)
    return side_fingerprint(p, (), Theory.C).weyl


def closed_form_fingerprint_BD(p, theory) -> WeylPair:
    """Fingerprint of a B/D unipotent operator (p; -): the side walk of (p; ()).

    Never runs the index-wise pipeline; serves as its independent oracle on
    every B/D member partition, rigid or not, as closed_form_fingerprint_C
    is on every C member.  Under SO, (iii) adds nothing.  The Sp image of a
    member pairs every value outside beta, so the result is never a
    diagnostic.
    """
    theory = _as_theory(theory)
    p = validate_partition(p)
    if theory.paired:
        raise ValueError("closed_form_fingerprint_BD covers B and D only")
    _require_member(p, theory)
    return side_fingerprint(p, (), theory).weyl
