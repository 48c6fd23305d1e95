"""The tests' oracles and their input sweeps.

Oracles, which import nothing from rigidfp:
  - partitions_of: every partition of n, to hold the package's direct
    generation of member and rigid partitions against filtering;
  - prefix_signs: the running sign of the Sp rule, which the package applies
    inside sp_map's one pass and stores nowhere; the tests' row-by-row
    restatements of the rule read it here;
  - reference_sp: the Sp rule restated group by group, a second opinion on
    sp_map's image rows;
  - rigid_multiplicity: the multiplicity rule of rigid partitions, which
    rigid_count counts by and the large-rank tests draw by;
  - rigid_count: the number of rigid partitions of a theory and rank,
    counted from the multiplicity rule without listing them.

Sweeps of rigidfp's enumeration, the one home of the tests' input loops:
  - upto: (theory, x) over enum(theory, rank) for every rank to a bound;
  - member_pairs: every OperatorPair of member sides to a rank bound.
"""
from itertools import product

from rigidfp.partitions import PAIR_SIDES, OperatorPair, Theory, enumerate_members


def partitions_of(n, max_part=None):
    """All partitions of n with parts bounded by max_part, descending parts."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def prefix_signs(values):
    """Sign +1/-1 per row: the parity of the box count through that row."""
    signs = []
    run = 0
    for v in values:
        run = (run + v) % 2
        signs.append(1 if run == 0 else -1)
    return tuple(signs)


def reference_sp(values):
    """Group-level restatement of the Sp rule, used as a second opinion.

    Walks value groups top down: an odd group gains a box at its first row
    when the box count above is odd, and drops its last box when the count
    through the group is odd.
    """
    mu = list(values)
    above = 0
    i = 0
    n = len(values)
    while i < n:
        j = i
        while j < n and values[j] == values[i]:
            j += 1
        v, size = values[i], j - i
        if v % 2 == 1:
            if above % 2 == 1:
                mu[i] = v + 1
            if (above + size * v) % 2 == 1:
                mu[j - 1] = v - 1
        above += size * v
        i = j
    return tuple(mu)


def rigid_multiplicity(v, m, paired):
    """Whether value v may occur m >= 1 times in a rigid partition.

    Values of the paired parity (odd in C, even in B and D) occur an even
    number of times; the others any number of times except exactly twice.
    """
    return m % 2 == 0 if v % 2 == paired else m != 2


def rigid_count(theory, rank):
    """How many rigid partitions the theory ("B", "C" or "D") has at the rank.

    A rigid partition holds every value 1..k, each as often as
    rigid_multiplicity allows.  The empty partition is rigid, and so is D's
    (1, 1), the zero orbit of D_1.
    """
    total = 2 * rank + (theory == "B")
    paired = theory == "C"
    ways = [1] + [0] * total  # ways[n]: values exactly 1..v, n boxes
    count = ways[total]
    for v in range(1, total + 1):
        mults = [m for m in range(1, total // v + 1) if rigid_multiplicity(v, m, paired)]
        ways = [sum(ways[n - v * m] for m in mults if v * m <= n) for n in range(total + 1)]
        count += ways[total]
    return count + (theory == "D" and rank == 1)


def upto(enum, max_rank, theories=tuple(Theory)):
    """(theory, x) for each x of enum(theory, rank), theory-major, rank ascending."""
    for theory in theories:
        for rank in range(max_rank + 1):
            for x in enum(theory, rank):
                yield theory, x


def _member_pairs_at(theory, rank):
    side1, side2 = PAIR_SIDES[theory]
    for n2 in range(rank + 1):
        for p1, p2 in product(enumerate_members(side1, rank - n2), enumerate_members(side2, n2)):
            yield OperatorPair(p1, p2, theory)


def member_pairs(max_rank, theories=tuple(Theory)):
    """Every OperatorPair of member sides in upto's order, lambda'' rank ascending."""
    return (pair for _, pair in upto(_member_pairs_at, max_rank, theories))
