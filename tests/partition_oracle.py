"""The tests' oracles and their input sweeps.

Oracles, which import nothing from rigidfp:
  - partitions_of: every partition of n, to hold the package's direct
    generation of member and rigid partitions against filtering;
  - prefix_signs: the running sign of the Sp rule, which the package applies
    inside sp_map's one pass and stores nowhere;
  - sp_row: the Sp rule of one row, the tests' one statement of it, and
    sp_rows: a rule applied to every row with its neighbours and sign, so
    the tests' Sp mutants are rules sp_rows applies;
  - reference_sp: the Sp rule restated group by group, a second opinion on
    sp_map's image rows;
  - rigid_multiplicity: the multiplicity rule of rigid partitions, which
    rigid_count counts by and the large-rank tests draw by;
  - rigid_count: the number of rigid partitions of a theory and rank,
    counted from the multiplicity rule without listing them;
  - member_count: the number of member partitions of a theory and rank,
    counted the same way;
  - reference_combine: the merge of a pair's sides by one rule for every
    pair, a stable sort of (value, datum) rows or zero-padded index-wise
    sums; it names the modes and tie-breaks by rigidfp's strings;
  - c_collapse: the C-collapse of a partition of even total by the
    textbook procedure, and c_collapse_by_dominance: the same by its
    definition, the largest C-partition the partition dominates, found by
    brute force over partitions_of.  Both are defined by the dominance
    order, not by rows, so they are a second opinion on every row-rule
    oracle above (Collingwood and McGovern, Nilpotent Orbits in Semisimple
    Lie Algebras, 1993, section 6.3).

Sweeps of rigidfp's enumeration, the one home of the tests' input loops:
  - upto: (theory, x) over enum(theory, rank) for every rank to a bound;
  - member_pairs: every OperatorPair of member sides to a rank bound.

The block lemmas, read off rigidfp's output:
  - walk_is_block_union: whether the group walk over a merged pair's rows
    is the union of its walks over each decompose_blocks block, the union
    lemma the block path rests on;
  - image_producers and shared_values: the row groups that produce each
    image value of the walk, and the count of values whose producers lie in
    more than one block of a cut;
  - prime_rows: whether each row of an INTERLEAVE merge is lambda''s, read
    off its datum column, the side tags the block lemmas below split by;
  - has_mixed_block: whether a merged pair has a block of kind S or I with
    rows of both origins;
  - side_union: the multiset union of the sides' unipotent fingerprints,
    the fingerprint of every B/D pair without a mixed block;
  - block_moves and block_from_sides: the paper's per-block operators on a
    two-origin B/D block, the union of its origins' walks plus flips and
    pairings.
"""
from bisect import bisect_right
from itertools import accumulate, chain, product, takewhile, zip_longest
from operator import ge

from rigidfp.blocks import decompose_blocks
from rigidfp.closedform import _walk
from rigidfp.fingerprint import WeylPair, fingerprint
from rigidfp.partitions import (
    PAIR_SIDES,
    OperatorPair,
    Theory,
    enumerate_members,
)


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


def sp_row(prev, v, nxt, sign):
    """mu of row v between rows prev and nxt, under its prefix_signs sign: an odd
    v moves one box by the sign unless the row on that side (prev under +1,
    nxt under -1) is also v."""
    return v + sign if v % 2 and v != (prev if sign == 1 else nxt) else v


def sp_rows(values, rule=sp_row):
    """rule(prev, v, nxt, sign) of each row, with 0 beyond either end."""
    values = tuple(values)
    return tuple(rule(*row) for row in zip((0,) + values, values, values[1:] + (0,),
                                           prefix_signs(values)))


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


def member_count(theory, rank):
    """How many member partitions the theory ("B", "C" or "D") has at the rank.

    Values of the paired parity (odd in C, even in B and D) occur an even
    number of times, so each takes 2v boxes at a time; the others take v.
    """
    total = 2 * rank + (theory == "B")
    paired = theory == "C"
    ways = [1] + [0] * total  # ways[n]: values 1..v so far, n boxes
    for v in range(1, total + 1):
        step = 2 * v if v % 2 == paired else v
        for n in range(step, total + 1):
            ways[n] += ways[n - step]
    return ways[total]


def reference_combine(pair, mode, tie_break):
    """(values, mode, prime_odd) of the merged pair, as combine returns it.

    "sum" adds the sides index by index, zero-padded; a row's datum is the
    parity of lambda''s part there, None past its end.  "interleave" sorts
    the rows (value, datum) by value, descending and stable, with lambda''s
    rows first under the tie-break "prime"; lambda'''s rows have datum None.
    """
    p1, p2 = pair.lambda_prime, pair.lambda_dprime
    if mode == "sum":
        rows = list(zip_longest(p1, p2, fillvalue=0))
        return (tuple(a + b for a, b in rows), mode,
                tuple(a % 2 == 1 if a else None for a, _ in rows))
    prime, dprime = [(v, v % 2 == 1) for v in p1], [(v, None) for v in p2]
    rows = prime + dprime if tie_break == "prime" else dprime + prime
    rows.sort(key=lambda row: row[0], reverse=True)
    values, prime_odd = zip(*rows) if rows else ((), ())
    return values, mode, prime_odd


def is_c_partition(p):
    """Whether every odd value of p has even multiplicity."""
    return all(p.count(v) % 2 == 0 for v in set(p) if v % 2)


def dominates(p, q):
    """Whether every partial sum of p is at least q's, the shorter padded with 0."""
    rows = max(len(p), len(q))
    sums = [accumulate((*x, *(0,) * (rows - len(x)))) for x in (p, q)]
    return all(map(ge, *sums))


def c_collapse(p):
    """The C-collapse of p, a partition of even total, by the textbook procedure.

    While some odd value has odd multiplicity, take the largest such q,
    lower its last row by one and raise the first row below q - 1 by one
    (a 0 row past the end counts).
    """
    rows = [*p, 0]
    while True:
        odd = [v for v in set(rows) if v % 2 and rows.count(v) % 2]
        if not odd:
            return tuple(v for v in rows if v)
        q = max(odd)
        last = len(rows) - 1 - rows[::-1].index(q)
        rows[last] -= 1
        below = next(i for i in range(last + 1, len(rows)) if rows[i] < q - 1)
        rows[below] += 1


def c_collapse_by_dominance(p):
    """The largest C-partition of sum(p) that p dominates, or None if there is none.

    Brute force over partitions_of(sum(p)): keep the C-partitions p
    dominates, and return the one that dominates all the others.
    Dominance implies the lexicographic order, so only the lexicographic
    largest can.
    """
    below = [q for q in partitions_of(sum(p)) if is_c_partition(q) and dominates(p, q)]
    if not below:
        return None
    top = max(below)
    return top if all(dominates(top, q) for q in below) else None


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


def prime_rows(tagged):
    """Whether each row of an INTERLEAVE merge is lambda''s: the rows with a datum."""
    return tuple(d is not None for d in tagged.prime_odd)


def has_mixed_block(tagged):
    """Whether a block of kind S or I holds rows of both origins."""
    sides = prime_rows(tagged)
    return any(b.kind in ("S", "I") and len(set(sides[b.start:b.end])) == 2
               for b in decompose_blocks(tagged))


def side_union(pair):
    """[alpha;beta] joined over lambda' in its side theory and lambda'' in D."""
    sides = [fingerprint(OperatorPair(p, (), t)).weyl
             for p, t in zip(pair[:2], PAIR_SIDES[pair.theory])]
    return tuple(tuple(sorted(a + b, reverse=True)) for a, b in zip(*sides))


def _joined(results):
    """mu, then [alpha; beta] or the diagnostic entries, of walk results
    joined as multisets and sorted."""
    def join(parts):
        return tuple(sorted(chain.from_iterable(parts), reverse=True))

    mu = join(r.mu for r in results)
    if any(r.diagnostic for r in results):
        return mu, join(r.diagnostic.entries for r in results if r.diagnostic)
    return mu, join(r.weyl.alpha for r in results), join(r.weyl.beta for r in results)


def walk_is_block_union(tagged, theory):
    """Whether the walks of tagged's decompose_blocks blocks have disjoint
    images and their sorted union is the walk over all its rows.  Each walk
    reads condition (iii) off the datum column, as block_fingerprint does."""
    values, datum, so = tagged.values, tagged.prime_odd, theory is not Theory.C
    parts = [_walk(values[b.start:b.end], datum[b.start:b.end], so)
             for b in decompose_blocks(tagged)]
    images = [set(r.mu) for r in parts]
    return (len(set().union(*images)) == sum(map(len, images))
            and _joined(parts) == _joined([_walk(values, datum, so)]))


def image_producers(values):
    """Each image value of the group walk over values, mapped to the start
    rows of the groups that produce it.

    An even group produces its value.  An odd group v produces v + 1 by the
    gain of a box when the count above it is odd, v while rows of v remain,
    and v - 1 by the loss of a box when the count after it is odd.
    """
    producers, odd, i = {}, 0, 0
    while i < len(values):
        v = values[i]
        n = sum(1 for _ in takewhile(v.__eq__, values[i:]))
        made = [v]
        if v % 2:
            gain = odd
            odd ^= n % 2
            made = [v + 1] * gain + [v] * (n - gain - odd > 0) + [v - 1] * (odd and v > 1)
        for w in made:
            producers.setdefault(w, set()).add(i)
        i += n
    return producers


def shared_values(values, starts):
    """The number of image values of the walk over values whose producers
    lie in more than one of the blocks that begin at the rows starts."""
    return sum(len({bisect_right(starts, i) for i in rows}) > 1
               for rows in image_producers(values).values())


def block_moves(values, sides):
    """The number of flipped rows and the pairing values of a two-origin block,
    whose rows' origins are sides (prime_rows of the block).

    A row of value 2 flips when the box count above it in the block is odd
    but the count of its own origin's rows above it is even.  An odd value v
    pairs when each origin holds an odd number of rows of v, with an even
    count of its own rows above its first one.
    """
    above, own, flipped, first_even, rows = 0, {}, 0, {}, {}
    for v, o in zip(values, sides):
        mine = own.get(o, 0)
        flipped += v == 2 and above % 2 == 1 and mine % 2 == 0
        first_even.setdefault((o, v), mine % 2 == 0)
        rows[o, v] = rows.get((o, v), 0) + 1
        above += v
        own[o] = mine + v
    pairings = [v for v in sorted(set(values), reverse=True) if v % 2 and all(
        rows.get((o, v), 0) % 2 and first_even[o, v] for o in own)]
    return flipped, pairings


def block_from_sides(values, sides):
    """[alpha;beta] of a two-origin B/D block from its origins' walks.

    The multiset union of the walks of the block's lambda' rows and its
    lambda'' rows, then each of flipped / 2 flips turns an alpha part 2 into
    the beta parts 1, 1, and each pairing at v adds the alpha part v and
    removes two beta parts (v-1)/2 (none when v = 1).
    """
    flipped, pairings = block_moves(values, sides)
    p, q = (_walk(tuple(v for v, o in zip(values, sides) if o == side)).weyl
            for side in (True, False))
    alpha = [*p.alpha, *q.alpha]
    beta = [*p.beta, *q.beta]
    for _ in range(flipped // 2):
        alpha.remove(2)
        beta += [1, 1]
    for v in pairings:
        alpha.append(v)
        if v > 1:
            beta.remove((v - 1) // 2)
            beta.remove((v - 1) // 2)
    return WeylPair(tuple(sorted(alpha, reverse=True)), tuple(sorted(beta, reverse=True)))
