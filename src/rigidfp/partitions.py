"""Partitions of the B/C/D classical series: membership, rigidity, enumeration.

A partition is represented as a tuple of weakly decreasing positive ints
(the row lengths of its Young diagram).  The empty partition is ().
"""
import re
from bisect import bisect_left
from collections import Counter
from enum import Enum
from itertools import product
from operator import add
from typing import NamedTuple


class Theory(str, Enum):
    B = "B"
    C = "C"
    D = "D"

    def __init__(self, letter: str):
        # Plain attributes, not properties: membership and rank tests read
        # them on every call.  theta is the box-count offset over twice the
        # rank; paired is the parity of the values that need even
        # multiplicity, so it is 1 only in C.  On Python 3.11 a class
        # lookup such as Theory.C goes through EnumType.__getattr__, several
        # times the cost of reading a member's attribute, so tests made once
        # per input read paired or theta.
        self.theta = int(letter == "B")
        self.paired = int(letter == "C")


INTERLEAVE = "interleave"
COMPONENTWISE = "sum"
MODES = (INTERLEAVE, COMPONENTWISE)

PRIME_FIRST = "prime"
DPRIME_FIRST = "dprime"
TIE_BREAKS = (PRIME_FIRST, DPRIME_FIRST)

# parse_partition rejects larger diagrams before building their part list.
MAX_BOXES = 10_000

# Which theories the two sides of an operator pair live in.
PAIR_SIDES = {
    Theory.B: (Theory.B, Theory.D),
    Theory.C: (Theory.C, Theory.C),
    Theory.D: (Theory.D, Theory.D),
}


def _as_theory(theory) -> Theory:
    """theory as a Theory: a Theory passes through, a letter is looked up.

    An unknown letter raises ValueError.
    """
    return theory if type(theory) is Theory else Theory(theory)


def validate_partition(parts) -> tuple[int, ...]:
    """Return parts as a tuple, checking positivity and weak decrease.

    Each part must be an int; floats, strings and bools are rejected rather
    than converted, so 3.9 is never read as 3.  A valid partition is
    accepted in C-level passes; the row loop runs only to name the first
    offending part of a rejected one.
    """
    out = tuple(parts)
    # A descending tuple sorts as one run, faster than comparing neighbours.
    if not (set(map(type, out)) <= {int} and list(out) == sorted(out, reverse=True)
            and (not out or out[-1] > 0)):
        for i, x in enumerate(out):
            if type(x) is not int or x < 1:
                raise ValueError(f"partition part {x!r} is not a positive integer")
            if i and out[i - 1] < x:
                raise ValueError(f"partition not weakly decreasing at part {x!r}")
    return out


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse "3,2,2,1" or exponent form "2^4 1^2" into a partition.

    Each part and exponent is plain ASCII digits, read by value whatever
    its count of leading zeros; a part is at least 1.  The empty string and
    "-" denote the empty partition.  More than MAX_BOXES boxes in total is
    rejected.
    """
    if text.strip() == "-":
        return ()
    parts: list[int] = []
    boxes = 0
    for token in text.replace(",", " ").split():
        # [0-9], not \d: only ASCII digits count, so "2_1" and "+2" are malformed.
        match = re.fullmatch(r"0*([1-9][0-9]*)(?:\^0*([0-9]+))?", token)
        if not match:
            raise ValueError(f"malformed token {token!r}")
        # Without leading zeros, a number with more digits than MAX_BOXES
        # exceeds it: clamp it there rather than have int() read it.
        b, e = (int(x) if len(x) <= len(str(MAX_BOXES)) else MAX_BOXES + 1
                for x in (match[1], match[2] or "1"))
        boxes += b * e
        if boxes > MAX_BOXES:
            raise ValueError(f"partition has more than {MAX_BOXES} boxes")
        parts.extend([b] * e)
    return validate_partition(parts)


def format_partition(p) -> str:
    """Render a partition in exponent form: "2^2 1"; the empty one is "-"."""
    chunks = []
    for v, n in sorted(Counter(p).items(), reverse=True):
        chunks.append(f"{v}^{n}" if n > 1 else str(v))
    return " ".join(chunks) or "-"


def transpose(p) -> tuple[int, ...]:
    """Transpose of the Young diagram: row r of the result counts parts >= r.

    The rows of p may come in any order.  One sort of the rows, then a
    bisection per column: the rows below r number bisect_left(q, r) in the
    ascending rows q.  O(rows log rows + largest part * log rows).
    """
    q = sorted(p)
    n = len(q)
    return tuple([n - bisect_left(q, r) for r in range(1, q[-1] + 1)]) if q else ()


def is_theory_member(p, theory) -> bool:
    """Whether p labels a conjugacy class of the given theory.

    B: odd total, even values with even multiplicity.
    D: even total, even values with even multiplicity.
    C: even total, odd values with even multiplicity.
    The empty partition is admitted in every theory.  p may be unsorted.
    """
    theory = _as_theory(theory)
    p = tuple(p)
    if not p:
        return True
    if sum(p) % 2 != theory.theta:
        return False
    paired = theory.paired
    vals = sorted([v for v in p if v % 2 == paired])
    # Sorted, every value has even multiplicity exactly when the rows pair off.
    return vals[0::2] == vals[1::2]


def is_rigid(p, theory) -> bool:
    """Rigidity: every value from the top part down to 1 occurs, none forbidden twice.

    For B/D no odd value may appear exactly twice; for C no even value.
    The empty partition is rigid, and so is every all-ones partition (the
    zero orbit).  That exception overrides the multiplicity rule only for
    (1^2) in D_1, where the odd value 1 appears exactly twice.  The rows of
    p may come in any order.
    """
    theory = _as_theory(theory)
    p = tuple(p)
    if set(p) == {1}:
        return True  # the zero orbit is never induced (covers (1,1) in D_1)
    mult = Counter(p)
    # max(mult) distinct values, all in 1..max(mult): every one of them occurs.
    # The empty partition has no values, and 0 stands for its largest.
    return len(mult) == max(mult, default=0) and all(
        n != 2 for v, n in mult.items() if v % 2 != theory.paired
    )


def theory_total(theory, rank: int) -> int:
    """Box count of a rank-n partition in the theory: 2n+1 for B, 2n for C/D."""
    return 2 * rank + _as_theory(theory).theta


def _grow(out: list, prefix: tuple[int, ...], left: int, v: int, paired: int,
          rigid: bool) -> None:
    """Append prefix + v^m + smaller values, to `left` more boxes, for every valid m.

    Multiplicities are tried in ascending order and the next value below v
    ascending, so `out` receives ascending lex order.  Values of the paired
    parity take even multiplicities.  Rigid output also has every value
    from v down to 1 present and never multiplicity exactly 2 at the other
    parity, except in the all-ones partition (the zero orbit, as in is_rigid).

    A member branch closes its tail in place: after prefix + v^m come
    1^rest, then 2^k 1^(rest-2k) for each valid k ascending, so the values
    2 and 1 take no call of their own below a branch.  It recurses only
    into values of 3 or more that can take a valid multiplicity in the
    boxes left.
    """
    step = 2 if v % 2 == paired else 1
    # The value 1 takes every box left, an even number for C because every
    # other value there fills an even count.
    for m in range(left if v == 1 else step, left // v + 1, step):
        if rigid and step == 1 and m == 2 and (prefix or v > 1):
            continue  # exactly twice at the other parity, outside the zero orbit
        p, rest = prefix + (v,) * m, left - m * v
        if not rest:
            if v == 1 or not rigid:  # a rigid partition runs down to 1
                out.append(p)
        elif not rigid:
            out.append(p + (1,) * rest)
            if v > 2:
                two = 2 - paired  # the value 2's step: even multiplicities in B/D
                out.extend([p + (2,) * k + (1,) * (rest - 2 * k)
                            for k in range(two, rest // 2 + 1, two)])
            for u in range(3, min(v - 1, rest) + 1):
                if u % 2 != paired or rest >= 2 * u:  # a paired u fits twice
                    _grow(out, p, rest, u, paired, rigid)
        elif 2 * rest >= v * (v - 1):  # one row each of v-1..1 must fit
            _grow(out, p, rest, v - 1, paired, rigid)


def _by_multiplicity(theory: Theory, rank: int, rigid: bool) -> list[tuple[int, ...]]:
    """Members (or rigid partitions) at the rank, generated largest value first.

    Values of the paired parity (Theory.paired) take even multiplicities.
    """
    total = theory_total(theory, rank)
    paired = theory.paired
    out = [()] if total == 0 else []
    for top in range(1, total + 1):
        if top % 2 != paired or 2 * top <= total:  # a paired top fits twice
            _grow(out, (), total, top, paired, rigid)
    return out


def enumerate_members(theory, rank: int) -> list[tuple[int, ...]]:
    """All theory-member partitions at the given rank, ascending lex order."""
    return _by_multiplicity(_as_theory(theory), rank, rigid=False)


def enumerate_rigid(theory, rank: int) -> list[tuple[int, ...]]:
    """All rigid partitions at the given rank, ascending lex order."""
    return _by_multiplicity(_as_theory(theory), rank, rigid=True)


class _PairFields(NamedTuple):
    lambda_prime: tuple[int, ...]
    lambda_dprime: tuple[int, ...]
    theory: Theory


class OperatorPair(_PairFields):
    """A rigid semisimple (or unipotent) operator (lambda'; lambda'').

    A named tuple, so it compares equal to the plain tuple (lambda_prime,
    lambda_dprime, theory).  Not a dataclass: importing dataclasses loads
    inspect and ast, a cost each fresh CLI process would pay at start.  The
    constructor validates, and so do _make and _replace.
    """

    __slots__ = ()

    def __new__(cls, lambda_prime, lambda_dprime, theory):
        lambda_prime = validate_partition(lambda_prime)
        lambda_dprime = validate_partition(lambda_dprime)
        theory = _as_theory(theory)
        side1, side2 = PAIR_SIDES[theory]
        if not is_theory_member(lambda_prime, side1):
            raise ValueError(f"lambda' {lambda_prime} is not a {side1.value}-type partition")
        if not is_theory_member(lambda_dprime, side2):
            raise ValueError(f"lambda'' {lambda_dprime} is not a {side2.value}-type partition")
        boxes = sum(lambda_prime) + sum(lambda_dprime) - theory.theta
        # The only negative count is -1, both sides empty in B, and it is odd.
        if boxes % 2:
            raise ValueError(f"pair has no integral rank (box count {boxes + theory.theta})")
        return tuple.__new__(cls, (lambda_prime, lambda_dprime, theory))

    @classmethod
    def _make(cls, fields):
        # The named tuple's own _make, which _replace calls, skips __new__.
        return cls(*fields)

    @property
    def rank(self) -> int:
        return (sum(self.lambda_prime) + sum(self.lambda_dprime) - self.theory.theta) // 2


def _unchecked_pair(lambda_prime: tuple[int, ...], lambda_dprime: tuple[int, ...],
                    theory: Theory, _cls=OperatorPair) -> OperatorPair:
    """An OperatorPair whose sides are valid by construction, not re-validated.

    For sides generated by enumerate_rigid or enumerate_members of the
    pair's side theories, with theory a Theory.  The class is bound when
    the module loads, so a wrapper that rebinds the name OperatorPair (as a
    tracer does) does not change what this builds.
    """
    return tuple.__new__(_cls, (lambda_prime, lambda_dprime, theory))


def format_pair(pair: OperatorPair) -> str:
    """Render a pair as "(lambda'; lambda'')" with both sides in exponent form."""
    return f"({format_partition(pair.lambda_prime)}; {format_partition(pair.lambda_dprime)})"


def _side_lists(theory: Theory, max_rank: int) -> tuple[list, list]:
    """Each pair side's rigid partitions by rank 0..max_rank: (primes, dprimes).

    primes[n] holds lambda''s rigid partitions of rank n and dprimes[n]
    lambda'''s.  Two sides of one theory share one list.
    """
    side1, side2 = PAIR_SIDES[theory]
    lists = {side: [enumerate_rigid(side, n) for n in range(max_rank + 1)]
             for side in dict.fromkeys((side1, side2))}
    return lists[side1], lists[side2]


def _rigid_pairs(theory: Theory, rank: int, primes, dprimes) -> list[OperatorPair]:
    """The rigid pairs of the rank, read off side lists from _side_lists that reach it.

    Ordered by lambda'' rank ascending, then by the partitions themselves.
    """
    return [
        _unchecked_pair(p1, p2, theory)
        for n2 in range(rank + 1)
        for p1, p2 in product(primes[rank - n2], dprimes[n2])
    ]


def enumerate_rigid_pairs(theory, rank: int) -> list[OperatorPair]:
    """All pairs of rigid partitions with rank split n' + n'' = rank, in _rigid_pairs' order."""
    theory = _as_theory(theory)
    return _rigid_pairs(theory, rank, *_side_lists(theory, rank))


class TaggedPartition(NamedTuple):
    """The merged partition lambda = lambda' (+) lambda'' and each row's lambda'-datum.

    prime_odd[i] says whether lambda''s part in row i is odd, and is None
    where lambda' has no part there.  INTERLEAVE keeps one row per original
    part, so its lambda' rows are exactly those with a datum; COMPONENTWISE
    sums the parts index by index.  A named tuple, so it compares equal to
    the plain tuple (values, mode, prime_odd).
    """

    values: tuple[int, ...]
    mode: str
    prime_odd: tuple[bool | None, ...]


def _check_merge(mode: str, tie_break: str) -> None:
    """Reject a combine mode outside MODES, then a tie-break outside TIE_BREAKS."""
    if mode not in MODES:
        raise ValueError(f"unknown combine mode {mode!r}")
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"unknown tie-break {tie_break!r}")


def combine(pair: OperatorPair, mode: str = INTERLEAVE,
            tie_break: str = PRIME_FIRST) -> TaggedPartition:
    """Merge the pair into a tagged partition.

    INTERLEAVE: one linear merge of the two descending part lists by one
    comparison: a lambda'' row goes ahead of a lambda' row when its value
    is larger, or equal under DPRIME_FIRST.  So each origin's rows of one
    value stay next to each other.  COMPONENTWISE: index-wise sums
    zero-padded to the longer side.  Either mode fills prime_odd.  With a
    side empty both merges keep the other side's rows as they stand, so
    the modes agree.
    """
    _check_merge(mode, tie_break)
    p1, p2 = pair.lambda_prime, pair.lambda_dprime
    if mode == COMPONENTWISE:
        # The common rows summed, then the longer side's tail; lambda''s
        # data, then None on the rows past its end.
        values = tuple(map(add, p1, p2)) + p1[len(p2):] + p2[len(p1):]
        prime_odd = tuple([v % 2 == 1 for v in p1]) + (None,) * (len(p2) - len(p1))
        return tuple.__new__(TaggedPartition, (values, mode, prime_odd))
    lead = tie_break == DPRIME_FIRST
    values, prime_odd = [], []
    j, n = 0, len(p2)
    for v in p1:
        while j < n and p2[j] + lead > v:
            values.append(p2[j])
            prime_odd.append(None)
            j += 1
        values.append(v)
        prime_odd.append(v % 2 == 1)
    values += p2[j:]
    prime_odd += (None,) * (n - j)
    return tuple.__new__(TaggedPartition, (tuple(values), mode, tuple(prime_odd)))
