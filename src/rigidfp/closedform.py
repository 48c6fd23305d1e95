"""Closed forms for unipotent operators: parity split, collapse maps, group formulas.

The collapse maps act on the all-odd subpartition; the factored mu and the
per-group fingerprint formulas give an independent second route that must
agree with the generic pipeline on rigid input.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .fingerprint import WeylPair, sp_map
from .partitions import Theory, is_theory_member, transpose, validate_partition


@dataclass(frozen=True)
class ParitySplit:
    """The parts of a partition split by value parity, order preserved."""

    odd_part: tuple[int, ...]
    even_part: tuple[int, ...]


def split_parity(p) -> ParitySplit:
    p = validate_partition(p)
    return ParitySplit(
        odd_part=tuple(v for v in p if v % 2 == 1),
        even_part=tuple(v for v in p if v % 2 == 0),
    )


def _require_all_odd(sigma, total_parity: int, name: str) -> tuple[int, ...]:
    sigma = validate_partition(sigma)
    if any(v % 2 == 0 for v in sigma):
        raise ValueError(f"{name} requires all-odd parts, got {sigma}")
    if sum(sigma) % 2 != total_parity:
        kind = "odd" if total_parity else "even"
        raise ValueError(f"{name} requires {kind} total, got {sum(sigma)}")
    return sigma


_COLLAPSE_NAMES = ("ys_map", "xs_map")  # indexed by the number of boxes lost


def _collapse(sigma, lost: int) -> tuple[int, ...]:
    """Sp image of an all-odd partition whose total has the parity of lost."""
    sigma = _require_all_odd(sigma, lost, _COLLAPSE_NAMES[lost])
    return sp_map(sigma).mu_partition()


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
        or any(a < b for a, b in zip(candidate, candidate[1:]))
        or sp_map(candidate).mu_partition() != p
    ):
        raise ValueError(f"{p} is not in the image of {_COLLAPSE_NAMES[lost]}")
    return candidate


def xs_map(sigma) -> tuple[int, ...]:
    """Collapse an all-odd partition of odd total; loses exactly one box.

    The image has all-even transpose rows and is C-type.
    """
    return _collapse(sigma, 1)


def ys_map(sigma) -> tuple[int, ...]:
    """Collapse an all-odd partition of even total; box count is preserved.

    The image has all-even transpose rows and is D-type.
    """
    return _collapse(sigma, 0)


def xs_inverse(p) -> tuple[int, ...]:
    """Expansion inverting xs_map: linear-time, confirmed by one forward map."""
    return _expand(p, 1)


def ys_inverse(p) -> tuple[int, ...]:
    """Expansion inverting ys_map: linear-time, confirmed by one forward map."""
    return _expand(p, 0)


def unipotent_mu_factored(p, theory) -> tuple[int, ...]:
    """mu of a unipotent operator via the collapse of its odd parts.

    B: xs_map(odd parts) joined with the even parts; D: ys_map likewise;
    C: the partition itself.
    """
    theory = Theory(theory)
    p = validate_partition(p)
    if not is_theory_member(p, theory):
        raise ValueError(f"{p} is not a {theory.value}-type partition")
    if theory is Theory.C:
        return p
    split = split_parity(p)
    collapse = xs_map if theory is Theory.B else ys_map
    return tuple(sorted(collapse(split.odd_part) + split.even_part, reverse=True))


def closed_form_fingerprint_C(p) -> WeylPair:
    """[prod i^(n_i/2); ()] for a rigid C partition with all-even multiplicities."""
    p = validate_partition(p)
    if not is_theory_member(p, Theory.C):
        raise ValueError(f"{p} is not a C-type partition")
    mult = Counter(p)
    for v, n in mult.items():
        if n % 2:
            raise ValueError(
                f"value {v} has odd multiplicity {n}; exponent {n}/2 is not integral"
            )
    alpha = []
    for v, n in sorted(mult.items(), reverse=True):
        alpha += [v] * (n // 2)
    return WeylPair(tuple(alpha), ())


def closed_form_fingerprint_BD(p, theory) -> WeylPair:
    """Fingerprint of a rigid B/D unipotent operator from its value groups.

    Works group by group (value v, multiplicity n_v, descending): an odd
    group gains a box at its first row when the box count above it is odd,
    and loses its last box when the count through it is odd.  Changed even
    values and even groups inside an open deficit are the tau = -1 values.
    Never runs the index-wise pipeline; serves as its independent oracle.
    """
    theory = Theory(theory)
    p = validate_partition(p)
    if theory is Theory.C:
        raise ValueError("closed_form_fingerprint_BD covers B and D only")
    if not is_theory_member(p, theory):
        raise ValueError(f"{p} is not a {theory.value}-type partition")
    groups = sorted(Counter(p).items(), reverse=True)
    counts: Counter[int] = Counter()
    tau_neg: set[int] = set()
    boxes_above = 0
    delta = 0
    for v, n in groups:
        inc = v % 2 == 1 and boxes_above % 2 == 1
        dec = v % 2 == 1 and (boxes_above + n * v) % 2 == 1
        if v % 2 == 0 and delta == -1:
            tau_neg.add(v)  # condition (ii): group sits inside an open deficit
        counts[v] += n
        if inc:
            counts[v] -= 1
            counts[v + 1] += 1
            tau_neg.add(v + 1)
            delta += 1
        if dec:
            counts[v] -= 1
            if v > 1:
                counts[v - 1] += 1
                tau_neg.add(v - 1)
            delta -= 1
        boxes_above += n * v
    alpha: list[int] = []
    beta: list[int] = []
    for v, c in sorted(counts.items(), reverse=True):
        if c == 0:
            continue
        if v % 2 == 0 and v in tau_neg:
            beta += [v // 2] * c
        else:
            if c % 2:
                raise ValueError(f"value {v} unpaired; input {p} is not rigid")
            alpha += [v] * (c // 2)
    return WeylPair(tuple(alpha), tuple(sorted(beta, reverse=True)))


def has_all_even_transpose_rows(p) -> bool:
    return all(r % 2 == 0 for r in transpose(p))
