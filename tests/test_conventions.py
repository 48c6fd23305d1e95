"""What each convention knob changes, measured on rigid pairs.

The merge mode decides how fine the invariant is; the tie-break reaches an
outcome only when condition (iii) alone is in force.  Each count is derived
by enumeration.  The KL lemmas by iii variant are in test_kl_lemmas.
"""
from collections import Counter
from itertools import combinations

import pytest

from partition_oracle import rigid_count, upto
from rigidfp import (
    FingerprintOptions,
    combine,
    decompose_blocks,
    enumerate_rigid_pairs,
    fingerprint,
)
from rigidfp.cli import _fiber_key
from rigidfp.closedform import closed_form_fingerprint_BD
from rigidfp.fingerprint import ALL_CONDITIONS, III_VARIANTS
from rigidfp.partitions import (
    COMPONENTWISE,
    DPRIME_FIRST,
    INTERLEAVE,
    TIE_BREAKS,
    Theory,
    is_rigid,
)


def test_tie_break_reaches_an_outcome_only_under_iii_alone():
    pairs = [pair for theory in Theory for rank in range(9)
             for pair in enumerate_rigid_pairs(theory, rank)]
    assert len(pairs) == 568
    condition_sets = [frozenset(c) for k in range(len(ALL_CONDITIONS) + 1)
                      for c in combinations(sorted(ALL_CONDITIONS), k)]
    evaluations = 0
    changed = []
    for conditions in condition_sets:
        for variant in (None, *III_VARIANTS):
            prime = FingerprintOptions(conditions=conditions, iii_variant=variant)
            dprime = prime._replace(tie_break=DPRIME_FIRST)
            for pair in pairs:
                evaluations += 1
                a, b = fingerprint(pair, prime), fingerprint(pair, dprime)
                if (a.weyl, a.diagnostic) != (b.weyl, b.diagnostic):
                    changed.append((conditions, variant, pair))
    assert evaluations == 18176
    assert len(changed) == 98
    assert {conditions for conditions, _, _ in changed} == {frozenset({"iii"})}
    # Under the defaults the tie-break moves only the reported blocks.
    assert not [pair for conditions, variant, pair in changed
                if conditions == ALL_CONDITIONS and variant is None]
    moved = [pair for pair in pairs if decompose_blocks(combine(pair))
             != decompose_blocks(combine(pair, INTERLEAVE, DPRIME_FIRST))]
    assert len(moved) == 324


@pytest.mark.parametrize("theory, operators, interleave, componentwise", [
    (Theory.B, 138, (19, 0), (87, 0)),
    (Theory.C, 215, (29, 51), (75, 33)),
    (Theory.D, 61, (17, 0), (40, 0)),
])
def test_classes_per_mode_at_rank_10(theory, operators, interleave, componentwise):
    # (classes, diagnostics) over the rigid pairs of rank 10, D mirrors
    # folded as rigidfp fibers folds them: the union (INTERLEAVE) is much
    # coarser than the componentwise sum.
    folded = {}
    for pair in enumerate_rigid_pairs(theory, 10):
        folded.setdefault(_fiber_key(pair), pair)
    assert len(folded) == operators
    for mode, want in ((INTERLEAVE, interleave), (COMPONENTWISE, componentwise)):
        results = [fingerprint(pair, FingerprintOptions(mode=mode)) for pair in folded.values()]
        classes = {res.weyl for res in results if res.weyl is not None}
        diagnostics = sum(res.diagnostic is not None for res in results)
        assert (len(classes), diagnostics) == want, mode


def test_what_the_default_reading_reduces_to():
    # Under the union reading a B/D pair's fingerprint is the unipotent
    # fingerprint of the union of its sides, which is a member of the same
    # theory but not always rigid: it forgets which side each row came from,
    # and no B/D tau entry has witness (iii).  Only the sum reading lets the
    # lambda'-datum reach a B/D outcome.
    bd = (Theory.B, Theory.D)
    pairs = [pair for _, pair in upto(enumerate_rigid_pairs, 12, bd)]
    assert len(pairs) == sum(rigid_count(side1, rank - n2) * rigid_count(side2, n2)
                             for side1, side2 in ("BD", "DD")
                             for rank in range(13) for n2 in range(rank + 1)) == 1639
    inputs = not_rigid = 0
    for pair in pairs:
        union = tuple(sorted(pair.lambda_prime + pair.lambda_dprime, reverse=True))
        not_rigid += not is_rigid(union, pair.theory)
        for tie in TIE_BREAKS:
            res = fingerprint(pair, FingerprintOptions(tie_break=tie))
            assert res.weyl == closed_form_fingerprint_BD(union, pair.theory), (pair, tie)
            inputs += 1
    assert (inputs, not_rigid) == (3278, 83)

    def witnesses(theories, mode=INTERLEAVE):
        opts = FingerprintOptions(mode=mode)
        return Counter(w for _, pair in upto(enumerate_rigid_pairs, 12, theories)
                       for _, w in fingerprint(pair, opts).tau.entries)

    assert witnesses(bd) == {"i": 796, None: 776}
    assert witnesses((Theory.C,)) == {"iii": 954, None: 475}
    assert witnesses(bd, COMPONENTWISE) == {"iii": 1317, "i": 569, None: 517}
