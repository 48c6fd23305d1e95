"""The suites' checks on sampled rigid pairs far above the sweeps' ranks.

The exhaustive sweeps stop at rank 6-12.  Here hypothesis draws rigid
pairs of rank 20-500: each side takes every value 1..k with a
multiplicity that partition_oracle.rigid_multiplicity allows, so no draw
calls the package's enumeration.  On each pair:
  - sp_map agrees with partition_oracle.reference_sp under every merge;
  - the block path agrees with the direct pipeline in both modes, and in
    INTERLEAVE, the one mode with blocks, the walk over all the rows is the
    union of the walks of the decompose_blocks blocks;
  - B and D give a fingerprint, never a diagnostic, with |alpha|+|beta| the
    rank in both modes, and a D fingerprint has an even number of beta
    parts.
Under the default conventions only, which keeps the module under 1 s:
  - adding 2 to every part of both sides adds 2 to every mu row, and takes
    [alpha;beta] to [alpha+2;beta+1] plus a beta part 1 per deleted row, or
    adds 2 to every diagnostic value, as the shift suite checks;
  - swapping the sides of a D pair keeps its outcome;
  - a B/D pair without a mixed block has the union of its sides'
    fingerprints, the block locality lemma.
"""
from itertools import product

from hypothesis import given, strategies as st

from partition_oracle import (
    has_mixed_block,
    reference_sp,
    rigid_multiplicity,
    side_union,
    walk_is_block_union,
)
from rigidfp import (
    FingerprintOptions,
    OperatorPair,
    Theory,
    block_fingerprint,
    combine,
    fingerprint,
)
from rigidfp.partitions import INTERLEAVE, MODES, PAIR_SIDES, TIE_BREAKS

MIN_RANK, MAX_RANK = 20, 500
MAX_TOP = 16  # largest value of a side, which so holds at most 5 * 136 boxes
MULTIPLICITIES = range(1, 6)


@st.composite
def rigid_partitions(draw, theory):
    """A rigid partition of the theory, drawn value by value from 1 up.

    The empty partition is drawn too, except in B, whose box count is odd.
    """
    paired = theory.paired
    top = draw(st.integers(theory.theta, MAX_TOP))
    mult = [draw(st.sampled_from([m for m in MULTIPLICITIES if rigid_multiplicity(v, m, paired)]))
            for v in range(1, top + 1)]
    # The box count is odd when the odd values' multiplicities add up odd.
    # In C they are all even; in B and D the value 1 is unpaired, and the
    # map gives it an allowed multiplicity of the other parity.
    if top and sum(mult[0::2]) % 2 != theory.theta:
        mult[0] = {1: 4, 3: 4, 4: 5, 5: 4}[mult[0]]
    return tuple(v for v in range(top, 0, -1) for _ in range(mult[v - 1]))


@st.composite
def rigid_pairs(draw):
    theory = draw(st.sampled_from(list(Theory)))
    side1, side2 = PAIR_SIDES[theory]
    return OperatorPair(draw(rigid_partitions(side1)), draw(rigid_partitions(side2)), theory)


large_pairs = rigid_pairs().filter(lambda pair: MIN_RANK <= pair.rank <= MAX_RANK)


@given(large_pairs)
def test_checks_hold_on_large_pairs(pair):
    theory = pair.theory
    for mode, tie_break in product(MODES, TIE_BREAKS):
        opts = FingerprintOptions(mode=mode, tie_break=tie_break)
        direct = fingerprint(pair, opts)
        assert direct.trace.mu_values == reference_sp(direct.tagged.values)
        assert direct.same_outcome(block_fingerprint(direct.tagged, theory))
        if mode == INTERLEAVE:
            assert walk_is_block_union(direct.tagged, theory)
        if theory is Theory.C:
            continue
        assert direct.diagnostic is None
        alpha, beta = direct.weyl
        assert sum(alpha) + sum(beta) == pair.rank
        if theory is Theory.D:
            assert len(beta) % 2 == 0
    base = fingerprint(pair)
    shifted = fingerprint(OperatorPair(*(tuple(v + 2 for v in side) for side in pair[:2]), theory))
    assert shifted.trace.mu_values == tuple(m + 2 for m in base.trace.mu_values)
    assert (shifted.diagnostic is None) == (base.diagnostic is None)
    if base.diagnostic is None:
        alpha, beta = base.weyl
        deleted = base.trace.mu_values.count(0)
        assert shifted.weyl == (tuple(a + 2 for a in alpha),
                                tuple(b + 1 for b in beta) + (1,) * deleted)
    else:
        assert shifted.diagnostic.entries == tuple(
            (v + 2, n) for v, n in base.diagnostic.entries)
    if theory is Theory.D:
        mirror = OperatorPair(pair.lambda_dprime, pair.lambda_prime, theory)
        assert fingerprint(mirror).same_outcome(base)
    if theory is not Theory.C and not has_mixed_block(combine(pair)):
        assert base.weyl == side_union(pair)
