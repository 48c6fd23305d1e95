import inspect
import sys
from collections import Counter
from itertools import groupby

import partition_oracle
from partition_oracle import (
    _joined,
    block_from_sides,
    block_moves,
    has_mixed_block,
    image_producers,
    member_pairs,
    prime_rows,
    shared_values,
    side_union,
    upto,
    walk_is_block_union,
)
from rigidfp import (
    FingerprintOptions,
    OperatorPair,
    block_fingerprint,
    combine,
    decompose_blocks,
    fingerprint,
    sp_map,
)
import rigidfp.blocks
from rigidfp.blocks import BlockResult
from rigidfp.checks import run_suite
from rigidfp.closedform import _walk, side_fingerprint
from rigidfp.fingerprint import VACUOUS
from rigidfp.partitions import (
    COMPONENTWISE,
    DPRIME_FIRST,
    INTERLEAVE,
    MODES,
    PRIME_FIRST,
    TIE_BREAKS,
    TaggedPartition,
    Theory,
    enumerate_rigid_pairs,
)
import pytest

# The nine operator labels decompose_blocks attaches to its blocks.
OPERATOR_LABELS = frozenset({
    "mu_e12", "mu_e21", "mu_o12", "mu_o21",
    "mu_e1", "mu_e2", "mu_o1", "mu_o2", "mu_II",
})


def decompose_cutting(cut):
    """blocks.decompose_blocks with its test for an open block rewritten to `cut`."""
    source = inspect.getsource(decompose_blocks)
    assert source.count("if odd and i < end:") == 1
    namespace = dict(vars(rigidfp.blocks))
    exec(source.replace("if odd and i < end:", cut), namespace)
    return namespace["decompose_blocks"]


def union_sweep(theories=tuple(Theory)):
    """(checked, failed), counted by sweep, of walk_is_block_union on rigid
    pairs to rank 10 and member pairs to rank 6, under both tie-breaks."""
    checked, failed = Counter(), Counter()
    sweeps = {"rigid": (pair for _, pair in upto(enumerate_rigid_pairs, 10, theories)),
              "member": member_pairs(6, theories)}
    for sweep, pairs in sweeps.items():
        for pair in pairs:
            for tb in (PRIME_FIRST, DPRIME_FIRST):
                checked[sweep] += 1
                failed[sweep] += not walk_is_block_union(combine(pair, tie_break=tb), pair.theory)
    return checked, failed


class TestDecompose:
    def test_empty(self):
        pair = OperatorPair((), (), Theory.D)
        assert decompose_blocks(combine(pair)) == []

    def test_single_block_constant_value(self):
        # All rows share one value, so no interior cut can fire.
        pair = OperatorPair((1, 1, 1), (1, 1), Theory.B)
        blocks = decompose_blocks(combine(pair))
        assert len(blocks) == 1
        assert (blocks[0].start, blocks[0].end) == (0, 5)
        assert blocks[0].kind == "I"

    def test_cut_at_even_boundary(self):
        # Rows (2, 2, 1, 1, 1): cumulative boxes are even after row 2, where
        # the value also drops, so the diagram splits there.
        pair = OperatorPair((2, 2, 1), (1, 1), Theory.B)
        blocks = decompose_blocks(combine(pair))
        assert [(b.start, b.end) for b in blocks] == [(0, 2), (2, 5)]

    def test_blocks_start_at_even_box_count(self):
        # Blocks are cut only where the running box count is even, so each
        # one can run the Sp map on its rows alone.  The (kind, label) counts
        # per tie-break pin the classifier on the same blocks; summed over
        # both tie-breaks, the 12 and 21 labels would balance.
        seen = Counter()
        for pair in member_pairs(6):
            for tb in (PRIME_FIRST, DPRIME_FIRST):
                tp = combine(pair, tie_break=tb)
                for b in decompose_blocks(tp):
                    assert sum(tp.values[:b.start]) % 2 == 0, (pair, tb, b)
                    seen[tb, b.kind, b.operator_label] += 1
        assert sum(seen.values()) == 5034
        assert {label for _, _, label in seen} - {None} == OPERATOR_LABELS
        assert seen == {
            (PRIME_FIRST, "I", "mu_e1"): 17, (PRIME_FIRST, "I", "mu_e2"): 31,
            (PRIME_FIRST, "I", "mu_o1"): 69, (PRIME_FIRST, "I", "mu_o2"): 311,
            (PRIME_FIRST, "II", "mu_II"): 934,
            (PRIME_FIRST, "III", "mu_e12"): 23, (PRIME_FIRST, "III", "mu_e21"): 3,
            (PRIME_FIRST, "III", "mu_o12"): 120, (PRIME_FIRST, "III", "mu_o21"): 48,
            (PRIME_FIRST, "S", None): 961,
            (DPRIME_FIRST, "I", "mu_e2"): 48,
            (DPRIME_FIRST, "I", "mu_o1"): 162, (DPRIME_FIRST, "I", "mu_o2"): 218,
            (DPRIME_FIRST, "II", "mu_II"): 934,
            (DPRIME_FIRST, "III", "mu_e12"): 3, (DPRIME_FIRST, "III", "mu_e21"): 23,
            (DPRIME_FIRST, "III", "mu_o12"): 48, (DPRIME_FIRST, "III", "mu_o21"): 120,
            (DPRIME_FIRST, "S", None): 961,
        }

    def test_cuts_are_exactly_even_value_changes(self):
        # The cut rule: a block starts after row j - 1 exactly when the box
        # count above row j is even and the value changes there.
        checked = 0
        for _, pair in upto(enumerate_rigid_pairs, 10):
            for tb in (PRIME_FIRST, DPRIME_FIRST):
                tp = combine(pair, tie_break=tb)
                values = tp.values
                starts = {b.start for b in decompose_blocks(tp)}
                assert starts - {0} == {
                    j for j in range(1, len(values))
                    if sum(values[:j]) % 2 == 0 and values[j - 1] != values[j]
                }, (pair, tb)
                checked += 1
        assert checked == 2710

    def test_classifier_facts(self):
        # decompose_blocks reads kinds off these facts, in its one pass over
        # the value groups, instead of slicing and counting each block.
        for pair in member_pairs(6):
            for tb in (PRIME_FIRST, DPRIME_FIRST):
                tp = combine(pair, tie_break=tb)
                # The stable merge: each (origin, value) run occurs once.
                sides = prime_rows(tp)
                runs = [key for key, _ in groupby(zip(sides, tp.values))]
                assert len(runs) == len(set(runs)), (pair, tb)
                blocks = decompose_blocks(tp)
                for b in blocks:
                    values = tp.values[b.start:b.end]
                    rows = Counter(zip(sides[b.start:b.end], values))
                    if all(n % 2 == 0 for n in rows.values()):
                        assert len(set(values)) == 1, (pair, tb, b)
                    if sum(values) % 2:
                        assert pair.theory is Theory.B and b is blocks[-1], (pair, tb, b)

    def test_componentwise_rejected(self):
        pair = OperatorPair((2, 2, 1), (1, 1), Theory.B)
        with pytest.raises(ValueError, match="INTERLEAVE"):
            decompose_blocks(combine(pair, mode=COMPONENTWISE))

    def test_exactly_one_odd_block_in_B(self):
        for _, pair in upto(enumerate_rigid_pairs, 6, (Theory.B,)):
            blocks = decompose_blocks(combine(pair))
            odd = [b for b in blocks if b.kind == "I"]
            assert len(odd) == 1
            assert odd[-1] is blocks[-1]

    def test_no_odd_blocks_in_C_and_D(self):
        for _, pair in upto(enumerate_rigid_pairs, 6, (Theory.C, Theory.D)):
            blocks = decompose_blocks(combine(pair))
            assert all(b.kind != "I" for b in blocks)

    def test_tiling(self):
        # Blocks cover the row range exactly, in order, without overlap.
        for _, pair in upto(enumerate_rigid_pairs, 6):
            tp = combine(pair)
            pos = 0
            for b in decompose_blocks(tp):
                assert b.start == pos
                assert b.end > b.start
                pos = b.end
            assert pos == len(tp.values)

    def test_labels_are_known(self):
        for _, pair in upto(enumerate_rigid_pairs, 6):
            for b in decompose_blocks(combine(pair)):
                assert b.operator_label is None or b.operator_label in OPERATOR_LABELS

    def test_single_origin_paired_block_is_II(self):
        pair = OperatorPair((2, 2, 2, 2), (), Theory.D)
        blocks = decompose_blocks(combine(pair))
        assert all(b.kind == "II" and b.operator_label == "mu_II" for b in blocks)

    def test_mixed_paired_block_is_III(self):
        pair = OperatorPair((2, 1, 1), (1, 1), Theory.C)
        blocks = decompose_blocks(combine(pair))
        kinds = [b.kind for b in blocks]
        assert "III" in kinds


class TestBlockSp:
    def test_fragment_examples(self):
        pair = OperatorPair((2, 2, 1), (1, 1), Theory.B)
        tp = combine(pair)
        b0, b1 = decompose_blocks(tp)
        assert sp_map(tp.values[b0.start:b0.end]).mu_values == (2, 2)
        assert sp_map(tp.values[b1.start:b1.end]).mu_values == (1, 1, 0)

    def test_seeded_parity_matters(self):
        # Parity does matter to the Sp rule: entered at an odd box count, the
        # rows (3, 2, 2, 1) would map to (4, 2, 2, 0).  Blocks are cut only at
        # even counts, so the unseeded fragments join up to the direct trace.
        pair = OperatorPair((3, 2, 2, 1), (), Theory.D)
        tp = combine(pair)
        blocks = decompose_blocks(tp)
        frags = [sp_map(tp.values[b.start:b.end]).mu_values for b in blocks]
        flat = tuple(v for frag in frags for v in frag)
        assert flat == fingerprint(pair).trace.mu_values


class TestPathEquivalence:
    def test_member_pairs_match_direct(self):
        # Non-rigid members exercise the closed forms on gapped rows and on
        # extraction diagnostics, which rigid pairs rarely reach.  Both
        # merge modes, and both tie-breaks in each; the side walk is the
        # INTERLEAVE path.
        checked, diagnostics = Counter(), Counter()
        for pair in member_pairs(6):
            via_sides = side_fingerprint(*pair)
            for mode in MODES:
                for tb in (PRIME_FIRST, DPRIME_FIRST):
                    direct = fingerprint(pair, FingerprintOptions(mode=mode, tie_break=tb))
                    via_blocks = block_fingerprint(direct.tagged, pair.theory)
                    assert direct.same_outcome(via_blocks), (pair, mode, tb)
                    assert (via_blocks.weyl, via_blocks.diagnostic) == (
                        direct.weyl, direct.diagnostic), (pair, mode, tb)
                    if mode == INTERLEAVE:
                        assert via_sides == via_blocks, (pair, tb)
                    checked[mode] += 1
                    diagnostics[mode] += direct.diagnostic is not None
        assert checked == {INTERLEAVE: 2786, COMPONENTWISE: 2786}
        assert diagnostics == {INTERLEAVE: 486, COMPONENTWISE: 224}

    def test_side_walk_is_the_merged_walk(self):
        # Under the default options the INTERLEAVE outcome depends on the
        # two sides only: the walk of their sorted rows, with (iii) on the
        # even values lambda' holds in C, equals the pipeline and the walk
        # of combine's merge under both tie-breaks.
        checked = Counter()
        for _, pair in upto(enumerate_rigid_pairs, 10):
            via_sides = side_fingerprint(*pair)
            for tb in TIE_BREAKS:
                direct = fingerprint(pair, FingerprintOptions(tie_break=tb))
                assert direct.same_outcome(via_sides), (pair, tb)
                assert block_fingerprint(combine(pair, tie_break=tb), pair.theory) == via_sides
                checked[pair.theory.value] += 1
                checked["diagnostics"] += via_sides.diagnostic is not None
        assert checked == {"B": 810, "C": 1216, "D": 684, "diagnostics": 308}

    def test_componentwise_rigid_pairs_match_direct(self):
        # The walk reads condition (iii) off the index-wise datum column as
        # it does off the merged one: every rigid pair to rank 10.
        opts = FingerprintOptions(mode=COMPONENTWISE)
        checked = Counter()
        for _, pair in upto(enumerate_rigid_pairs, 10):
            direct = fingerprint(pair, opts)
            via_blocks = block_fingerprint(direct.tagged, pair.theory)
            assert direct.same_outcome(via_blocks), pair
            assert (via_blocks.weyl, via_blocks.diagnostic) == (
                direct.weyl, direct.diagnostic), pair
            checked[pair.theory.value] += 1
            checked["diagnostics"] += direct.diagnostic is not None
        assert checked == {"B": 405, "C": 608, "D": 342, "diagnostics": 94}

    def test_vacuous_c_member_pairs_match_direct(self):
        # The walk without a datum column is the vacuous iii variant: every C tau
        # is +1, so only pairs or diagnostics remain.
        vac = FingerprintOptions(iii_variant=VACUOUS)
        checked = diagnostics = 0
        for pair in member_pairs(6, (Theory.C,)):
            direct = fingerprint(pair, vac)
            mu, weyl, diagnostic = _walk(direct.tagged.values)
            assert (mu, weyl, diagnostic) == (direct.mu, direct.weyl, direct.diagnostic), pair
            checked += 1
            diagnostics += diagnostic is not None
        assert (checked, diagnostics) == (645, 458)

    def test_block_path_does_not_cut_through_bounds(self, monkeypatch):
        # The walk over all the rows is the union of the block walks, so the
        # path needs no cut; decompose_blocks only reports the blocks.
        def refuse(tp):
            raise AssertionError("block path called decompose_blocks")

        monkeypatch.setattr(rigidfp.blocks, "decompose_blocks", refuse)
        report = run_suite("path-equivalence", 8)
        assert report.checked == 1136
        assert report.ok, report.failures

    @pytest.mark.parametrize("rows", [
        (3, 1),  # 2: lost from 3, gained by 1
        (3, 2, 2),  # 2: lost from 3, then its own group
        (3, 2, 2, 1),  # 2, made in three blocks, counts once
    ])
    def test_shared_values_at_every_value_change(self, rows):
        # Cut at every value change, the blocks on either side of an odd
        # count both produce the value a box moves to; cut at even counts,
        # no two blocks share one.
        tp = TaggedPartition(rows, INTERLEAVE, tuple(v % 2 == 1 for v in rows))
        every_change = [i for i in range(len(rows)) if i == 0 or rows[i] != rows[i - 1]]
        assert shared_values(rows, every_change) == 1
        assert shared_values(rows, [b.start for b in decompose_blocks(tp)]) == 0

    @pytest.mark.parametrize("theory", list(Theory), ids=lambda t: t.value)
    def test_no_block_shares_an_image_value(self, theory):
        # Cut where the box count is even, every image value's producers lie
        # in one block, on every member pair, rigid or not, under both
        # tie-breaks.  The producers' values are the walk's image values.
        checked = 0
        for pair in member_pairs(6, (theory,)):
            for tb in (PRIME_FIRST, DPRIME_FIRST):
                tp = combine(pair, tie_break=tb)
                assert set(image_producers(tp.values)) == set(_walk(tp.values).mu), (pair, tb)
                assert shared_values(tp.values, [b.start for b in decompose_blocks(tp)]) == 0, (pair, tb)
                checked += 1
        assert checked == {Theory.B: 856, Theory.C: 1290, Theory.D: 640}[theory]

    @pytest.mark.parametrize("theory, rigid, members", [
        pytest.param(Theory.B, 810, 856, id="B"),
        pytest.param(Theory.C, 1216, 1290, id="C"),
        pytest.param(Theory.D, 684, 640, id="D"),
    ])
    def test_walk_is_the_union_of_block_walks(self, theory, rigid, members):
        # The union lemma of closedform._walk: the blocks decompose_blocks
        # cuts have disjoint images, and walking the rows at once gives
        # their union, diagnostics included, on rigid and member pairs.
        checked, failed = union_sweep((theory,))
        assert checked == {"rigid": rigid, "member": members}
        assert not +failed, failed

    @pytest.mark.parametrize("cut", [
        "if False and i < end:",  # close a block at every value change, ignoring parity
        "if not odd and i < end:",  # close one only at odd counts
    ], ids=["every-value-change", "odd-counts-only"])
    def test_wrong_cuts_fail_the_union(self, cut, monkeypatch):
        # Cut at a wrong count, a value's producers straddle two blocks, or a
        # block starts at an odd count, and the union lemma fails.
        monkeypatch.setattr(partition_oracle, "decompose_blocks", decompose_cutting(cut))
        checked, failed = union_sweep()
        assert checked == {"rigid": 2710, "member": 2786}
        assert failed == {"rigid": 622, "member": 854}

    @pytest.mark.parametrize("tie_break", [PRIME_FIRST, DPRIME_FIRST])
    @pytest.mark.parametrize("theory, unmixed", [(Theory.B, 59), (Theory.D, 230)],
                             ids=["B", "D"])
    def test_unmixed_pairs_join_their_sides(self, theory, unmixed, tie_break):
        # Block locality: a B/D pair with no mixed block (of kind S or I, with
        # rows of both origins) has the multiset union of the unipotent
        # fingerprints of lambda' in its side theory and lambda'' in D.  With
        # a mixed block the union can fail, so the condition is needed.
        opts = FingerprintOptions(tie_break=tie_break)
        found = Counter()
        for _, pair in upto(enumerate_rigid_pairs, 10, (theory,)):
            mixed = has_mixed_block(combine(pair, tie_break=tie_break))
            joined = fingerprint(pair, opts).weyl == side_union(pair)
            assert joined or mixed, pair
            found[mixed, joined] += 1
        assert found[False, True] == unmixed
        assert found[True, False] > 0

    def test_two_origin_blocks_join_their_origins(self):
        # The paper's per-block operators on B/D: a block with rows of both
        # origins walks to the union of its origins' walks, plus flips of
        # alpha 2 into beta 1, 1 and pairings at odd values.  No block has
        # both moves.
        found = Counter()
        for _, pair in upto(enumerate_rigid_pairs, 10, (Theory.B, Theory.D)):
            for tb in (PRIME_FIRST, DPRIME_FIRST):
                tp = combine(pair, tie_break=tb)
                for s, e, _, _ in decompose_blocks(tp):
                    values, sides = tp.values[s:e], prime_rows(tp)[s:e]
                    if len(set(sides)) < 2:
                        continue
                    flipped, pairings = block_moves(values, sides)
                    assert flipped % 2 == 0, (pair, tb)
                    assert block_from_sides(values, sides) == _walk(values).weyl, (pair, tb)
                    found["blocks"] += 1
                    found["flips"] += flipped > 0
                    found["pairings"] += bool(pairings)
                    found["both"] += flipped > 0 and bool(pairings)
                    found.update(f"pairing at {v}" for v in pairings)
        assert found == {"blocks": 1278, "flips": 106, "pairings": 38, "both": 0,
                         "pairing at 3": 22, "pairing at 1": 16}

    def test_c_blocks_against_their_unipotent_walks(self):
        # The C rule per block: each block's walk against the unipotent C
        # walks of its rows, which read (iii) off each row's own parity.  A
        # two-origin block is the union of its sides' walks and a λ'-only
        # block is its own walk.  λ'' rows carry no datum, so in a λ''-only
        # block (iii) never fires: it may diagnose, or differ without
        # diagnosing.  Every diagnostic lies in a λ''-only block.
        def unipotent(rows):
            return _walk(rows, tuple(v % 2 == 1 for v in rows), False)

        found = Counter()
        for _, pair in upto(enumerate_rigid_pairs, 10, (Theory.C,)):
            for tb in (PRIME_FIRST, DPRIME_FIRST):
                tp = combine(pair, tie_break=tb)
                diagnosed = block_fingerprint(tp, Theory.C).diagnostic is not None
                found["inputs"] += 1
                found["diagnosed inputs"] += diagnosed
                in_dprime_only = False
                for s, e, _, _ in decompose_blocks(tp):
                    values, sides = tp.values[s:e], prime_rows(tp)[s:e]
                    walk = _walk(values, tp.prime_odd[s:e], False)
                    if len(set(sides)) == 2:
                        parts = [unipotent(tuple(v for v, o in zip(values, sides) if o == side))
                                 for side in (True, False)]
                        assert _joined([walk]) == _joined(parts), (pair, tb)
                        assert not walk.diagnostic, (pair, tb)
                        found["two-origin"] += 1
                    elif sides[0]:
                        assert walk == unipotent(values), (pair, tb)
                        found["prime-only"] += 1
                    else:
                        outcome = ("diagnoses" if walk.diagnostic else
                                   "equals" if walk == unipotent(values) else "differs")
                        found[f"dprime-only {outcome}"] += 1
                        in_dprime_only |= walk.diagnostic is not None
                assert diagnosed == in_dprime_only, (pair, tb)
        assert found == {"inputs": 1216, "diagnosed inputs": 308, "two-origin": 1232,
                         "prime-only": 740, "dprime-only diagnoses": 336,
                         "dprime-only equals": 320, "dprime-only differs": 84}

    @pytest.mark.parametrize("theory", ["C", Theory.C])
    def test_theory_as_letter_or_member(self, theory):
        pair = OperatorPair((2, 2, 1, 1), (1, 1), "C")
        assert fingerprint(pair).same_outcome(block_fingerprint(combine(pair), theory))

    def test_unknown_theory_rejected(self):
        with pytest.raises(ValueError, match="'E' is not a valid Theory"):
            block_fingerprint(combine(OperatorPair((1, 1), (), "C")), "E")

    def test_pipeline_stages_not_called(self, monkeypatch):
        # The block path reads the closed forms only: with every pipeline
        # stage raising, it still reproduces the direct results.
        cases = [
            fingerprint(pair, FingerprintOptions(mode=mode, tie_break=tb))
            for pair in member_pairs(4)
            for mode in MODES
            for tb in (PRIME_FIRST, DPRIME_FIRST)
        ]

        def boom(*args, **kwargs):
            raise AssertionError("pipeline stage called")

        # From sys.modules: the package's function `fingerprint` hides the module.
        home = sys.modules["rigidfp.fingerprint"]
        for name in ("sp_map", "tau_table", "extract_weyl_pair"):
            original = getattr(home, name)
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "rigidfp" and vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, boom)
        with pytest.raises(AssertionError, match="pipeline stage"):
            fingerprint(OperatorPair((1,), (), "B"))
        for direct in cases:
            via_blocks = block_fingerprint(direct.tagged, direct.pair.theory)
            assert direct.same_outcome(via_blocks), direct.pair

    def test_same_outcome_compares_mu(self):
        # mu decides only where a diagnostic, not [alpha; beta], is compared.
        direct = fingerprint(OperatorPair((2, 1, 1), (), "C"), FingerprintOptions(iii_variant=VACUOUS))
        assert direct.diagnostic is not None
        same = BlockResult(direct.mu, direct.weyl, direct.diagnostic)
        assert direct.same_outcome(same)
        assert not direct.same_outcome(same._replace(mu=(2, 2, 1, 1)))
        assert not direct.same_outcome(same._replace(diagnostic=None))

    def test_worked_instance(self):
        pair = OperatorPair((2, 1, 1), (1, 1), Theory.C)
        res = block_fingerprint(combine(pair), Theory.C)
        assert res.weyl is not None
        assert res.weyl.alpha == (1, 1)
        assert res.weyl.beta == (1,)
