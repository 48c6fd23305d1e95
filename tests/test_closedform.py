import ast
import inspect
import sys
from collections import Counter

import pytest

from partition_oracle import partitions_of, upto
import rigidfp.blocks
import rigidfp.closedform
from rigidfp import (
    OperatorPair,
    WeylPair,
    closed_form_fingerprint_BD,
    closed_form_fingerprint_C,
    fingerprint,
    is_theory_member,
    sp_map,
    split_parity,
    unipotent_mu_factored,
    xs_inverse,
    xs_map,
    ys_inverse,
    ys_map,
)
from rigidfp.closedform import side_fingerprint
from rigidfp.partitions import Theory, enumerate_members


def _odd_partitions(total, max_part=None):
    if total == 0:
        yield ()
        return
    if max_part is None or max_part > total:
        max_part = total
    if max_part % 2 == 0:
        max_part -= 1
    for first in range(max_part, 0, -2):
        for rest in _odd_partitions(total - first, first):
            yield (first,) + rest


def _brute_inverse(p, lost):
    """Reference inverse: search every all-odd partition of sum(p) + lost."""
    for sigma in _odd_partitions(sum(p) + lost):
        if sp_map(sigma).mu_partition() == p:
            return sigma
    return None


INVERSES = ((1, xs_map, xs_inverse), (0, ys_map, ys_inverse))


class TestSplitParity:
    def test_examples(self):
        s = split_parity((3, 2, 2, 1, 1, 1, 1))
        assert s.odd_part == (3, 1, 1, 1, 1)
        assert s.even_part == (2, 2)
        assert split_parity((2, 2)).odd_part == ()
        assert split_parity((1, 1)).even_part == ()


class TestCollapseMaps:
    def test_xs_examples(self):
        assert xs_map((3,)) == (2,)
        assert xs_map((1, 1, 1)) == (1, 1)
        assert xs_map((3, 1, 1, 1, 1)) == (2, 2, 1, 1)

    def test_ys_examples(self):
        assert ys_map((3, 1)) == (2, 2)
        assert ys_map((1, 1)) == (1, 1)
        assert ys_map((3, 3, 3, 1)) == (3, 3, 2, 2)
        # Outside the domain (3 is missing): transpose (2, 2, 1, 1), not D-type.
        assert ys_map((5, 1)) == (4, 2)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            xs_map((2, 1))  # even part
        with pytest.raises(ValueError):
            xs_map((3, 1))  # even total
        with pytest.raises(ValueError):
            ys_map((3,))  # odd total

    def test_box_counts(self):
        assert sum(xs_map((3, 1, 1, 1, 1))) == 6
        assert sum(ys_map((3, 3, 3, 1))) == 10

    def test_inverses(self):
        assert xs_inverse((2, 2, 1, 1)) == (3, 1, 1, 1, 1)
        assert ys_inverse((2, 2)) == (3, 1)
        with pytest.raises(ValueError):
            ys_inverse((2,))  # odd transpose row, not in the image


class TestInverseOracle:
    def test_all_odd_preimages_match_search(self):
        checked = 0
        for total in range(26):
            lost, collapse, inverse = INVERSES[1 - total % 2]
            for sigma in _odd_partitions(total):
                image = collapse(sigma)
                assert inverse(image) == sigma == _brute_inverse(image, lost)
                if lost:
                    # xs_map's image is C-type on every all-odd input.
                    assert is_theory_member(image, Theory.C)
                # The two readers of the group pass agree on the image.
                assert rigidfp.closedform._collapse(sigma) == rigidfp.closedform._walk(sigma).mu
                checked += 1
        assert checked == 904

    def test_every_small_partition_matches_search(self):
        rejected = 0
        for total in range(15):
            for p in partitions_of(total):
                for lost, _, inverse in INVERSES:
                    expected = _brute_inverse(p, lost)
                    if expected is None:
                        rejected += 1
                        with pytest.raises(ValueError, match="not in the image"):
                            inverse(p)
                    else:
                        assert inverse(p) == expected
        assert rejected == 879

    @pytest.mark.parametrize("p", [(2, 2, 2), (2, 2, 2, 2)])
    def test_non_partition_candidate_rejected(self, p):
        for lost, _, inverse in INVERSES:
            assert _brute_inverse(p, lost) is None
            with pytest.raises(ValueError, match="not in the image"):
                inverse(p)

    def test_one_forward_map_per_inverse(self, monkeypatch):
        calls = []
        original = rigidfp.closedform._collapse

        def counted(sigma):
            calls.append(sigma)
            return original(sigma)

        monkeypatch.setattr(rigidfp.closedform, "_collapse", counted)
        stair = tuple(range(21, 0, -2))
        for image, inverse in (((2, 2, 1, 1), xs_inverse), ((2, 2), ys_inverse),
                               (xs_map(stair), xs_inverse)):
            calls.clear()
            inverse(image)
            assert len(calls) == 1, image
        for p in ((2, 2, 2), (3,), (2, 2, 2, 2)):
            for _, _, inverse in INVERSES:
                calls.clear()
                with pytest.raises(ValueError):
                    inverse(p)
                assert len(calls) <= 1, p

    def test_large_staircases_round_trip(self):
        stair = tuple(range(21, 0, -2))
        assert sum(stair) == 121
        assert xs_inverse(xs_map(stair)) == stair
        even = stair + (1,)
        assert sum(even) == 122
        assert ys_inverse(ys_map(even)) == even


class TestFactoredMu:
    def test_examples(self):
        assert unipotent_mu_factored((3, 2, 2, 1, 1, 1, 1), "B") == (2, 2, 2, 2, 1, 1)
        assert unipotent_mu_factored((3, 2, 2, 1), "D") == (2, 2, 2, 2)
        assert unipotent_mu_factored((2, 1, 1), "C") == (2, 1, 1)

    def test_c_members_are_fixed(self):
        # The group walk moves no row of a C member's odd part, so the
        # joined image is the member itself.
        members = [p for _, p in upto(enumerate_members, 12, (Theory.C,))]
        assert len(members) == 1491
        for p in members:
            assert unipotent_mu_factored(p, Theory.C) == p, p

    def test_validates_once(self, monkeypatch):
        # A member's odd parts are collapsed without a second check and
        # without the public maps.
        calls = []
        original = rigidfp.closedform.validate_partition

        def counted(p):
            calls.append(p)
            return original(p)

        def refuse(*args):
            raise AssertionError("the odd part was re-checked")

        monkeypatch.setattr(rigidfp.closedform, "validate_partition", counted)
        for name in ("split_parity", "xs_map", "ys_map", "_require_all_odd"):
            monkeypatch.setattr(rigidfp.closedform, name, refuse)
        for p, theory, mu in (((3, 2, 2, 1, 1, 1, 1), "B", (2, 2, 2, 2, 1, 1)),
                              ((3, 2, 2, 1), Theory.D, (2, 2, 2, 2))):
            calls.clear()
            assert unipotent_mu_factored(list(p), theory) == mu
            assert calls == [list(p)]


class TestClosedFormC:
    def test_examples(self):
        # beta halves each even row; alpha takes each odd value with half
        # its multiplicity.
        assert closed_form_fingerprint_C((2, 2, 2, 2, 1, 1)) == WeylPair((1,), (1, 1, 1, 1))
        assert closed_form_fingerprint_C((1, 1, 1, 1)) == WeylPair((1, 1), ())
        assert closed_form_fingerprint_C((2, 1, 1)) == WeylPair((1,), (1,))

    def test_every_member_matches_the_pipeline(self):
        # Under the default options, on every B, C and D member to rank 12:
        # the side walk of (p; ()) has the pipeline's outcome on (p; -),
        # and each theory's public closed form returns its [alpha; beta].
        members = Counter()
        for theory, p in upto(enumerate_members, 12):
            walked = side_fingerprint(p, (), theory)
            assert fingerprint(OperatorPair(p, (), theory)).same_outcome(walked), (theory, p)
            closed = (closed_form_fingerprint_C(p) if theory.paired
                      else closed_form_fingerprint_BD(p, theory))
            assert closed == walked.weyl, (theory, p)
            members[theory.value] += 1
            members["diagnostics"] += walked.diagnostic is not None
        assert members == {"B": 1257, "C": 1491, "D": 1029, "diagnostics": 0}


class TestClosedFormBD:
    def test_examples(self):
        out = closed_form_fingerprint_BD((2, 2, 1, 1, 1), "B")
        assert (out.alpha, out.beta) == ((2, 1), ())
        out = closed_form_fingerprint_BD((3, 2, 2, 1, 1, 1, 1), "B")
        assert (out.alpha, out.beta) == ((1,), (1, 1, 1, 1))
        out = closed_form_fingerprint_BD((1, 1), "D")
        assert (out.alpha, out.beta) == ((1,), ())

    def test_c_rejected(self):
        with pytest.raises(ValueError):
            closed_form_fingerprint_BD((2, 1, 1), "C")

    def test_non_integer_part_rejected(self):
        # Truncated, (2.5, 2.2, 1) would pass as the B partition (2, 2, 1).
        with pytest.raises(ValueError, match="2.5"):
            closed_form_fingerprint_BD((2.5, 2.2, 1), "B")


class TestMembershipGate:
    # Each closed form checks, in order: the theory, the partition, B/D only
    # (closed_form_fingerprint_BD), then membership.
    @pytest.mark.parametrize("call, message", [
        (lambda: unipotent_mu_factored((2, 1), "B"), "(2, 1) is not a B-type partition"),
        (lambda: unipotent_mu_factored((3,), "C"), "(3,) is not a C-type partition"),
        (lambda: closed_form_fingerprint_C((3,)), "(3,) is not a C-type partition"),
        (lambda: closed_form_fingerprint_BD((2, 1), "D"), "(2, 1) is not a D-type partition"),
        # (3,) is not a C member either: C is rejected before membership.
        (lambda: closed_form_fingerprint_BD((3,), "C"),
         "closed_form_fingerprint_BD covers B and D only"),
        (lambda: closed_form_fingerprint_BD((1, 2), "C"),
         "partition not weakly decreasing at part 2"),
        (lambda: closed_form_fingerprint_C((1, 2)), "partition not weakly decreasing at part 2"),
        (lambda: unipotent_mu_factored((1, 2), "B"), "partition not weakly decreasing at part 2"),
        (lambda: unipotent_mu_factored((1, 2), "X"), "'X' is not a valid Theory"),
        (lambda: closed_form_fingerprint_BD((1, 2), "X"), "'X' is not a valid Theory"),
    ])
    def test_rejection_and_order(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


PIPELINE_STAGES = {"sp_map", "tau_table", "extract_weyl_pair", "fingerprint"}


@pytest.mark.parametrize("module", [rigidfp.closedform, rigidfp.blocks],
                         ids=lambda m: m.__name__)
def test_imports_only_record_types_from_fingerprint(module):
    # The closed forms and the block path are the pipeline's oracles only if
    # they run none of its stages: neither module may import a stage, by
    # name from the package or the fingerprint module, or the module itself.
    home = sys.modules["rigidfp.fingerprint"]
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            assert "rigidfp.fingerprint" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                assert alias.name not in PIPELINE_STAGES | {"*"}, (node.module, alias.name)
                if node.module in ("fingerprint", "rigidfp.fingerprint"):
                    record = getattr(home, alias.name)
                    assert isinstance(record, type) and issubclass(record, tuple), alias.name
                    assert hasattr(record, "_fields"), alias.name
