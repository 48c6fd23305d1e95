"""Kazhdan-Lusztig lemmas: facts about the output that no convention of the code sets.

The fingerprint [alpha; beta] of a class names a conjugacy class of the
Weyl group: alpha lists the positive cycles and beta the negative ones of
a signed cycle type (Carter, "Conjugacy classes in the Weyl group", 1972).
On unipotent pairs (p; -) the map sends the zero orbit to the identity
class, the regular orbit to the Coxeter class and a distinguished orbit to
an elliptic class (no positive cycle), and no two orbits of one group to
the same class.  A class of W(D_n) has an even number of negative cycles.
"""
import pytest

from rigidfp import FingerprintOptions, OperatorPair, Theory, enumerate_rigid_pairs, fingerprint
from rigidfp.fingerprint import SO, SP, VACUOUS
from rigidfp.partitions import enumerate_members, theory_total

MAX_RANK = 10


@pytest.fixture(scope="module")
def unipotent():
    """{theory: {rank: {member p: fingerprint of (p; -)}}} to MAX_RANK."""
    return {theory: {rank: {p: fingerprint(OperatorPair(p, (), theory)).weyl
                            for p in enumerate_members(theory, rank)}
                     for rank in range(MAX_RANK + 1)}
            for theory in Theory}


@pytest.mark.parametrize("theory", list(Theory))
def test_zero_orbit_gives_the_identity(theory, unipotent):
    for rank in range(MAX_RANK + 1):
        zero = (1,) * theory_total(theory, rank)
        assert unipotent[theory][rank][zero] == ((1,) * rank, ())


@pytest.mark.parametrize("theory", list(Theory))
def test_regular_orbit_gives_the_coxeter_class(theory, unipotent):
    for rank in range(1 if theory is not Theory.D else 2, MAX_RANK + 1):
        if theory is Theory.D:
            regular, coxeter = (2 * rank - 1, 1), (rank - 1, 1)
        else:
            regular, coxeter = (theory_total(theory, rank),), (rank,)
        assert unipotent[theory][rank][regular] == ((), coxeter)


@pytest.mark.parametrize("theory", list(Theory))
def test_distinguished_orbit_gives_an_elliptic_class(theory, unipotent):
    # Distinguished: distinct parts, all odd in B/D and all even in C.
    found = 0
    for members in unipotent[theory].values():
        for p, weyl in members.items():
            if len(set(p)) == len(p) and all(v % 2 != theory.paired for v in p):
                found += 1
                assert weyl.alpha == (), p
    assert found > MAX_RANK


@pytest.mark.parametrize("theory", list(Theory))
def test_members_have_distinct_fingerprints(theory, unipotent):
    for rank, members in unipotent[theory].items():
        outcomes = list(members.values())
        assert None not in outcomes
        assert len(set(outcomes)) == len(outcomes), rank


def test_d_fingerprints_have_an_even_number_of_negative_cycles():
    pairs = [pair for rank in range(MAX_RANK + 1) for pair in enumerate_rigid_pairs("D", rank)]
    assert len(pairs) == 342
    for pair in pairs:
        assert len(fingerprint(pair).weyl.beta) % 2 == 0, pair


def test_only_the_theory_default_variant_passes_in_every_theory():
    # Per iii variant and theory, to rank 8: (members, members without a
    # class, members whose class an earlier member of their rank has).
    # The default (None) is SO in B/D and Sp in C.  SO and vacuous leave C
    # members, the regular orbit among them, without a class; Sp gives B and
    # D members shared classes.  So no single variant passes everywhere.
    found = {}
    for variant in (None, SO, SP, VACUOUS):
        opts = FingerprintOptions(iii_variant=variant)
        for theory in Theory:
            members = unclassed = shared = 0
            for rank in range(9):
                seen = set()
                for p in enumerate_members(theory, rank):
                    weyl = fingerprint(OperatorPair(p, (), theory), opts).weyl
                    members += 1
                    if weyl is None:
                        unclassed += 1
                    elif weyl in seen:
                        shared += 1
                    seen.add(weyl)
            found[variant, theory.value] = (members, unclassed, shared)
    sizes = {"B": 224, "C": 257, "D": 177}
    misses = {(SO, "C"): (190, 0), (SP, "B"): (0, 60), (SP, "D"): (0, 55), (VACUOUS, "C"): (190, 0)}
    assert found == {(variant, theory): (sizes[theory], *misses.get((variant, theory), (0, 0)))
                     for variant in (None, SO, SP, VACUOUS) for theory in sizes}
