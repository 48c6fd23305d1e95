"""Sp and the collapse maps held to the C-collapse, a definition from outside the code.

The C-collapse of a partition of even total is the largest C-partition
(every odd value with even multiplicity) that it dominates.  Every other Sp
oracle of the tests restates Sp's row rule; this one is defined by the
dominance order (partition_oracle.c_collapse and c_collapse_by_dominance).
Write p- for p with one box taken off its last row.
"""
from partition_oracle import (
    c_collapse,
    c_collapse_by_dominance,
    dominates,
    is_c_partition,
    member_count,
    partitions_of,
    upto,
)
from rigidfp import sp_map, unipotent_mu_factored, xs_map, ys_map
from rigidfp.partitions import Theory, enumerate_members, enumerate_rigid


def _minus(p):
    """p with one box taken off its last row, a row of 0 dropped."""
    return p[:-1] + (p[-1] - 1,) * (p[-1] > 1)


def test_dominance_examples():
    assert dominates((3, 1), (2, 2)) and not dominates((2, 2), (3, 1))
    assert dominates((2, 2), (2, 1, 1)) and dominates((4,), (4,))
    # Neither of (3, 1, 1, 1) and (2, 2, 2) dominates the other.
    assert not dominates((3, 1, 1, 1), (2, 2, 2)) and not dominates((2, 2, 2), (3, 1, 1, 1))
    assert is_c_partition((3, 3, 2, 1, 1)) and not is_c_partition((3, 2, 1))


def test_collapse_examples():
    for p, collapsed in (((), ()), ((3, 1), (2, 2)), ((5, 3), (4, 4)), ((3, 2, 1), (2, 2, 2)),
                         ((3, 3, 3, 1), (3, 3, 2, 2)), ((2, 1, 1), (2, 1, 1))):
        assert c_collapse(p) == c_collapse_by_dominance(p) == collapsed, p


def test_procedure_is_the_definition():
    # Every partition of every even total to 16, rank 8: the procedure
    # returns the largest C-partition below p, and one exists.
    checked = 0
    for rank in range(9):
        for p in partitions_of(2 * rank):
            assert c_collapse(p) == c_collapse_by_dominance(p), p
            checked += 1
    assert checked == 526


def test_sp_image_is_the_collapse():
    # sp_map's image is the collapse of p- in B and of p in C and D, and
    # so is the collapse-factored mu, on every member to rank 16.
    members = list(upto(enumerate_members, 16))
    assert len(members) == sum(member_count(t, rank) for t in "BCD" for rank in range(17))
    assert len(members) == 17102
    for theory, p in members:
        collapsed = c_collapse(_minus(p) if theory is Theory.B else p)
        assert sp_map(p).mu_partition() == collapsed, (theory, p)
        assert unipotent_mu_factored(p, theory) == collapsed, (theory, p)


def test_collapse_maps_are_the_collapse():
    # xs_map(s) is the collapse of s- and ys_map(s) that of s, on the odd
    # part of every rigid B (xs_map) or D (ys_map) partition to rank 30.
    odd_parts = dict.fromkeys((theory, tuple(v for v in p if v % 2))
                              for theory, p in upto(enumerate_rigid, 30, (Theory.B, Theory.D)))
    assert len(odd_parts) == 1208
    for theory, sigma in odd_parts:
        if theory is Theory.B:
            assert xs_map(sigma) == c_collapse(_minus(sigma)), sigma
        else:
            assert ys_map(sigma) == c_collapse(sigma), sigma
