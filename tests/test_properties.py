from hypothesis import given, strategies as st

from partition_oracle import upto
from rigidfp import (
    combine,
    format_partition,
    parse_partition,
    sp_map,
    transpose,
)
from rigidfp.partitions import (
    COMPONENTWISE,
    DPRIME_FIRST,
    PRIME_FIRST,
    enumerate_rigid_pairs,
)

partitions = st.lists(st.integers(1, 9), max_size=8).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


@given(partitions)
def test_transpose_involution(p):
    assert transpose(transpose(p)) == p


@given(partitions)
def test_transpose_preserves_boxes(p):
    assert sum(transpose(p)) == sum(p)


@given(partitions)
def test_format_parse_round_trip(p):
    assert parse_partition(format_partition(p)) == p
    assert parse_partition(",".join(map(str, p))) == p


@given(partitions)
def test_sp_total_drops_by_totals_parity(p):
    # An even diagram keeps all its boxes; an odd one loses exactly one.
    trace = sp_map(p)
    assert sum(trace.mu_values) == sum(p) - sum(p) % 2


@given(partitions)
def test_sp_moves_at_most_one_box_per_row(p):
    trace = sp_map(p)
    for lam, mu in zip(p, trace.mu_values):
        assert abs(mu - lam) <= 1


@given(partitions)
def test_sp_image_is_weakly_decreasing(p):
    mu = sp_map(p).mu_values
    assert all(a >= b for a, b in zip(mu, mu[1:]))


@given(partitions)
def test_sp_deficit_bounded(p):
    trace = sp_map(p)
    assert all(d in (-1, 0) for d in trace.partial_sum_delta)


rigid_pairs = st.sampled_from([pair for _, pair in upto(enumerate_rigid_pairs, 6)])


@given(rigid_pairs)
def test_combine_preserves_row_multiset(pair):
    tp = combine(pair)
    assert sorted(tp.values, reverse=True) == sorted(
        pair.lambda_prime + pair.lambda_dprime, reverse=True
    )


@given(rigid_pairs)
def test_combine_tie_breaks_agree_on_values(pair):
    a = combine(pair, tie_break=PRIME_FIRST)
    b = combine(pair, tie_break=DPRIME_FIRST)
    assert a.values == b.values


@given(rigid_pairs)
def test_componentwise_preserves_boxes(pair):
    tp = combine(pair, mode=COMPONENTWISE)
    assert sum(tp.values) == sum(pair.lambda_prime) + sum(pair.lambda_dprime)
