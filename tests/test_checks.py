import pytest

from rigidfp.checks import DEFAULT_MAX_RANK, SUITES, run_suite

# Inputs each suite sweeps at its default rank.  A change to an input
# generator that drops or repeats inputs shows up here.
CHECKED_AT_DEFAULT = {
    "structure": 333,
    "sp-locality": 3777,
    "parity": 3777,
    "rank-identity": 1136,
    "condition-ii": 568,
    "shift": 217,
    "factorization": 333,
    "path-equivalence": 1136,
    "closed-form": 141,
    "collapse-bijection": 73,
}


def test_pins_cover_every_suite():
    assert set(CHECKED_AT_DEFAULT) == set(SUITES) == set(DEFAULT_MAX_RANK)


@pytest.mark.parametrize("name", sorted(CHECKED_AT_DEFAULT))
def test_default_sweep_size(name):
    report = run_suite(name)
    assert report.checked == CHECKED_AT_DEFAULT[name]
    assert report.failures == []
    assert report.ok


def test_condition_ii_info_line():
    assert run_suite("condition-ii").info == [
        "gapped sweep (total <= 20): 28 (ii)-sensitive of 1265 non-rigid inputs; "
        "e.g. B 5 2^2, B 7 2^2, B 5 2^4, B 9 2^2, B 7 2^4"
    ]


def test_rank_identity_reports_c_diagnostics_as_info():
    info = run_suite("rank-identity").info
    assert len(info) == 106
    assert all(line.startswith("C (") for line in info)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_empty_sweep_is_not_a_pass(name):
    report = run_suite(name, -1)
    assert report.checked == 0
    assert not report.ok
