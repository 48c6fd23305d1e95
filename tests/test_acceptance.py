"""Acceptance gate: one test per contract item, each printing a PASS line.

Each sweep is a lemma suite of rigidfp.checks, run in full to the stated
rank, so every lemma is stated once, in its suite; the two timed items also
assert their runtime budget.
"""
import time

from rigidfp import (
    FingerprintOptions,
    OperatorPair,
    fingerprint,
    unipotent_mu_factored,
)
from rigidfp.checks import run_suite
from rigidfp.fingerprint import VACUOUS
from rigidfp.partitions import Theory


def _passed(label: str, detail: str) -> None:
    print(f"PASS {label}: {detail}")


def _suite_ok(name: str, max_rank: int):
    report = run_suite(name, max_rank)
    assert report.ok, f"{name}: " + "; ".join(report.failures[:5])
    return report


def test_01_c_closed_form():
    start = time.monotonic()
    report = _suite_ok("closed-form", 12)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _passed("C closed form", f"{report.checked} B/D and even C partitions, {elapsed:.2f}s")


def test_02_c_fixed_point():
    report = _suite_ok("factorization", 12)
    _passed("C fixed point", f"{report.checked} B/C/D partitions")


def test_03_bd_factorization():
    assert unipotent_mu_factored((3, 2, 2, 1, 1, 1, 1), Theory.B) == (2, 2, 2, 2, 1, 1)
    assert unipotent_mu_factored((3, 2, 2, 1), Theory.D) == (2, 2, 2, 2)
    report = _suite_ok("factorization", 12)
    _passed("B/D factorization", f"{report.checked} B/C/D partitions + 2 worked instances")


def test_04_collapse_maps():
    report = _suite_ok("collapse-bijection", 12)
    _passed("collapse maps", f"{report.checked} odd-part subpartitions")


def test_05_rank_identity():
    report = _suite_ok("rank-identity", 8)
    # B/D diagnostics are failures inside the suite, so report.ok covers them;
    # C diagnostics come back as info lines naming the exact convention.
    known = fingerprint(
        OperatorPair((2, 1, 1), (), Theory.C),
        FingerprintOptions(iii_variant=VACUOUS),
    )
    assert known.weyl is None and known.diagnostic is not None
    assert any("2 1^2" in line and "iii=" in line for line in report.info)
    _passed("rank identity", f"{report.checked} inputs, "
            f"{len(report.info)} C diagnostics reported")


def test_06_path_equivalence():
    start = time.monotonic()
    report = _suite_ok("path-equivalence", 8)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _passed("path equivalence", f"{report.checked} inputs, {elapsed:.2f}s")


def test_07_condition_ii_redundancy():
    report = _suite_ok("condition-ii", 8)
    sweep = [line for line in report.info if "gapped sweep" in line]
    assert sweep, "informational gapped report missing"
    _passed("condition (ii) redundancy", f"{report.checked} inputs; {sweep[0]}")


def test_08_sp_structure_lemmas():
    # Rank 12 covers every valid diagram of at most 24 boxes in each theory.
    locality = _suite_ok("sp-locality", 12)
    parity = _suite_ok("parity", 12)
    _passed("Sp structure lemmas",
            f"{locality.checked} locality + {parity.checked} parity inputs")


def test_09_shift_lemma():
    report = _suite_ok("shift", 6)
    _passed("shift lemma", f"{report.checked} pairs")


def test_10_structure_propositions():
    report = _suite_ok("structure", 12)
    _passed("structure propositions", f"{report.checked} partitions")


def test_11_oracle_instances():
    cases = [
        (Theory.B, (2, 2, 1), (1, 1), (2, 1), ()),
        (Theory.B, (1, 1, 1), (1, 1), (1, 1), ()),
        (Theory.C, (2, 1, 1), (1, 1), (1, 1), (1,)),
        (Theory.B, (3, 2, 2, 1, 1, 1, 1), (), (1,), (1, 1, 1, 1)),
        (Theory.B, (2, 2, 2, 2, 1), (), (2, 2), ()),
    ]
    for theory, prime, dprime, alpha, beta in cases:
        res = fingerprint(OperatorPair(prime, dprime, theory))
        assert res.weyl is not None, (theory, prime, dprime)
        assert res.weyl.alpha == alpha and res.weyl.beta == beta, (
            theory, prime, dprime, res.weyl)
    _passed("oracle instances", f"{len(cases)} fingerprints bit-exact")
