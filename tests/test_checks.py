import re
import sys

import pytest

from partition_oracle import partitions_of, prefix_signs, rigid_count, upto
import rigidfp.checks
import rigidfp.closedform
from rigidfp.checks import (
    SUITES,
    SuiteReport,
    run_suite,
    sp_locality_failure,
    transpose_structure_ok,
)
from rigidfp.fingerprint import (
    SO,
    SP,
    VACUOUS,
    ExtractionDiagnostic,
    FingerprintOptions,
    SpTrace,
    TauTable,
    WeylPair,
    extract_weyl_pair,
    fingerprint,
    sp_map,
    tau_table,
)
from rigidfp.closedform import xs_inverse, xs_map, ys_map
from rigidfp.partitions import MODES, TIE_BREAKS, enumerate_members, format_partition, transpose

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


def test_suite_report_record():
    report = SuiteReport(checked=2, failures=["x"])
    assert repr(report) == "SuiteReport(checked=2, failures=['x'], info=[])"
    assert vars(SuiteReport(2, ["x"], ["y"])) == {"checked": 2, "failures": ["x"], "info": ["y"]}
    assert not report.ok and SuiteReport(checked=1).ok and not SuiteReport().ok
    # Each report starts with lists of its own.
    assert SuiteReport().failures is not SuiteReport().failures


def test_pins_cover_every_suite():
    assert set(CHECKED_AT_DEFAULT) == set(SUITES)


def test_rigid_pins_match_the_count():
    # structure and factorization sweep every rigid partition to their rank.
    for name in ("structure", "factorization"):
        max_rank = SUITES[name][1]
        counted = sum(rigid_count(theory, rank) for theory in "BCD" for rank in range(max_rank + 1))
        assert counted == CHECKED_AT_DEFAULT[name]


def _rigid_pairs_to(max_rank):
    """Rigid pairs of every theory to max_rank: rigid_count convolved over n' + n''."""
    return sum(rigid_count(side1, rank - n2) * rigid_count(side2, n2)
               for side1, side2 in ("BD", "CC", "DD")
               for rank in range(max_rank + 1) for n2 in range(rank + 1))


# How many inputs per rigid pair each pair suite checks.  Of the other
# suites, sp-locality and parity sweep members, not rigid partitions, and no
# count of rigid partitions gives these two:
#   - closed-form keeps only the C partitions whose multiplicities are all even;
#   - collapse-bijection checks each distinct odd part once, and partitions
#     share odd parts.
PER_PAIR = {"condition-ii": 1, "shift": 1, "rank-identity": len(MODES),
            "path-equivalence": len(TIE_BREAKS)}


@pytest.mark.parametrize("name", sorted(PER_PAIR))
def test_pair_pins_match_the_count(name):
    assert PER_PAIR[name] * _rigid_pairs_to(SUITES[name][1]) == CHECKED_AT_DEFAULT[name]


@pytest.mark.parametrize("name", sorted(CHECKED_AT_DEFAULT))
def test_default_sweep_size(name):
    report = run_suite(name)
    assert report.checked == CHECKED_AT_DEFAULT[name]
    assert report.failures == []
    assert report.ok


def test_structure_rule_on_all_partitions():
    # The structure suite feeds only rigid partitions; pin the False side too.
    parts = [p for total in range(17) for p in partitions_of(total)]
    assert len(parts) == 915
    passing = {t: sum(transpose_structure_ok(p, t) for p in parts) for t in "BCD"}
    assert passing == {"B": 139, "C": 257, "D": 177}


def test_condition_ii_info_line():
    assert run_suite("condition-ii").info == [
        "gapped sweep (total <= 20): 28 (ii)-sensitive of 1265 non-rigid inputs; "
        "e.g. B 5 2^2, B 7 2^2, B 5 2^4, B 9 2^2, B 7 2^4"
    ]


def test_condition_ii_runs_one_pipeline_per_input(monkeypatch):
    # One run per rigid pair, whose without-(ii) table reuses its trace, and
    # one per gapped member (1265 of them, as the info line says).
    calls = []

    def counted(pair, opts=None):
        calls.append(pair)
        return fingerprint(pair, opts)

    monkeypatch.setattr(rigidfp.checks, "fingerprint", counted)
    report = run_suite("condition-ii", 4)
    assert report.ok
    assert len(calls) == report.checked + 1265


def _shift_mutant(monkeypatch, change):
    """Apply change to the result of each shifted input of the shift suite.

    check_shift fingerprints the base pair, then the shifted one, so every
    second call is a shifted input.
    """
    calls = []

    def mutated(pair, opts=None):
        res = fingerprint(pair, opts)
        calls.append(pair)
        return change(res) if len(calls) % 2 == 0 else res

    monkeypatch.setattr(rigidfp.checks, "fingerprint", mutated)


def test_shift_fails_on_one_sided_diagnostic(monkeypatch):
    # Rank 4 has 73 rigid pairs, 7 with a diagnostic: the other 66 gain one
    # on the shifted side only.
    def change(res):
        if res.weyl is None:
            return res
        return res._replace(weyl=None, diagnostic=ExtractionDiagnostic(((3, 1, 1),)))

    _shift_mutant(monkeypatch, change)
    report = run_suite("shift", 4)
    assert report.checked == 73
    assert len(report.failures) == 66
    assert all(f.endswith("diagnostic on one side of the shift only") for f in report.failures)


def test_shift_builds_shifted_pairs_unvalidated(monkeypatch):
    # Adding 2 to every part keeps each part's parity, every multiplicity
    # and the parity of the box count: the shifted pair is valid by construction.
    def refuse(*args):
        raise AssertionError("a shifted pair was re-validated")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rigidfp" and hasattr(module, "validate_partition"):
            monkeypatch.setattr(module, "validate_partition", refuse)
    report = rigidfp.checks.check_shift(4)
    assert report.ok and report.checked == 73


def test_shift_compares_diagnostic_entries(monkeypatch):
    # Each of the 7 diagnostics at rank 4 must shift by 2 exactly.
    def change(res):
        if res.diagnostic is None:
            return res
        entries = tuple((v + 1, n, t) for v, n, t in res.diagnostic.entries)
        return res._replace(diagnostic=ExtractionDiagnostic(entries))

    _shift_mutant(monkeypatch, change)
    assert len(run_suite("shift", 4).failures) == 7


def test_collapse_bijection_splits_unvalidated(monkeypatch):
    # Enumerated rigid partitions are valid by construction, so the suite
    # splits them without the validating split_parity.
    def refuse(*args):
        raise AssertionError("split_parity re-validated an enumerated partition")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rigidfp" and hasattr(module, "split_parity"):
            monkeypatch.setattr(module, "split_parity", refuse)
    report = run_suite("collapse-bijection", 12)
    assert report.ok and report.checked == CHECKED_AT_DEFAULT["collapse-bijection"]


def test_rank_identity_reports_c_diagnostics_as_info():
    info = run_suite("rank-identity").info
    assert len(info) == 106
    assert all(line.startswith("C (") for line in info)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_empty_sweep_is_not_a_pass(name):
    report = run_suite(name, -1)
    assert report.checked == 0
    assert not report.ok


# Wrong Sp rules, each as (previous row, row, next row, sign) -> mu_i.  The
# correct rule moves an odd row v one box by its sign s unless the row on
# that side (next n under '-', previous p under '+') has the same value.
SP_MUTANTS = {
    "plus-guard-dropped": lambda p, v, n, s: v + s if v % 2 and (s == 1 or v != n) else v,
    "minus-guard-dropped": lambda p, v, n, s: v + s if v % 2 and (s == -1 or v != p) else v,
    "sign-flipped": lambda p, v, n, s: v - s if v % 2 and v != (p if s == 1 else n) else v,
    "guards-swapped": lambda p, v, n, s: v + s if v % 2 and v != (n if s == 1 else p) else v,
}


@pytest.mark.parametrize(
    "suite", ["sp-locality", "closed-form", "rank-identity", "path-equivalence", "condition-ii"]
)
@pytest.mark.parametrize("mutant", sorted(SP_MUTANTS))
def test_suite_catches_sp_mutant(suite, mutant, monkeypatch):
    _patch_everywhere(monkeypatch, "sp_map", sp_map, _sp_mutant(SP_MUTANTS[mutant]))
    assert run_suite(suite, 4).failures


def _sp_mutant(rule):
    """An sp_map that applies rule to each row."""
    def mutated(values):
        values = tuple(values)
        rows = zip((0,) + values, values, values[1:] + (0,), prefix_signs(values))
        return SpTrace(values, tuple(rule(*row) for row in rows))
    return mutated


def _reference_sp_locality(theory, p, sp=sp_map):
    """sp-locality's check of one member before it became one pass.

    The oracle the one-pass check is held to: the sign of each row from
    prefix_signs, group-boundary flags from two lists, then one zip over the
    rows.
    """
    trace = sp(p)
    n = len(p)
    first = [i == 0 or p[i - 1] != p[i] for i in range(n)]
    last = [i == n - 1 or p[i + 1] != p[i] for i in range(n)]
    for i, (lam, mu, sign) in enumerate(zip(p, trace.mu_values, prefix_signs(p))):
        if lam % 2 == 1 and sign == -1 and last[i]:
            expected = lam - 1
        elif lam % 2 == 1 and sign == 1 and first[i]:
            expected = lam + 1
        else:
            expected = lam
        if mu != expected:
            return (
                f"{theory.value} {format_partition(p)} index {i}: "
                f"mu={mu}, expected {expected}"
            )


@pytest.mark.parametrize("mutant", [None, *sorted(SP_MUTANTS)])
def test_sp_locality_matches_reference(mutant, monkeypatch):
    # Same verdict and failure string on every member, under the true Sp
    # rule and under each pinned mutant.
    sp = sp_map
    if mutant is not None:
        sp = _sp_mutant(SP_MUTANTS[mutant])
        _patch_everywhere(monkeypatch, "sp_map", sp_map, sp)
    failures = 0
    for theory, p in upto(enumerate_members, 12):
        expected = _reference_sp_locality(theory, p, sp)
        assert sp_locality_failure(theory, p) == expected, (theory, p)
        failures += expected is not None
    assert (failures > 0) == (mutant is not None)


def _patch_everywhere(monkeypatch, attr, original, replacement):
    """Rebind attr in every rigidfp module that binds the original."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rigidfp" and getattr(module, attr, None) is original:
            monkeypatch.setattr(module, attr, replacement)


def _with_options(change):
    """A tau_table that evaluates with change(opts, theory) in place of opts."""
    def mutated(trace, tags, theory, opts=None):
        opts = opts or FingerprintOptions()
        return tau_table(trace, tags, theory, change(opts, theory))
    return mutated


def _all_plus(trace, tags, theory, opts=None):
    entries = tau_table(trace, tags, theory, opts).entries
    return TauTable(tuple((m, 1, None) for m, _, _ in entries))


# Wrong tau rules, and the suites that catch each at rank 4 with their
# failure counts.  Only catches are pinned: a suite missing from a row is
# not asserted to miss.
TAU_MUTANTS = {
    "condition-i-dropped": _with_options(
        lambda o, t: o._replace(conditions=o.conditions - {"i"})),
    "condition-iii-dropped": _with_options(
        lambda o, t: o._replace(conditions=o.conditions - {"iii"})),
    "so-sp-swapped": _with_options(
        lambda o, t: o._replace(iii_variant={SO: SP, SP: SO, VACUOUS: VACUOUS}[o.variant_for(t)])),
    "all-plus": _all_plus,
    "condition-ii-dropped": _with_options(
        lambda o, t: o._replace(conditions=o.conditions - {"ii"})),
}
TAU_CATCHES = {
    "condition-i-dropped": {"condition-ii": 3},
    "condition-iii-dropped": {"rank-identity": 8, "path-equivalence": 16},
    "so-sp-swapped": {"rank-identity": 8, "closed-form": 5, "path-equivalence": 32,
                      "condition-ii": 207},
    "all-plus": {"rank-identity": 9, "closed-form": 1, "path-equivalence": 22,
                 "condition-ii": 522},
    "condition-ii-dropped": {"condition-ii": 28},
}


@pytest.mark.parametrize("mutant, suite, failures", [
    (mutant, suite, n) for mutant, row in TAU_CATCHES.items() for suite, n in row.items()
])
def test_suite_catches_tau_mutant(mutant, suite, failures, monkeypatch):
    _patch_everywhere(monkeypatch, "tau_table", tau_table, TAU_MUTANTS[mutant])
    assert len(run_suite(suite, 4).failures) == failures


# Sp mutants that reach the parity and factorization failure lines, with
# their failure counts at rank 4, as in TAU_CATCHES.  A patched sp_map
# feeds both sides of the B/D factorization comparison, so no Sp mutant
# reaches that line: only the C line, where Sp must be the identity.
SP_CATCHES = {
    "minus-guard-dropped": {"parity": 27, "factorization": 8},
    "plus-guard-dropped": {"parity": 27, "factorization": 8},
    "guards-swapped": {"factorization": 8},
}
SP_CATCH_FORMS = {
    "parity": r"[BCD] \S.*: odd value \d+ unpaired in \S.*",
    "factorization": r"C \S.*: sp not the identity",
}


@pytest.mark.parametrize("mutant, suite, failures", [
    (mutant, suite, n) for mutant, row in SP_CATCHES.items() for suite, n in row.items()
])
def test_suite_counts_sp_mutant_failures(mutant, suite, failures, monkeypatch):
    _patch_everywhere(monkeypatch, "sp_map", sp_map, _sp_mutant(SP_MUTANTS[mutant]))
    report = run_suite(suite, 4)
    assert len(report.failures) == failures
    assert all(re.fullmatch(SP_CATCH_FORMS[suite], f) for f in report.failures)


def _correct_sp_rule(p, v, n, s):
    return v + s if v % 2 and v != (p if s == 1 else n) else v


def _tau_plus_above_2(trace, tags, theory, opts=None):
    entries = tau_table(trace, tags, theory, opts).entries
    return TauTable(tuple((m, 1, None) if m > 2 else (m, t, w) for m, t, w in entries))


def _extraction_dropping_last_beta(trace, tau):
    outcome = extract_weyl_pair(trace, tau)
    if isinstance(outcome, WeylPair):
        return outcome._replace(beta=outcome.beta[:-1])
    return outcome


def _extraction_merging_last_beta(trace, tau):
    outcome = extract_weyl_pair(trace, tau)
    if isinstance(outcome, WeylPair) and len(outcome.beta) > 1:
        *rest, b1, b2 = outcome.beta
        return outcome._replace(beta=(*rest, b1 + b2))
    return outcome


# Mutants for the suite failure lines that the tables above do not reach.
# Each replaces one function in every rigidfp module that binds it.  Row:
# (function, replacement, suite, failures at rank 4, how many of them take
# the form, the form of the line's failure string).
LINE_MUTANTS = {
    "transpose-reversed": (
        transpose, lambda p: transpose(p)[::-1],
        "structure", 5, 5, r"[BCD] \S.*: transpose \S.*"),
    "collapse-identity": (
        rigidfp.closedform._collapse, lambda sigma: sigma,
        "factorization", 10, 10, r"[BD] \S.*: sp \S.* != factored \S.*"),
    "extraction-drops-last-beta": (
        extract_weyl_pair, _extraction_dropping_last_beta,
        "rank-identity", 43, 43,
        r"[BCD] \(.*\) \[(interleave|sum)\]: \|alpha\|\+\|beta\|=\d+ != \d+"),
    # Keeps |beta| and changes the parity of its part count.
    "extraction-merges-last-beta": (
        extract_weyl_pair, _extraction_merging_last_beta,
        "rank-identity", 10, 10, r"D \(.*\) \[(interleave|sum)\]: beta has \d+ parts, odd in D"),
    "sp-above-4-unmoved": (
        sp_map, _sp_mutant(lambda p, v, n, s: v if v > 4 else _correct_sp_rule(p, v, n, s)),
        "shift", 3, 3, r"[BCD] \(.*\): trace shift broken"),
    # 7 of its 11 failures are one-sided diagnostics; the first is a shifted
    # [alpha;beta].
    "tau-plus-above-2": (
        tau_table, _tau_plus_above_2,
        "shift", 11, 4, r"[BCD] \(.*\): \[[^;]*;[^]]*\] -> \[[^;]*;[^]]*\]"),
    "xs-map-identity": (
        xs_map, tuple,
        "collapse-bijection", 5, 5, r"B \S.*: wrong box count"),
    "ys-map-identity": (
        ys_map, tuple,
        "collapse-bijection", 1, 1, r"D \S.*: image \S.* has odd transpose row"),
    "xs-inverse-drops-last-row": (
        xs_inverse, lambda p: xs_inverse(p)[:-1],
        "collapse-bijection", 5, 5, r"B \S.*: round trip broken"),
}


@pytest.mark.parametrize("mutant", list(LINE_MUTANTS))
def test_suite_failure_line_reached(mutant, monkeypatch):
    original, replacement, suite, failures, on_line, form = LINE_MUTANTS[mutant]
    _patch_everywhere(monkeypatch, original.__name__, original, replacement)
    report = run_suite(suite, 4)
    assert len(report.failures) == failures
    assert re.fullmatch(form, report.failures[0])
    assert sum(bool(re.fullmatch(form, f)) for f in report.failures) == on_line
