import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from partition_oracle import partitions_of, rigid_count, sp_row, sp_rows, upto
import rigidfp.checks
import rigidfp.closedform
from rigidfp.checks import (
    SUITES,
    SuiteReport,
    deficit_closure_ok,
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
from rigidfp.closedform import side_fingerprint, split_parity, xs_inverse, xs_map, ys_map
from rigidfp.partitions import (
    COMPONENTWISE, DPRIME_FIRST, INTERLEAVE, MODES, PAIR_SIDES, PRIME_FIRST, TIE_BREAKS,
    OperatorPair, Theory,
    combine, enumerate_members, enumerate_rigid, enumerate_rigid_pairs, format_partition,
    is_rigid, is_theory_member, transpose, validate_partition)

# Inputs each suite sweeps at its default rank.  A change to an input
# generator that drops or repeats inputs shows up here.
CHECKED_AT_DEFAULT = {
    "structure": 333,
    "sp-locality": 3777,
    "parity": 3777,
    "rank-identity": 1136,
    "condition-ii": 1355,
    "shift": 217,
    "factorization": 333,
    "path-equivalence": 1136,
    "closed-form": 141,
    "collapse-bijection": 73,
}


def test_suite_report_record():
    report = SuiteReport(2, ["x"], [])
    assert repr(report) == "SuiteReport(checked=2, failures=['x'], info=[])"
    assert report == (2, ["x"], []) and SuiteReport._field_defaults == {}
    with pytest.raises(AttributeError):
        report.checked = 3
    assert not report.ok and SuiteReport(1, [], []).ok and not SuiteReport(0, [], []).ok


def test_default_ranks_within_largest():
    # A raised default must stay within the suite's largest rank.
    for name, (_, default, largest, _) in SUITES.items():
        assert default <= largest, name


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


@pytest.mark.parametrize("name", sorted(PER_PAIR))
def test_pair_suites_build_side_lists_once(name, monkeypatch):
    # Each theory enumerates each of its side theories once per rank, for
    # every rank of the sweep: 4 side lists (B and D for B, C, D) of 7 ranks.
    calls = []

    def counted(theory, rank):
        calls.append((theory, rank))
        return enumerate_rigid(theory, rank)

    _patch_everywhere(monkeypatch, "enumerate_rigid", enumerate_rigid, counted)
    run_suite(name, 6)
    lists = sum(len(set(PAIR_SIDES[theory])) for theory in Theory)
    assert len(calls) == lists * 7 == 28


# The option sets each suite sweeps its rigid pairs under.
SUITE_OPTIONS = {
    "path-equivalence": [FingerprintOptions(tie_break=tie) for tie in TIE_BREAKS],
    "rank-identity": [FingerprintOptions(mode=mode) for mode in MODES],
}


def _distinct_stages(options, max_rank=8):
    """How many Sp traces and extractions the pair stream to max_rank under
    options needs, with one memo per theory and rank: its distinct
    (theory, rank, values) of the merges, and distinct (theory, rank, mu,
    tau).  Counted over plain fingerprint runs, which keep no memo."""
    merges, extractions = set(), set()
    for theory in Theory:
        for rank in range(max_rank + 1):
            for pair in enumerate_rigid_pairs(theory, rank):
                for opts in options:
                    res = fingerprint(pair, opts)
                    merges.add((theory, rank, res.tagged.values))
                    extractions.add((theory, rank, res.mu, res.tau))
    return len(merges), len(extractions)


def _pipeline_runs(monkeypatch, name):
    """run_suite(name, 8) and how many tau tables, Sp traces and
    extractions the pipeline computed."""
    pipeline = sys.modules["rigidfp.fingerprint"]
    counts = {}

    def count(stage):
        original = getattr(pipeline, stage)
        counts[stage] = 0

        def counted(*args):
            counts[stage] += 1
            return original(*args)

        monkeypatch.setattr(pipeline, stage, counted)

    for stage in ("tau_table", "sp_map", "extract_weyl_pair"):
        count(stage)
    report = run_suite(name, 8)
    return report, counts["tau_table"], counts["sp_map"], counts["extract_weyl_pair"]


@pytest.mark.parametrize("name, merges, extractions", [
    ("path-equivalence", 117, 149), ("rank-identity", 307, 394)])
def test_alike_merges_share_one_run(name, merges, extractions, monkeypatch):
    # Every input computes its own tau table.  The Sp trace and the
    # extraction read only the merge's values and (mu, tau), which many
    # inputs of one theory and rank share: the two tie-breaks merge the
    # same values, and so do a pair with an empty side in both modes.
    assert _distinct_stages(SUITE_OPTIONS[name]) == (merges, extractions)
    report, tables, traces, extracted = _pipeline_runs(monkeypatch, name)
    assert report.ok and report.checked == tables == 1136
    assert (traces, extracted) == (merges, extractions)


@pytest.mark.parametrize("name", ["path-equivalence", "rank-identity"])
@pytest.mark.parametrize("field, pad", [("values", 0), ("prime_odd", None)])
def test_a_moved_second_merge_gets_its_own_run(name, field, pad, monkeypatch):
    # A combine that lengthens one field of the merge under the second
    # option set only.  Every input still gets its own tau table; moved
    # values are merges of their own, with their own Sp trace and
    # extraction, while a moved prime_odd shares both.
    def moved(pair, mode=INTERLEAVE, tie_break=PRIME_FIRST):
        tagged = combine(pair, mode, tie_break)
        if (mode, tie_break) == (INTERLEAVE, PRIME_FIRST):
            return tagged
        return tagged._replace(**{field: getattr(tagged, field) + (pad,)})

    monkeypatch.setattr(sys.modules["rigidfp.fingerprint"], "combine", moved)
    distinct = _distinct_stages(SUITE_OPTIONS[name])
    report, tables, traces, extracted = _pipeline_runs(monkeypatch, name)
    assert tables == report.checked == 1136
    assert (traces, extracted) == distinct


@pytest.mark.parametrize("options", [
    [FingerprintOptions()],
    [FingerprintOptions(mode=mode) for mode in MODES],
    [FingerprintOptions(tie_break=tie) for tie in TIE_BREAKS],
    [FingerprintOptions(), FingerprintOptions(conditions={"i", "iii"}),
     FingerprintOptions(mode=COMPONENTWISE, iii_variant=VACUOUS),
     FingerprintOptions(tie_break=DPRIME_FIRST, conditions={"iii"}, iii_variant=SP)],
], ids=["default", "modes", "tie-breaks", "mixed"])
def test_pair_stream_runs_are_exact(options):
    # Each record the pair stream yields is the pipeline's own result for its
    # input, options and merge included, also where a run shares work, and
    # under option sets that differ in conditions and iii variant.
    count = 0
    for _, pair, opts, res in rigidfp.checks._pairs_under(8, options):
        count += 1
        assert tuple(res) == tuple(fingerprint(pair, opts))
    assert count == 568 * len(options)


def _shift_traces(max_rank):
    """How many Sp traces the shift suite to max_rank needs: the distinct
    merges of its rigid pairs per theory and rank, and the distinct merges
    of the shifted pairs over the whole run.  Counted over plain
    fingerprint runs, which keep no memo."""
    shifted = {
        fingerprint(OperatorPair(*(tuple(v + 2 for v in side) for side in pair[:2]),
                                 theory)).tagged.values
        for theory, pair in upto(enumerate_rigid_pairs, max_rank)}
    return _distinct_stages([FingerprintOptions()], max_rank)[0] + len(shifted)


def _distinct_traces(max_rank):
    """How many deficit verdicts rank-identity to max_rank needs: the
    distinct Sp traces of its inputs over the whole run, as its memo keys
    them.  Counted over plain fingerprint runs, which keep no memo."""
    return len({fingerprint(pair, opts).trace
                for _, pair in upto(enumerate_rigid_pairs, max_rank)
                for opts in SUITE_OPTIONS["rank-identity"]})


def _walk_key(theory, pair):
    """What the side walk of a pair reads: its theory, the sorted union of
    its sides and, in C only, the values lambda' holds."""
    prime, dprime, _ = pair
    return theory, tuple(sorted(prime + dprime)), frozenset(prime) if theory.paired else None


def _distinct_walks(max_rank):
    """How many side walks path-equivalence to max_rank needs: the distinct
    walk keys of its rigid pairs."""
    return len({_walk_key(theory, pair) for theory, pair in upto(enumerate_rigid_pairs, max_rank)})


# Each stage a run of a memo-keeping suite computes once per distinct key:
# (suite, module that binds the stage, stage) -> its count by rank.
SUITE_STAGES = {
    ("rank-identity", "rigidfp.fingerprint", "sp_map"):
        lambda max_rank: _distinct_stages(SUITE_OPTIONS["rank-identity"], max_rank)[0],
    ("shift", "rigidfp.fingerprint", "sp_map"): _shift_traces,
    ("rank-identity", "rigidfp.checks", "deficit_closure_ok"): _distinct_traces,
    ("path-equivalence", "rigidfp.checks", "side_fingerprint"): _distinct_walks,
}


def _stage_calls(monkeypatch, name, max_rank, module="rigidfp.fingerprint", stage="sp_map"):
    """run_suite(name, max_rank) and how many times it called stage, by
    default how many Sp traces the pipeline computed."""
    calls = []
    original = getattr(sys.modules[module], stage)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sys.modules[module], stage, counted)
    return run_suite(name, max_rank), len(calls)


@pytest.mark.parametrize("name, module, stage", sorted(SUITE_STAGES))
def test_no_memo_outlives_a_sweep(name, module, stage, monkeypatch):
    # The stage patched between two sweeps sees every distinct key of the
    # second: the first sweep left nothing behind for it to reuse.
    run_suite(name, 4)
    report, calls = _stage_calls(monkeypatch, name, 4, module, stage)
    assert report.ok
    assert calls == SUITE_STAGES[name, module, stage](4) > 0


def test_rank_identity_checks_each_trace_once(monkeypatch):
    # Many inputs share an Sp trace, and the deficit verdict reads only the
    # trace: the 1136 inputs at rank 8 hold fewer distinct traces.
    report, calls = _stage_calls(monkeypatch, "rank-identity", 8,
                                 "rigidfp.checks", "deficit_closure_ok")
    assert report.ok and report.checked == 1136
    assert calls == _distinct_traces(8) < 1136


def test_the_pipeline_builds_no_delta(monkeypatch):
    # tau keeps its own running sum: the pipeline never reads the trace's
    # delta, and rank-identity reads it once per deficit verdict.
    reads = []
    delta = SpTrace.partial_sum_delta

    def counted(trace):
        reads.append(trace)
        return delta.fget(trace)

    monkeypatch.setattr(SpTrace, "partial_sum_delta", property(counted))
    options = SUITE_OPTIONS["rank-identity"] + SUITE_OPTIONS["path-equivalence"]
    runs = list(rigidfp.checks._pairs_under(8, options))
    runs += [fingerprint(pair) for _, pair in upto(enumerate_rigid_pairs, 8)]
    assert len(runs) == 568 * 5 and reads == []
    assert run_suite("rank-identity", 8).ok and len(reads) == _distinct_traces(8)


def test_path_equivalence_walks_each_key_once(monkeypatch):
    # The two tie-breaks of a pair, and pairs whose sides hold the same
    # union, read one walk: at rank 8, fewer walks than the 568 pairs.
    report, calls = _stage_calls(monkeypatch, "path-equivalence", 8,
                                 "rigidfp.checks", "side_fingerprint")
    assert report.ok and report.checked == 1136
    assert calls == _distinct_walks(8) < 568


def test_the_walk_key_determines_the_walk():
    # Pairs with one key have one side walk.  In C the key needs the values
    # lambda' holds: without them, some pairs with one union walk apart.
    walks, unions = {}, {}
    for theory, pair in upto(enumerate_rigid_pairs, 8):
        walked = side_fingerprint(*pair)
        assert walks.setdefault(_walk_key(theory, pair), walked) == walked
        unions.setdefault(_walk_key(theory, pair)[:2], set()).add(walked)
    assert any(len(outcomes) > 1 for outcomes in unions.values())


def test_shift_runs_one_trace_per_distinct_merge(monkeypatch):
    # Shifting every row by 2 keeps which pairs share a merge.  At rank 12
    # the base runs hold 388 distinct merges per theory and rank, and the
    # 3015 shifted runs 336 in all: 724 Sp traces, where one per shifted
    # run took 3403.
    report, traces = _stage_calls(monkeypatch, "shift", 12)
    assert report.ok and report.checked == 3015
    assert traces == _shift_traces(12) == 724


@pytest.mark.parametrize("name", sorted(SUITES))
def test_run_state_dies_with_its_run(name):
    # Each run builds its own per-run state (memos, info lines, the last
    # side walk), so a second run reports exactly what the first did.
    assert run_suite(name, 4) == run_suite(name, 4)


def test_suites_reading_the_same_inputs_name_one_stream():
    streams = {}
    for name, (*_, inputs) in SUITES.items():
        streams.setdefault(inputs, []).append(name)
    assert sorted(streams.values()) == [
        ["closed-form"], ["collapse-bijection"], ["condition-ii", "shift"], ["path-equivalence"],
        ["rank-identity"], ["sp-locality", "parity"], ["structure", "factorization"]]


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
        "gapped sweep: 42 (ii)-sensitive of 1446 non-rigid inputs; "
        "e.g. B 5 2^2, B 7 2^2, B 5 2^4, B 9 2^2, B 7 2^4"
    ]


def test_condition_ii_formats_only_reported_names(monkeypatch):
    # Only the gapped sweep's 42 (ii)-sensitive members are named, not each
    # of its 1446 non-rigid members; rigid pairs are named only on failure.
    calls = []

    def counted(p):
        calls.append(p)
        return format_partition(p)

    monkeypatch.setattr(rigidfp.checks, "format_partition", counted)
    report = run_suite("condition-ii", 10)
    assert report.ok and "42 (ii)-sensitive of 1446" in report.info[0]
    assert len(calls) == 42


def _condition_ii_pipeline_runs(monkeypatch, max_rank):
    """condition-ii's report at max_rank and how many Sp traces the
    pipeline computed."""
    report, traces = _stage_calls(monkeypatch, "condition-ii", max_rank)
    assert report.ok
    return report, traces


def test_condition_ii_runs_one_pipeline_per_input(monkeypatch):
    # One Sp trace per distinct merge of the rigid pairs of a theory and
    # rank, whose without-(ii) tables reuse it, and one per gapped member
    # (51 of them to rank 4, as the info line says).
    report, runs = _condition_ii_pipeline_runs(monkeypatch, 4)
    merges, _ = _distinct_stages([FingerprintOptions()], 4)
    assert "of 51 non-rigid inputs" in report.info[0]
    assert report.checked == 73 and runs == merges + 51 == 78


def test_condition_ii_at_rank_0_runs_only_its_rigid_pairs(monkeypatch):
    # The gapped sweep follows the rank: rank 0 has no non-rigid member.
    report, runs = _condition_ii_pipeline_runs(monkeypatch, 0)
    assert runs == report.checked == 3


def test_condition_ii_compares_every_small_gapped_member(monkeypatch):
    # At its default rank the gapped sweep holds every non-rigid member of
    # at most 20 boxes to its theory's closed form: B/D members, and the C
    # members to rank 10.
    compared = set()
    original = rigidfp.checks._closed_form_failure

    def counted(theory, p, weyl):
        compared.add((theory, p))
        return original(theory, p, weyl)

    monkeypatch.setattr(rigidfp.checks, "_closed_form_failure", counted)
    assert run_suite("condition-ii").ok
    small = {(theory, p) for theory in Theory for total in range(21)
             for p in partitions_of(total)
             if is_theory_member(p, theory) and not is_rigid(p, theory)}
    assert sum(theory.paired for theory, _ in small) == 567
    assert len(small) == 698 + 567
    assert small <= compared


def _patch_everywhere(monkeypatch, attr, original, replacement):
    """Rebind attr in every rigidfp module that binds the original."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rigidfp" and getattr(module, attr, None) is original:
            monkeypatch.setattr(module, attr, replacement)


def _shift_mutant(monkeypatch, change):
    """Apply change to the result of each shifted input of the shift suite.

    The base runs and the shifted runs both go through checks._run; the
    base pairs are the ones _rigid_pairs built, so every other run is a
    shifted input.
    """
    rigid_pairs, run = rigidfp.checks._rigid_pairs, rigidfp.checks._run
    built = {}  # id -> pair; holding each pair keeps its id from being reused

    def listed(*args):
        pairs = rigid_pairs(*args)
        built.update((id(pair), pair) for pair in pairs)
        return pairs

    def mutated(pair, *args):
        res = run(pair, *args)
        return res if id(pair) in built else change(res)

    monkeypatch.setattr(rigidfp.checks, "_rigid_pairs", listed)
    monkeypatch.setattr(rigidfp.checks, "_run", mutated)


def test_shift_fails_on_one_sided_diagnostic(monkeypatch):
    # Rank 4 has 73 rigid pairs, 7 with a diagnostic: the other 66 gain one
    # on the shifted side only.
    def change(res):
        if res.weyl is None:
            return res
        return res._replace(weyl=None, diagnostic=ExtractionDiagnostic(((3, 1),)))

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

    _patch_everywhere(monkeypatch, "validate_partition", validate_partition, refuse)
    report = run_suite("shift", 4)
    assert report.ok and report.checked == 73


def test_shift_compares_diagnostic_entries(monkeypatch):
    # Each of the 7 diagnostics at rank 4 must shift by 2 exactly.
    def change(res):
        if res.diagnostic is None:
            return res
        entries = tuple((v + 1, n) for v, n in res.diagnostic.entries)
        return res._replace(diagnostic=ExtractionDiagnostic(entries))

    _shift_mutant(monkeypatch, change)
    assert len(run_suite("shift", 4).failures) == 7


def test_collapse_bijection_splits_unvalidated(monkeypatch):
    # Enumerated rigid partitions are valid by construction, so the suite
    # splits them without the validating split_parity.
    def refuse(*args):
        raise AssertionError("split_parity re-validated an enumerated partition")

    _patch_everywhere(monkeypatch, "split_parity", split_parity, refuse)
    report = run_suite("collapse-bijection", 12)
    assert report.ok and report.checked == CHECKED_AT_DEFAULT["collapse-bijection"]


def test_rank_identity_reports_c_diagnostics_as_info():
    info = run_suite("rank-identity").info
    assert len(info) == 106
    assert all(line.startswith("C (") for line in info)


def _deficit_closure_reference(trace):
    """rank-identity's deficit rule as first written, row by row from the first 0."""
    delta = trace.partial_sum_delta
    if any(d not in (-1, 0) for d in delta):
        return False
    if not delta:
        return True
    mu = trace.mu_values
    zeros = mu.count(0)
    if not zeros:
        return delta[-1] == 0
    z = mu.index(0)
    if zeros > 1 or z != len(delta) - 1:
        return False
    return delta[-1] == -1 and (z == 0 or delta[z - 1] == 0)


DEFICIT_TRACES = {
    "delta-minus-2": (SpTrace((3, 3), (1, 5)), False),
    "two-deleted-rows": (SpTrace((1, 2, 1), (0, 3, 0)), False),
    "deleted-row-not-last": (SpTrace((1, 2, 2), (0, 3, 1)), False),
    "final-minus-1-none-deleted": (SpTrace((3,), (2,)), False),
    "B-deletes-last-box": (sp_map((3, 1, 1)), True),
    "empty": (SpTrace((), ()), True),
}


@pytest.mark.parametrize("name", DEFICIT_TRACES)
def test_deficit_closure_verdict(name):
    trace, verdict = DEFICIT_TRACES[name]
    assert deficit_closure_ok(trace) is verdict
    assert _deficit_closure_reference(trace) is verdict


def test_deficit_closure_matches_reference_on_sweeps():
    # Every trace of a rigid pair (both modes) and of a member to rank 10.
    pairs = [fingerprint(pair, FingerprintOptions(mode=mode)).trace
             for _, pair in upto(enumerate_rigid_pairs, 10) for mode in MODES]
    members = [sp_map(p) for _, p in upto(enumerate_members, 10)]
    assert (len(pairs), len(members)) == (2710, 1636)
    for trace in pairs + members:
        assert deficit_closure_ok(trace) == _deficit_closure_reference(trace), trace
    # Rigid pairs close; 107 gapped members leave a deficit open.
    assert sum(map(deficit_closure_ok, pairs)) == 2710
    assert sum(map(deficit_closure_ok, members)) == 1529


@settings(max_examples=500)
@given(st.lists(st.integers(1, 5), max_size=7).flatmap(lambda xs: st.tuples(
    st.just(tuple(sorted(xs, reverse=True))),
    st.lists(st.sampled_from((0, 0, -1, 1, -2)), min_size=len(xs), max_size=len(xs)))))
def test_deficit_closure_matches_reference_on_perturbed_traces(drawn):
    # The Sp image of a partition, each row moved by a drawn offset (not
    # below 0, so rows get deleted too); lambda rows stay positive, as in
    # every trace.
    lam, offsets = drawn
    mu = tuple(max(0, m + o) for m, o in zip(sp_map(lam).mu_values, offsets))
    trace = SpTrace(lam, mu)
    assert deficit_closure_ok(trace) == _deficit_closure_reference(trace)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_empty_sweep_is_not_a_pass(name):
    report = run_suite(name, -1)
    assert report.checked == 0
    assert not report.ok


def _sp_mutant(rule):
    """An sp_map that applies rule, as sp_row's stand-in, to each row."""
    return lambda values: SpTrace(tuple(values), sp_rows(values, rule))


def _with_options(change):
    """A tau_table that evaluates with change(opts, theory) in place of opts."""
    def mutated(trace, tags, theory, opts):
        return tau_table(trace, tags, theory, change(opts, theory))
    return mutated


def _without(condition):
    return _with_options(lambda o, t: o._replace(conditions=o.conditions - {condition}))


def _tau_plus(keep):
    """A tau_table that sets tau(m) = +1 on every value m that keep rejects."""
    def mutated(trace, tags, theory, opts):
        entries = tau_table(trace, tags, theory, opts).entries
        return TauTable(tuple(e if keep(e[0]) else (e[0], None) for e in entries))
    return mutated


def _datum_flipped(pair, mode=INTERLEAVE, tie_break=PRIME_FIRST):
    """A combine that negates every lambda'-datum of an INTERLEAVE merge."""
    tagged = combine(pair, mode, tie_break)
    if mode != INTERLEAVE:
        return tagged
    return tagged._replace(prime_odd=tuple(d if d is None else not d for d in tagged.prime_odd))


def _beta_changed(change):
    """An extract_weyl_pair that passes each fingerprint's beta through change."""
    def mutated(trace, tau):
        outcome = extract_weyl_pair(trace, tau)
        if isinstance(outcome, WeylPair):
            return outcome._replace(beta=change(outcome.beta))
        return outcome
    return mutated


ODD_UNPAIRED = r"[BCD] \S.*: Sp image \S.* is not C-type"
# The factored mu runs on the group walk, not on sp_map, so an Sp mutant
# reaches the factorization line in every theory.
SP_VS_FACTORED = r"[BCD] \S.*: sp \S.* != factored \S.*"
# condition-ii's gapped sweep and closed-form share one comparison of a
# member with its theory's closed form.
WEYL = r"\[[^;]*;[^]]*\]"
CLOSED_VS_PIPELINE = rf"[BCD] \S.*: closed {WEYL} vs pipeline (diagnostic|{WEYL})"

# Which suite catches which mutant.  Each row replaces one function in every
# rigidfp module that binds it: (function, replacement, {suite: failures at
# rank 4} over all ten suites, so a suite left out is pinned to pass, then
# line forms).  A line form (suite, on_line, form) pins how many of the
# suite's failures take that form; a suite's first line form in the row also
# pins the form of its first failure string.
# The rows reach every suite failure line but one: shift's diagnostic line
# (test_shift_compares_diagnostic_entries).  The Sp mutants perturb sp_row's
# inputs or output; a neighbour of 0 equals no row, so it drops the guard on
# that side.
MUTANTS = {
    "plus-guard-dropped": (sp_map, _sp_mutant(lambda p, v, n, s: sp_row(0, v, n, s)), {
        "sp-locality": 40, "parity": 27, "rank-identity": 117, "condition-ii": 21,
        "factorization": 19, "path-equivalence": 130, "closed-form": 15},
        ("parity", 27, ODD_UNPAIRED), ("factorization", 19, SP_VS_FACTORED)),
    "minus-guard-dropped": (sp_map, _sp_mutant(lambda p, v, n, s: sp_row(p, v, 0, s)), {
        "sp-locality": 40, "parity": 27, "rank-identity": 117, "condition-ii": 21,
        "factorization": 19, "path-equivalence": 130, "closed-form": 15},
        ("parity", 27, ODD_UNPAIRED), ("factorization", 19, SP_VS_FACTORED)),
    # condition-ii lists its rigid-pair failures ahead of its gapped sweep's.
    "sign-flipped": (sp_map, _sp_mutant(lambda p, v, n, s: 2 * v - sp_row(p, v, n, s)), {
        "sp-locality": 35, "rank-identity": 58, "condition-ii": 28, "factorization": 10,
        "path-equivalence": 52, "closed-form": 10},
        ("condition-ii", 3, r"[BCD] \(.*\)"), ("condition-ii", 25, CLOSED_VS_PIPELINE)),
    "guards-swapped": (sp_map, _sp_mutant(lambda p, v, n, s: sp_row(n, v, p, s)), {
        "sp-locality": 44, "rank-identity": 114, "condition-ii": 21, "factorization": 13,
        "path-equivalence": 92, "closed-form": 9},
        ("factorization", 13, SP_VS_FACTORED)),
    "sp-above-4-unmoved": (
        sp_map, _sp_mutant(lambda p, v, n, s: v if v > 4 else sp_row(p, v, n, s)), {
        "sp-locality": 12, "parity": 12, "condition-ii": 12, "shift": 3},
        ("shift", 3, r"[BCD] \(.*\): trace shift broken")),
    "condition-i-dropped": (tau_table, _without("i"), {"condition-ii": 3}),
    "condition-ii-dropped": (tau_table, _without("ii"), {"condition-ii": 1}),
    "condition-iii-dropped": (tau_table, _without("iii"), {
        "rank-identity": 8, "condition-ii": 18, "path-equivalence": 16}),
    "so-sp-swapped": (tau_table, _with_options(lambda o, t: o._replace(
        iii_variant={SO: SP, SP: SO, VACUOUS: VACUOUS}[o.variant_for(t)])), {
        "rank-identity": 8, "condition-ii": 23, "path-equivalence": 32, "closed-form": 5},
        ("condition-ii", 23, CLOSED_VS_PIPELINE), ("closed-form", 5, CLOSED_VS_PIPELINE)),
    # Only the pipeline reads the datum from combine: path-equivalence's
    # block path reads the pair's two sides and the unipotent closed forms
    # read the member's own rows, so each of them sees this fault.
    "datum-parity-flipped": (combine, _datum_flipped, {
        "condition-ii": 23, "path-equivalence": 32, "closed-form": 5}),
    "all-plus": (tau_table, _tau_plus(lambda m: False), {
        "rank-identity": 9, "condition-ii": 40, "shift": 24, "path-equivalence": 22,
        "closed-form": 1}),
    # 7 of its 11 shift failures are one-sided diagnostics; the first is a
    # shifted [alpha;beta].
    "tau-plus-above-2": (tau_table, _tau_plus(lambda m: m <= 2), {
        "rank-identity": 1, "condition-ii": 23, "shift": 11},
        ("shift", 4, r"[BCD] \(.*\): \[[^;]*;[^]]*\] -> \[[^;]*;[^]]*\]")),
    "transpose-reversed": (transpose, lambda p: transpose(p)[::-1], {"structure": 5},
        ("structure", 5, r"[BCD] \S.*: transpose \S.*")),
    "collapse-identity": (rigidfp.closedform._collapse, lambda sigma: sigma, {
        "factorization": 10, "collapse-bijection": 6},
        ("factorization", 10, SP_VS_FACTORED)),
    "extraction-drops-last-beta": (extract_weyl_pair, _beta_changed(lambda b: b[:-1]), {
        "rank-identity": 43, "condition-ii": 40, "shift": 24, "path-equivalence": 22,
        "closed-form": 1},
        ("rank-identity", 43,
         r"[BCD] \(.*\) \[(interleave|sum)\]: \|alpha\|\+\|beta\|=\d+ != \d+")),
    # Keeps |beta| and changes the parity of its part count.
    "extraction-merges-last-beta": (
        extract_weyl_pair, _beta_changed(lambda b: b[:-2] + (sum(b[-2:]),) if b else b), {
        "rank-identity": 10, "condition-ii": 27, "shift": 5, "path-equivalence": 10,
        "closed-form": 1},
        ("rank-identity", 10, r"D \(.*\) \[(interleave|sum)\]: beta has \d+ parts, odd in D")),
    "xs-map-identity": (xs_map, tuple, {"collapse-bijection": 5},
        ("collapse-bijection", 5, r"B \S.*: wrong box count")),
    "ys-map-identity": (ys_map, tuple, {"collapse-bijection": 1},
        ("collapse-bijection", 1, r"D \S.*: image \S.* has odd transpose row")),
    "xs-inverse-drops-last-row": (xs_inverse, lambda p: xs_inverse(p)[:-1], {
        "collapse-bijection": 5}, ("collapse-bijection", 5, r"B \S.*: round trip broken")),
}


@pytest.mark.parametrize("mutant,suite", [(m, s) for m in MUTANTS for s in sorted(SUITES)])
def test_mutant_caught(mutant, suite, monkeypatch):
    # One case per (mutant, suite), so a moved pin names its suite.
    original, replacement, caught, *line_forms = MUTANTS[mutant]
    assert set(caught) <= set(SUITES)
    _patch_everywhere(monkeypatch, original.__name__, original, replacement)
    failures = run_suite(suite, 4).failures
    assert len(failures) == caught.get(suite, 0)
    forms = [(on_line, form) for on_suite, on_line, form in line_forms if on_suite == suite]
    if forms:
        assert re.fullmatch(forms[0][1], failures[0])
    for on_line, form in forms:
        assert sum(bool(re.fullmatch(form, f)) for f in failures) == on_line


def _reference_sp_locality(theory, p, sp=sp_map):
    """sp-locality's check of one member, row by row against sp_rows(p)."""
    for i, (mu, expected) in enumerate(zip(sp(p).mu_values, sp_rows(p))):
        if mu != expected:
            return f"{theory.value} {format_partition(p)} index {i}: mu={mu}, expected {expected}"


@pytest.mark.parametrize("mutant", [None, *sorted(m for m, row in MUTANTS.items()
                                                   if row[0] is sp_map)])
def test_sp_locality_matches_reference(mutant, monkeypatch):
    # Same verdict and failure string on every member, under the true Sp
    # rule and under each Sp mutant of the table.
    sp = sp_map
    if mutant is not None:
        sp = MUTANTS[mutant][1]
        _patch_everywhere(monkeypatch, "sp_map", sp_map, sp)
    failures = 0
    for theory, p in upto(enumerate_members, 12):
        expected = _reference_sp_locality(theory, p, sp)
        assert sp_locality_failure(theory, p) == expected, (theory, p)
        failures += expected is not None
    assert (failures > 0) == (mutant is not None)


def _reference_parity(theory, p, sp=sp_map):
    """parity's check of one member by its first rule: count each odd value of the Sp image."""
    mu = sp(p).mu_partition()
    for v in set(mu):
        if v % 2 == 1 and mu.count(v) % 2 == 1:
            return (f"{theory.value} {format_partition(p)}: "
                    f"Sp image {format_partition(mu)} is not C-type")


@pytest.mark.parametrize("mutant", [None, *sorted(m for m, row in MUTANTS.items()
                                                   if row[0] is sp_map)])
def test_parity_matches_reference(mutant, monkeypatch):
    # The suite's C membership test gives the per-value rule's verdict on
    # every member, under the true Sp rule and under each Sp mutant of the
    # table: paired odd values leave an even total.
    sp = sp_map
    if mutant is not None:
        sp = MUTANTS[mutant][1]
        _patch_everywhere(monkeypatch, "sp_map", sp_map, sp)
    members = list(upto(enumerate_members, 12))
    expected = [f for f in (_reference_parity(theory, p, sp) for theory, p in members) if f]
    report = run_suite("parity", 12)
    assert report.checked == len(members)
    assert report.failures == expected
    # sign-flipped and guards-swapped leave the image C-type to rank 12 as
    # at rank 4; every other Sp mutant is caught.
    assert bool(expected) == (mutant is not None and "parity" in MUTANTS[mutant][2])
