import sys
from collections import Counter
from itertools import combinations, product
from operator import attrgetter

import pytest
from hypothesis import given, strategies as st

from partition_oracle import member_pairs, reference_sp, sp_rows, upto
from rigidfp import (
    ExtractionDiagnostic,
    FingerprintOptions,
    OperatorPair,
    SpTrace,
    TauTable,
    Theory,
    WeylPair,
    block_fingerprint,
    combine,
    extract_weyl_pair,
    fingerprint,
    sp_map,
    tau_table,
)
from rigidfp.cli import result_record
from rigidfp.fingerprint import III_VARIANTS, SO, SP, VACUOUS
from rigidfp.partitions import (
    COMPONENTWISE,
    DPRIME_FIRST,
    PRIME_FIRST,
    TaggedPartition,
    INTERLEAVE,
    MODES,
    TIE_BREAKS,
    enumerate_members,
    enumerate_rigid_pairs,
)


def tagged(values, primes):
    """An INTERLEAVE merge of values whose first `primes` rows are lambda''s."""
    return TaggedPartition(tuple(values), INTERLEAVE, tuple(
        v % 2 == 1 if i < primes else None for i, v in enumerate(values)))


class TestSpMap:
    def test_no_change(self):
        assert sp_map((2, 1, 1)).mu_values == (2, 1, 1)

    def test_worked_example(self):
        trace = sp_map((3, 2, 2, 1, 1, 1, 1))
        assert trace.mu_values == (2, 2, 2, 2, 1, 1, 0)
        assert trace.mu_partition() == (2, 2, 2, 2, 1, 1)
        assert trace.partial_sum_delta == (-1, -1, -1, 0, 0, 0, -1)

    def test_interior_changes(self):
        assert sp_map((3, 3, 3, 2, 2, 1)).mu_values == (3, 3, 2, 2, 2, 2)

    def test_single_box_deleted(self):
        trace = sp_map((1,))
        assert trace.mu_values == (0,)
        assert trace.mu_partition() == ()

    def test_changed_rows_are_odd_to_even(self):
        for _, p in upto(enumerate_members, 7):
            for lam, mu in zip(p, sp_map(p).mu_values):
                assert mu in (lam - 1, lam, lam + 1)
                if mu != lam:
                    assert lam % 2 == 1 and mu % 2 == 0

    def test_against_group_level_reference(self):
        for _, p in upto(enumerate_members, 7):
            assert sp_map(p).mu_values == reference_sp(p)

    def test_rows_stay_in_order(self):
        # The row-order lemma: mu_values is already a partition, with a 0
        # only as its last entry and only where the last row is 1.  Every
        # member to rank 12, and every rigid pair to rank 8 merged under
        # each mode and tie-break.
        inputs = [p for _, p in upto(enumerate_members, 12)]
        inputs += [combine(pair, mode, tie).values
                   for _, pair in upto(enumerate_rigid_pairs, 8)
                   for mode, tie in product(MODES, TIE_BREAKS)]
        assert len(inputs) == 6049
        for values in inputs:
            mu = sp_map(values).mu_values
            assert all(a >= b for a, b in zip(mu, mu[1:])), values
            assert 0 not in mu[:-1], values
            assert mu[-1:] != (0,) or values[-1] == 1, values


class TestTau:
    def test_entries_descend_in_trace_order(self):
        # tau lists each value at its first row, so the row-order lemma
        # makes the entries strictly descending.  The sweeps of
        # test_rows_stay_in_order, run through the pipeline.
        runs = [(OperatorPair(p, (), theory), FingerprintOptions())
                for theory, p in upto(enumerate_members, 12)]
        runs += [(pair, FingerprintOptions(mode, tie))
                 for _, pair in upto(enumerate_rigid_pairs, 8)
                 for mode, tie in product(MODES, TIE_BREAKS)]
        assert len(runs) == 6049
        for pair, opts in runs:
            values = [m for m, _ in fingerprint(pair, opts).tau.entries]
            assert all(a > b for a, b in zip(values, values[1:])), (pair, opts)

    def test_condition_i(self):
        values = (3, 2, 2, 1, 1, 1, 1)
        tp = tagged(values, 7)
        tau = tau_table(sp_map(values), tp, "B",
                        FingerprintOptions(conditions=frozenset({"i"})))
        assert tau.as_dict() == {2: -1}
        assert tau.entries[0][1] == "i"

    def test_condition_iii_sp(self):
        values = (2, 1, 1, 1, 1)
        tp = tagged(values, 3)
        assert tp.prime_odd == (False, True, True, None, None)
        tau = tau_table(sp_map(values), tp, "C", FingerprintOptions())
        assert tau.as_dict() == {2: -1}
        assert tau.entries[0][1] == "iii"

    def test_condition_iii_so_not_triggered_by_even_prime(self):
        values = (2, 2, 1, 1, 1)
        tp = tagged(values, 3)
        tau = tau_table(sp_map(values), tp, "B", FingerprintOptions())
        assert tau.as_dict() == {2: 1}

    def test_vacuous(self):
        values = (2, 1, 1, 1, 1)
        tp = tagged(values, 3)
        tau = tau_table(sp_map(values), tp, "C",
                        FingerprintOptions(iii_variant=VACUOUS))
        assert tau.as_dict() == {2: 1}

    def test_variant_defaults(self):
        opts = FingerprintOptions()
        assert opts.variant_for("B") == SO
        assert opts.variant_for("D") == SO
        assert opts.variant_for("C") == SP
        assert opts.variant_for(Theory.B) == SO
        assert opts.variant_for(Theory.D) == SO
        assert opts.variant_for(Theory.C) == SP

    def test_variant_for_unknown_theory_rejected(self):
        with pytest.raises(ValueError, match="'E' is not a valid Theory"):
            FingerprintOptions().variant_for("E")


def extract(mu, tau):
    witnesses = tuple((m, "i" if t < 0 else None) for m, t in tau.items())
    return extract_weyl_pair(tuple(mu), TauTable(witnesses))


class TestOptions:
    @pytest.mark.parametrize("conditions", [{"I"}, {"i", "iv"}, {"ii", ""}])
    def test_unknown_condition_rejected(self, conditions):
        bad = sorted(conditions - {"i", "ii", "iii"})[0]
        with pytest.raises(ValueError, match=f"unknown condition {bad!r}"):
            FingerprintOptions(conditions=frozenset(conditions))

    @pytest.mark.parametrize("variant", ["SO", "spin", ""])
    def test_unknown_iii_variant_rejected(self, variant):
        with pytest.raises(ValueError, match="unknown iii variant"):
            FingerprintOptions(iii_variant=variant)

    def test_known_values_accepted(self):
        FingerprintOptions(conditions=frozenset())
        for variant in (None, SO, SP, VACUOUS):
            FingerprintOptions(iii_variant=variant)
        for mode in (INTERLEAVE, COMPONENTWISE):
            for tie in (PRIME_FIRST, DPRIME_FIRST):
                FingerprintOptions(mode=mode, tie_break=tie)

    @pytest.mark.parametrize("field, value, message", [
        ("mode", "bogus", "unknown combine mode 'bogus'"),
        ("mode", "INTERLEAVE", "unknown combine mode"),
        ("tie_break", "nope", "unknown tie-break 'nope'"),
        ("tie_break", None, "unknown tie-break"),
    ])
    def test_unknown_mode_or_tie_break_rejected(self, field, value, message):
        # The block path never calls combine, so the options must reject
        # these before a result could report them.
        with pytest.raises(ValueError, match=message):
            FingerprintOptions(**{field: value})

    @pytest.mark.parametrize("conditions", ["iii", "ii", "i"])
    def test_str_conditions_rejected(self, conditions):
        # A str would be read character by character, and by substring in tau.
        with pytest.raises(ValueError, match="set of names"):
            FingerprintOptions(conditions=conditions)

    def test_conditions_stored_as_frozenset(self):
        opts = FingerprintOptions(conditions=["ii", "i"])
        assert opts.conditions == frozenset({"i", "ii"})
        assert hash(opts) == hash(FingerprintOptions(conditions={"i", "ii"}))

    def test_replace_and_make_validate(self):
        # A named tuple's own _replace and _make would skip the checks.
        with pytest.raises(ValueError, match="unknown combine mode 'bogus'"):
            FingerprintOptions()._replace(mode="bogus")
        with pytest.raises(ValueError, match="unknown iii variant"):
            FingerprintOptions._make((INTERLEAVE, PRIME_FIRST, {"i"}, "spin"))
        opts = FingerprintOptions()._replace(conditions=["i"], tie_break=DPRIME_FIRST)
        assert opts == FingerprintOptions(INTERLEAVE, DPRIME_FIRST, frozenset({"i"}))
        assert type(opts) is FingerprintOptions and type(opts.conditions) is frozenset


class TestExtraction:
    def test_beta_from_negative_tau(self):
        out = extract((2, 2, 2, 2, 1, 1), {2: -1})
        assert out == WeylPair((1,), (1, 1, 1, 1))

    def test_alpha_from_positive_tau(self):
        out = extract((2, 2, 2, 2), {2: 1})
        assert out == WeylPair((2, 2), ())

    def test_unpaired_even_value(self):
        out = extract((2, 1, 1), {2: 1})
        assert isinstance(out, ExtractionDiagnostic)
        assert out.entries == ((2, 1),)
        assert "value 2" in out.message()


class TestFingerprint:
    def test_b_examples(self):
        res = fingerprint(OperatorPair((1, 1, 1), (1, 1), "B"))
        assert (res.weyl.alpha, res.weyl.beta) == ((1, 1), ())
        assert res.pair.rank == 2
        res = fingerprint(OperatorPair((2, 2, 1), (1, 1), "B"))
        assert (res.weyl.alpha, res.weyl.beta) == ((2, 1), ())

    def test_result_does_not_read_rank(self, monkeypatch):
        # The rank is a fact of the pair; the pipeline never computes it.
        def boom(self):
            raise AssertionError("fingerprint read OperatorPair.rank")

        pair = OperatorPair((2, 2, 1), (1, 1), "B")
        monkeypatch.setattr(OperatorPair, "rank", property(boom))
        assert fingerprint(pair).weyl == ((2, 1), ())

    def test_image_sorted_once(self, monkeypatch):
        # The result stores mu: comparing it with the block path and writing
        # the CLI record read the field, and sort the trace no more.
        sort, calls = SpTrace.mu_partition, []

        def counted(trace):
            calls.append(trace)
            return sort(trace)

        monkeypatch.setattr(SpTrace, "mu_partition", counted)
        results = 0
        for theory in Theory:
            for pair in enumerate_rigid_pairs(theory, 6):
                res = fingerprint(pair)
                assert res.same_outcome(block_fingerprint(res.tagged, theory))
                assert result_record(res)["mu"] == res.mu
                results += 1
        assert len(calls) == results == 89

    def test_keeps_no_memo(self, monkeypatch):
        # A plain fingerprint call computes every stage itself: the same pair
        # run three times takes three Sp traces and three extractions.
        pipeline = sys.modules["rigidfp.fingerprint"]
        calls = []

        def counted(stage):
            def run(*args):
                calls.append(stage.__name__)
                return stage(*args)
            return run

        monkeypatch.setattr(pipeline, "sp_map", counted(sp_map))
        monkeypatch.setattr(pipeline, "extract_weyl_pair", counted(extract_weyl_pair))
        pair = OperatorPair((2, 2, 1), (1, 1), "B")
        assert len({fingerprint(pair) for _ in range(3)}) == 1
        assert Counter(calls) == {"sp_map": 3, "extract_weyl_pair": 3}

    def test_c_example(self):
        res = fingerprint(OperatorPair((2, 1, 1), (1, 1), "C"))
        assert (res.weyl.alpha, res.weyl.beta) == ((1, 1), (1,))

    def test_c_vacuous_closed_form_instance(self):
        res = fingerprint(OperatorPair((), (2, 2, 2, 2, 1, 1), "C"),
                          FingerprintOptions(iii_variant=VACUOUS))
        assert (res.weyl.alpha, res.weyl.beta) == ((2, 2, 1), ())

    def test_known_c_diagnostic(self):
        res = fingerprint(OperatorPair((2, 1, 1), (), "C"),
                          FingerprintOptions(iii_variant=VACUOUS))
        assert res.weyl is None
        assert res.diagnostic.entries == ((2, 1),)

    def test_mode_sensitivity(self):
        pair = OperatorPair((2, 1, 1), (1, 1), "C")
        inter = fingerprint(pair)
        summed = fingerprint(pair, FingerprintOptions(mode=COMPONENTWISE))
        assert (inter.weyl.alpha, inter.weyl.beta) == ((1, 1), (1,))
        assert (summed.weyl.alpha, summed.weyl.beta) == ((), (1, 1, 1))

    def test_componentwise_padding_has_no_datum(self):
        pair = OperatorPair((1, 1), (2, 1, 1), "C")
        tp = combine(pair, COMPONENTWISE)
        assert tp.values == (3, 2, 1)
        assert tp.prime_odd == (True, True, None)


class TestPairLemmas:
    def test_c_pair_lemma(self):
        # Sp fixes a C member, and under the Sp variant tau(m) = -1 exactly
        # when lambda' holds a row of m.  So the outcome of a C pair is read
        # off its sides: beta halves every row of an even value that lambda'
        # holds, alpha takes every other value with half its total count, and
        # an even value absent from lambda' with an odd total count diagnoses.
        inputs = diagnostics = 0
        for _, pair in upto(enumerate_rigid_pairs, 10, (Theory.C,)):
            counts = Counter(pair.lambda_prime + pair.lambda_dprime)
            held = {v for v in pair.lambda_prime if v % 2 == 0}
            alpha, beta, bad = [], [], []
            for v in sorted(counts, reverse=True):
                n = counts[v]
                if v in held:
                    beta += [v // 2] * n
                elif n % 2:
                    bad.append((v, n))
                else:
                    alpha += [v] * (n // 2)
            expected = (None, (tuple(bad),)) if bad else ((tuple(alpha), tuple(beta)), None)
            for tb in TIE_BREAKS:
                res = fingerprint(pair, FingerprintOptions(tie_break=tb))
                assert (res.weyl, res.diagnostic) == expected, (pair, tb)
                inputs += 1
                diagnostics += bool(bad)
        assert (inputs, diagnostics) == (1216, 308)

    @pytest.mark.parametrize("theory, mode, expected", [
        (Theory.D, INTERLEAVE, (332, 0)),  # cli._fiber_key merges D mirror pairs on this
        (Theory.C, INTERLEAVE, (594, 390)),
        (Theory.D, COMPONENTWISE, (332, 0)),  # test_classes_per_mode_at_rank_10 folds them in sum mode too
        (Theory.C, COMPONENTWISE, (594, 260)),
    ], ids=["D", "C", "D-sum", "C-sum"])
    def test_mirror_pair_outcomes(self, theory, mode, expected):
        # Pairs with two different sides, and how many of them change
        # outcome when the sides are swapped, under either tie-break.
        pairs = changed = 0
        for _, pair in upto(enumerate_rigid_pairs, 10, (theory,)):
            if pair.lambda_prime != pair.lambda_dprime:
                mirror = OperatorPair(pair.lambda_dprime, pair.lambda_prime, theory)
                pairs += 1
                changed += any(
                    not fingerprint(pair, opts).same_outcome(fingerprint(mirror, opts))
                    for opts in (FingerprintOptions(mode=mode, tie_break=tb)
                                 for tb in (PRIME_FIRST, DPRIME_FIRST))
                )
        assert (pairs, changed) == expected

    def test_what_the_tie_break_can_change(self):
        # The tie-break reorders only the datum column inside a value group,
        # so the merged values and the Sp trace never change.  A moved odd
        # row's even image already has condition (i), so only (iii) on a
        # moved row can see the order: with (i) the outcome never changes,
        # and without it only under the SO variant.
        subsets = [frozenset(c) for k in range(4) for c in combinations("i ii iii".split(), k)]
        outcome = attrgetter("mu", "tau", "weyl", "diagnostic")
        pairs, changed = 0, Counter()
        for pair in member_pairs(5):
            pairs += 1
            for conditions, variant in product(subsets, (None, *III_VARIANTS)):
                prime, dprime = (
                    fingerprint(pair, FingerprintOptions(tie_break=tb, conditions=conditions,
                                                         iii_variant=variant))
                    for tb in (PRIME_FIRST, DPRIME_FIRST))
                assert prime.trace == dprime.trace
                if outcome(prime) != outcome(dprime):
                    assert "i" not in conditions, (pair, conditions, variant)
                    assert prime.options.variant_for(pair.theory) == SO
                    changed[pair.theory.value, " ".join(sorted(conditions))] += 1
        assert pairs == 638
        assert changed == {("B", "iii"): 72, ("B", "ii iii"): 28,
                           ("D", "iii"): 34, ("D", "ii iii"): 16}


# The kernels as first written (a running sum, a dict of witnesses, a
# Counter), kept as the reference for the one-pass ones; the tau reference
# reads each row's lambda'-datum off the tagged partition's prime_odd
# column.  Sp's reference is partition_oracle.sp_rows, its row rule applied
# row by row.

def _ref_partial_sum_delta(trace):
    delta = []
    d = 0
    for lam, m in zip(trace.lambda_values, trace.mu_values):
        d += m - lam
        delta.append(d)
    return tuple(delta)


def _ref_tau_table(trace, tags, theory, opts):
    variant = opts.variant_for(theory)
    delta = _ref_partial_sum_delta(trace)
    witnesses = {}
    for i, m in enumerate(trace.mu_values):
        if m <= 0 or m % 2 or witnesses.get(m):
            continue
        witness = None
        if "i" in opts.conditions and m != trace.lambda_values[i]:
            witness = "i"
        elif "ii" in opts.conditions and delta[i] != 0:
            witness = "ii"
        elif "iii" in opts.conditions and variant != VACUOUS:
            datum = tags.prime_odd[i]
            if datum is not None and datum == (variant == SO):
                witness = "iii"
        witnesses[m] = witness
    return TauTable(tuple(sorted(witnesses.items(), reverse=True)))


def _ref_extract_weyl_pair(trace, tau):
    counts = Counter(v for v in trace.mu_values if v > 0)
    taus = tau.as_dict()
    alpha, beta, bad = [], [], []
    for v, c in sorted(counts.items(), reverse=True):
        t = 1 if v % 2 else taus[v]
        if t == 1:
            if c % 2:
                bad.append((v, c))
            else:
                alpha += [v] * (c // 2)
        else:
            beta += [v // 2] * c
    if bad:
        return ExtractionDiagnostic(tuple(bad))
    return WeylPair(tuple(alpha), tuple(beta))


TAU_OPTIONS = [
    FingerprintOptions(conditions=frozenset(conditions), iii_variant=variant)
    for n in range(4) for conditions in combinations(("i", "ii", "iii"), n)
    for variant in (None, SO, SP, VACUOUS)
]

unsorted_mu = st.lists(st.integers(0, 7), min_size=2, max_size=12).filter(
    lambda mu: any(a < b for a, b in zip(mu, mu[1:]))
)


class TestKernelsAgainstReference:
    @pytest.mark.parametrize("theory", list(Theory))
    def test_member_pairs(self, theory):
        # Every member pair up to rank 6, every convention, all 8 condition
        # subsets and all 4 iii settings.  tau reads only the conditions
        # and the variant from its options; combine reads the convention,
        # and a tagged partition two conventions share is checked once.
        outcomes = Counter()
        seen = set()
        for pair in member_pairs(6, (theory,)):
            for mode, tie in product(MODES, TIE_BREAKS):
                tags = combine(pair, mode, tie)
                if tags in seen:
                    continue
                seen.add(tags)
                trace = sp_map(tags.values)
                assert trace == SpTrace(tags.values, sp_rows(tags.values))
                assert trace.partial_sum_delta == _ref_partial_sum_delta(trace)
                for opts in TAU_OPTIONS:
                    tau = tau_table(trace, tags, theory, opts)
                    assert tau == _ref_tau_table(trace, tags, theory, opts)
                    out = extract_weyl_pair(trace.mu_partition(), tau)
                    assert out == _ref_extract_weyl_pair(trace, tau)
                    outcomes.update(w for _, w in tau.entries)
                    outcomes[type(out).__name__] += 1
        # The sweep reaches every witness and both extraction outcomes.
        assert set(outcomes) == {None, "i", "ii", "iii", "WeylPair", "ExtractionDiagnostic"}

    @pytest.mark.parametrize("theory", list(Theory))
    def test_memoized_runs(self, theory):
        # One fingerprint memo across every member pair to rank 6, every rigid pair
        # to rank 8, both modes, both tie-breaks and all 32 option sets: a
        # kept tau plan serves every variant and every merge of its values,
        # and each run's tau still equals the reference.
        options = [opts._replace(mode=mode, tie_break=tie)
                   for mode, tie in product(MODES, TIE_BREAKS) for opts in TAU_OPTIONS]
        pairs = [*member_pairs(6, (theory,)),
                 *(pair for _, pair in upto(enumerate_rigid_pairs, 8, (theory,)))]
        seen = {}
        for pair in pairs:
            for opts in options:
                res = fingerprint(pair, opts, seen)
                assert res.tau == _ref_tau_table(res.trace, res.tagged, theory, opts), (pair, opts)

    @given(unsorted_mu, st.data())
    def test_extraction_on_unsorted_mu(self, mu, data):
        evens = sorted({m for m in mu if m > 0 and m % 2 == 0}, reverse=True)
        taus = [data.draw(st.sampled_from((1, -1))) for _ in evens]
        tau = TauTable(tuple((m, "i" if t < 0 else None) for m, t in zip(evens, taus)))
        trace = SpTrace(tuple(sorted(mu, reverse=True)), tuple(mu))
        assert extract_weyl_pair(trace.mu_partition(), tau) == _ref_extract_weyl_pair(trace, tau)
