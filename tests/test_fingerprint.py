from collections import Counter

import pytest

from rigidfp import (
    ExtractionDiagnostic,
    FingerprintOptions,
    OperatorPair,
    SpTrace,
    TauTable,
    Theory,
    WeylPair,
    combine,
    extract_weyl_pair,
    fingerprint,
    prefix_signs,
    sp_map,
    tau_table,
)
from rigidfp.fingerprint import SO, SP, VACUOUS
from rigidfp.partitions import (
    COMPONENTWISE,
    DPRIME,
    PRIME,
    TaggedPartition,
    INTERLEAVE,
    enumerate_members,
)


def tagged(values, origins):
    return TaggedPartition(values=tuple(values), mode=INTERLEAVE,
                           origins=tuple(origins))


class TestPrefixSigns:
    def test_examples(self):
        assert prefix_signs((3, 2, 2)) == (-1, -1, -1)
        assert prefix_signs((2, 2, 1, 1)) == (1, 1, -1, 1)
        assert prefix_signs(()) == ()


def reference_sp(values):
    """Group-level restatement of the Sp rule, used as a second opinion.

    Walks value groups top down: an odd group gains a box at its first row
    when the box count above is odd, and drops its last box when the count
    through the group is odd.
    """
    mu = list(values)
    above = 0
    i = 0
    n = len(values)
    while i < n:
        j = i
        while j < n and values[j] == values[i]:
            j += 1
        v, size = values[i], j - i
        if v % 2 == 1:
            if above % 2 == 1:
                mu[i] = v + 1
            if (above + size * v) % 2 == 1:
                mu[j - 1] = v - 1
        above += size * v
        i = j
    return tuple(mu)


class TestSpMap:
    def test_no_change(self):
        assert sp_map((2, 1, 1)).mu_values == (2, 1, 1)

    def test_worked_example(self):
        trace = sp_map((3, 2, 2, 1, 1, 1, 1))
        assert trace.mu_values == (2, 2, 2, 2, 1, 1, 0)
        assert trace.mu_partition() == (2, 2, 2, 2, 1, 1)
        assert trace.signs == (-1, -1, -1, 1, -1, 1, -1)
        assert trace.partial_sum_delta == (-1, -1, -1, 0, 0, 0, -1)

    def test_interior_changes(self):
        assert sp_map((3, 3, 3, 2, 2, 1)).mu_values == (3, 3, 2, 2, 2, 2)

    def test_single_box_deleted(self):
        trace = sp_map((1,))
        assert trace.mu_values == (0,)
        assert trace.mu_partition() == ()

    def test_changed_rows_are_odd_to_even(self):
        for theory in Theory:
            for rank in range(8):
                for p in enumerate_members(theory, rank):
                    trace = sp_map(p)
                    for lam, mu in zip(p, trace.mu_values):
                        assert mu in (lam - 1, lam, lam + 1)
                        if mu != lam:
                            assert lam % 2 == 1 and mu % 2 == 0

    def test_against_group_level_reference(self):
        for theory in Theory:
            for rank in range(8):
                for p in enumerate_members(theory, rank):
                    assert sp_map(p).mu_values == reference_sp(p)


class TestTau:
    def test_condition_i(self):
        values = (3, 2, 2, 1, 1, 1, 1)
        tp = tagged(values, (PRIME,) * 7)
        tau = tau_table(sp_map(values), tp, "B",
                        FingerprintOptions(conditions=frozenset({"i"})))
        assert tau.as_dict() == {2: -1}
        assert tau.entries[0][2] == "i"

    def test_condition_iii_sp(self):
        values = (2, 1, 1, 1, 1)
        tp = tagged(values, (PRIME, PRIME, PRIME, DPRIME, DPRIME))
        tau = tau_table(sp_map(values), tp, "C", FingerprintOptions())
        assert tau.as_dict() == {2: -1}
        assert tau.entries[0][2] == "iii"

    def test_condition_iii_so_not_triggered_by_even_prime(self):
        values = (2, 2, 1, 1, 1)
        tp = tagged(values, (PRIME, PRIME, PRIME, DPRIME, DPRIME))
        tau = tau_table(sp_map(values), tp, "B", FingerprintOptions())
        assert tau.as_dict() == {2: 1}

    def test_vacuous(self):
        values = (2, 1, 1, 1, 1)
        tp = tagged(values, (PRIME, PRIME, PRIME, DPRIME, DPRIME))
        tau = tau_table(sp_map(values), tp, "C",
                        FingerprintOptions(iii_variant=VACUOUS))
        assert tau.as_dict() == {2: 1}

    def test_variant_defaults(self):
        opts = FingerprintOptions()
        assert opts.variant_for("B") == SO
        assert opts.variant_for("D") == SO
        assert opts.variant_for("C") == SP


def extract(mu_values, tau):
    trace = SpTrace(tuple(mu_values), tuple(mu_values))
    return extract_weyl_pair(trace, TauTable(tuple((m, t, None) for m, t in tau.items())))


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

    @pytest.mark.parametrize("conditions", ["iii", "ii", "i"])
    def test_str_conditions_rejected(self, conditions):
        # A str would be read character by character, and by substring in tau.
        with pytest.raises(ValueError, match="set of names"):
            FingerprintOptions(conditions=conditions)

    def test_conditions_stored_as_frozenset(self):
        opts = FingerprintOptions(conditions=["ii", "i"])
        assert opts.conditions == frozenset({"i", "ii"})
        assert hash(opts) == hash(FingerprintOptions(conditions={"i", "ii"}))


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
        assert out.entries == ((2, 1, 1),)
        assert "value 2" in out.message()


class TestFingerprint:
    def test_b_examples(self):
        res = fingerprint(OperatorPair((1, 1, 1), (1, 1), "B"))
        assert (res.weyl.alpha, res.weyl.beta) == ((1, 1), ())
        assert res.rank == 2
        res = fingerprint(OperatorPair((2, 2, 1), (1, 1), "B"))
        assert (res.weyl.alpha, res.weyl.beta) == ((2, 1), ())

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
        assert res.diagnostic.entries == ((2, 1, 1),)

    def test_mode_sensitivity(self):
        pair = OperatorPair((2, 1, 1), (1, 1), "C")
        inter = fingerprint(pair)
        summed = fingerprint(pair, FingerprintOptions(mode=COMPONENTWISE))
        assert (inter.weyl.alpha, inter.weyl.beta) == ((1, 1), (1,))
        assert (summed.weyl.alpha, summed.weyl.beta) == ((), (1, 1, 1))

    def test_partial_sums_stay_in_range(self):
        from rigidfp.partitions import enumerate_rigid_pairs

        for theory in Theory:
            for rank in range(5):
                for pair in enumerate_rigid_pairs(theory, rank):
                    res = fingerprint(pair)
                    assert all(d in (-1, 0) for d in res.trace.partial_sum_delta)

    def test_componentwise_padding_has_no_datum(self):
        pair = OperatorPair((1, 1), (2, 1, 1), "C")
        tp = combine(pair, COMPONENTWISE)
        assert tp.values == (3, 2, 1)
        assert tp.prime_odd == (True, True, None)
        assert tp.iii_datum(2) is None
