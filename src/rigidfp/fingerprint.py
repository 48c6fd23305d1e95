"""The fingerprint pipeline: the Sp map, tau, and [alpha;beta]."""
from itertools import accumulate, count
from operator import sub
from typing import NamedTuple

from .partitions import (
    INTERLEAVE,
    PRIME_FIRST,
    OperatorPair,
    TaggedPartition,
    _as_theory,
    _check_merge,
    combine,
)

SO = "so"
SP = "sp"
VACUOUS = "vacuous"
III_VARIANTS = (SO, SP, VACUOUS)

ALL_CONDITIONS = frozenset({"i", "ii", "iii"})


class SpTrace(NamedTuple):
    """Index-wise record of mu = Sp(lambda); mu_values keeps deleted parts as 0.

    The partial-sum deltas follow from the two rows: tau's plan keeps its own
    running sum, and partial_sum_delta builds them for its other readers.
    A named tuple, so it compares equal to the plain tuple
    (lambda_values, mu_values).
    """

    lambda_values: tuple[int, ...]
    mu_values: tuple[int, ...]

    @property
    def partial_sum_delta(self) -> tuple[int, ...]:
        """delta[i] = sum(mu[:i+1]) - sum(lambda[:i+1])."""
        # Through a list: tuple() straight off the iterator raised the peak RSS
        # of a rank-identity sweep by about 1.3 MB.
        return tuple(list(accumulate(map(sub, self.mu_values, self.lambda_values))))

    def mu_partition(self) -> tuple[int, ...]:
        """mu read as a partition: zeros dropped, parts descending.

        sp_map keeps its rows in order (a 0 can only be last), but the sort
        stays: under a wrong Sp rule the rows come out of order, and sorted
        here they still reach the suites as a partition, which then report
        the fault instead of crashing on it.
        """
        mu = sorted(self.mu_values, reverse=True)
        while mu and mu[-1] <= 0:
            mu.pop()
        return tuple(mu)


def sp_map(values) -> SpTrace:
    """mu = Sp(lambda) with the full per-index trace.

    An odd row changes only at the boundary of its value group: its last
    index loses a box under sign '-', its first index gains one under '+'.
    So an odd row moves one box by its sign unless the row on that side (the
    next one under '-', the previous one under '+') has the same value.
    Rows outside the list are treated as a different value.  One pass keeps
    the running parity (odd: sign '-') and rewrites only the rows that move.
    """
    values = tuple(values)
    last = len(values) - 1
    mu = list(values)
    odd = False
    for i, v in enumerate(values):
        if v % 2:
            odd = not odd
            if odd:
                if i == last or values[i + 1] != v:
                    mu[i] = v - 1
            elif values[i - 1] != v:  # a '+' row has an odd row above it
                mu[i] = v + 1
    return tuple.__new__(SpTrace, (values, tuple(mu)))


class _OptionFields(NamedTuple):
    mode: str
    tie_break: str
    conditions: frozenset
    iii_variant: str | None  # None -> SO for B/D, Sp for C


class FingerprintOptions(_OptionFields):
    """Convention knobs for the pipeline.

    A validating named tuple, built like partitions.OperatorPair.
    """

    __slots__ = ()

    def __new__(cls, mode: str = INTERLEAVE, tie_break: str = PRIME_FIRST,
                conditions=ALL_CONDITIONS, iii_variant: str | None = None):
        _check_merge(mode, tie_break)
        if isinstance(conditions, str):
            raise ValueError(f"conditions must be a set of names, not {conditions!r}")
        conditions = frozenset(conditions)
        bad = sorted(conditions - ALL_CONDITIONS)
        if bad:
            raise ValueError(f"unknown condition {bad[0]!r}")
        if iii_variant is not None and iii_variant not in III_VARIANTS:
            raise ValueError(f"unknown iii variant {iii_variant!r}")
        return tuple.__new__(cls, (mode, tie_break, conditions, iii_variant))

    @classmethod
    def _make(cls, fields):
        # The named tuple's own _make, which _replace calls, skips __new__.
        return cls(*fields)

    def variant_for(self, theory) -> str:
        """The iii variant in force: iii_variant if set, else Sp for C, SO for B/D.

        theory may be a Theory or its letter; an unknown one raises ValueError.
        """
        if self.iii_variant is not None:
            return self.iii_variant
        return SP if _as_theory(theory).paired else SO


DEFAULT_OPTIONS = FingerprintOptions()  # immutable, so one instance serves every call


class TauTable(NamedTuple):
    """tau on the distinct positive even values of mu, read off its witnesses.

    Each entry is (value, witness): the condition that fired at a row of the
    value, or None.  tau is -1 exactly where a witness fired, so no entry
    holds a sign of its own.  A named tuple, so it compares equal to the
    plain tuple (entries,).
    """

    entries: tuple[tuple[int, str | None], ...]  # (value, witness)

    def as_dict(self) -> dict[int, int]:
        """tau by value: -1 where a witness fired, else +1."""
        return {value: -1 if w else 1 for value, w in self.entries}


def tau_table(trace: SpTrace, tags: TaggedPartition, theory,
              opts: FingerprintOptions) -> TauTable:
    """Evaluate tau(m) for each even positive value m of mu.

    tau(m) = -1 iff some index with mu_i = m satisfies an active condition:
    (i) mu_i != lambda_i, (ii) running sums differ, (iii) the lambda'-datum
    at the row is odd (SO) / even (Sp).  The first condition found is the
    value's witness; a value none fires at keeps None, tau = +1.  Deleted
    rows (mu_i = 0) are ignored.  Each value enters at its first row, and
    sp_map keeps the rows descending, so the entries come out descending.
    (i) and (ii) read only the trace and (iii) only the merge's datum, so
    tau is _tau_pass run on the trace's _tau_plan.  fingerprint calls the
    two halves itself, and with a memo keeps each plan for the inputs that
    share its trace and conditions.
    """
    return _tau_pass(_tau_plan(trace, opts.conditions), tags, theory, opts)


def _tau_plan(trace: SpTrace, conditions) -> tuple[dict, list, tuple]:
    """The trace's half of tau: (witnesses, open rows, trace.mu_values).

    witnesses maps each even value, in table order, to its witness under
    (i) and (ii) alone.  The open rows are each row of an even value above
    the first row where (i) or (ii) fires, if any: only (iii) can fire
    there, and it would fire first.  One pass keeps the running sum of
    mu - lambda, the trace's partial_sum_delta, so no delta tuple is built.
    """
    check_i = "i" in conditions
    check_ii = "ii" in conditions
    delta = 0
    witnesses: dict[int, str | None] = {}  # even value -> witness; None: tau=+1
    open_rows = []
    mu = trace.mu_values
    for row, m, lam in zip(count(), mu, trace.lambda_values):
        delta += m - lam
        if m % 2 or m <= 0 or witnesses.get(m):
            continue
        if check_i and m != lam:
            witnesses[m] = "i"
        elif check_ii and delta:
            witnesses[m] = "ii"
        else:
            witnesses[m] = None
            open_rows.append(row)
    return witnesses, open_rows, mu


def _tau_pass(plan, tags: TaggedPartition, theory, opts: FingerprintOptions) -> TauTable:
    """The input's half of tau: (iii) at the plan's open rows, then the table.

    A value whose datum fires (odd under SO, even under Sp) at one of its
    open rows gets witness "iii"; every other value keeps the plan's.  The
    plan's witnesses are copied only when (iii) fires.
    """
    witnesses, open_rows, mu = plan
    variant = opts.variant_for(theory)
    if open_rows and "iii" in opts.conditions and variant != VACUOUS:
        odd_datum = variant == SO
        prime_odd = tags.prime_odd
        fired = None
        for row in open_rows:
            if prime_odd[row] == odd_datum:
                if fired is None:
                    fired = witnesses = witnesses.copy()
                witnesses[mu[row]] = "iii"
    return tuple.__new__(TauTable, (tuple(witnesses.items()),))


class WeylPair(NamedTuple):
    """The fingerprint [alpha; beta]; |alpha| + |beta| = rank on success.

    A named tuple, so it compares equal to the plain tuple (alpha, beta).
    """

    alpha: tuple[int, ...]
    beta: tuple[int, ...]


class ExtractionDiagnostic(NamedTuple):
    """Unpairable values found while reading [alpha; beta] off (mu, tau).

    Each entry is (value, multiplicity): a value of tau = +1, or an odd
    value, with an odd number of rows.  A tau = -1 value feeds beta
    whatever its count, so every entry's tau is +1.  Signals a convention
    inconsistency rather than a crash.  A named tuple, so it compares equal
    to the plain tuple (entries,).
    """

    entries: tuple[tuple[int, int], ...]

    def message(self) -> str:
        return "; ".join(
            f"value {v} has odd multiplicity {n} under tau=+1" for v, n in self.entries
        )


def extract_weyl_pair(mu: tuple[int, ...], tau: TauTable):
    """Read [alpha; beta] off mu: paired values feed alpha, tau=-1 evens beta.

    mu is the Sp image read as a partition (SpTrace.mu_partition), so each
    value's multiplicity is the length of its run.  An even value has
    tau = -1, and feeds beta, exactly when its tau entry has a witness.
    """
    witnesses = dict(tau.entries)
    alpha: list[int] = []
    beta: list[int] = []
    bad: list[tuple[int, int]] = []
    start, n = 0, len(mu)
    while start < n:
        v = mu[start]
        stop = start + 1
        while stop < n and mu[stop] == v:
            stop += 1
        c = stop - start
        if v % 2 or not witnesses[v]:
            if c % 2:
                bad.append((v, c))
            else:
                alpha += [v] * (c // 2)
        else:
            beta += [v // 2] * c
        start = stop
    if bad:
        return tuple.__new__(ExtractionDiagnostic, (tuple(bad),))
    return tuple.__new__(WeylPair, (tuple(alpha), tuple(beta)))


class FingerprintResult(NamedTuple):
    """Everything the pipeline produced for one operator.

    mu is the Sp image as a partition, sorted once from the trace.  The
    operator's theory and rank are facts of the pair: read them as
    pair.theory and pair.rank.  A named tuple, so it compares equal to the
    plain tuple of its eight fields in order.
    """

    options: FingerprintOptions
    tagged: TaggedPartition
    trace: SpTrace
    mu: tuple[int, ...]
    tau: TauTable
    weyl: WeylPair | None
    diagnostic: ExtractionDiagnostic | None
    pair: OperatorPair

    def same_outcome(self, other) -> bool:
        """Same image mu, [alpha; beta] and diagnostic; other may be a closedform.BlockResult."""
        return (
            self.mu == other.mu
            and self.weyl == other.weyl
            and self.diagnostic == other.diagnostic
        )


def fingerprint(pair: OperatorPair, opts: FingerprintOptions = DEFAULT_OPTIONS,
                seen: dict | None = None) -> FingerprintResult:
    """Full pipeline: combine -> Sp -> tau -> [alpha; beta].

    Rigidity is not required.  Extraction failures surface as a
    diagnostic, not an exception.  seen, if given, keeps each pure stage's
    output under that stage's full arguments: the merge's values give the
    Sp trace and mu, and next to them each tau plan by opts.conditions;
    (mu, tau) gives the extraction's outcome.  tau's per-input pass reads
    the merge's prime_odd and opts as well, and runs on every call.  So
    runs under any options may share one seen.  With none, a run keeps its
    one plan in a dict of its own.
    """
    tagged = combine(pair, opts.mode, opts.tie_break)
    values = tagged.values
    # A values key holds ints and a (mu, tau) key two tuples, so they never
    # collide.  Each kept output is a non-empty tuple, so a lookup reads
    # false only on a miss or with no seen (or an empty one).
    staged = seen and seen.get(values)
    if not staged:
        trace = sp_map(values)
        staged = trace, trace.mu_partition(), {}
        if seen is not None:
            seen[values] = staged
    trace, mu, plans = staged
    plan = plans.get(opts.conditions)
    if plan is None:
        plan = plans[opts.conditions] = _tau_plan(trace, opts.conditions)
    tau = _tau_pass(plan, tagged, pair.theory, opts)
    outcome = seen and seen.get((mu, tau))
    if not outcome:
        outcome = extract_weyl_pair(mu, tau)
        if seen is not None:
            seen[mu, tau] = outcome
    weyl, diagnostic = (outcome, None) if isinstance(outcome, WeylPair) else (None, outcome)
    return tuple.__new__(FingerprintResult, (opts, tagged, trace, mu, tau, weyl, diagnostic, pair))
