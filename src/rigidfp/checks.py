"""Machine checks for the structural lemmas, runnable as named suites.

Each suite sweeps enumerated inputs up to a rank bound and returns a
SuiteReport; a failing suite carries minimal counterexample strings.
"""
from typing import NamedTuple

from .closedform import (
    _split,
    side_fingerprint,
    unipotent_mu_factored,
    xs_inverse,
    xs_map,
    ys_inverse,
    ys_map,
)
from .fingerprint import (
    DEFAULT_OPTIONS,
    FingerprintOptions,
    fingerprint,
    sp_map,
    tau_table,
)
from .partitions import (
    MODES,
    TIE_BREAKS,
    OperatorPair,
    Theory,
    _as_theory,
    _rigid_pairs,
    _side_lists,
    _unchecked_pair,
    enumerate_members,
    enumerate_rigid,
    format_pair,
    format_partition,
    is_rigid,
    is_theory_member,
    transpose,
)


class SuiteReport(NamedTuple):
    """How many inputs a suite checked, its counterexamples and its info lines."""

    checked: int
    failures: list[str]
    info: list[str]

    @property
    def ok(self) -> bool:
        """A pass needs at least one input checked and no counterexample."""
        return self.checked > 0 and not self.failures


def _fmt_pair(pair: OperatorPair) -> str:
    return f"{pair.theory.value} {format_pair(pair)}"


_WITHOUT_II = FingerprintOptions(conditions=frozenset({"i", "iii"}))


def _upto(enum, theories, max_rank):
    """(theory, x) for each x of enum(theory, rank), theory-major, rank ascending."""
    for theory in theories:
        for rank in range(max_rank + 1):
            for x in enum(theory, rank):
                yield theory, x


def _pairs_under(max_rank, options=(DEFAULT_OPTIONS,)):
    """(theory, pair, opts, res, seen) for each rigid pair to max_rank under each of options.

    The pairs come in _upto's order, read from each theory's side lists,
    built once for every rank.  seen is the scope of one theory and rank, a
    new dict for each, and res is fingerprint(pair, opts, seen): each
    distinct merge computes its Sp trace and mu once, each distinct
    (merge, conditions) its tau plan once, and each distinct (mu, tau) its
    extraction once; only tau's (iii) pass runs per input.  A pair's
    inputs under each of options come one after the other.  Merges of
    different ranks have different box counts and share no stage, so no
    scope outlives its rank.  A check keeps what it derives in seen too,
    under a key whose first item is the function that derived it; a stage
    key is a values tuple or (mu, tau), so the two never collide.
    """
    for theory in Theory:
        sides = _side_lists(theory, max_rank)
        for rank in range(max_rank + 1):
            seen = {}
            for pair in _rigid_pairs(theory, rank, *sides):
                for opts in options:
                    yield theory, pair, opts, fingerprint(pair, opts, seen), seen


def _rigid(max_rank):
    """(theory, p) for each rigid partition p of every theory to max_rank."""
    return _upto(enumerate_rigid, Theory, max_rank)


def _members(max_rank):
    """(theory, p) for each member p of every theory to max_rank."""
    return _upto(enumerate_members, Theory, max_rank)


def _sweep(inputs, check, report: SuiteReport) -> SuiteReport:
    """Count each input and list what check(*input) returns, if not None,
    ahead of the failures that report already holds; its info lines stay."""
    checked = 0
    failures = []
    for args in inputs:
        checked += 1
        failure = check(*args)
        if failure is not None:
            failures.append(failure)
    return SuiteReport(checked, failures + report.failures, report.info)


def transpose_structure_ok(p, theory) -> bool:
    """Row-parity structure of the transpose diagram of a rigid partition.

    The rows, padded with one 0 to an even count, pair off in order, and
    the two rows of each pair have equal parity.  A nonempty B or D diagram
    first gains a leading row of parity theta, which pairs with the first
    row: that row must be odd (B) or even (D), and the rest pair off after it.
    """
    theory = _as_theory(theory)
    rows = transpose(p)
    if not theory.paired and rows:
        rows = (theory.theta, *rows)
    rows += (0,) * (len(rows) % 2)
    return all(a % 2 == b % 2 for a, b in zip(rows[::2], rows[1::2]))


def check_structure(max_rank, report):
    def check(theory, p):
        if not transpose_structure_ok(p, theory):
            return (
                f"{theory.value} {format_partition(p)}: "
                f"transpose {format_partition(transpose(p))}"
            )

    return check


def sp_locality_failure(theory, p) -> str | None:
    """Where sp_map(p) breaks the locality lemma, or None.

    The lemma: only an odd row at the edge of its value group moves, by one
    box in the direction of its sign, the parity of the box count through
    it.  Under an odd count (sign -1) the last row of the group loses a
    box; under an even count (+1) the first row gains one.  One pass keeps
    the count's parity and compares each row with its neighbours.
    """
    mu_values = sp_map(p).mu_values
    end = len(p) - 1
    odd = False
    for i, lam in enumerate(p):
        expected = lam
        if lam % 2:
            odd = not odd
            if odd:
                if i == end or p[i + 1] != lam:
                    expected = lam - 1
            elif i == 0 or p[i - 1] != lam:
                expected = lam + 1
        if mu_values[i] != expected:
            return (
                f"{theory.value} {format_partition(p)} index {i}: "
                f"mu={mu_values[i]}, expected {expected}"
            )
    return None


def check_sp_locality(max_rank, report):
    """Changes only at value-group boundaries, direction set by the sign."""
    return sp_locality_failure


def check_parity(max_rank, report):
    """The Sp image is a C-type partition: its odd values pair off.

    Paired odd values leave an even total, so C membership asks no more.
    """
    c = Theory.C  # a class lookup, read once per run

    def check(theory, p):
        mu = sp_map(p).mu_partition()
        if not is_theory_member(mu, c):
            return (f"{theory.value} {format_partition(p)}: "
                    f"Sp image {format_partition(mu)} is not C-type")

    return check


def deficit_closure_ok(trace) -> bool:
    """Every delta is -1 or 0, and only a deleted last row leaves the last open.

    At most one row is deleted, and only the last (in B, where one box is
    lost); the final delta is minus the number of rows deleted.  The delta
    above a deleted last row is then lam - 1 for the row's lam >= 1 boxes,
    and it is -1 or 0, so it is 0: it needs no check of its own.
    """
    delta = trace.partial_sum_delta
    mu = trace.mu_values
    return set(delta) <= {-1, 0} and 0 not in mu[:-1] and (
        not delta or delta[-1] == -mu.count(0))


def check_rank_identity(max_rank, report):
    """|alpha| + |beta| = n under the defaults; B/D never diagnose.

    A D outcome also has an even number of beta parts: read as a signed
    cycle type, beta lists the negative cycles, and a class of W(D_n) has an
    even number of them.  The deficit verdict reads only the Sp trace, which
    many inputs share, so each distinct trace's verdict is kept in the
    stream's scope.
    """
    d = Theory.D  # a class lookup, read once per run

    def check(theory, pair, opts, res, seen):
        mode = opts.mode
        key = deficit_closure_ok, res.trace
        ok = seen.get(key)
        if ok is None:
            ok = seen[key] = deficit_closure_ok(res.trace)
        if not ok:
            return f"{_fmt_pair(pair)} [{mode}]: deficit open"
        if res.diagnostic is not None:
            if not theory.paired:
                return f"{_fmt_pair(pair)} [{mode}]: " + res.diagnostic.message()
            report.info.append(
                f"{_fmt_pair(pair)} [{mode}, iii={opts.variant_for(theory)}]: "
                + res.diagnostic.message()
            )
            return None
        total = sum(res.weyl.alpha) + sum(res.weyl.beta)
        if total != pair.rank:
            return f"{_fmt_pair(pair)} [{mode}]: |alpha|+|beta|={total} != {pair.rank}"
        if theory is d and len(res.weyl.beta) % 2:
            return f"{_fmt_pair(pair)} [{mode}]: beta has {len(res.weyl.beta)} parts, odd in D"

    return check


def _closed_form_failure(theory, p, weyl) -> str | None:
    """Where weyl, the pipeline's result for the member (p; -), differs from
    its closed form, the side walk of (p; ()), or None.  p is enumerated,
    so valid by construction."""
    closed = side_fingerprint(p, (), theory).weyl
    if weyl == closed:
        return None
    got = "diagnostic" if weyl is None else (
        f"[{format_partition(weyl.alpha)};{format_partition(weyl.beta)}]")
    return (
        f"{theory.value} {format_partition(p)}: closed [{format_partition(closed.alpha)};"
        f"{format_partition(closed.beta)}] vs pipeline {got}"
    )


def check_condition_ii(max_rank, report):
    """{i,iii} equals {i,ii,iii} on rigid pairs; gapped members are checked too.

    Only gapped (non-rigid) members can show condition (ii), so the suite
    also sweeps the non-rigid members to max_rank.  Each gapped member's
    pipeline result must equal its theory's closed form, whose open-deficit
    rule is condition (ii); a mismatch is a failure, in closed-form's line
    form.  The members where dropping (ii) changes tau are reported in an
    info line.  checked counts the rigid pairs only, whose failures come
    first.
    """
    hits = []
    count = 0
    for theory, p in _members(max_rank):
        if is_rigid(p, theory):
            continue
        count += 1
        res = fingerprint(_unchecked_pair(p, (), theory))
        without = tau_table(res.trace, res.tagged, theory, _WITHOUT_II)
        # Named only when reported: most gapped members are neither hits nor failures.
        if res.tau.as_dict() != without.as_dict():
            hits.append(f"{theory.value} {format_partition(p)}")
        failure = _closed_form_failure(theory, p, res.weyl)
        if failure:
            report.failures.append(failure)
    head = ", ".join(hits[:5])
    report.info.append(
        f"gapped sweep: {len(hits)} (ii)-sensitive of {count} non-rigid inputs"
        + (f"; e.g. {head}" if hits else "")
    )

    def check(theory, pair, opts, res, seen):
        # Same trace, so the same tau table gives the same outcome.
        if res.tau != tau_table(res.trace, res.tagged, theory, _WITHOUT_II):
            return _fmt_pair(pair)

    return check


def check_shift(max_rank, report):
    """Adding 2 to every row shifts the trace by 2 and [alpha;beta] by [2;1].

    Adding 2 to every part of both sides adds 2 to every merged row and
    keeps the row order.  A row deleted by Sp reappears as a beta part of 1
    after the shift; the result-level check accounts for exactly that.  A
    diagnostic shifts too: both sides have one or neither, and each
    unpairable value rises by 2 with the same multiplicity.  The shift keeps
    which pairs share a merge, so the shifted runs share the stream's
    scope with the base runs.
    """
    def check(theory, pair, opts, base, seen):
        sides = [tuple(v + 2 for v in side) for side in (pair.lambda_prime, pair.lambda_dprime)]
        # +2 keeps every part's parity, every multiplicity and the box count's
        # parity, so the shifted pair is valid by construction.
        shifted = fingerprint(_unchecked_pair(*sides, theory), opts, seen)
        want_mu = tuple(m + 2 for m in base.trace.mu_values)
        if shifted.trace.mu_values != want_mu:
            return f"{_fmt_pair(pair)}: trace shift broken"
        if (base.diagnostic is None) != (shifted.diagnostic is None):
            return f"{_fmt_pair(pair)}: diagnostic on one side of the shift only"
        if base.diagnostic is not None:
            want = tuple((v + 2, n) for v, n in base.diagnostic.entries)
            if shifted.diagnostic.entries != want:
                return (
                    f"{_fmt_pair(pair)}: diagnostic {base.diagnostic.message()} "
                    f"-> {shifted.diagnostic.message()}"
                )
            return None
        alpha, beta = base.weyl
        weyl = shifted.weyl
        zeros = base.trace.mu_values.count(0)
        if weyl != (tuple(a + 2 for a in alpha), tuple(b + 1 for b in beta) + (1,) * zeros):
            return (
                f"{_fmt_pair(pair)}: [{format_partition(alpha)};{format_partition(beta)}] "
                f"-> [{format_partition(weyl.alpha)};{format_partition(weyl.beta)}]"
            )

    return check


def check_factorization(max_rank, report):
    """Sp equals the collapse-factored mu in B and D, and p itself in C.

    Only the expected image depends on the theory.  The factored mu runs on
    the closed forms' group walk, never on sp_map, so the B/D comparison
    cross-checks the pipeline's Sp stage; in C, Sp must be the identity,
    the fixed point that the factored mu also reaches.
    """
    def check(theory, p):
        direct = sp_map(p).mu_partition()
        factored = p if theory.paired else unipotent_mu_factored(p, theory)
        if direct != factored:
            return (
                f"{theory.value} {format_partition(p)}: sp {format_partition(direct)} "
                f"!= factored {format_partition(factored)}"
            )

    return check


def check_collapse_bijection(max_rank, report):
    """Box-count deltas, round trips, and all-even transpose images."""
    def check(theory, sigma):
        collapse, inverse = (xs_map, xs_inverse) if theory.theta else (ys_map, ys_inverse)
        image = collapse(sigma)
        if sum(sigma) - sum(image) != theory.theta:
            return f"{theory.value} {format_partition(sigma)}: wrong box count"
        if any(r % 2 for r in transpose(image)):
            return (
                f"{theory.value} {format_partition(sigma)}: "
                f"image {format_partition(image)} has odd transpose row"
            )
        if inverse(image) != sigma:
            return f"{theory.value} {format_partition(sigma)}: round trip broken"

    return check


def _odd_parts(max_rank):
    """(theory, odd part) for each distinct odd part of a rigid B or D partition to max_rank."""
    # Enumerated rigid partitions are valid by construction: split unchecked.
    return dict.fromkeys(
        (theory, _split(p).odd_part)
        for theory, p in _upto(enumerate_rigid, (Theory.B, Theory.D), max_rank)
    )


def check_closed_form(max_rank, report):
    """Group-formula fingerprints equal the pipeline under the defaults.

    The closed form of (p; -) is the side walk of (p; ()), which
    closed_form_fingerprint_BD and closed_form_fingerprint_C return, on
    every rigid B/D partition and the rigid C partitions whose rows pair off.
    """
    def check(theory, p):
        return _closed_form_failure(theory, p, fingerprint(_unchecked_pair(p, (), theory)).weyl)

    return check


def _closed_forms(max_rank):
    """(theory, p) for each rigid p to max_rank that has a closed form to compare."""
    return (
        (theory, p) for theory, p in _rigid(max_rank)
        # In C the rows must pair off: every multiplicity is even.
        if not theory.paired or p[0::2] == p[1::2]
    )


def check_path_equivalence(max_rank, report):
    """The per-block closed forms, joined, equal the direct pipeline's mu and result.

    The block path (closedform.side_fingerprint, whose lambda'' = () case
    is the unipotent closed forms) reads only the pair's two sides, so it
    reads no output of combine, while the pipeline runs under each
    tie-break: a fault in combine's merge shows here.  The walk reads the
    sorted union of the sides and, in C, which values lambda' holds, so one
    walk per such key, built from the sides alone, is kept in the stream's
    scope.  A pair's two tie-breaks come one after the other and share its
    walk, so the key is built once per pair.
    """
    last = walked = None

    def check(theory, pair, opts, direct, seen):
        nonlocal last, walked
        if pair is not last:
            last = pair
            prime, dprime, _ = pair
            key = (side_fingerprint, tuple(sorted(prime + dprime)),
                   theory.paired and frozenset(prime))
            walked = seen.get(key)
            if walked is None:
                walked = seen[key] = side_fingerprint(*pair)
        if not direct.same_outcome(walked):
            return f"{_fmt_pair(pair)} [tie={opts.tie_break}]"

    return check


# Each suite's row: (check, default rank, largest rank, inputs).
# check(max_rank, report) builds the suite's per-run state, records any
# failure or info line of its own in report, and returns the per-input check;
# inputs(max_rank) is the stream it reads, and suites that read the same
# inputs name the same stream.  The largest rank is the largest at which
# every list the suite builds for one rank stays within cli.MAX_LISTED
# entries: members (B 40, C 38, D 40 within the cap) for sp-locality, parity
# and condition-ii, rigid pairs for the pair suites, and rigid partitions for
# the rest.
SUITES = {
    "structure": (check_structure, 12, 83, _rigid),
    "sp-locality": (check_sp_locality, 12, 38, _members),
    "parity": (check_parity, 12, 38, _members),
    "rank-identity": (check_rank_identity, 8, 41, lambda max_rank: _pairs_under(
        max_rank, [FingerprintOptions(mode=mode) for mode in MODES])),
    "condition-ii": (check_condition_ii, 10, 38, _pairs_under),
    "shift": (check_shift, 6, 41, _pairs_under),
    "factorization": (check_factorization, 12, 83, _rigid),
    "path-equivalence": (check_path_equivalence, 8, 41, lambda max_rank: _pairs_under(
        max_rank, [FingerprintOptions(tie_break=tie) for tie in TIE_BREAKS])),
    "closed-form": (check_closed_form, 10, 83, _closed_forms),
    "collapse-bijection": (check_collapse_bijection, 12, 86, _odd_parts),
}


def run_suite(name: str, max_rank: int | None = None) -> SuiteReport:
    check, default_rank, _, inputs = SUITES[name]
    max_rank = default_rank if max_rank is None else max_rank
    report = SuiteReport(0, [], [])
    return _sweep(inputs(max_rank), check(max_rank, report), report)
