"""Command line front end: enumerate, fingerprint, check, fibers, render.

Each cmd_* writes nothing: it returns its (record, text) items and its
exit code, and main writes the items once through _emit, mapping ValueError
and OSError to exit 2.  Text output uses exponent form; --json emits one
JSON object per line (UTF-8 JSONL) with a stable field order.  Exit codes:
0 success / suite pass, 1 invariant violation, 2 usage error.
"""
import argparse
import os
import sys
from itertools import product

from .blocks import decompose_blocks
from .checks import SUITES, run_suite
from .fingerprint import (
    ALL_CONDITIONS,
    III_VARIANTS,
    FingerprintOptions,
    FingerprintResult,
    fingerprint,
)
from .partitions import (
    INTERLEAVE,
    MODES,
    PRIME_FIRST,
    TIE_BREAKS,
    OperatorPair,
    Theory,
    _as_theory,
    combine,
    enumerate_rigid,
    enumerate_rigid_pairs,
    format_pair,
    format_partition,
    parse_partition,
)


# enumerate and fibers list at most MAX_LISTED rigid partitions (pairs for
# fibers and enumerate --pairs).  Each theory's largest rank within the cap,
# as (partitions, pairs), follows from the multiplicity rule; the counts
# never fall as the rank grows.  A larger rank is refused before anything is
# enumerated.  check's largest ranks are in checks.SUITES.
MAX_LISTED = 10**6
MAX_LISTED_RANK = {Theory.B: (86, 43), Theory.C: (83, 41), Theory.D: (86, 44)}


def _check_listed(rank: int, limit: int, what: str) -> None:
    """Raise ValueError for a rank past limit, where a list of what outgrows MAX_LISTED.

    The message names the limit, not the rank, which may run to thousands
    of digits.
    """
    if rank > limit:
        raise ValueError(
            f"the rank has more than {MAX_LISTED} {what}, "
            f"the most this command lists (largest rank {limit})")


def _emit(args, items) -> None:
    """Print (record, text) items, one line each: the record as JSON under
    --json, else the text.  Each line is written as it is made, so the
    output is never held as one string.

    A reader that closes the pipe early (`| head`) is not an error: stdout
    is pointed at os.devnull, so the interpreter's final flush of what is
    left cannot raise again, and the command keeps its own exit code.
    """
    if args.json:
        import json  # loaded here: text output, the default, never needs it
    lines = ((json.dumps(record) if args.json else text) + "\n" for record, text in items)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    else:
        try:
            for line in lines:
                sys.stdout.write(line)
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _pair_from_args(args) -> OperatorPair:
    return OperatorPair(parse_partition(args.prime), parse_partition(args.dprime), args.theory)


def _options_from_args(args) -> FingerprintOptions:
    conditions = ALL_CONDITIONS
    if args.conditions is not None:
        conditions = {t.strip().lower() for t in args.conditions.split(",") if t.strip()}
    return FingerprintOptions(
        mode=args.mode,
        tie_break=args.tie_break,
        conditions=conditions,
        iii_variant=args.iii,
    )


def result_record(res: FingerprintResult) -> dict:
    """One CatalogRecord, keyed and ordered deterministically."""
    diagnostics = []
    if res.diagnostic is not None:
        diagnostics = [
            {"value": v, "multiplicity": n, "tau": 1}
            for v, n in res.diagnostic.entries
        ]
    blocks = []
    if res.tagged.mode == INTERLEAVE:
        blocks = [
            {"start": b.start, "end": b.end, "kind": b.kind,
             "operator_label": b.operator_label}
            for b in decompose_blocks(res.tagged)
        ]
    pair = res.pair
    return {
        "theory": pair.theory.value,
        "rank": pair.rank,
        **_pair_fields(pair),
        "combine_mode": res.options.mode,
        "iii_variant": res.options.variant_for(pair.theory),
        "tie_break": res.options.tie_break,
        "mu": res.mu,
        **_weyl_fields(res),
        "diagnostics": diagnostics,
        "blocks": blocks,
    }


def _outcome_text(res: FingerprintResult) -> str:
    """[alpha; beta], or the extraction diagnostic."""
    if res.weyl is not None:
        return f"[{format_partition(res.weyl.alpha)}; {format_partition(res.weyl.beta)}]"
    return f"diagnostic: {res.diagnostic.message()}"


def _pair_fields(pair: OperatorPair) -> dict:
    return {"lambda_prime": pair.lambda_prime, "lambda_dprime": pair.lambda_dprime}


def _weyl_fields(res: FingerprintResult) -> dict:
    """alpha and beta, both None under a diagnostic."""
    alpha, beta = res.weyl or (None, None)
    return {"alpha": alpha, "beta": beta}


def _result_text(res: FingerprintResult, record: dict) -> str:
    lines = [
        f"theory: {record['theory']}",
        f"rank: {record['rank']}",
        f"lambda': {format_partition(res.pair.lambda_prime)}",
        f"lambda'': {format_partition(res.pair.lambda_dprime)}",
    ]
    lines.append(
        f"mode: {res.options.mode}  iii: {record['iii_variant']}"
        f"  tie-break: {res.options.tie_break}"
        f"  conditions: {','.join(sorted(res.options.conditions))}"
    )
    lines.append(f"mu: {format_partition(record['mu'])}")
    taus = "  ".join(f"{m}:-1({w})" if w else f"{m}:+1" for m, w in res.tau.entries)
    lines.append(f"tau: {taus if taus else '-'}")
    if res.weyl is not None:
        lines.append(f"alpha: {format_partition(res.weyl.alpha)}")
        lines.append(f"beta: {format_partition(res.weyl.beta)}")
    else:
        lines.append(_outcome_text(res))
    if res.tagged.mode == INTERLEAVE:
        parts = [
            f"[{b['start']},{b['end']}) {b['kind']}"
            + (f" {b['operator_label']}" if b["operator_label"] else "")
            for b in record["blocks"]
        ]
        lines.append("blocks: " + (" | ".join(parts) if parts else "-"))
    return "\n".join(lines)


def cmd_enumerate(args) -> tuple:
    theory = _as_theory(args.theory)
    what = "pairs" if args.pairs else "partitions"
    _check_listed(args.rank, MAX_LISTED_RANK[theory][args.pairs], f"rigid {theory.value} {what}")
    head = {"theory": theory.value, "rank": args.rank}
    if args.pairs:
        items = (({**head, **_pair_fields(pair)}, format_pair(pair))
                 for pair in enumerate_rigid_pairs(theory, args.rank))
    else:
        items = (({**head, "partition": p}, format_partition(p))
                 for p in enumerate_rigid(theory, args.rank))
    return items, 0


def cmd_fingerprint(args) -> tuple:
    pair = _pair_from_args(args)
    opts = _options_from_args(args)
    if args.compare:
        items = []
        seen = {}  # the four runs' one scope: both INTERLEAVE merges share values
        for mode, tie in product(MODES, TIE_BREAKS):
            res = fingerprint(pair, opts._replace(mode=mode, tie_break=tie), seen)
            items.append((result_record(res),
                          f"mode={mode} tie-break={tie}: {_outcome_text(res)}"))
    else:
        res = fingerprint(pair, opts)
        record = result_record(res)
        items = [(record, _result_text(res, record))]
    return items, 0


def cmd_check(args) -> tuple:
    if args.max_rank is not None:
        _check_listed(args.max_rank, SUITES[args.suite][2],
                      f"entries in one list of {args.suite}")
    report = run_suite(args.suite, args.max_rank)
    record = {
        "suite": args.suite,
        "checked": report.checked,
        "ok": report.ok,
        "failures": report.failures,
        "info": report.info,
    }
    lines = [f"suite {args.suite}: checked {report.checked} inputs"]
    lines.extend(f"info: {msg}" for msg in report.info)
    if report.ok:
        lines.append("PASS")
    else:
        lines.append(f"FAIL ({len(report.failures)} counterexamples)")
        lines.extend(f"  {c}" for c in report.failures[:10])
    return [(record, "\n".join(lines))], 0 if report.ok else 1


def _fiber_key(pair: OperatorPair):
    """Mirror pairs label the same class in the D theory; canonicalize there."""
    if pair.theory is Theory.D and pair.lambda_dprime > pair.lambda_prime:
        return (pair.lambda_dprime, pair.lambda_prime)
    return (pair.lambda_prime, pair.lambda_dprime)


def cmd_fibers(args) -> tuple:
    theory = _as_theory(args.theory)
    _check_listed(args.rank, MAX_LISTED_RANK[theory][True], f"rigid {theory.value} pairs")
    firsts: dict = {}  # fiber key -> first pair with it
    for pair in enumerate_rigid_pairs(theory, args.rank):
        firsts.setdefault(_fiber_key(pair), pair)
    groups: dict = {}  # weyl or diagnostic -> (first result, member pairs)
    seen = {}  # one scope: the pairs are all of one theory and rank, as a stream scope's are
    for pair in firsts.values():
        res = fingerprint(pair, seen=seen)
        groups.setdefault(res.weyl or res.diagnostic, (res, []))[1].append(pair)
    items = []
    for fp in sorted(groups, key=str):
        res, members = groups[fp]
        if len(members) < 2:
            continue
        record = {
            "theory": theory.value,
            "rank": args.rank,
            **_weyl_fields(res),
            "members": [_pair_fields(m) for m in members],
        }
        outcome = _outcome_text(res)
        if res.weyl is None:
            record["diagnostic"] = res.diagnostic.message()
            outcome = f"<{outcome}>"
        lines = [f"fiber {outcome}: {len(members)} members"]
        lines.extend(f"  {format_pair(m)}" for m in members)
        items.append((record, "\n".join(lines)))
    return items, 0


def cmd_render(args) -> tuple:
    """ASCII Young diagram of the merged pair; lambda''-origin rows are drawn with '*'."""
    tagged = combine(_pair_from_args(args), INTERLEAVE, args.tie_break)
    rows = (("*" if d is None else "#") * v for v, d in zip(tagged.values, tagged.prime_odd))
    return [(None, "\n".join(rows))], 0


def nonnegative_int(text: str) -> int:
    """argparse type of --rank and --max-rank.

    Only negatives are refused here: a rank too large to list is refused by
    _check_listed before anything is enumerated.
    """
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _flag(*args, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag, for the subcommands that share it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*args, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidfp",
        description="Fingerprints of rigid operators in the B/C/D theories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    theory = _flag("--theory", required=True, choices=[t.value for t in Theory])
    out = _flag("--out", metavar="FILE")
    emit = [_flag("--json", action="store_true"), out]
    rank = _flag("--rank", type=nonnegative_int, required=True)
    pair = [
        theory,
        _flag("--prime", default="", help="lambda' (e.g. \"2^2 1\")"),
        _flag("--dprime", default="", help="lambda'' (default empty)"),
        _flag("--tie-break", choices=sorted(TIE_BREAKS), default=PRIME_FIRST),
    ]

    p = sub.add_parser("enumerate", parents=[theory, *emit, rank],
                       help="list rigid partitions or rigid pairs")
    p.add_argument("--pairs", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("fingerprint", parents=[*pair, *emit],
                       help="compute [alpha;beta] for one operator")
    p.add_argument("--mode", choices=MODES, default=INTERLEAVE)
    p.add_argument("--iii", choices=III_VARIANTS)
    p.add_argument("--conditions", metavar="i,ii,iii")
    p.add_argument("--compare", action="store_true",
                   help="show all combine mode / tie-break conventions")
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("check", parents=emit, help="run a named invariant suite")
    p.add_argument("suite", choices=sorted(SUITES))
    defaults = {name: row[1] for name, row in SUITES.items()}
    p.add_argument("--max-rank", type=nonnegative_int,
                   help=f"rank bound (defaults: {defaults})")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fibers", parents=[theory, *emit, rank],
                       help="group rigid pairs sharing a fingerprint")
    p.set_defaults(func=cmd_fibers)

    p = sub.add_parser("render", parents=[*pair, out],
                       help="print the ASCII Young diagram of a pair")
    p.set_defaults(func=cmd_render, json=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        items, code = args.func(args)
        _emit(args, items)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
