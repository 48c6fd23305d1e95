import argparse
import functools
import json
import os
import subprocess
import sys

import pytest

from partition_oracle import member_count, rigid_count
import rigidfp.blocks
import rigidfp.cli
from rigidfp import OperatorPair, block_fingerprint, fingerprint
from rigidfp.checks import SUITES, SuiteReport
from rigidfp.cli import MAX_LISTED, MAX_LISTED_RANK, main, result_record
from rigidfp.partitions import PAIR_SIDES, Theory


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_partitions_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--theory", "B", "--rank", "2")
        assert code == 0
        assert out.splitlines() == ["1^5", "2^2 1"]

    def test_pairs_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--theory", "B", "--rank", "1",
                           "--pairs")
        assert code == 0
        assert out.splitlines() == ["(1^3; -)", "(1; 1^2)"]

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--theory", "D", "--rank", "4",
                           "--json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert {"theory": "D", "rank": 4, "partition": [1] * 8} in records
        assert all(list(r) == ["theory", "rank", "partition"] for r in records)


class TestFingerprint:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "fingerprint", "--theory", "C",
                           "--prime", "2 1^2", "--dprime", "1^2")
        assert code == 0
        assert "mu: 2 1^4" in out
        assert "alpha: 1^2" in out
        assert "beta: 1" in out
        assert "tau: 2:-1(iii)" in out
        assert "blocks: [0,1) S | [1,5) III mu_o12" in out.splitlines()

    def test_json_record_keys(self, capsys):
        code, out, _ = run(capsys, "fingerprint", "--theory", "B",
                           "--prime", "2^2 1", "--dprime", "1^2", "--json")
        assert code == 0
        rec = json.loads(out)
        assert list(rec) == [
            "theory", "rank", "lambda_prime", "lambda_dprime", "combine_mode",
            "iii_variant", "tie_break", "mu", "alpha", "beta", "diagnostics",
            "blocks",
        ]
        assert rec["alpha"] == [2, 1]
        assert rec["beta"] == []
        assert rec["diagnostics"] == []
        assert rec["blocks"] == [
            {"start": 0, "end": 2, "kind": "II", "operator_label": "mu_II"},
            {"start": 2, "end": 5, "kind": "I", "operator_label": "mu_o2"},
        ]

    def test_each_block_classified_once(self, monkeypatch):
        # Both paths and the record of one pair: only the record builds blocks.
        calls = []
        block = rigidfp.blocks.Block

        def counted(*fields):
            calls.append(fields)
            return block(*fields)

        monkeypatch.setattr(rigidfp.blocks, "Block", counted)
        direct = fingerprint(OperatorPair((2, 2, 1), (1, 1), "B"))
        block_fingerprint(direct.tagged, direct.pair.theory)
        rec = result_record(direct)
        assert len(rec["blocks"]) == 2
        assert len(calls) == 2

    def test_diagnostic_reported_not_fatal(self, capsys):
        code, out, _ = run(capsys, "fingerprint", "--theory", "C",
                           "--prime", "2 1^2", "--iii", "vacuous", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["alpha"] is None
        assert rec["diagnostics"] == [{"value": 2, "multiplicity": 1, "tau": 1}]

    def test_compare_shows_all_conventions(self, capsys):
        code, out, _ = run(capsys, "fingerprint", "--theory", "B",
                           "--prime", "1", "--dprime", "1^2", "--compare")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert any("mode=interleave" in ln for ln in lines)
        assert any("mode=sum" in ln for ln in lines)

    def test_compare_rejects_unknown_condition(self, capsys):
        code, out, err = run(capsys, "fingerprint", "--theory", "B",
                             "--prime", "1^3", "--compare", "--conditions", "i,iv")
        assert code == 2
        assert out == ""
        assert "iv" in err

    def test_compare_keeps_conditions(self, capsys):
        # Without condition (iii) the interleaved C pair has no beta row.
        argv = ("fingerprint", "--theory", "C", "--prime", "2 1^2",
                "--dprime", "1^2", "--conditions", "i")
        _, single, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--compare")
        assert code == 0
        expected = "diagnostic: value 2 has odd multiplicity 1 under tau=+1"
        assert expected in single.splitlines()
        assert out.splitlines()[:2] == [
            f"mode=interleave tie-break={tie}: {expected}"
            for tie in ("prime", "dprime")
        ]

    def test_empty_conditions_mean_none(self, capsys):
        # Every empty spelling of --conditions turns all three conditions off.
        argv = ("fingerprint", "--theory", "C", "--prime", "2 1^2", "--dprime", "1^2")
        outs = [run(capsys, *argv, "--conditions", text) for text in ("", " ", ",")]
        assert outs[0] == outs[1] == outs[2]
        code, out, _ = outs[0]
        assert code == 0
        assert "tie-break: prime  conditions: \n" in out
        assert "diagnostic: value 2 has odd multiplicity 1 under tau=+1" in out

    def test_deterministic(self, capsys):
        argv = ("fingerprint", "--theory", "D", "--prime", "3 2^2 1", "--json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rec.jsonl"
        code, out, _ = run(capsys, "fingerprint", "--theory", "B",
                           "--prime", "2^2 1", "--dprime", "1^2", "--json",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        rec = json.loads(target.read_text(encoding="utf-8"))
        assert rec["theory"] == "B"

    def test_bad_partition_exits_2(self, capsys):
        code, _, err = run(capsys, "fingerprint", "--theory", "B",
                           "--prime", "2 frog")
        assert code == 2
        assert "frog" in err

    @pytest.mark.parametrize("token", ["2_1", "1^1_0", "\u0663", "+2", "2^+1"])
    def test_non_digit_token_exits_2(self, capsys, token):
        # "2_1" would otherwise read as the B row 21.
        code, out, err = run(capsys, "fingerprint", "--theory", "B", "--prime", token)
        assert code == 2
        assert out == ""
        assert f"malformed token {token!r}" in err

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "rec.jsonl"
        code, out, err = run(capsys, "fingerprint", "--theory", "B",
                             "--prime", "1", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "missing" in err
        assert not target.parent.exists()

    def test_oversized_partition_exits_2(self, capsys):
        code, out, err = run(capsys, "fingerprint", "--theory", "B",
                             "--prime", "1^1000000000")
        assert (code, out) == (2, "")
        assert "partition has more than 10000 boxes" in err

    def test_overlong_exponent_exits_2(self, capsys):
        # The exponent has more digits than int() reads from a string.
        code, out, err = run(capsys, "fingerprint", "--theory", "B",
                             "--prime", "1^" + "9" * 5000)
        assert (code, out) == (2, "")
        assert "partition has more than 10000 boxes" in err

    def test_bad_condition_exits_2(self, capsys):
        code, _, err = run(capsys, "fingerprint", "--theory", "B",
                           "--prime", "1^3", "--conditions", "i,iv")
        assert code == 2
        assert "iv" in err


def test_cli_loads_no_dataclasses_inspect_or_json():
    # Every CLI call is a fresh process that pays the package import:
    # dataclasses alone would load inspect, ast and dis into it, and only
    # --json output needs json.
    src = os.path.dirname(os.path.dirname(rigidfp.cli.__file__))
    for statements in ("import rigidfp, rigidfp.checks, rigidfp.cli",
                       "import rigidfp.cli; rigidfp.cli.main(['check', 'structure'])"):
        code = (f"import sys; sys.path.insert(0, {src!r})\n{statements}\n"
                "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-S", "-c", code],
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "[]"


def run_module(*argv):
    """`python -m rigidfp argv` in a fresh process: exit code, stdout, stderr."""
    src = os.path.dirname(os.path.dirname(rigidfp.cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "rigidfp", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    return done.returncode, done.stdout, done.stderr


class TestMainModule:
    def test_check_passes(self):
        code, out, err = run_module("check", "shift", "--max-rank", "0")
        assert (code, out.splitlines()[-1], err) == (0, "PASS", "")

    def test_usage_error(self):
        code, out, err = run_module("fingerprint", "--theory", "B", "--prime", "1 3")
        assert (code, out) == (2, "")
        assert err == "error: partition not weakly decreasing at part 3\n"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--theory", "B", "--rank", "2"],
    ["fingerprint", "--theory", "C", "--prime", "2 1^2", "--dprime", "1^2", "--compare"],
    ["check", "structure", "--max-rank", "6", "--json"],
    ["fibers", "--theory", "B", "--rank", "1"],
    ["render", "--theory", "B", "--prime", "2^2 1", "--dprime", "1^2"],
], ids=lambda argv: argv[0])
def test_commands_return_what_main_writes(capsys, monkeypatch, argv):
    # A command writes nothing: it returns its (record, text) items and its
    # exit code, and main writes them in one _emit call.
    args = rigidfp.cli.build_parser().parse_args(argv)
    items, code = args.func(args)
    items = list(items)
    assert capsys.readouterr() == ("", "")
    assert code == 0 and items
    emit = rigidfp.cli._emit
    calls = []
    monkeypatch.setattr(rigidfp.cli, "_emit", lambda *a: calls.append(a) or emit(*a))
    assert run(capsys, *argv) == (code, "".join(
        f"{json.dumps(record) if args.json else text}\n" for record, text in items), "")
    assert len(calls) == 1


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_emit_writes_each_line_as_it_goes(capsys, monkeypatch, tmp_path, fmt):
    # One write per item, each a whole line, never the output joined into
    # one string; --out gets the same bytes.
    argv = ["enumerate", "--theory", "B", "--rank", "8", *fmt]
    target = tmp_path / "out"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")

    class Lines:
        def __init__(self):
            self.chunks = []

        def write(self, text):
            self.chunks.append(text)

        def flush(self):
            pass

    stdout = Lines()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    assert len(stdout.chunks) == rigid_count("B", 8)
    assert all(chunk.count("\n") == 1 and chunk.endswith("\n") for chunk in stdout.chunks)
    assert "".join(stdout.chunks) == target.read_text(encoding="utf-8")


class TestCheck:
    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, "check", "structure", "--max-rank", "6")
        assert code == 0
        assert out.startswith("suite structure: checked ")
        assert out.rstrip().endswith("PASS")

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "check", "parity", "--max-rank", "6",
                           "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["ok"] is True
        assert rec["checked"] > 0

    @pytest.mark.parametrize("failures, want", [([], 0), (["x"], 1)])
    def test_closed_pipe_keeps_exit_code(self, capsys, monkeypatch, tmp_path,
                                         failures, want):
        # `rigidfp check ... | head -1`: the reader went away, the suite did not fail.
        class ClosedPipe:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return self.fd

        report = SuiteReport(1, failures, [])
        monkeypatch.setattr(rigidfp.cli, "run_suite", lambda name, rank: report)
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
            code = main(["check", "structure"])
            monkeypatch.undo()
            assert code == want
            assert capsys.readouterr().err == ""
            # What is left to flush goes nowhere instead of raising again.
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "nonsense"])
        assert exc.value.code == 2


class TestFibers:
    def test_rank_one_fiber(self, capsys):
        code, out, _ = run(capsys, "fibers", "--theory", "B", "--rank", "1")
        assert code == 0
        assert "fiber [1; -]: 2 members" in out
        assert "(1^3; -)" in out and "(1; 1^2)" in out

    def test_d_mirror_pairs_counted_once(self, capsys):
        code, out, _ = run(capsys, "fibers", "--theory", "D", "--rank", "2",
                           "--json")
        assert code == 0
        for line in out.splitlines():
            rec = json.loads(line)
            seen = set()
            for m in rec["members"]:
                key = (tuple(m["lambda_prime"]), tuple(m["lambda_dprime"]))
                assert (key[1], key[0]) not in seen
                seen.add(key)

    def test_distinct_diagnostics_kept_apart(self, capsys):
        code, out, _ = run(capsys, "fibers", "--theory", "C", "--rank", "6")
        assert code == 0
        heads = [ln for ln in out.splitlines() if ln.startswith("fiber <")]
        assert heads == [
            "fiber <diagnostic: value 2 has odd multiplicity 1 under tau=+1>: 7 members",
            "fiber <diagnostic: value 2 has odd multiplicity 3 under tau=+1>: 3 members",
        ]
        code, out, _ = run(capsys, "fibers", "--theory", "C", "--rank", "6",
                           "--json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        diagnostic = [r for r in records if r["alpha"] is None]
        assert [len(r["members"]) for r in diagnostic] == [7, 3]
        assert all(list(r)[-1] == "diagnostic" for r in diagnostic)
        assert all("diagnostic" not in r for r in records if r["alpha"] is not None)


    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_no_fibers_prints_nothing(self, capsys, flags):
        # Rank 0 has a single pair, so no fiber has two members.
        code, out, _ = run(capsys, "fibers", "--theory", "B", "--rank", "0", *flags)
        assert code == 0
        assert out == ""


class TestNegativeRank:
    @pytest.mark.parametrize("argv, message", [
        (["enumerate", "--theory", "B", "--rank", "-3"], "must be >= 0"),
        (["enumerate", "--theory", "D", "--rank", "-1", "--pairs"], "must be >= 0"),
        (["fibers", "--theory", "B", "--rank", "-1"], "must be >= 0"),
        (["check", "structure", "--max-rank", "-1"], "must be >= 0"),
        # int() refuses more than 4300 digits.
        (["fibers", "--theory", "B", "--rank", "9" * 4301], "invalid nonnegative_int value"),
    ])
    def test_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("argv, limit", [
        # Far past every listing cap; parsing lets them through.
        (["enumerate", "--theory", "B", "--rank", "100000000000"], 86),
        (["fibers", "--theory", "B", "--rank", "5000"], 43),
        (["check", "structure", "--max-rank", "5000"], 83),
        # The message names the limit, not the refused rank's 4000 digits.
        (["enumerate", "--theory", "B", "--rank", "9" * 4000], 86),
        (["fibers", "--theory", "B", "--rank", "9" * 4000], 43),
        (["check", "structure", "--max-rank", "9" * 4000], 83),
    ])
    def test_over_large_rank_refused_before_listing(self, capsys, argv, limit):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"the most this command lists (largest rank {limit})" in err
        assert len(err.splitlines()) == 1 and len(err.encode()) < 200

    def test_largest_rank_accepted(self):
        # Parsed only: the parser bounds no rank from above, and nothing is
        # enumerated here.
        parser = rigidfp.cli.build_parser()
        assert parser.parse_args(["enumerate", "--theory", "B", "--rank", "5000"]).rank == 5000
        big = 10**30
        assert parser.parse_args(["check", "structure", "--max-rank", str(big)]).max_rank == big

    def test_rank_zero_accepted(self, capsys):
        code, out, _ = run(capsys, "check", "structure", "--max-rank", "0")
        assert code == 0
        assert out.splitlines() == ["suite structure: checked 3 inputs", "PASS"]


# Each pair count sums many rigid counts: count each (theory, rank) once.
_rigid_count = functools.cache(rigid_count)


def _rigid_pair_count(theory, rank):
    side1, side2 = (side.value for side in PAIR_SIDES[theory])
    return sum(_rigid_count(side1, rank - n2) * _rigid_count(side2, n2) for n2 in range(rank + 1))


def _rigid_partition_count(theory, rank):
    return _rigid_count(theory.value, rank)


def _member_count(theory, rank):
    return member_count(theory.value, rank)


class TestListedCap:
    @pytest.mark.parametrize("pairs", [False, True], ids=["partitions", "pairs"])
    def test_limits_follow_from_the_count(self, pairs):
        # Two more rows of 1 map each rigid partition (and each pair, on
        # lambda') into the next rank, so the counts never fall: the first
        # rank past the cap bounds every larger one.
        count = _rigid_pair_count if pairs else _rigid_partition_count
        for theory, limits in MAX_LISTED_RANK.items():
            limit = limits[pairs]
            assert count(theory, limit) <= MAX_LISTED < count(theory, limit + 1), theory
        assert {t.value: r[pairs] for t, r in MAX_LISTED_RANK.items()} == (
            {"B": 43, "C": 41, "D": 44} if pairs else {"B": 86, "C": 83, "D": 86})

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--theory", "B", "--rank", "87"],
        ["enumerate", "--theory", "C", "--rank", "84", "--json"],
        ["enumerate", "--theory", "D", "--rank", "87"],
        ["enumerate", "--theory", "B", "--rank", "44", "--pairs"],
        ["enumerate", "--theory", "C", "--rank", "42", "--pairs"],
        ["enumerate", "--theory", "D", "--rank", "45", "--pairs"],
        ["enumerate", "--theory", "B", "--rank", "4999", "--pairs"],
        ["fibers", "--theory", "B", "--rank", "44"],
        ["fibers", "--theory", "C", "--rank", "42", "--json"],
        ["fibers", "--theory", "D", "--rank", "4999"],
    ])
    def test_refused_before_enumerating(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("enumerated past the cap")

        for name in ("enumerate_rigid", "enumerate_rigid_pairs"):
            monkeypatch.setattr(rigidfp.cli, name, refuse)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"more than {MAX_LISTED} rigid" in err

    @pytest.mark.parametrize("command", ["enumerate", "enumerate --pairs", "fibers"])
    def test_largest_ranks_accepted(self, capsys, monkeypatch, command):
        monkeypatch.setattr(rigidfp.cli, "enumerate_rigid", lambda *args: [])
        monkeypatch.setattr(rigidfp.cli, "enumerate_rigid_pairs", lambda *args: [])
        pairs = command != "enumerate"
        for theory, limits in MAX_LISTED_RANK.items():
            argv = [*command.split(), "--theory", theory.value, "--rank", str(limits[pairs])]
            assert run(capsys, *argv) == (0, "", "")


# What each check suite lists at one rank, counted over the theories it sweeps.
_ALL = tuple(Theory)
CHECK_LISTS = {
    "structure": [(_rigid_partition_count, _ALL)],
    "sp-locality": [(_member_count, _ALL)],
    "parity": [(_member_count, _ALL)],
    "rank-identity": [(_rigid_pair_count, _ALL)],
    "condition-ii": [(_rigid_pair_count, _ALL), (_member_count, _ALL)],
    "shift": [(_rigid_pair_count, _ALL)],
    "factorization": [(_rigid_partition_count, _ALL)],
    "path-equivalence": [(_rigid_pair_count, _ALL)],
    "closed-form": [(_rigid_partition_count, _ALL)],
    "collapse-bijection": [(_rigid_partition_count, (Theory.B, Theory.D))],
}


class TestCheckCap:
    def test_limits_follow_from_the_count(self):
        # As for enumerate: the counts never fall as the rank grows, so the
        # first rank past the cap bounds every larger one.
        assert CHECK_LISTS.keys() == SUITES.keys()
        for suite, lists in CHECK_LISTS.items():
            def most(rank):
                return max(count(t, rank) for count, theories in lists for t in theories)

            limit = SUITES[suite][2]
            assert most(limit) <= MAX_LISTED < most(limit + 1), suite
        assert [SUITES[s][2] for s in ("sp-locality", "shift", "structure")] == [38, 41, 83]

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_refused_before_enumerating(self, capsys, monkeypatch, suite):
        def refuse(*args):
            raise AssertionError("swept past the cap")

        monkeypatch.setattr(rigidfp.cli, "run_suite", refuse)
        largest = SUITES[suite][2]
        for rank in (largest + 1, 4999):
            code, out, err = run(capsys, "check", suite, "--max-rank", str(rank), "--json")
            assert (code, out) == (2, "")
            assert f"more than {MAX_LISTED} entries" in err
            assert f"largest rank {largest}" in err

    def test_largest_ranks_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(rigidfp.cli, "run_suite", lambda *args: SuiteReport(1, [], []))
        for suite, (_, _, limit, _) in SUITES.items():
            code, out, err = run(capsys, "check", suite, "--max-rank", str(limit))
            assert (code, out.splitlines()[-1], err) == (0, "PASS", "")


class TestRender:
    def test_diagram(self, capsys):
        code, out, _ = run(capsys, "render", "--theory", "B",
                           "--prime", "2^2 1", "--dprime", "1^2")
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "##"
        assert len(rows) == 5
        assert set("".join(rows)) <= {"#", "*"}


class TestUsage:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_theory(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--rank", "2"])
        assert exc.value.code == 2


THEORIES = ["B", "C", "D"]
TIES = ["dprime", "prime"]
SUITE_NAMES = sorted([
    "structure", "sp-locality", "parity", "rank-identity", "condition-ii", "shift",
    "factorization", "path-equivalence", "closed-form", "collapse-bijection",
])
# Each subcommand's options: option string (the dest of a positional) ->
# (required, choices, default).
SUBCOMMAND_FLAGS = {
    "enumerate": {
        "--theory": (True, THEORIES, None),
        "--json": (False, None, False),
        "--out": (False, None, None),
        "--rank": (True, None, None),
        "--pairs": (False, None, False),
    },
    "fingerprint": {
        "--theory": (True, THEORIES, None),
        "--json": (False, None, False),
        "--out": (False, None, None),
        "--prime": (False, None, ""),
        "--dprime": (False, None, ""),
        "--mode": (False, ["interleave", "sum"], "interleave"),
        "--iii": (False, ["so", "sp", "vacuous"], None),
        "--tie-break": (False, TIES, "prime"),
        "--conditions": (False, None, None),
        "--compare": (False, None, False),
    },
    "check": {
        "suite": (True, SUITE_NAMES, None),
        "--max-rank": (False, None, None),
        "--json": (False, None, False),
        "--out": (False, None, None),
    },
    "fibers": {
        "--theory": (True, THEORIES, None),
        "--json": (False, None, False),
        "--out": (False, None, None),
        "--rank": (True, None, None),
    },
    "render": {
        "--theory": (True, THEORIES, None),
        "--prime": (False, None, ""),
        "--dprime": (False, None, ""),
        "--tie-break": (False, TIES, "prime"),
        "--out": (False, None, None),
    },
}


class TestParser:
    @staticmethod
    def subcommands():
        parser = rigidfp.cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return sub.choices

    def test_each_subcommand_keeps_its_flags(self):
        subcommands = self.subcommands()
        assert set(subcommands) == set(SUBCOMMAND_FLAGS)
        for name, sub in subcommands.items():
            flags = {}
            for action in sub._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                choices = None if action.choices is None else list(action.choices)
                for key in action.option_strings or [action.dest]:
                    assert key not in flags, (name, key)
                    flags[key] = (action.required, choices, action.default)
            assert flags == SUBCOMMAND_FLAGS[name], name

    def test_render_has_no_json_flag(self, capsys):
        render = self.subcommands()["render"]
        assert "--json" not in render._option_string_actions
        assert render.parse_args(["--theory", "B"]).json is False
        with pytest.raises(SystemExit) as exc:
            main(["render", "--theory", "B", "--json"])
        assert exc.value.code == 2
