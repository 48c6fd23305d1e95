"""Byte-for-byte CLI output on a fixed corpus of invocations.

Each invocation runs in-process through `main`; the test compares the exit
code, the exact stdout and the `error: ...` lines that `main` prints.  The
rest of stderr is argparse's usage text, which varies across Python versions.

Regenerate the expected outputs after an intended change with

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from rigidfp.checks import SUITES
from rigidfp.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

# (theory, lambda', lambda''); the last two are rejected with exit 2.
PAIRS = [
    ("B", "2^2 1", "1^2"),
    ("B", "1", "1^2"),
    ("B", "1^3", ""),
    ("B", "3 2^2 1^2", "2^2"),
    ("C", "2 1^2", "1^2"),
    ("C", "", "2 1^2"),
    ("C", "2 1^2", "2 1^2"),
    ("C", "3^2 2 1^2", "1^2"),
    ("D", "3 2^2 1", ""),
    ("D", "2^2 1^4", "1^2"),
    ("D", "1^2", "3 1"),
    ("B", "2", ""),
    ("C", "2 frog", ""),
]

FINGERPRINT_OPTIONS = [
    [],
    ["--json"],
    ["--mode", "sum"],
    ["--tie-break", "dprime"],
    ["--iii", "vacuous", "--json"],
    ["--iii", "so"],
    ["--conditions", "i,ii"],
    ["--conditions", "iii", "--json"],
    ["--compare"],
    ["--compare", "--iii", "sp", "--json"],
]


def _invocations():
    for suite in sorted(SUITES):
        for fmt in ([], ["--json"]):
            yield ["check", suite, "--max-rank", "3", *fmt]
    for command, extra in (("enumerate", []), ("enumerate", ["--pairs"]),
                           ("fibers", [])):
        for theory in "BCD":
            for rank in range(6):
                for fmt in ([], ["--json"]):
                    yield [command, "--theory", theory, "--rank", str(rank),
                           *extra, *fmt]
    for theory, prime, dprime in PAIRS:
        side = ["--theory", theory, "--prime", prime, "--dprime", dprime]
        for opts in FINGERPRINT_OPTIONS:
            yield ["fingerprint", *side, *opts]
        for tie in ("prime", "dprime"):
            yield ["render", *side, "--tie-break", tie]
    yield []
    yield ["enumerate", "--rank", "2"]
    yield ["check", "nonsense"]
    yield ["fingerprint", "--theory", "B", "--prime", "1^3", "--conditions", "i,iv"]


INVOCATIONS = list(_invocations())


def run(argv):
    """Exit code, stdout and main's own error lines of one invocation."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    errors = [ln for ln in err.getvalue().splitlines() if ln.startswith("error: ")]
    return {"code": code, "stdout": out.getvalue(), "errors": errors}


def _key(argv) -> str:
    return json.dumps(argv)


@pytest.fixture(scope="module")
def golden():
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {_key(argv): result for argv, result in entries}


def test_corpus_matches_golden_keys(golden):
    assert list(golden) == [_key(argv) for argv in INVOCATIONS]


@pytest.mark.parametrize("argv", INVOCATIONS, ids=_key)
def test_output_matches_golden(argv, golden):
    assert run(argv) == golden[_key(argv)]


if __name__ == "__main__":
    entries = [[argv, run(argv)] for argv in INVOCATIONS]
    GOLDEN.parent.mkdir(exist_ok=True)
    # One invocation per line, so a changed output shows as a one-line diff.
    lines = ",\n".join(json.dumps(entry) for entry in entries)
    GOLDEN.write_text("[\n" + lines + "\n]\n", encoding="utf-8")
    print(f"wrote {len(entries)} invocations to {GOLDEN}")
