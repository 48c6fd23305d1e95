"""Print the size of each module of src/rigidfp in Python tokens, and the total.

A token is what the standard tokenize module yields, without comments and
layout (newlines, indents and dedents); a string, docstrings included, is one
token.  Python 3.12 and later split an f-string into several tokens, so
compare counts made with the same Python minor version: the first line
printed names the interpreter's version.

    python3 tools/src_tokens.py [DIR]    # DIR defaults to src/rigidfp
"""
import platform
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count_tokens(path: Path) -> int:
    with path.open("rb") as f:
        return sum(tok.type not in LAYOUT for tok in tokenize.tokenize(f.readline))


def main() -> None:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "rigidfp")
    print(f"python {platform.python_version()}")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = count_tokens(path)
        total += n
        print(f"{path.name:<16} {n:>6}")
    print(f"{'total':<16} {total:>6}")


if __name__ == "__main__":
    main()
