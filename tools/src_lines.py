#!/usr/bin/env python3
"""Count the source lines under ``src/chesswit`` at two git revisions.

Usage, from the repository root:

    python3 tools/src_lines.py BASE [HEAD]

Reads every ``.py`` file under ``src/chesswit`` at each revision with
``git ls-tree`` and ``git show``, with no checkout, and prints its code,
docstring, comment and blank lines, their total, and the net change
from BASE to HEAD (default ``HEAD``). A revision is anything git names
a tree by; ``$(git write-tree)`` names the staged index, so a change can
be counted before it is committed.

A line is code if it holds any token but a comment or a docstring; a
docstring line lies in a string that is a statement of its own; a
comment line holds only a comment; a blank line holds only whitespace.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tokenize
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/chesswit"
KINDS = ("code", "docstring", "comment", "blank")

# tokens that do not make their lines code
_LAYOUT = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.COMMENT)


def count_lines(source: str) -> Dict[str, int]:
    """Lines of one Python source by kind, keyed by ``KINDS``."""
    code, docstring, comment = set(), set(), set()
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    statement_start = True
    for tok, after in zip(tokens, tokens[1:] + tokens[-1:]):
        lines = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            comment.update(lines)
        elif tok.type == tokenize.STRING and statement_start \
                and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            docstring.update(lines)
        elif tok.type not in _LAYOUT:
            code.update(lines)
        if tok.type not in (tokenize.INDENT, tokenize.DEDENT, tokenize.NL,
                            tokenize.COMMENT):
            statement_start = tok.type == tokenize.NEWLINE
    n_lines = len(source.splitlines())
    docstring -= code
    comment -= code | docstring
    return {"code": len(code), "docstring": len(docstring),
            "comment": len(comment),
            "blank": n_lines - len(code | docstring | comment)}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout


def count_revision(rev: str) -> Dict[str, int]:
    """Summed :func:`count_lines` of the package's ``.py`` files at
    ``rev``."""
    totals = dict.fromkeys(KINDS, 0)
    for path in _git("ls-tree", "-r", "--name-only", rev, "--",
                     PACKAGE).splitlines():
        if path.endswith(".py"):
            for kind, n in count_lines(_git("show", f"{rev}:{path}")).items():
                totals[kind] += n
    return totals


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?", default="HEAD")
    args = parser.parse_args(argv)
    old, new = count_revision(args.base), count_revision(args.head)
    old["total"], new["total"] = sum(old.values()), sum(new.values())
    # a tree id from git write-tree is 40 characters; 12 tell it apart
    print(f"{'':10}{args.base[:12]:>14}{args.head[:12]:>14}{'net':>8}")
    for kind in old:
        print(f"{kind:10}{old[kind]:>14}{new[kind]:>14}"
              f"{new[kind] - old[kind]:>+8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
