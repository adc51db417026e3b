"""Tests for ``tools/src_lines.py`` on in-memory sources, with git
faked."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

OLD = '''"""Module docstring,
on two lines."""

import os  # trailing comment is code


def f(x):
    """One-line docstring."""
    # a comment line

    s = """a code string
spanning two lines"""
    return x + len(s)
'''

NEW = '''"""Module docstring."""


def f(x):
    return x
'''


def _load():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lines_are_counted_by_kind():
    count = _load().count_lines
    assert count(OLD) == {"code": 5, "docstring": 3, "comment": 1,
                          "blank": 4}
    assert count(NEW) == {"code": 2, "docstring": 1, "comment": 0,
                          "blank": 2}
    assert count("") == {"code": 0, "docstring": 0, "comment": 0, "blank": 0}


def test_net_lines_between_two_revisions(monkeypatch, capsys):
    module = _load()
    trees = {"base": {"src/chesswit/a.py": OLD, "src/chesswit/b.py": NEW,
                      "src/chesswit/data.txt": "not python\n"},
             "head": {"src/chesswit/a.py": NEW}}
    calls = []

    def fake_git(*args):
        calls.append(args)
        if args[0] == "ls-tree":
            assert args[1:3] == ("-r", "--name-only")
            return "".join(path + "\n" for path in trees[args[3]])
        assert args[0] == "show"
        rev, path = args[1].split(":")
        return trees[rev][path]

    monkeypatch.setattr(module, "_git", fake_git)
    assert module.main(["base", "head"]) == 0
    lines = capsys.readouterr().out.splitlines()
    table = {line.split()[0]: [int(v) for v in line.split()[1:]]
             for line in lines[1:]}
    assert table == {"code": [7, 2, -5], "docstring": [4, 1, -3],
                     "comment": [1, 0, -1], "blank": [6, 2, -4],
                     "total": [18, 5, -13]}
    # sources are read with git show, never from a checkout
    assert {args[0] for args in calls} == {"ls-tree", "show"}
