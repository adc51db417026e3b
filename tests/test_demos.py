"""Each demo script runs to completion as a user would run it, with
warnings made errors, and README's Quickstart prints what its comments
say."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    path = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    # -W error: a numpy RuntimeWarning in a demo fails it
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_readme_quickstart_prints_what_its_comments_say(capsys):
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Quickstart\n\n```python\n(.*?)```", text,
                      re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    detected, minima, value = capsys.readouterr().out.splitlines()
    assert namespace["ok"] is True    # "True: PPT across all cuts"
    assert detected == "True"
    assert ast.literal_eval(minima)["con"] < 0.0
    assert f"{float(value):.4f}" == "-0.0308"
