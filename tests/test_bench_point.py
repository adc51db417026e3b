"""Tests for ``tools/bench_point.py`` with the benchmark runs faked, so
that no workload actually runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_point.py"


def test_point_holds_every_workload_at_both_trace_settings(tmp_path,
                                                           monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_point", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"], "run_seconds": 7,
        "workloads": [{"name": "scan-d2"}, {"name": "certify"}]}))
    calls = []

    def fake_run(argv, **kwargs):
        calls.append(argv)
        if argv[0] == "git":
            out = "abc1234-dirty\n"
        else:
            opt = dict(zip(argv[2::2], argv[3::2]))
            out = "noise\n" + json.dumps({"env": opt}) + "\n" \
                + json.dumps({"correct": True}) + "\n"
        return subprocess.CompletedProcess(argv, 0, out, "")

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    assert module.main() == 0
    (out,) = tmp_path.glob("BENCH_*.json")
    point = json.loads(out.read_text())
    assert out.name == f"BENCH_{point['date']}_abc1234-dirty.json"
    assert (point["commit"], point["seed"], point["seconds"]) == \
        ("abc1234-dirty", 0, 7)
    assert [(r["workload"], r["trace"]) for r in point["runs"]] == [
        ("scan-d2", 0), ("certify", 0), ("scan-d2", 1), ("certify", 1)]
    for run in point["runs"]:
        assert run["env"] == {"--workload": run["workload"], "--seed": "0",
                              "--seconds": "7", "--trace": str(run["trace"])}
        assert run["result"] == {"correct": True}
    assert all(argv[:2] == ["python3", "perfbench/run.py"]
               for argv in calls if argv[0] != "git")
