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


def test_base_runs_pair_each_workload_with_an_archive_of_rev(tmp_path,
                                                             monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_point", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"], "run_seconds": 7,
        "workloads": [{"name": "scan-d2"}, {"name": "certify"}]}))
    calls = []

    def fake_run(argv, cwd=None, input=None, **kwargs):
        calls.append((argv, cwd))
        if argv[:2] == ["git", "archive"]:
            return subprocess.CompletedProcess(argv, 0, b"tar of " +
                                               argv[2].encode(), b"")
        if argv[0] == "tar":            # the archive lands in the temp dir
            assert input == b"tar of v1"
            (Path(argv[-1]) / "BENCHMARK.json").write_text("{}")
            return subprocess.CompletedProcess(argv, 0, b"", b"")
        if argv[0] == "git":
            out = {"describe": "abc1234-dirty", "rev-parse": "0123abc"}[
                argv[1]] + "\n"
        else:
            opt = dict(zip(argv[2::2], argv[3::2]))
            base = Path(cwd) != tmp_path
            if base:
                assert (Path(cwd) / "BENCHMARK.json").read_text() == "{}"
            metrics = {"ops_per_s": {"value": 10.0 if base else 12.0},
                       "setup_s": {"value": 0.2 if base else 0.1}}
            out = json.dumps({"env": opt}) + "\n" + json.dumps(
                {"correct": True, "metrics": metrics}) + "\n"
        return subprocess.CompletedProcess(argv, 0, out, "")

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    assert module.main(["--base", "v1"]) == 0
    (out,) = tmp_path.glob("BENCH_*.json")
    point = json.loads(out.read_text())
    assert point["base"] == {"rev": "v1", "commit": "0123abc"}
    assert len(point["runs"]) == 4
    assert [p["workload"] for p in point["pairs"]] == \
        ["scan-d2"] * 3 + ["certify"] * 3
    for pair in point["pairs"]:
        for side in ("base", "head"):
            assert pair[side]["env"] == {
                "--workload": pair["workload"], "--seed": "0",
                "--seconds": "7", "--trace": "0"}
        assert pair["ratio"] == {"ops_per_s": 1.2, "setup_s": 0.5}
    # base and working tree alternate, and so does the side that runs
    # first: base first in even pairs
    bench_dirs = [Path(cwd) for argv, cwd in calls if argv[0] == "python3"]
    assert bench_dirs[:4] == [tmp_path] * 4
    archive = bench_dirs[4]
    assert archive != tmp_path and not archive.exists()   # removed after
    assert bench_dirs[4:] == [archive, tmp_path, tmp_path, archive,
                              archive, tmp_path] * 2
