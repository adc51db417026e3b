"""Tests of the benchmark itself: output shape, checks and tracing.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import io
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import chesswit.mcharness  # noqa: E402
import chesswit.witnesses  # noqa: E402
from chesswit.mcharness import run_scan, write_csv  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench import tracing  # noqa: E402
from perfbench.checks import ScanCheck, sha256  # noqa: E402
from perfbench.workloads import ScanWorkload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_the_metrics_the_runner_prints():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert _units("end_to_end") == dict(bench.END_TO_END)
    assert _units("per_layer") == dict(bench.PER_LAYER)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(u) for u in _units("end_to_end").values())
    assert all(UNIT.match(u) for u in _units("per_layer").values())
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_tiny_run_prints_every_metric(name, trace):
    env, result = bench.run(name, seed=3, seconds=0.2, trace=trace,
                            size="tiny", setup_runs=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == _units(section)
    assert all(isinstance(v["value"], float)
               for v in result["metrics"].values())
    assert env["seed"] == 3 and env["workload"] == name
    # tracing leaves the package as it found it
    assert chesswit.witnesses.detect.__module__ == "chesswit.witnesses"
    assert chesswit.mcharness.family_minima.__module__ == "chesswit.witnesses"


def test_command_line_prints_result_as_last_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detect-single",
         "--seed", "1", "--seconds", "0.2", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    lines = out.stdout.strip().splitlines()
    assert "env" in json.loads(lines[-2])
    assert json.loads(lines[-1])["correct"] is True


def _csv(seed, n, d):
    buf = io.StringIO()
    write_csv(run_scan(n, seed=seed, dim=d), buf)
    return buf.getvalue()


def _corrupt(text, row, column, value):
    lines = text.split("\n")
    fields = lines[row + 1].split(",")
    fields[column] = value
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize("d", [2, 3])
def test_checker_counts_each_corrupted_row(d):
    n, seed = 4, 11
    check = ScanCheck(d, n)
    text = _csv(seed, n, d)
    header = check.header.split(",")
    rows = range(n)
    assert check.failures(seed, text, rows) == 0
    first_min = header.index("min_poly")
    wrong = format(float(text.split("\n")[3].split(",")[first_min]) + 1e-9,
                   ".17g")
    assert check.failures(seed, _corrupt(text, 2, first_min, wrong), rows) == 1
    assert check.failures(seed, _corrupt(text, 1, 1, "0.5"), rows) == 1
    assert check.failures(seed, _corrupt(text, 0, 0, "7"), ()) == 1
    truncated = "\n".join(text.split("\n")[:-2]) + "\n"
    assert check.failures(seed, truncated, ()) == 1
    assert check.failures(seed, text, (), pinned=sha256(text)) == 0
    assert check.failures(seed, text, (), pinned="0" * 64) == n


def _shifted(fn):
    def wrong(*args, **kwargs):
        out = fn(*args, **kwargs)
        return {f: dict(e, min=e["min"] - 0.25) for f, e in out.items()}
    return wrong


@pytest.mark.parametrize("name", ["scan-d2", "scan-d3", "detect-single"])
def test_wrong_minima_count_in_ops_failed(name, monkeypatch):
    fm = chesswit.witnesses.family_minima
    monkeypatch.setattr(chesswit.mcharness, "family_minima", _shifted(fm))
    monkeypatch.setattr(chesswit.witnesses, "family_minima", _shifted(fm))
    _, result = bench.run(name, seed=5, seconds=0.2, trace=False,
                          size="tiny", setup_runs=1)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


@pytest.mark.parametrize("name,d,n", [("scan-d2", 2, 16), ("scan-d3", 3, 12)])
def test_pinned_bytes_of_the_default_seed(name, d, n, tmp_path):
    workload = ScanWorkload(name, d, n, 0, tmp_path)
    assert workload.pins
    assert workload.op(0).failed == 0
    workload.pins = ["0" * 64]
    assert workload.op(0).failed == n


def test_times_are_scaled_by_the_kernel_run_after_each_operation():
    from perfbench.workloads import OpResult

    stats = bench.Stats()
    # the same work, once at full speed and once on a core half as fast
    stats.add(OpResult(4, 0.010, [0.010]), reference_s=0.004, ref_s=0.004)
    stats.add(OpResult(4, 0.020, [0.020]), reference_s=0.008, ref_s=0.004)
    assert stats.ops_per_s == pytest.approx(400.0)
    assert stats.scaled_latencies_s == pytest.approx([0.010, 0.010])
    assert stats.busy_s == pytest.approx(0.030)


def test_tracer_self_time_and_missing_call_sites(monkeypatch):
    layer = types.ModuleType("fake_layer")

    def inner():
        return 1

    def outer():
        return layer.inner() + layer.inner()

    layer.inner, layer.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", layer)
    monkeypatch.setattr(tracing, "SPAN_SITES", (
        ("fake_layer", "outer", "outer"),
        ("fake_layer", "inner", "inner"),
        ("fake_layer", "removed_in_a_later_version", "gone"),
    ))
    monkeypatch.setattr(tracing, "COUNT_SITES", ())
    with tracing.Tracer() as tracer:
        assert layer.outer() == 2
    assert layer.outer is outer and layer.inner is inner
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 2
    assert "gone" not in summary
    spent_inner = summary["inner"]["total_s"]
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["total_s"] - spent_inner)
    outer_span = [s for s in tracer.spans if s[0] == "outer"][0]
    assert all(s[3] == tracer.spans.index(outer_span)
               for s in tracer.spans if s[0] == "inner")


def test_without_the_package_the_runner_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-d2",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
