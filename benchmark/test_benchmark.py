"""Tests of the benchmark itself, not of nearex.

Run from the repository root (about a minute)::

    python3 -m pytest benchmark/test_benchmark.py

The 6R workload is not run here (a traced pass takes half a minute); its
check is exercised on a wrong input only.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402

EXACT = [
    "tracker.paths.success", "tracker.paths.singular-endpoint", "tracker.paths.diverged",
    "tracker.paths.step-failure", "tracker.steps", "numlin.solve_square.calls",
    "fiberprod.image_dimension.calls", "recover.descend.calls",
]


def traced_pass(wl):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        items = wl.run_pass(on_item_start=tracer.request)
    finally:
        tracer.uninstall()
    return tracer, items


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def wrappers_left():
    """Attributes of nearex modules and classes that still hold a wrapper."""
    left = []
    for mod in tracing._nearex_modules():
        for attr, value in vars(mod).items():
            if tracing._is_wrapper(value):
                left.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                left += [f"{mod.__name__}.{attr}.{a}" for a, v in vars(value).items()
                         if tracing._is_wrapper(v)]
    return left


def run_benchmark(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", ["fixtures", "study"])
def test_counts_repeat_exactly_across_traced_runs(name, monkeypatch):
    monkeypatch.setattr(workloads, "STUDY_SAMPLES", 3)
    make = workloads.WORKLOADS[name]
    first, items = traced_pass(make(ROOT, 0))
    second, _ = traced_pass(make(ROOT, 0))
    a = {k: first.layer_metrics()[k] for k in EXACT}
    b = {k: second.layer_metrics()[k] for k in EXACT}
    assert a == b
    assert a["tracker.steps"] > 0 and a["recover.descend.calls"] > 0
    assert a["fiberprod.image_dimension.calls"] > 0
    assert all(it.ok for it in items)


def test_install_rebinds_imported_names_and_uninstall_restores_them():
    import nearex.engine
    import nearex.recover

    original = nearex.recover.track_path
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert nearex.engine.stabilize._bench_wrapper
        assert nearex.recover.track_path._bench_wrapper
    finally:
        tracer.uninstall()
    assert nearex.recover.track_path is original
    assert wrappers_left() == []


def test_untraced_run_calls_no_wrapper(monkeypatch):
    monkeypatch.setattr(workloads, "STUDY_SAMPLES", 2)
    wl = workloads.Study(ROOT, 0)
    tracer, _ = traced_pass(wl)
    before = (tracer.n_spans, sum(tracer.counts.values()))
    assert before[0] > 0
    wl.run_pass()
    assert (tracer.n_spans, sum(tracer.counts.values())) == before


def test_checks_flag_a_wrong_recovery(monkeypatch):
    monkeypatch.setattr(workloads, "FAST_FIXTURES", ["posdim"])
    wl = workloads.Fixtures(ROOT, 0)
    out = wl.problems["posdim"].run()
    assert wl.check("posdim", out, 0.0, 0.0).ok
    out.result.p_star = out.result.p_star + 1e-2
    item = wl.check("posdim", out, 0.0, 0.0)
    assert item.wrong and not item.ok
    assert workloads.Detect6R(ROOT, 0).check([])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_follows_the_contract(trace, section):
    proc = run_benchmark("--workload", "fixtures", "--seed", "3", "--seconds", "1",
                         "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0])["env"]
    assert env["seed"] == 3 and env["numpy"] and env["nproc"] >= 1
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(workloads.FAST_FIXTURES)
    expected = {m["name"]: m["unit"] for m in spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_exits_without_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("--workload", "fixtures", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
