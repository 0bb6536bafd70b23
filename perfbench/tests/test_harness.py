"""Tests of the benchmark harness itself (not of the simulator).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import copy
import io
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import check, run, spans, timed, traced  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# -- output check ------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_result(tmp_path_factory):
    from repro.sim.engine import DiskCache, ExecutionEngine, RunRequest
    cache = DiskCache(str(tmp_path_factory.mktemp("cache")))
    cache.enabled_override = False
    engine = ExecutionEngine(jobs=1, cache=cache)
    return engine.run_one(RunRequest("FUSION", "adpcm", "tiny"))


def test_matching_reference_passes(tiny_result):
    reference = {"p": check.fingerprint(tiny_result)}
    assert check.check_results({"p": tiny_result}, reference) == []


def test_perturbed_reference_fails(tiny_result):
    good = check.fingerprint(tiny_result)
    bad = ("0" if good[0] != "0" else "1") + good[1:]
    failures = check.check_results({"p": tiny_result}, {"p": bad})
    assert len(failures) == 1 and "differs" in failures[0]


def test_perturbed_result_fails(tiny_result):
    reference = {"p": check.fingerprint(tiny_result)}
    changed = copy.copy(tiny_result)
    changed.stats = dict(tiny_result.stats)
    name = sorted(changed.stats)[0]
    changed.stats[name] = changed.stats[name] + 1
    assert check.check_results({"p": changed}, reference)


def test_missing_result_fails():
    assert check.check_results({"p": None}, {"p": "x"})


def test_perturbed_table_fails():
    reference = check.load_reference(WORKLOADS["fig6-small-cold"])
    table = reference["table"]
    assert check.table_ok(table, reference)
    perturbed = table.replace("0.43", "0.44", 1)
    assert perturbed != table
    assert not check.table_ok(perturbed, reference)


def test_reference_covers_every_grid_point():
    for workload in WORKLOADS.values():
        points = check.load_reference(workload)["points"]
        labels = {check.point_label(r.normalized())
                  for r in workload.requests()}
        assert labels == set(points)
        loo = {check.point_label(r.normalized())
               for r in workload.loo_requests()}
        assert loo and loo <= labels


# -- metric names ----------------------------------------------------------------

def _printed_metrics(monkeypatch, trace, module, units):
    outcome = {"attempted": 3, "failed": 0,
               "metrics": {name: 1.0 for name, _ in units},
               "summaries": {}, "run_order": [], "command": ["fusion-sim"]}
    monkeypatch.setattr(module, "run", lambda *a, **k: outcome)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "fig6-small-cold", "--seed", "1",
                         "--seconds", "1", "--trace", str(trace)])
    assert code == 0
    last = json.loads(out.getvalue().strip().split("\n")[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return {name: m["unit"] for name, m in last["metrics"].items()}


def test_printed_end_to_end_metrics_match_benchmark_json(monkeypatch):
    printed = _printed_metrics(monkeypatch, 0, timed, run.END_TO_END)
    declared = {m["name"]: m["unit"]
                for m in _benchmark_json()["end_to_end"]}
    assert printed == declared


def test_printed_per_layer_metrics_match_benchmark_json(monkeypatch):
    printed = _printed_metrics(monkeypatch, 1, traced,
                               traced.metric_units())
    declared = {m["name"]: m["unit"]
                for m in _benchmark_json()["per_layer"]}
    assert printed == declared


def test_benchmark_json_names_the_workloads():
    declared = {w["name"]: w["why"] for w in _benchmark_json()["workloads"]}
    assert declared == {name: w.why for name, w in WORKLOADS.items()
                        if w.in_benchmark}


# -- span arithmetic ---------------------------------------------------------------

def _span(sid, start, end, parent=None):
    return {"id": sid, "parent": parent, "name": sid, "start": start,
            "end": end, "pid": 1, "attrs": {}}


def test_covered_merges_overlaps():
    assert spans.covered([]) == 0
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4)
    assert spans.covered([(0, 10), (2, 3)]) == pytest.approx(10)


def test_self_time_subtracts_covered_child_intervals():
    parent = _span("p", 0.0, 10.0)
    children = [_span("a", 1.0, 3.0, "p"), _span("b", 2.0, 4.0, "p"),
                _span("c", 8.0, 12.0, "p")]
    # Children cover [1, 4] and, clipped to the parent, [8, 10].
    assert spans.self_time(parent, children) == pytest.approx(5.0)


def test_self_times_use_direct_children_only():
    tree = [_span("root", 0, 10), _span("child", 2, 8, "root"),
            _span("grandchild", 3, 7, "child")]
    got = {s["id"]: t for s, t in spans.self_times(tree)}
    assert got == pytest.approx({"root": 4, "child": 2, "grandchild": 4})


def test_recorder_nests_wrapped_calls_and_restores():
    class Layer:
        @staticmethod
        def inner():
            return 1

    def outer():
        return Layer.inner() + 1

    holder = {"outer": outer}
    rec = spans.Recorder()
    rec.wrap(Layer, "inner", "inner", describe=lambda a, k, r: {"r": r})
    rec.wrap(holder, "outer", "outer")
    rec.wrap(Layer, "absent", "absent")
    assert holder["outer"]() == 2
    rec.restore()
    assert holder["outer"] is outer
    assert rec.missing == ["Layer.absent"]
    by_name = {s["name"]: s for s in rec.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["inner"]["attrs"] == {"r": 1}


# -- no program, no result -------------------------------------------------------

def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "fig6-small-cold", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
