"""Command-line interface (repro.cli)."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


def test_parser_run_defaults():
    args = build_parser().parse_args(["run", "FUSION", "adpcm"])
    assert args.system == "FUSION"
    assert args.size == "full"


def test_cli_import_loads_no_numpy():
    """The simulator has no runtime dependencies: a fresh ``import
    repro.cli`` must not pull numpy in."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_parser_rejects_unknown_system():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "GPU", "adpcm"])


def test_parser_rejects_unknown_benchmark():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "FUSION", "quicksort"])


def test_run_command_prints_summary(capsys):
    assert main(["run", "FUSION", "adpcm", "--size", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "accel cyc" in out
    assert "energy (uJ)" in out


def test_experiment_command_renders_table(capsys):
    assert main(["experiment", "fig6d", "--size", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6d" in out
    assert "DMA(kB)" in out


def test_config_command(capsys):
    assert main(["config"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "L1X" in out


def test_compare_command(capsys):
    assert main(["compare", "adpcm", "--size", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "IDEAL" in out
    assert "efficiency" in out
    assert "legend:" in out


def test_area_command(capsys):
    assert main(["area", "--axcs", "4"]) == 0
    out = capsys.readouterr().out
    assert "l1x" in out
    assert "leakage" in out


def test_trace_command(tmp_path, capsys):
    path = str(tmp_path / "t.trace")
    assert main(["trace", "adpcm", path, "--size", "tiny"]) == 0
    from repro.workloads import trace_io
    workload = trace_io.load_path(path)
    assert workload.benchmark == "adpcm"


def test_multitenant_command(capsys):
    assert main(["multitenant", "adpcm", "filter", "--size",
                 "tiny"]) == 0
    out = capsys.readouterr().out
    assert "adpcm+filter" in out
    assert "PID conflicts" in out


def test_run_json_format(capsys):
    import json
    assert main(["run", "FUSION", "adpcm", "--size", "tiny",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["system"] == "FUSION"


def test_experiment_csv_format(capsys):
    assert main(["experiment", "fig6d", "--size", "tiny",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Benchmark,")


def test_parallelism_command(capsys):
    assert main(["parallelism", "disparity", "--size", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "critical path" in out
    assert "overlap speedup" in out


def test_run_with_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"name": "custom", "tile": {"default_lease": 123}}')
    assert main(["run", "FUSION", "adpcm", "--size", "tiny",
                 "--config", str(path)]) == 0
    assert "accel cyc" in capsys.readouterr().out


def test_multitenant_per_tile(capsys):
    assert main(["multitenant", "adpcm", "filter", "--per-tile",
                 "--size", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "tiles            : 2" in out


def test_command_required():
    with pytest.raises(SystemExit):
        main([])


@pytest.fixture
def fresh_engine(tmp_path, monkeypatch):
    """Isolate the process-wide engine (and its cache dir) per test."""
    from repro.sim.engine import reset_engine
    from repro.sim.simulator import clear_cache
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_cache()   # drop the in-process result memo too
    reset_engine()
    yield
    clear_cache()
    reset_engine()


def test_parser_accepts_jobs_and_no_cache():
    args = build_parser().parse_args(
        ["--jobs", "4", "--no-cache", "run", "FUSION", "adpcm"])
    assert args.jobs == 4
    assert args.no_cache is True


def test_jobs_and_no_cache_configure_engine(fresh_engine, capsys):
    from repro.sim.engine import get_engine
    assert main(["--jobs", "1", "--no-cache", "run", "FUSION", "adpcm",
                 "--size", "tiny"]) == 0
    engine = get_engine()
    assert engine.jobs == 1
    assert engine.cache.enabled is False
    assert engine.cache.disk_stats() == (0, 0)


def test_cache_stats_command(fresh_engine, capsys):
    assert main(["run", "FUSION", "adpcm", "--size", "tiny"]) == 0
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "entries        : 1" in out
    assert "trace entries  : 1" in out
    assert "last session" in out
    assert "hit ratio" in out


def test_cache_clear_command(fresh_engine, capsys):
    assert main(["run", "FUSION", "adpcm", "--size", "tiny"]) == 0
    capsys.readouterr()
    assert main(["cache", "clear"]) == 0
    # 1 result + 1 prepared-trace entry.
    assert "removed 2 cached file(s)" in capsys.readouterr().out
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "entries        : 0" in out
    assert "trace entries  : 0" in out


def test_profile_command(fresh_engine, capsys):
    assert main(["profile", "FUSION", "fft", "--size", "tiny",
                 "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "FUSION on fft (size=tiny)" in out
    assert "cumulative" in out
    assert "run" in out
    assert "phase breakdown" not in out


def test_profile_phase_breakdown(fresh_engine, capsys):
    assert main(["profile", "FUSION", "tracking", "--size", "tiny",
                 "--phase", "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "phase breakdown (tottime):" in out
    buckets = ("lowering", "policy", "protocol", "engine", "other")
    for phase in buckets:
        assert phase in out
    # The simulation hot path spends real time in the protocol and
    # engine layers; the shares are percentages that sum to ~100.
    shares = [float(line.split("%")[0].split()[-1])
              for line in out.splitlines() if "%" in line and "s " in line]
    assert len(shares) == len(buckets)
    assert abs(sum(shares) - 100.0) < 0.5


def test_parser_accepts_timeout_and_retries():
    args = build_parser().parse_args(
        ["--timeout", "300", "--retries", "3", "run", "FUSION", "adpcm"])
    assert args.timeout == 300.0
    assert args.retries == 3


def test_timeout_and_retries_configure_engine(fresh_engine, capsys):
    from repro.sim.engine import get_engine
    assert main(["--timeout", "300", "--retries", "3", "config"]) == 0
    engine = get_engine()
    assert engine.timeout == 300.0
    assert engine.retries == 3


def test_doctor_quick(fresh_engine, capsys):
    assert main(["run", "FUSION", "adpcm", "--size", "tiny"]) == 0
    capsys.readouterr()
    assert main(["doctor", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "engine configuration" in out
    assert "cache health" in out
    assert "1 simulated" in out          # last session's telemetry
    assert "recovery drills skipped (--quick)" in out


def test_cache_stats_reports_orphaned_temp_files(fresh_engine, capsys):
    from repro.sim.engine import get_engine
    assert main(["run", "FUSION", "adpcm", "--size", "tiny"]) == 0
    root = get_engine().cache.root / "v1" / "ab"
    root.mkdir(parents=True, exist_ok=True)
    (root / ".tmp-dead-writer").write_bytes(b"x" * 64)
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    assert "temp files     : 1" in capsys.readouterr().out
    assert main(["cache", "clear"]) == 0
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    assert "temp files     : 0" in capsys.readouterr().out


def test_cache_stats_reports_stale_schema_entries(fresh_engine, capsys):
    import pickle
    from repro.sim.engine import get_engine
    assert main(["run", "FUSION", "adpcm", "--size", "tiny"]) == 0
    stale = get_engine().cache.root / "v1" / "aa"
    stale.mkdir(parents=True, exist_ok=True)
    (stale / ("aa" + "0" * 62 + ".pkl")).write_bytes(
        pickle.dumps("old-schema entry"))
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "stale schema   : 1 old-schema entrie(s)" in out
    assert main(["cache", "clear"]) == 0
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    assert "stale schema" not in capsys.readouterr().out


def test_check_single_scenario(capsys):
    assert main(["check", "--scenario", "acc-two-writers"]) == 0
    out = capsys.readouterr().out
    assert "result: OK" in out


def test_check_json_is_parseable(capsys):
    import json
    assert main(["check", "--scenario", "dx-forward", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]
    assert report["explorations"][0]["scenario"] == "dx-forward"


def test_check_self_test(capsys):
    import json
    assert main(["check", "--self-test", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]
    assert all(entry["caught"] for entry in report["mutations"])


def test_check_mutated_run_fails_with_repro(capsys):
    code = main(["check", "--scenario", "acc-two-writers",
                 "--mutate", "drop-write-epoch-lock"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    assert "repro: fusion-sim check" in out


def test_check_rejects_unknown_kind():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["check", "--kind", "gpu"])
