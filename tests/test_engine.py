"""The parallel execution engine and persistent result cache
(repro.sim.engine)."""

import dataclasses
import gc
import os
import pickle
import weakref

import pytest

from repro.common.config import (
    ConfigError,
    SystemConfig,
    config_fingerprint,
    small_config,
    stable_config_dict,
)
from repro.sim.engine import (
    CACHE_SCHEMA_VERSION,
    DiskCache,
    ExecutionEngine,
    RunRequest,
    cache_key,
    code_fingerprint,
    configure,
    get_engine,
    prepared_workload,
    reset_engine,
    resolve_jobs,
)
from repro.sim.simulator import clear_cache, run


@pytest.fixture
def engine(tmp_path):
    """A private engine over a throwaway cache directory."""
    return ExecutionEngine(cache=DiskCache(tmp_path / "cache"))


def _batch(*systems, size="tiny", benchmark="adpcm", config=None):
    return [RunRequest(system, benchmark, size, config)
            for system in systems]


# -- config fingerprinting -------------------------------------------------

def test_equal_configs_fingerprint_identically():
    assert (config_fingerprint(small_config())
            == config_fingerprint(small_config()))


def test_any_field_change_changes_fingerprint():
    base = small_config()
    assert (config_fingerprint(base)
            != config_fingerprint(base.with_lease(123)))
    assert (config_fingerprint(base)
            != config_fingerprint(dataclasses.replace(base, name="x")))


def test_unfingerprintable_config_rejected():
    with pytest.raises(ConfigError, match="cannot fingerprint"):
        stable_config_dict(lambda: None)


def test_stable_dict_sorts_mappings_and_sets():
    assert stable_config_dict({"b": 1, "a": 2}) == \
        stable_config_dict({"a": 2, "b": 1})
    assert stable_config_dict({2, 1, 3}) == stable_config_dict({3, 1, 2})


# -- cache keys ------------------------------------------------------------

def test_cache_key_stable_across_equal_requests():
    a = RunRequest("FUSION", "adpcm", "tiny").normalized()
    b = RunRequest("FUSION", "adpcm", "tiny", small_config())
    assert cache_key(a) == cache_key(b)


def test_cache_key_varies_with_every_component():
    base = RunRequest("FUSION", "adpcm", "tiny").normalized()
    keys = {cache_key(base)}
    keys.add(cache_key(dataclasses.replace(base, system="SHARED")))
    keys.add(cache_key(dataclasses.replace(base, benchmark="fft")))
    keys.add(cache_key(dataclasses.replace(base, size="small")))
    keys.add(cache_key(dataclasses.replace(
        base, config=small_config().with_lease(77))))
    keys.add(cache_key(base, epoch=1))
    assert len(keys) == 6


def test_code_fingerprint_is_stable_in_process():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64


# -- jobs resolution -------------------------------------------------------

def test_resolve_jobs_precedence(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs() == 3
    assert resolve_jobs(2) == 2
    monkeypatch.delenv("REPRO_JOBS")
    assert resolve_jobs() == (os.cpu_count() or 1)
    assert resolve_jobs(0) == 1


def test_resolve_jobs_env_garbage_warns_and_defaults(monkeypatch):
    # Malformed *environment* values degrade loudly to the default —
    # a daemon must not die because a shell exported REPRO_JOBS=many —
    # while explicit arguments (the caller typed those) still raise.
    default = os.cpu_count() or 1
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.warns(RuntimeWarning, match="REPRO_JOBS"):
        assert resolve_jobs() == default
    monkeypatch.setenv("REPRO_JOBS", "-3")
    with pytest.warns(RuntimeWarning, match="REPRO_JOBS"):
        assert resolve_jobs() == default
    with pytest.raises(ConfigError, match="--jobs"):
        resolve_jobs("many")


def test_resolve_timeout_env_garbage_warns_and_defaults(monkeypatch):
    from repro.sim.engine import resolve_timeout

    monkeypatch.setenv("REPRO_RUN_TIMEOUT", "abc")
    with pytest.warns(RuntimeWarning, match="REPRO_RUN_TIMEOUT"):
        assert resolve_timeout() is None
    monkeypatch.setenv("REPRO_RUN_TIMEOUT", "2.5")
    assert resolve_timeout() == 2.5
    monkeypatch.setenv("REPRO_RUN_TIMEOUT", "-1")
    assert resolve_timeout() is None          # <=0 disables, no warning
    with pytest.raises(ConfigError, match="--timeout"):
        resolve_timeout("abc")


def test_resolve_retries_env_garbage_warns_and_defaults(monkeypatch):
    from repro.sim.engine import resolve_retries

    monkeypatch.setenv("REPRO_RETRIES", "lots")
    with pytest.warns(RuntimeWarning, match="REPRO_RETRIES"):
        assert resolve_retries() == 2
    monkeypatch.setenv("REPRO_RETRIES", "-1")
    with pytest.warns(RuntimeWarning, match="REPRO_RETRIES"):
        assert resolve_retries() == 2
    monkeypatch.setenv("REPRO_RETRIES", "5")
    assert resolve_retries() == 5
    with pytest.raises(ConfigError, match="--retries"):
        resolve_retries("lots")


def test_resolve_backoff_env_garbage_warns_and_defaults(monkeypatch):
    from repro.sim.engine import resolve_backoff

    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "soon")
    with pytest.warns(RuntimeWarning, match="REPRO_RETRY_BACKOFF"):
        assert resolve_backoff() == 0.05
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.2")
    assert resolve_backoff() == 0.2


def test_env_flag_unrecognized_warns(monkeypatch):
    from repro.sim.engine import _env_flag

    monkeypatch.setenv("REPRO_NO_CACHE", "maybe")
    with pytest.warns(RuntimeWarning, match="REPRO_NO_CACHE"):
        assert _env_flag("REPRO_NO_CACHE") is False
    for truthy in ("1", "true", "YES", "on"):
        monkeypatch.setenv("REPRO_NO_CACHE", truthy)
        assert _env_flag("REPRO_NO_CACHE") is True
    for falsy in ("", "0", "false", "no", "OFF"):
        monkeypatch.setenv("REPRO_NO_CACHE", falsy)
        assert _env_flag("REPRO_NO_CACHE") is False


# -- disk cache ------------------------------------------------------------

def test_disk_cache_roundtrip(tmp_path, engine):
    [result] = engine.run_batch(_batch("FUSION"))
    assert engine.telemetry.computed == 1
    # A second engine over the same directory loads it from disk.
    other = ExecutionEngine(cache=engine.cache.__class__(engine.cache.root))
    [loaded] = other.run_batch(_batch("FUSION"))
    assert other.telemetry.computed == 0
    assert other.telemetry.disk_hits == 1
    assert loaded == result and loaded is not result
    assert loaded.meta["source"] == "disk"


def test_disk_cache_disabled_by_env(tmp_path, monkeypatch, engine):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    engine.run_batch(_batch("FUSION"))
    assert engine.cache.disk_stats() == (0, 0)
    monkeypatch.delenv("REPRO_NO_CACHE")
    engine.run_batch(_batch("SHARED"))
    assert engine.cache.disk_stats()[0] == 1


def test_disk_cache_survives_corrupt_entry(engine):
    [first] = engine.run_batch(_batch("FUSION"))
    # Corrupt the single result entry on disk (the other pickle under
    # the root is the prepared-trace entry), drop the index, rerun.
    entries = [path for path in engine.cache.root.rglob("*.pkl")
               if "traces" not in path.parts]
    assert len(entries) == 1
    entries[0].write_bytes(b"not a pickle")
    engine.cache.clear_index()
    [second] = engine.run_batch(_batch("FUSION"))
    assert second == first
    assert engine.telemetry.computed == 2  # recomputed, not crashed


def test_disk_cache_clear_removes_entries(engine):
    engine.run_batch(_batch("FUSION", "SHARED", "SCRATCH"))
    entries, total_bytes = engine.cache.disk_stats()
    assert entries == 3 and total_bytes > 0
    # clear() removes the 3 results plus the 1 shared prepared-trace
    # entry (all three systems ran the same benchmark+size).
    assert engine.cache.clear() == 4
    assert engine.cache.disk_stats() == (0, 0)
    assert engine.cache.trace_stats() == (0, 0)


# -- prepared-workload trace cache -----------------------------------------

def test_prepared_trace_persisted_and_accounted(engine):
    from repro.sim.engine import prepared_workload
    engine.jobs = 1  # serial, so the accounting lands on engine.cache
    engine.run_batch(_batch("FUSION", "SHARED"))
    # One benchmark+size pair -> exactly one prepared-trace pickle,
    # accounted separately from the two result entries.
    assert engine.cache.disk_stats()[0] == 2
    trace_entries, trace_bytes = engine.cache.trace_stats()
    assert trace_entries == 1 and trace_bytes > 0
    assert engine.cache.trace_stores == 1
    assert engine.cache.trace_memory_hits == 1  # second system reused it

    # A fresh cache over the same root loads the prepared workload from
    # disk with the hot-path artifacts already attached.
    fresh = DiskCache(engine.cache.root)
    workload = prepared_workload("adpcm", "tiny", fresh, epoch=0)
    assert fresh.trace_disk_hits == 1
    assert "_function_mlp" in workload.__dict__
    for trace in workload.invocations:
        assert "_lowered_by_width" in trace.__dict__


def test_parallel_workers_share_the_engines_trace_store(tmp_path):
    """Pool workers must write prepared traces under the *submitting*
    engine's cache root, not the process-wide engine's."""
    engine = ExecutionEngine(jobs=2, cache=DiskCache(tmp_path / "p"))
    engine.run_batch(_batch("FUSION", "SHARED"))
    assert engine.telemetry.parallel_computed == 2
    assert engine.cache.trace_stats()[0] == 1


def test_prepared_trace_simulates_identically(engine, tmp_path):
    from repro.sim.engine import _execute
    request = RunRequest("FUSION", "adpcm", "tiny").normalized()
    [via_engine] = engine.run_batch([request])
    # Re-execute from the pickled prepared workload (cold process path).
    fresh = DiskCache(engine.cache.root)
    direct = _execute(request, fresh, 0)
    assert fresh.trace_disk_hits == 1
    assert direct.accel_cycles == via_engine.accel_cycles
    assert direct.total_cycles == via_engine.total_cycles
    assert direct.stats == via_engine.stats


def test_trace_cache_key_varies_and_respects_epoch():
    from repro.sim.engine import trace_cache_key
    keys = {trace_cache_key("fft", "tiny"),
            trace_cache_key("adpcm", "tiny"),
            trace_cache_key("fft", "small"),
            trace_cache_key("fft", "tiny", epoch=1)}
    assert len(keys) == 4
    assert trace_cache_key("fft", "tiny") == trace_cache_key("fft", "tiny")


def test_trace_cache_disabled_by_env(engine, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    engine.run_batch(_batch("FUSION"))
    assert engine.cache.trace_stats() == (0, 0)
    assert engine.cache.trace_stores == 0


# -- the prepared-trace heap and the cyclic collector ----------------------

@pytest.fixture
def thaw():
    """Unfreeze what the engine froze, so later tests run with the
    collector state pytest had."""
    yield
    gc.unfreeze()


@pytest.fixture
def collector_off():
    """Disable the collector for the test and restore it after."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def _populated_root(tmp_path, benchmark="adpcm"):
    """A cache root holding the tiny prepared trace of ``benchmark``."""
    root = tmp_path / "cache"
    prepared_workload(benchmark, "tiny", DiskCache(root))
    return root


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("source", ["build", "disk"])
def test_prepared_miss_freezes_and_restores_collector(tmp_path, thaw,
                                                      source, enabled):
    root = (_populated_root(tmp_path) if source == "disk"
            else tmp_path / "empty")
    cache = DiskCache(root)
    gc.unfreeze()
    if not enabled:
        gc.disable()
    try:
        prepared_workload("adpcm", "tiny", cache)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert gc.get_freeze_count() > 0
    if source == "disk":
        assert cache.trace_disk_hits == 1 and cache.trace_stores == 0
    else:
        assert cache.trace_stores == 1


def test_prepared_memory_hit_neither_collects_nor_freezes(tmp_path, thaw,
                                                          collector_off):
    cache = DiskCache(tmp_path / "cache")
    first = prepared_workload("adpcm", "tiny", cache)
    full_collections = gc.get_stats()[2]["collections"]
    frozen = gc.get_freeze_count()
    assert prepared_workload("adpcm", "tiny", cache) is first
    assert cache.trace_memory_hits == 1
    assert gc.get_stats()[2]["collections"] == full_collections
    assert gc.get_freeze_count() == frozen


def test_failed_build_leaves_collector_enabled(tmp_path, thaw, monkeypatch):
    from repro.sim import engine as engine_mod

    def broken_build(benchmark, size):
        raise RuntimeError("kernel failed")

    monkeypatch.setattr(engine_mod, "build_workload", broken_build)
    gc.unfreeze()
    with pytest.raises(RuntimeError, match="kernel failed"):
        prepared_workload("adpcm", "tiny", DiskCache(tmp_path / "cache"))
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0


def test_corrupt_trace_pickle_leaves_collector_enabled(tmp_path, thaw):
    root = _populated_root(tmp_path)
    [path] = root.rglob("*.pkl")
    path.write_bytes(b"not a pickle")
    cache = DiskCache(root)
    workload = prepared_workload("adpcm", "tiny", cache)
    assert cache.corrupt_drops == 1 and cache.trace_stores == 1
    assert workload.invocations
    assert gc.isenabled()


def test_frozen_trace_is_freed_by_refcounting(tmp_path, thaw):
    """Frozen objects are never collected, so a cycle in the trace
    graph would leak every trace a long-running daemon drops."""
    cache = DiskCache(_populated_root(tmp_path))
    workload = prepared_workload("adpcm", "tiny", cache)
    assert cache.trace_disk_hits == 1
    trace = weakref.ref(workload.invocations[0])
    cache.clear_index()
    del workload
    assert trace() is None


def test_finished_system_is_not_frozen(tmp_path, thaw, collector_off):
    """A finished ``System`` is cyclic garbage; the next trace miss must
    collect it before freezing, or it is pinned for good."""
    from repro.systems import SYSTEMS
    cache = DiskCache(tmp_path / "cache")
    workload = prepared_workload("adpcm", "tiny", cache)
    system = SYSTEMS["FUSION"](small_config(), workload)
    system.run()
    finished = weakref.ref(system)
    del system
    prepared_workload("fft", "tiny", cache)
    assert finished() is None


# -- batching --------------------------------------------------------------

def test_batch_deduplicates(engine):
    results = engine.run_batch(_batch("FUSION", "SHARED", "FUSION",
                                      "FUSION"))
    assert engine.telemetry.requested == 4
    assert engine.telemetry.unique == 2
    assert engine.telemetry.computed == 2
    # Duplicates simulate once but each caller gets an independent
    # view: equal outcome, distinct object, distinct meta dict (so one
    # caller annotating its result cannot corrupt another's).
    assert results[0] == results[2] == results[3]
    assert results[0] is not results[2] and results[2] is not results[3]
    assert results[0].meta is not results[2].meta


def test_batch_preserves_request_order(engine):
    systems = ("SHARED", "FUSION", "SCRATCH", "FUSION")
    results = engine.run_batch(_batch(*systems))
    assert [result.system for result in results] == list(systems)


def test_batch_rejects_unknown_system(engine):
    with pytest.raises(ConfigError, match="unknown system"):
        engine.run_batch(_batch("FUSION", "GPU"))


def test_warm_batch_is_all_memory_hits(engine):
    engine.run_batch(_batch("FUSION", "SHARED"))
    engine.run_batch(_batch("FUSION", "SHARED"))
    assert engine.telemetry.computed == 2
    assert engine.telemetry.memory_hits == 2
    assert engine.telemetry.hit_ratio() == 0.5


def test_parallel_matches_serial_bit_for_bit(tmp_path):
    grid = _batch("SCRATCH", "SHARED", "FUSION", "FUSION-Dx")
    serial = ExecutionEngine(jobs=1, cache=DiskCache(tmp_path / "a"))
    parallel = ExecutionEngine(jobs=2, cache=DiskCache(tmp_path / "b"))
    serial_results = serial.run_batch(grid)
    parallel_results = parallel.run_batch(grid)
    assert parallel.telemetry.parallel_computed == 4
    assert serial.telemetry.parallel_computed == 0
    assert parallel_results == serial_results
    for result in parallel_results:
        assert result.meta["source"] == "computed-parallel"
        assert result.meta["jobs"] == 2
        assert result.meta["wall_s"] > 0


def test_single_miss_never_spawns_a_pool(engine):
    engine.jobs = 8
    engine.run_batch(_batch("FUSION"))
    assert engine.telemetry.parallel_computed == 0
    assert engine.telemetry.serial_computed == 1


@dataclasses.dataclass(frozen=True)
class _HookedConfig(SystemConfig):
    """A config smuggling a callable: unpicklable and unfingerprintable."""

    hook: object = dataclasses.field(default=None, compare=False)


def test_unpicklable_config_falls_back_to_serial(tmp_path):
    config = _HookedConfig(hook=lambda: None)
    with pytest.raises(Exception):
        pickle.dumps(config)
    engine = ExecutionEngine(jobs=2, cache=DiskCache(tmp_path / "c"))
    results = engine.run_batch(
        _batch("FUSION", config=config) + _batch("SHARED", config=config))
    assert [result.system for result in results] == ["FUSION", "SHARED"]
    assert engine.telemetry.parallel_computed == 0
    assert engine.telemetry.uncacheable == 2
    assert engine.cache.disk_stats() == (0, 0)  # never persisted


# -- telemetry -------------------------------------------------------------

def test_results_carry_engine_telemetry(engine):
    [result] = engine.run_batch(_batch("FUSION"))
    assert result.meta["source"] == "computed"
    assert result.meta["wall_s"] > 0
    assert result.meta["queue_depth"] == 1
    assert result.meta["batch_hit_ratio"] == 0.0


def test_session_stats_persisted(engine):
    engine.run_batch(_batch("FUSION"))
    payload = engine.load_session_stats()
    assert payload["schema_version"] == CACHE_SCHEMA_VERSION
    assert payload["telemetry"]["computed"] == 1


# -- the process-wide engine and clear_cache -------------------------------

def test_get_engine_is_a_singleton():
    reset_engine()
    try:
        assert get_engine() is get_engine()
    finally:
        reset_engine()


def test_configure_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_engine()
    try:
        engine = configure(jobs=3, cache_enabled=False)
        assert engine.jobs == 3
        assert engine.cache.enabled is False
        engine.run_batch(_batch("FUSION"))
        assert engine.cache.disk_stats() == (0, 0)
    finally:
        reset_engine()


def test_clear_cache_defeats_stale_disk_results():
    first = run("FUSION", "adpcm", "tiny")
    telemetry = get_engine().telemetry
    computed_before = telemetry.computed
    clear_cache()
    second = run("FUSION", "adpcm", "tiny")
    # Recomputed from scratch: the epoch bump must defeat both the
    # in-memory index and the on-disk entry.
    assert telemetry.computed == computed_before + 1
    assert second is not first
    assert second == first  # deterministic


def test_clear_cache_clears_workload_registry():
    from repro.workloads.registry import build_workload
    before = build_workload("adpcm", "tiny")
    clear_cache()
    after = build_workload("adpcm", "tiny")
    assert after is not before


# -- cache schema migration ---------------------------------------------------

#: Every schema directory an older release could have left behind.  v3
#: trace pickles hold compiled phase plans whose module is gone, so they
#: must never be read again.
STALE_SCHEMAS = ["v1", "v2", "v3"]


def _plant_stale_schema(stale, entries=2):
    """Drop pickles into the old-schema version dir ``stale``, the way a
    pre-bump process left them (results under ``<stale>/<aa>/`` plus one
    prepared trace under ``<stale>/traces/<aa>/``)."""
    import pickle as pkl
    written = []
    for index in range(entries):
        sub = stale / ("a%d" % index)
        sub.mkdir(parents=True, exist_ok=True)
        path = sub / ("a%d" % index + "0" * 62 + ".pkl")
        path.write_bytes(pkl.dumps({"old-schema": index}))
        written.append(path)
    tdir = stale / "traces" / "bb"
    tdir.mkdir(parents=True, exist_ok=True)
    tpath = tdir / ("bb" + "0" * 62 + ".pkl")
    tpath.write_bytes(pkl.dumps("old prepared trace"))
    written.append(tpath)
    return written


def test_entries_live_under_versioned_dir(engine):
    engine.run_batch(_batch("FUSION"))
    current = "v{}".format(CACHE_SCHEMA_VERSION)
    pkls = list(engine.cache.root.rglob("*.pkl"))
    assert pkls
    assert all(current in path.parts for path in pkls)


def test_stale_schema_entries_are_never_read(engine):
    """Old-schema pickles sit in their own trees: a run over a root
    holding only old-schema entries recomputes (no torn reads, no
    corrupt drops) and writes fresh entries under the current dir."""
    for schema in STALE_SCHEMAS:
        _plant_stale_schema(engine.cache.root / schema)
    [result] = engine.run_batch(_batch("FUSION"))
    assert engine.telemetry.computed == 1
    assert engine.telemetry.disk_hits == 0
    assert engine.cache.corrupt_drops == 0
    assert result.accel_cycles > 0
    # The stale trees are untouched by normal operation.
    for schema in STALE_SCHEMAS:
        assert len(list((engine.cache.root / schema).rglob("*.pkl"))) == 3


def test_stale_schema_stats_counts_old_entries(engine):
    assert engine.cache.stale_schema_stats() == (0, 0)
    for schema in STALE_SCHEMAS:
        _plant_stale_schema(engine.cache.root / schema)
    engine.run_batch(_batch("FUSION"))
    entries, total_bytes = engine.cache.stale_schema_stats()
    assert entries == 3 * len(STALE_SCHEMAS) and total_bytes > 0
    # Current-schema tallies exclude the stale tree.
    assert engine.cache.disk_stats()[0] == 1
    assert engine.cache.trace_stats()[0] == 1


def test_clear_reaps_stale_schema_dirs(engine):
    for schema in STALE_SCHEMAS:
        _plant_stale_schema(engine.cache.root / schema)
    engine.run_batch(_batch("FUSION"))
    # 1 result + 1 prepared trace (current) + 3 stale entries per schema.
    assert engine.cache.clear() == 2 + 3 * len(STALE_SCHEMAS)
    assert engine.cache.stale_schema_stats() == (0, 0)
    for schema in STALE_SCHEMAS:
        assert not (engine.cache.root / schema).exists()
    assert engine.cache.disk_stats() == (0, 0)

