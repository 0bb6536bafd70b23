"""Traced mode: per-layer numbers from one in-process run.

The run drives the workload's command through ``repro.cli.main`` in this
process, with span wrappers (:mod:`perfbench.spans`) around the calls
into each layer's public functions:

1. ``cli.import_s``: median of three fresh ``import repro.cli``.
2. The sweep's trace set-up, traced.
3. An untimed warm-up pass at ``--size tiny``, then the workload's cold
   pass on an empty cache, untraced.
4. The same cold pass traced, then a traced warm rerun on the cache it
   left.  Engine pool workers are forked, inherit the wrappers and
   hand their spans back.  ``warm_s`` comes from untraced warm reruns
   of the command in fresh processes on that cache.
   ``trace.overhead_s`` is traced minus untraced cold pass; the traced
   pass runs second in the process, so the figure is an upper bound
   that includes any second-pass penalty.
5. Ladder leave-one-out: after an untimed all-on warm-up, sim-only
   passes over the workload's grid on the prepared traces, all rungs
   on, each rung off in turn, all off.
   Every result must be bit-identical to the all-on pass and to the
   reference before any ``ladder.*`` number is reported.

Every grid result is checked against the reference (see
:mod:`perfbench.check`); mismatches count as failed points.
"""

import contextlib
import gc
import importlib
import io
import os
import shutil
import statistics
import subprocess
import sys
import time

from perfbench import check, spans, timed
from perfbench.common import (cli_command, make_work_dir, program_env,
                              remove_work_dir, summarize)
from perfbench.workloads import SWEEP_SYSTEMS

#: (rung, module, flag) of the fallback ladder's on/off switches.
LADDER_FLAGS = (
    ("coalesce", "repro.accel.core", "COALESCE_RUNS"),
    ("phases", "repro.accel.core", "STEADY_PHASES"),
    ("vector", "repro.accel.core", "VECTOR_PHASES"),
    ("replay", "repro.accel.replay", "REPLAY_INVOCATIONS"),
)

#: Span name -> the layer metric its self time feeds.  ``cache.io``
#: spans (the pickle reads/writes) belong to their parent's layer.
_LAYER_OF = {
    "build.kernel": "build.kernel_s",
    "build.lower": "build.lower_s",
    "build.lower_trace": "build.lower_s",
    "build.ddg": "build.ddg_s",
    "compile.phase": "compile.phase_s",
    "compile.phase_compile": "compile.phase_s",
    "compile.vector": "compile.vector_s",
    "compile.vector_compile": "compile.vector_s",
    "cache.trace_write": "cache.trace_write_s",
    "cache.trace_read": "cache.trace_read_s",
    "cache.result_write": "cache.result_write_s",
    "cache.result_read": "cache.result_read_s",
    "report": "report.assemble_s",
}

#: Fresh-process warm reruns behind ``warm_s``.
WARM_RERUNS = 10

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import repro.cli; "
                 "print(time.perf_counter() - t)")


def metric_units():
    """Every per-layer metric this mode prints, with its unit, in order."""
    units = [
        ("warm_s", "s"), ("cli.import_s", "s"),
        ("build.kernel_s", "s"), ("build.kernel_ops", "count"),
        ("build.lower_s", "s"), ("build.lower_steps", "count"),
        ("build.lower_coalesced_frac", "frac"),
        ("build.ddg_s", "s"),
        ("compile.phase_s", "s"), ("compile.phase_plans", "count"),
        ("compile.phase_phases", "count"),
        ("compile.vector_s", "s"), ("compile.vector_windows", "count"),
        ("cache.trace_write_s", "s"), ("cache.trace_write_mb", "MB"),
        ("cache.trace_read_s", "s"), ("cache.trace_read_mb", "MB"),
        ("cache.result_write_s", "s"), ("cache.result_read_s", "s"),
        ("engine.wall_s", "s"), ("engine.busy_s", "s"),
        ("engine.efficiency", "frac"),
        ("engine.prepares_per_workload", "count"),
        ("engine.retries", "count"), ("engine.failed_points", "count"),
    ]
    for system in SWEEP_SYSTEMS:
        units += [("sim.{}_s".format(system), "s"),
                  ("sim.{}_maccess_per_s".format(system), "Macc/s")]
    units.append(("sim.total_s", "s"))
    units += [("ladder.{}.loo_s".format(rung), "s")
              for rung, _, _ in LADDER_FLAGS]
    units += [("ladder.per_op_s", "s"), ("ladder.replay.hits", "count"),
              ("ladder.replay.recordings", "count"),
              ("ladder.replay.ineligible", "count"),
              ("ladder.replay.hit_frac", "frac"),
              ("report.assemble_s", "s")]
    units += [("model.{}.accel_cycles".format(system), "cycles")
              for system in SWEEP_SYSTEMS]
    units += [("trace.overhead_s", "s"), ("trace.other_s", "s"),
              ("failed_frac", "frac")]
    return units


# -- hooks -------------------------------------------------------------------

def _file_bytes(args, _kwargs, _result):
    try:
        return {"bytes": os.path.getsize(args[1])}
    except OSError:
        return {"bytes": 0}


def _mem_ops(workload):
    """Memory ops one simulation of ``workload`` issues."""
    from repro.workloads.lowering import lowered_trace
    return sum(lowered_trace(trace, 4).mem_ops
               for trace in workload.invocations)


#: (owner, attribute, span name, describe) of every hook.  ``owner`` is
#: a module, or ``module:name`` for a class or dict inside it.  A module
#: calls a function through its own imported name, so a function used
#: from several modules is wrapped in each.
HOOKS = (
    ("repro.sim.engine", "build_workload", "build.kernel",
     lambda a, k, w: {"ops": sum(len(t.ops) for t in w.invocations)}),
    ("repro.sim.engine", "lower_workload", "build.lower",
     lambda a, k, w: {"benchmark": w.benchmark, "mem_ops": _mem_ops(w)}),
    ("repro.workloads.lowering", "lower_trace", "build.lower_trace",
     lambda a, k, low: {"steps": len(low.steps), "mem_ops": low.mem_ops,
                        "coalesced": low.coalesced_ops}),
    ("repro.sim.engine", "function_mlp", "build.ddg", None),
    ("repro.workloads.phases", "phase_plan", "compile.phase", None),
    ("repro.workloads.vector", "phase_plan", "compile.phase", None),
    ("repro.accel.core", "phase_plan", "compile.phase", None),
    ("repro.workloads.phases", "compile_plan", "compile.phase_compile",
     lambda a, k, plan: {"phases": plan.num_phases}),
    ("repro.workloads.vector", "vector_plan", "compile.vector", None),
    ("repro.accel.core", "vector_plan", "compile.vector", None),
    ("repro.workloads.vector", "compile_vector_plan",
     "compile.vector_compile",
     lambda a, k, plan: {"windows": len(plan.windows)}),
    ("repro.sim.engine:DiskCache", "store_trace", "cache.trace_write", None),
    ("repro.sim.engine:DiskCache", "load_trace", "cache.trace_read", None),
    ("repro.sim.engine:DiskCache", "store", "cache.result_write", None),
    ("repro.sim.engine:DiskCache", "load", "cache.result_read", None),
    ("repro.sim.engine:DiskCache", "_read_pickle", "cache.io", _file_bytes),
    ("repro.sim.engine:DiskCache", "_write_pickle", "cache.io", _file_bytes),
    ("repro.sim.engine", "_execute", "sim",
     lambda a, k, r: {"system": a[0].system, "benchmark": a[0].benchmark}),
    ("repro.sim.engine:ExecutionEngine", "run_batch", "engine.batch",
     lambda a, k, out: {"busy": sum(r.meta.get("wall_s", 0.0)
                                    for r in out)}),
    ("repro.sim.experiments:ALL_EXPERIMENTS", "fig6b", "report", None),
    ("repro.sim.sweep", "sweep", "report", None),
    ("repro.sim.reporting:ExperimentTable", "render", "report", None),
)


def _owner(spec):
    """The module, or the class/dict inside it, that ``spec`` names;
    ``None`` when the program no longer has it."""
    module_name, _, inner = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, inner, None) if inner else owner


def install_hooks(rec):
    """Wrap each layer's entry points listed in :data:`HOOKS`.

    ``sim`` spans (one grid point) hand a pool worker's spans back to
    the parent when they close.
    """
    for spec, attr, name, describe in HOOKS:
        owner = _owner(spec)
        if owner is None:
            rec.missing.append("{}.{}".format(spec, attr))
            continue
        rec.wrap(owner, attr, name, describe=describe,
                 flush_in_worker=name == "sim")


# -- in-process CLI passes ---------------------------------------------------

def cli_pass(args, cache_dir):
    """Run ``fusion-sim ARGS`` in this process on ``cache_dir``.

    Resets the process-wide engine and every in-process memo first, so
    each pass starts as a fresh process would (bytecode and imports
    aside).  Returns the printed output.
    """
    from repro import cli
    from repro.sim import engine, simulator
    simulator.clear_cache()
    engine.reset_engine()
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    gc.collect()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    if code:
        raise RuntimeError("fusion-sim {} exited {}".format(args, code))
    return buf.getvalue()


def _prepare(workload, cache_dir):
    from repro.sim.engine import DiskCache, prepared_workload
    cache = DiskCache(cache_dir)
    for name in workload.prepared:
        prepared_workload(name, workload.size, cache)


def _fresh_cache(work, name, template):
    path = work / name
    if template is not None:
        shutil.copytree(template, path)
    else:
        path.mkdir()
    return path


def _warm_reruns(workload, args, cache_dir, reference, work):
    """Host seconds of fresh ``fusion-sim`` processes rerunning the
    command on the warm ``cache_dir``, and their output-check failures.
    """
    seconds, failures = [], []
    out_path = work / "warm.out"
    for rerun in range(WARM_RERUNS):
        wall, _peak, rc = timed.run_command(cli_command(args), cache_dir,
                                            out_path)
        seconds.append(wall)
        if rc != 0 or not check.table_ok(out_path.read_text(), reference):
            failures.append("warm rerun {}: exit {} or table differs"
                            .format(rerun + 1, rc))
    return seconds, failures


def _import_seconds(work):
    samples = []
    for _ in range(3):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                              env=program_env(work), capture_output=True,
                              text=True, check=True)
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


# -- span arithmetic -----------------------------------------------------------

def _root_names(all_spans):
    """Span id -> the ``phase`` attribute of its root span."""
    by_id = {s["id"]: s for s in all_spans}
    roots = {}

    def root(span):
        if span["id"] not in roots:
            parent = by_id.get(span["parent"])
            roots[span["id"]] = (span["attrs"].get("phase")
                                 if parent is None else root(parent))
        return roots[span["id"]]

    for span in all_spans:
        root(span)
    return roots


def layer_metrics(rec, traced_wall, jobs):
    """Fold recorded spans into the per-layer metrics of the traced run."""
    all_spans = rec.spans
    by_id = {s["id"]: s for s in all_spans}
    phase = _root_names(all_spans)
    m = {name: 0.0 for name in set(_LAYER_OF.values())}
    sim = {system: 0.0 for system in SWEEP_SYSTEMS}
    counts = {"ops": 0, "steps": 0, "mem_ops": 0, "coalesced": 0,
              "plans": 0, "phases": 0, "windows": 0, "prepares": 0,
              "read_bytes": 0, "write_bytes": 0}
    benchmarks = set()
    mem_ops = {}
    engine_wall = engine_busy = 0.0
    for span, own in spans.self_times(all_spans):
        name, attrs = span["name"], span["attrs"]
        if name == "cache.io":
            parent = by_id.get(span["parent"])
            name = parent["name"] if parent else name
            key = ("read_bytes" if name == "cache.trace_read"
                   else "write_bytes" if name == "cache.trace_write"
                   else None)
            if key:
                counts[key] += attrs.get("bytes", 0)
        if name in _LAYER_OF:
            if name != "report" or phase[span["id"]] == "warm":
                m[_LAYER_OF[name]] += own
        elif name == "sim":
            system = attrs.get("system")
            sim[system] = sim.get(system, 0.0) + own
            benchmarks.add(attrs.get("benchmark"))
        elif name == "engine.batch" and phase[span["id"]] == "cold":
            engine_wall += span["end"] - span["start"]
            engine_busy += attrs.get("busy", 0.0)
        if span["name"] == "build.lower":
            mem_ops[attrs.get("benchmark")] = attrs.get("mem_ops", 0)
        elif span["name"] == "build.kernel":
            counts["prepares"] += 1
            counts["ops"] += attrs.get("ops", 0)
        elif span["name"] == "build.lower_trace":
            for key in ("steps", "mem_ops", "coalesced"):
                counts[key] += attrs.get(key, 0)
        elif span["name"] == "compile.phase_compile":
            counts["plans"] += 1
            counts["phases"] += attrs.get("phases", 0)
        elif span["name"] == "compile.vector_compile":
            counts["windows"] += attrs.get("windows", 0)

    m.update({
        "build.kernel_ops": counts["ops"],
        "build.lower_steps": counts["steps"],
        "build.lower_coalesced_frac": (counts["coalesced"] / counts["mem_ops"]
                                       if counts["mem_ops"] else 0.0),
        "compile.phase_plans": counts["plans"],
        "compile.phase_phases": counts["phases"],
        "compile.vector_windows": counts["windows"],
        "cache.trace_write_mb": counts["write_bytes"] / 2 ** 20,
        "cache.trace_read_mb": counts["read_bytes"] / 2 ** 20,
        "engine.wall_s": engine_wall,
        "engine.busy_s": engine_busy,
        "engine.efficiency": (engine_busy / (engine_wall * jobs)
                              if engine_wall else 0.0),
        "engine.prepares_per_workload": (counts["prepares"] / len(benchmarks)
                                         if benchmarks else 0.0),
        # Wall time no layer span covers (the benchmark's own root
        # spans excluded): what the hooks leave unexplained.
        "trace.other_s": max(0.0, traced_wall - spans.covered(
            [(s["start"], s["end"]) for s in all_spans
             if s["parent"] is not None])),
    })
    return m, sim, mem_ops


# -- ladder leave-one-out --------------------------------------------------------

def _flag_targets():
    """[(rung, module, flag)] for the switches this program still has."""
    out = []
    for rung, module_name, flag in LADDER_FLAGS:
        module = _owner(module_name)
        if module is not None and hasattr(module, flag):
            out.append((rung, module, flag))
    return out


def _sim_pass(workload, cache_dir, off):
    """Simulate the leave-one-out grid with the rungs in ``off`` switched
    off; returns ``(seconds, results, workloads)``."""
    from repro.systems import SYSTEMS
    requests = [r.normalized() for r in workload.loo_requests()]
    workloads = load_workloads(requests, cache_dir)
    saved = [(module, flag, getattr(module, flag)) for _, module, flag in off]
    for _, module, flag in off:
        setattr(module, flag, False)
    try:
        start = time.perf_counter()
        results = [SYSTEMS[r.system](r.config, workloads[r.benchmark]).run()
                   for r in requests]
        return time.perf_counter() - start, results, workloads
    finally:
        for module, flag, value in saved:
            setattr(module, flag, value)


def load_workloads(requests, cache_dir):
    """The prepared traces ``requests`` need, freshly read from
    ``cache_dir``.

    Every sim-only pass starts from its own copy, so no pass inherits
    per-trace memos another pass filled.  The collector is paused while
    unpickling (untimed) and run once before the caller times anything.
    """
    from repro.sim.engine import DiskCache, prepared_workload
    cache = DiskCache(cache_dir)
    gc.disable()
    try:
        loaded = {r.benchmark: prepared_workload(r.benchmark, r.size, cache)
                  for r in requests}
    finally:
        gc.enable()
    gc.collect()
    return loaded


def leave_one_out(workload, cache_dir, reference, budget_s, log):
    """Ladder metrics, per-configuration pass times, and ``(attempted,
    failures)`` of the bit-identity checks.

    One round is a sim-only pass per configuration: all rungs on, each
    rung off in turn, all off.  Rounds repeat, each starting one
    configuration later, as long as another round fits in ``budget_s``
    at the mean round time so far (at least one round runs);
    every configuration reports its median.  Each result must match the
    reference fingerprint, which the all-on results match too, so every
    reported pass is bit-identical to all-on.
    """
    replay = _owner("repro.accel.replay")
    requests = [r.normalized() for r in workload.loo_requests()]
    labels = [check.point_label(r) for r in requests]
    targets = _flag_targets()
    missing = {rung for rung, _, _ in LADDER_FLAGS} - {
        rung for rung, _, _ in targets}
    if missing:
        log("ladder rungs without a switch (reported as 0): " + ", ".join(
            sorted(missing)))
    configs = ([("all-on", ())]
               + [(rung + "-off", ((rung, module, flag),))
                  for rung, module, flag in targets]
               + [("all-off", tuple(targets))])
    times = {tag: [] for tag, _ in configs}
    attempted, failures = 0, []
    # Untimed all-on warm-up: process-wide lazy state (interned replay
    # keys, memoised model tables) is filled here, not in whichever
    # configuration happens to run first.  It also yields the replay
    # counters of one all-on pass.
    if replay is not None:
        replay.reset_telemetry()
    _seconds, _results, workloads = _sim_pass(workload, cache_dir, ())
    telemetry = replay.telemetry_snapshot() if replay is not None else {}
    began = time.perf_counter()
    rounds = 0
    while rounds == 0 or (time.perf_counter() - began) * (
            rounds + 1) / rounds <= budget_s:
        shift = rounds % len(configs)
        for tag, off in configs[shift:] + configs[:shift]:
            seconds, results, _ = _sim_pass(workload, cache_dir, off)
            times[tag].append(seconds)
            for label, result in zip(labels, results):
                attempted += 1
                if check.fingerprint(result) != reference["points"].get(
                        label):
                    failures.append("{} {}: differs from the all-on "
                                    "reference".format(tag, label))
        rounds += 1

    median = {tag: statistics.median(v) for tag, v in times.items()}
    m = {"ladder.{}.loo_s".format(rung): 0.0 for rung, _, _ in LADDER_FLAGS}
    for rung, _, _ in targets:
        m["ladder.{}.loo_s".format(rung)] = (median[rung + "-off"]
                                             - median["all-on"])
    invocations = sum(len(workloads[r.benchmark].invocations)
                      for r in requests)
    m.update({
        "ladder.per_op_s": median["all-off"],
        "ladder.replay.hits": telemetry.get("hits", 0),
        "ladder.replay.recordings": telemetry.get("recordings", 0),
        "ladder.replay.ineligible": telemetry.get("ineligible", 0),
        "ladder.replay.hit_frac": (telemetry.get("hits", 0) / invocations
                                   if invocations else 0.0),
    })
    return m, times, attempted, failures


# -- the traced run --------------------------------------------------------------

def run(workload, seconds, log):
    """Per-layer metrics of ``workload``; ``seconds`` bounds the
    leave-one-out rounds (at least one round runs)."""
    from repro.sim.engine import get_engine
    reference = check.load_reference(workload)
    args = workload.cli_args()
    work = make_work_dir(workload.name + "-traced")
    attempted, failures = 0, []
    run_order = []
    try:
        metrics = {"cli.import_s": _import_seconds(work)}
        run_order.append("import-probe x3")

        rec = spans.Recorder(spill_dir=str(work / "spans"))
        os.mkdir(work / "spans")
        traced_wall = 0.0
        template = None
        if workload.prepared:
            template = work / "template"
            install_hooks(rec)
            began = time.perf_counter()
            try:
                with rec.span("setup", phase="setup"):
                    _prepare(workload, template)
            finally:
                traced_wall += time.perf_counter() - began
                rec.restore()
            run_order.append("traced set-up")

        # An untimed tiny-size pass first, so lazy imports and other
        # first-pass costs do not land in the untraced pass only.
        cli_pass(workload.cli_args(size="tiny"),
                 _fresh_cache(work, "warm-up", None))
        run_order.append("untimed tiny-size warm-up pass")
        plain_dir = _fresh_cache(work, "untraced", template)
        start = time.perf_counter()
        plain_out = cli_pass(args, plain_dir)
        untraced_cold = time.perf_counter() - start
        run_order.append("untraced cold pass")
        points, fails = check.check_pass(workload, plain_out, plain_dir,
                                         reference)
        attempted += points
        failures += fails

        cold_dir = _fresh_cache(work, "traced", template)
        install_hooks(rec)
        began = time.perf_counter()
        try:
            with rec.span("pass", phase="cold") as cold_span:
                cold_out = cli_pass(args, cold_dir)
            telemetry = get_engine().telemetry
            with rec.span("pass", phase="warm"):
                warm_out = cli_pass(args, cold_dir)
            run_order += ["traced cold pass", "traced warm pass"]
        finally:
            traced_wall += time.perf_counter() - began
            rec.restore()
        if rec.missing:
            log("hooks without a target (their metrics read 0): "
                + ", ".join(sorted(set(rec.missing))))
        rec.collect()
        traced_cold = cold_span["end"] - cold_span["start"]

        points, fails = check.check_pass(workload, cold_out, cold_dir,
                                         reference)
        attempted += points + 1
        failures += fails
        if not check.table_ok(warm_out, reference):
            failures.append("warm pass: printed table differs")
        warm, fails = _warm_reruns(workload, args, cold_dir, reference, work)
        metrics["warm_s"] = statistics.median(warm)
        run_order.append("{} warm reruns in fresh processes".format(
            len(warm)))
        attempted += len(warm)
        failures += fails
        model = {system: 0 for system in SWEEP_SYSTEMS}
        for result in check.read_back(cold_dir, workload.requests()).values():
            if result is not None:
                model[result.system] += result.accel_cycles

        layers, sim, mem_ops = layer_metrics(rec, traced_wall,
                                             workload.jobs)
        metrics.update(layers)
        ladder, loo_times, points, fails = leave_one_out(
            workload, plain_dir, reference, seconds, log)
        run_order.append("leave-one-out: all-on warm-up, then rounds of "
                         "all-on, each rung off, all-off")
        attempted += points
        failures += fails
        metrics.update(ladder)
        metrics.update(_sim_metrics(workload, mem_ops, sim, model))
        metrics["engine.retries"] = telemetry.retries
        metrics["engine.failed_points"] = telemetry.failed_points
        metrics["trace.overhead_s"] = traced_cold - untraced_cold
    finally:
        remove_work_dir(work)

    for failure in failures:
        log("FAILED " + failure)
    failed = min(attempted, len(failures))
    metrics["failed_frac"] = failed / attempted if attempted else 0.0
    summaries = {"ladder." + tag + "_s": summarize(values)
                 for tag, values in loo_times.items()}
    summaries["untraced_cold_s"] = summarize([untraced_cold])
    summaries["traced_cold_s"] = summarize([traced_cold])
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "summaries": summaries,
            "run_order": run_order, "command": ["fusion-sim"] + args}


def _sim_metrics(workload, mem_ops, sim, model):
    """``sim.*`` and ``model.*``: host seconds and memory-op throughput
    per system, simulated accelerator cycles per system."""
    issued = {system: 0 for system in SWEEP_SYSTEMS}
    for request in workload.requests():
        issued[request.system] += mem_ops.get(request.benchmark, 0)
    m = {"sim.total_s": sum(sim.values())}
    for system in SWEEP_SYSTEMS:
        host_s = sim.get(system, 0.0)
        m["sim.{}_s".format(system)] = host_s
        m["sim.{}_maccess_per_s".format(system)] = (
            issued[system] / host_s / 1e6 if host_s else 0.0)
        m["model.{}.accel_cycles".format(system)] = model[system]
    return m
