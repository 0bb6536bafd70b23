"""Timed mode: the workload's real CLI command in fresh processes.

One run = set-up (repeated, median reported) + as many cold passes as
fit in ``--seconds`` at the mean pass time so far (at least one).  A
cold pass runs the command on an empty cache directory (the sweep's
holds only the prepared traces) and checks its output.  After the first
cold pass the same command reruns on the cache it left (the warm
reruns, every point a result hit).
"""

import os
import shutil
import signal
import subprocess
import sys
import threading
import time

from perfbench import check
from perfbench.common import (cli_command, make_work_dir, program_env,
                              remove_work_dir, summarize, tree_bytes)

#: Set-ups per run; the median is ``setup_s``.  The sweep's takes ~10 s.
SETUPS = {"fig6": 3, "sweep": 2}
#: Warm reruns after the first cold pass (later passes skip them, so
#: more cold passes fit in a run).  They check the warm path's output;
#: their times go to the provenance only.  ``warm_s`` is a per-layer
#: metric of the traced run: a ~0.3 s process start drifts by up to
#: +-20% between runs on a shared host, more than an end-to-end bound
#: may allow.
WARM_RERUNS = 2
#: RSS sampling period of the process-tree poller (seconds).
RSS_POLL_S = 0.05

_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024

_PREPARE = """\
import sys
from repro.sim.engine import DiskCache, prepared_workload
cache = DiskCache()
for name in sys.argv[2:]:
    prepared_workload(name, sys.argv[1], cache)
"""


def _children_map():
    """ppid -> [pid] over every process visible in /proc."""
    kids = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(entry))
    return kids


def _tree_rss_kb(root_pid):
    """Summed resident set of ``root_pid`` and all its descendants."""
    kids = _children_map()
    total, todo = 0, [root_pid]
    while todo:
        pid = todo.pop()
        todo.extend(kids.get(pid, ()))
        try:
            with open("/proc/{}/statm".format(pid)) as handle:
                total += int(handle.read().split()[1]) * _PAGE_KB
        except (OSError, IndexError, ValueError):
            pass
    return total


class _RssPoller(threading.Thread):
    def __init__(self, pid):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(RSS_POLL_S):
            self.peak_kb = max(self.peak_kb, _tree_rss_kb(self.pid))


def run_command(argv, cache_dir, out_path):
    """Run one process to completion; returns ``(wall_s, peak_mb, rc)``.

    Peak RSS is the larger of the sampled sum over the process tree and
    the kernel's exact per-process high-water mark (``wait4``'s
    ``ru_maxrss``, the largest single process of the tree).
    """
    with open(out_path, "w") as out, \
            open(out_path.with_suffix(".err"), "w") as err:
        start = time.perf_counter()
        # Own process group, so an aborted run can stop the CLI's pool
        # workers along with it.
        proc = subprocess.Popen(argv, env=program_env(cache_dir),
                                stdout=out, stderr=err,
                                start_new_session=True)
        poller = _RssPoller(proc.pid)
        poller.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            raise
        finally:
            wall = time.perf_counter() - start
            poller.done.set()
            poller.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    peak_kb = max(poller.peak_kb, usage.ru_maxrss)
    return wall, peak_kb / 1024.0, proc.returncode


def _setup(workload, target, work):
    """One set-up into the empty directory ``target``; returns seconds.

    fig6: the same command at ``--size tiny`` on an empty cache, so
    bytecode caches exist and the code is warm in the page cache before
    the first timed pass.  sweep: prepare the traces of the swept
    benchmarks into ``target``, the template cache directory every cold
    pass starts from.
    """
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir()
    if workload.prepared:
        argv = [sys.executable, "-c", _PREPARE, workload.size] + list(
            workload.prepared)
    else:
        argv = cli_command(workload.cli_args(size="tiny"))
    wall, _peak, rc = run_command(argv, target, work / "setup.out")
    if rc != 0:
        raise RuntimeError("set-up failed: {}".format(
            (work / "setup.err").read_text()[-2000:]))
    return wall


def run(workload, seconds, log):
    """Measure ``workload``; returns metrics, check counts and the
    samples behind them."""
    reference = check.load_reference(workload)
    args = workload.cli_args()
    argv = cli_command(args)
    work = make_work_dir(workload.name)
    samples = {"wall_s": [], "warm_s": [], "setup_s": [],
               "peak_rss_mb": [], "cache_mb": []}
    run_order = []
    attempted = failed = 0

    def note(label, metric, value):
        samples[metric].append(value)
        run_order.append({"run": label, "metric": metric, "value": value})

    try:
        template = work / "template"
        for index in range(SETUPS[workload.kind]):
            note("setup#{}".format(index + 1), "setup_s",
                 _setup(workload, template, work))
        if not workload.prepared:
            shutil.rmtree(template)
            template = None

        out_path = work / "out.txt"
        began = time.perf_counter()
        passes = 0
        while passes == 0 or (time.perf_counter() - began) * (
                passes + 1) / passes <= seconds:
            passes += 1
            cache_dir = work / "cache"
            if template is not None:
                shutil.copytree(template, cache_dir)
            else:
                cache_dir.mkdir()
            wall, peak, rc = run_command(argv, cache_dir, out_path)
            note("cold#{}".format(passes), "wall_s", wall)
            note("cold#{}".format(passes), "peak_rss_mb", peak)
            note("cold#{}".format(passes), "cache_mb",
                 tree_bytes(cache_dir) / 2 ** 20)
            output = out_path.read_text()
            if rc != 0:
                points, failures = len(workload.requests()) + 1, [
                    "exit {}: {}".format(rc, out_path.with_suffix(
                        ".err").read_text()[-2000:])]
            else:
                points, failures = check.check_pass(
                    workload, output, cache_dir, reference)
            attempted += points
            failed += min(points, len(failures))
            for failure in failures:
                log("FAILED cold#{}: {}".format(passes, failure))
            for rerun in range(WARM_RERUNS if passes == 1 else 0):
                wall, _peak, rc = run_command(argv, cache_dir, out_path)
                note("warm#{}.{}".format(passes, rerun + 1), "warm_s", wall)
                attempted += 1
                if rc != 0 or not check.table_ok(out_path.read_text(),
                                                 reference):
                    failed += 1
                    log("FAILED warm#{}.{}".format(passes, rerun + 1))
            shutil.rmtree(cache_dir)
    finally:
        remove_work_dir(work)

    summaries = {name: summarize(values) for name, values in samples.items()}
    metrics = {name: summary["median"] for name, summary in summaries.items()}
    del metrics["warm_s"]
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "summaries": summaries, "run_order": run_order,
            "command": ["fusion-sim"] + args}
