"""Output check: the printed table and every grid point's RunResult.

A pass is correct when

* the table the command printed equals the reference recorded from the
  seed code, and
* every grid point's :class:`RunResult`, read back from the pass's cache
  directory through :class:`DiskCache` and :func:`cache_key`, matches
  its reference fingerprint (cycles, ``repr`` of the energy breakdown,
  every statistic) and passes :func:`repro.sim.validate.validate`.

Record the references (only when the simulated model is meant to
change) with::

    python3 perfbench/check.py --record
"""

import hashlib
import json
import pathlib
import subprocess
import sys

if __package__ in (None, ""):
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench.common import (cli_command, make_work_dir, program_env,  # noqa: E402
                              remove_work_dir, require_program)
from perfbench.workloads import WORKLOADS  # noqa: E402

REFERENCE_DIR = pathlib.Path(__file__).resolve().parent / "reference"


def fingerprint(result):
    """Content hash of everything a simulation computed."""
    payload = json.dumps([
        result.system, result.benchmark, result.config_name,
        result.accel_cycles, result.total_cycles, repr(result.energy),
        sorted((name, repr(value)) for name, value in result.stats.items()),
    ])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def point_label(request):
    return "{}/{}/{}/{}".format(request.system, request.benchmark,
                                request.size, request.config.name)


def load_reference(workload):
    with open(REFERENCE_DIR / workload.reference) as handle:
        return json.load(handle)


def table_ok(output, reference):
    """Whether ``output`` is the reference table, line for line."""
    return (output.rstrip("\n").split("\n")
            == reference["table"].rstrip("\n").split("\n"))


def check_results(results, reference_points):
    """Compare ``{label: RunResult or None}`` with the reference.

    Returns a list of failure descriptions, one per failed point.
    """
    from repro.sim.validate import validate
    failures = []
    for label, result in results.items():
        if result is None:
            failures.append("{}: no result in the cache".format(label))
            continue
        if fingerprint(result) != reference_points.get(label):
            failures.append("{}: result differs from the reference"
                            .format(label))
            continue
        violations = validate(result)
        if violations:
            failures.append("{}: {}".format(label, "; ".join(violations)))
    return failures


def read_back(cache_dir, requests):
    """``{label: RunResult or None}`` read from a pass's cache dir."""
    from repro.sim.engine import DiskCache, cache_key
    cache = DiskCache(cache_dir)
    cache.enabled_override = True
    out = {}
    for request in requests:
        request = request.normalized()
        out[point_label(request)] = cache.load(cache_key(request))
    return out


def check_pass(workload, output, cache_dir, reference):
    """Check one cold pass; returns ``(attempted, failures)``.

    One attempt per grid point plus one for the printed table.
    """
    requests = workload.requests()
    failures = check_results(read_back(cache_dir, requests),
                             reference["points"])
    if not table_ok(output, reference):
        failures.append("printed table differs from the reference")
    return len(requests) + 1, failures


def record():
    """Run each reference's command once and write its reference file."""
    require_program()
    done = set()
    for workload in WORKLOADS.values():
        if workload.reference in done:
            continue
        done.add(workload.reference)
        work = make_work_dir("record")
        try:
            args = workload.cli_args()
            proc = subprocess.run(cli_command(args), env=program_env(work),
                                  capture_output=True, text=True,
                                  check=True)
            results = read_back(work, workload.requests())
            missing = [label for label, r in results.items() if r is None]
            if missing:
                raise RuntimeError("no cached result for " + ", ".join(
                    missing))
            payload = {
                "command": ["fusion-sim"] + args,
                "table": proc.stdout,
                "points": {label: fingerprint(result)
                           for label, result in results.items()},
            }
            REFERENCE_DIR.mkdir(exist_ok=True)
            with open(REFERENCE_DIR / workload.reference, "w") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print("wrote", REFERENCE_DIR / workload.reference)
        finally:
            remove_work_dir(work)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/check.py --record")
    sys.exit(record())
