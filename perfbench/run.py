"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload's ``fusion-sim`` command in fresh
processes and reports the end-to-end metrics; ``--trace 1`` runs it in
process under span wrappers and reports the per-layer metrics.  Both
check every output against the recorded reference.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 2 (and no result
line) when the checkout holds no program to measure.
"""

import argparse
import json
import os
import pathlib
import signal
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench.common import (SetupError, clean_environ,  # noqa: E402
                              provenance, require_program)
from perfbench.workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics (``--trace 0``) and their units, in print order.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("cache_mb", "MB"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _log(line):
    print(line, flush=True)


def _terminate(signum, _frame):
    # Turn SIGTERM into an exit, so ``finally`` blocks stop the child
    # processes and remove the scratch directories.
    sys.exit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    keep = clean_environ()
    for key in set(os.environ) - set(keep):
        del os.environ[key]
    try:
        require_program()
    except SetupError as exc:
        print("perfbench: {}".format(exc), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        from perfbench import traced
        units = traced.metric_units()
        outcome = traced.run(workload, args.seconds, _log)
    else:
        from perfbench import timed
        units = END_TO_END
        outcome = timed.run(workload, args.seconds, _log)

    attempted, failed = outcome["attempted"], outcome["failed"]
    _log("workload {} (seed {}, trace {}): {}".format(
        workload.name, args.seed, args.trace,
        " ".join(outcome["command"])))
    for name, unit in units:
        _log("  {:<32s} {:>16.6g} {}".format(
            name, outcome["metrics"][name], unit))
    _log("  {} of {} checks failed".format(failed, attempted))
    _log(json.dumps({"provenance": provenance(outcome["run_order"],
                                              outcome["summaries"])}))
    _log(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": outcome["metrics"][name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
