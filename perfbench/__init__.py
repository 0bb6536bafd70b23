"""End-to-end and per-layer benchmark of the ``fusion-sim`` CLI.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload fig6-small-cold --seed 1 \\
        --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and modes.
"""
