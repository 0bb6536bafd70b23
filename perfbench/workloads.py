"""The benchmark's workloads: what each one runs and checks.

Every simulated input is fixed by the kernels themselves (their data is
seeded inside the kernel generators), so the program takes no seed and
``--seed`` changes nothing a workload runs.  The sweep's ``--systems``
order stays the one written here: the order sets which traces are
loaded together, and the peak RSS moved from 607 to 653 MB and the pass
time by about 10% across shuffled orders.
"""

from dataclasses import dataclass

SWEEP_SYSTEMS = ("SCRATCH", "SHARED", "FUSION", "FUSION-Dx")
SWEEP_BENCHMARKS = ("fft", "disparity", "adpcm")
SWEEP_L1X_KB = (64, 256)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # "fig6" or "sweep"
    jobs: int
    size: str
    reference: str      # file under perfbench/reference/
    why: str
    #: Listed in BENCHMARK.json (benchmark runs use it).  fig6-small-cold-j2
    #: is not: its pool keeps both vCPUs of a 2-vCPU host busy (1.7 CPU
    #: seconds per second), so its wall time follows how much of the
    #: second vCPU the shared host gives, and its wall_s spread over ten
    #: runs reached 0.31, above the largest bound allowed.  Run it by hand.
    in_benchmark: bool = True

    @property
    def prepared(self):
        """Benchmarks whose traces the set-up prepares (sweep only)."""
        return SWEEP_BENCHMARKS if self.kind == "sweep" else ()

    def cli_args(self, size=None):
        """``fusion-sim`` arguments of this workload's command at
        ``size`` (default: the workload's)."""
        size = size or self.size
        if self.kind == "fig6":
            return ["--jobs", str(self.jobs), "experiment", "fig6b",
                    "--size", size]
        return ["--jobs", str(self.jobs), "sweep",
                "--systems", ",".join(SWEEP_SYSTEMS),
                "--benchmarks", ",".join(SWEEP_BENCHMARKS),
                "--axis", "l1x_kb=" + ",".join(map(str, SWEEP_L1X_KB)),
                "--size", size]

    def requests(self, l1x_kb=SWEEP_L1X_KB):
        """Every grid point of the command as engine requests.

        Built with the same functions the CLI uses, so the requests'
        cache keys are the ones the command wrote.  ``l1x_kb`` narrows
        the sweep grid (the leave-one-out runs on one capacity).
        """
        if self.kind == "fig6":
            from repro.sim.experiments import EXPERIMENT_GRIDS
            return EXPERIMENT_GRIDS["fig6b"](self.size)
        from repro.sim.sweep import grid_points, l1x_axis
        _points, requests = grid_points(
            SWEEP_SYSTEMS, SWEEP_BENCHMARKS, [l1x_axis(*l1x_kb)],
            self.size)
        return requests

    def loo_requests(self):
        """The grid the ladder leave-one-out runs on: the whole fig6
        grid; for the sweep, its full-size FFT column at 64 kB (the
        points where invocation replay engages), which keeps a traced
        run under two minutes."""
        if self.kind == "fig6":
            return self.requests()
        return [r for r in self.requests(SWEEP_L1X_KB[:1])
                if r.benchmark == "fft"]


WORKLOADS = {w.name: w for w in (
    Workload("fig6-small-cold", "fig6", 1, "small", "fig6b-small.json",
             "Fig-6b from an empty cache at --jobs 1: kernel recording, "
             "lowering, plan compilation and trace writes, then "
             "simulation"),
    Workload("fig6-small-cold-j2", "fig6", 2, "small", "fig6b-small.json",
             "the same grid at --jobs 2: the only workload through the "
             "process pool (fan-out, IPC, per-worker prepares)",
             in_benchmark=False),
    Workload("sweep-full-prepared", "sweep", 1, "full", "sweep-full.json",
             "4 systems x fft,disparity,adpcm x L1X 64/256 kB at full "
             "size on prepared traces: simulation and trace reads"),
)}
