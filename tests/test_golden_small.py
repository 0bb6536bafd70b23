"""Small-size full-RunResult golden gate.

The tiny goldens (``test_golden.py``, ``test_golden_full.py``) run
traces so short that most access runs and steady-state windows never
form.  This gate pins every counter of the four evaluated systems on
three kernels at ``--size small``, where the accelerator's access runs
are long and its L0X/L1X serve thousands of ops in steady state.  The
baseline was recorded while the simulator still served such runs
through bulk fast paths; the per-op interpreter must reproduce it bit
for bit: cycles, ``repr`` of the total energy and every stats counter.

To regenerate after an intentional model change:

    python -c "import tests.test_golden_small as g; g.regenerate()"
"""

import json
import pathlib

import pytest

import repro

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_small.json"

SYSTEMS = ("SCRATCH", "SHARED", "FUSION", "FUSION-Dx")
BENCHMARKS = ("fft", "adpcm", "filter")


def current(system, bench):
    result = repro.run(system, bench, "small")
    return {
        "accel_cycles": result.accel_cycles,
        "total_cycles": result.total_cycles,
        "energy_pj": repr(result.energy.total_pj),
        "stats": {name: repr(value)
                  for name, value in sorted(result.stats.items())},
    }


def load_golden():
    with open(GOLDEN_PATH) as fileobj:
        return json.load(fileobj)


def regenerate():
    golden = {}
    for bench in BENCHMARKS:
        for system in SYSTEMS:
            golden["{}:{}".format(system, bench)] = current(system, bench)
    with open(GOLDEN_PATH, "w") as fileobj:
        json.dump(golden, fileobj, indent=1, sort_keys=True)
        fileobj.write("\n")


def test_golden_small_file_is_complete():
    assert len(load_golden()) == len(SYSTEMS) * len(BENCHMARKS)


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("bench", BENCHMARKS)
def test_small_result_matches_golden(system, bench):
    golden = load_golden()["{}:{}".format(system, bench)]
    measured = current(system, bench)
    assert measured == golden, (
        "small-size RunResult drifted from the recorded baseline "
        "(regenerate only for intentional model changes)")
