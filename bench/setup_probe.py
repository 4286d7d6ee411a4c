"""Set-up time of one workload in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED SCRATCH_DIR

Prints the seconds from the first statement to "first op ready": importing
``splittings`` and generating and validating the workload's inputs (for
cli-batch, writing and parsing its documents), then the median time of the
host-speed loop run just after. ``bench/run.py`` scales the first by the
second and reports the median over several probes as ``setup_s``.
"""

import time

START = time.perf_counter()

import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

CAL_RUNS = 31

if __name__ == "__main__":
    name, seed, scratch = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    try:
        workloads.build(name, seed, scratch)
        elapsed = time.perf_counter() - START
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    loop_s = sorted(hostspeed.calibrate() for _ in range(CAL_RUNS))[CAL_RUNS // 2]
    print(f"{elapsed:.9f} {loop_s:.9f}")
