"""Child-process steps of the benchmark, run by ``run.py``.

``inputs`` generates a workload's inputs (untimed, and in its own process
so the measuring process's peak RSS is not the generator's).
``setup`` times one cold set-up: from this script's first statement
through ``import repro``, trace acquisition and manager construction;
it then calibrates the host (:mod:`calibrate`) on the CPU it ran on and
prints the seconds and the host factor on its last line.

    python3 perfbench/probe.py setup --workload churn --seed 1 --work DIR
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=("inputs", "setup"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    from cells import WORKLOADS  # imports repro, repro.kernel and numpy

    workload = WORKLOADS[args.workload]
    if args.step == "inputs":
        workload.make_inputs(args.work, args.seed)
    else:
        workload.setup(args.work, args.seed)
        seconds = time.perf_counter() - _START
        import calibrate

        print(seconds, calibrate.factor())


if __name__ == "__main__":
    main()
