"""The simulator's benchmark: end-to-end numbers, or per-layer numbers.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each run:

1. generates the workload's inputs from ``--seed`` in a child process;
2. sets up in this process and repeats the workload's pass until
   ``--seconds`` of passes have been measured (at least ``MIN_PASSES``),
   sampling the host's speed throughout (:mod:`calibrate`);
3. between the first passes, times the set-up (``import repro`` through
   manager construction) in ``SETUP_SLOTS`` slots of ``SETUP_PER_SLOT``
   fresh child processes each, also calibrated;
4. checks every replay against the reference loop's result: recorded
   digests for the default seed, an untimed reference pass otherwise;
5. with ``--trace 1``, instead of the end-to-end metrics: replays one
   more pass with every layer boundary wrapped, replays every cell on
   the reference loop and on the numpy-free pure-Python kernels, and
   reports per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run exits 1 when any
result differs from the reference loop's, 2 when the program is absent.
Scratch files live in ``.perfbench_work/`` and are removed at exit; the
span dump and the full report stay in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"
DIGESTS = HERE / "reference_digests.json"

DEFAULT_SEED = 1
#: set-up is probed in slots spread over the run, so its median is not
#: taken in one spell of the host's state
SETUP_SLOTS = 5
SETUP_PER_SLOT = 3
MIN_PASSES = 3
#: per pass, each mechanism replays until this many seconds are timed,
#: so a 0.15 s replay is not timed in one moment of the host's state
BLOCK_SECONDS = 1.0
CHILD_TIMEOUT_S = 150

#: variables that would change what the program runs; the benchmark
#: measures the defaults
_PROGRAM_ENV = (
    "REPRO_KERNEL", "REPRO_SANITIZE", "REPRO_NO_TRACE_STORE",
    "REPRO_TRACE_WINDOW", "REPRO_NO_CACHE", "REPRO_JOBS", "REPRO_SCALE",
    "REPRO_LENGTH", "REPRO_SEED", "REPRO_WORKLOADS",
)

END_TO_END = [
    ("setup_s", "s"),
    ("records_per_s", "records/s"),
    ("tlm_rec_per_s", "records/s"),
    ("mempod_rec_per_s", "records/s"),
    ("thm_rec_per_s", "records/s"),
    ("hma_rec_per_s", "records/s"),
    ("cameo_rec_per_s", "records/s"),
    ("peak_rss_mb", "MB"),
    ("mempod_ammat_vs_tlm", "ratio"),
    ("exact_frac", "fraction"),
]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference", action="store_true",
        help="store the reference loop's digests for --seed and exit",
    )
    return parser.parse_args(argv)


def _child(step: str, args, work: Path) -> str:
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), step, "--workload",
         args.workload, "--seed", str(args.seed), "--work", str(work)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"probe {step} failed:\n{done.stderr}")
    return done.stdout


def _host() -> dict:
    """Python, numpy, CPU model and core count of the measuring host."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def _mechanism_seconds(replays, mechanism):
    """(records, seconds) over the built replays of ``mechanism``."""
    mine = [r for r in replays if r.mechanism == mechanism and r.dispatch != "cache-hit"]
    return sum(r.records for r in mine), sum(r.seconds for r in mine)


def _setup_slot(args, work: Path) -> list:
    """``SETUP_PER_SLOT`` cold set-ups in fresh processes, as
    ``(host seconds, host factor)``; each process calibrates the host
    itself, since it need not run on this process's CPU."""
    return [
        tuple(float(x) for x in _child("setup", args, work).split()[-2:])
        for _ in range(SETUP_PER_SLOT)
    ]


def end_to_end(passes, setup_probes, peak_rss_mb, attempted, failed, mechanisms):
    """Times are calibrated seconds (see :mod:`calibrate`), summed across
    the whole timed body: the shared host's speed drifts within a run
    and between runs, and the samples taken inside each replay divide
    that drift out."""
    out = {
        "setup_s": statistics.median(s / f for s, f in setup_probes),
        "records_per_s": (sum(p.records for p in passes)
                          / sum(p.calibrated_seconds for p in passes)),
        "peak_rss_mb": peak_rss_mb,
        "exact_frac": (attempted - failed) / attempted,
    }
    replays = [r for p in passes for r in p.replays if r.dispatch != "cache-hit"]
    for m in mechanisms:
        mine = [r for r in replays if r.mechanism == m]
        seconds = sum(r.calibrated_seconds for r in mine)
        out[f"{m}_rec_per_s"] = sum(r.records for r in mine) / seconds if seconds else 0.0
    ammat = {
        (r.label.split("/")[0], r.mechanism): r.result.ammat_ns
        for r in passes[0].replays
        if r.result is not None and r.dispatch != "cache-hit"
    }
    logs = [
        math.log(ammat[trace, "mempod"] / ammat[trace, "tlm"])
        for trace, mech in ammat
        if mech == "tlm" and (trace, "mempod") in ammat and ammat[trace, "tlm"]
    ]
    out["mempod_ammat_vs_tlm"] = math.exp(sum(logs) / len(logs)) if logs else 0.0
    return out


def _traced(cells, workload, state, passes):
    """One wrapped pass plus the reference and pure legs of every cell.

    Returns ``(metrics, replays, failures, reference digests, meta)``.
    """
    import layers

    untraced_pass_s = statistics.median(p.seconds for p in passes)
    tracer = layers.new_tracer()
    with layers.installed(tracer):
        traced = workload.run_pass(state, region=lambda: tracer.span(layers.BODY))
    metrics = layers.traced_metrics(tracer, traced, untraced_pass_s)
    OUT_ROOT.mkdir(exist_ok=True)
    tracer.dump(OUT_ROOT / f"spans-{workload.name}-seed{state['seed']}.json")

    reference_leg, pure_leg = [], []
    for cell in workload.cells(state):
        reference_leg.append(cells.replay_reference(cell))
        pure_leg.append(cells.replay_pure(cell))
    untraced = [r for p in passes for r in p.replays if r.dispatch != "cache-hit"]
    for m in cells.MECHANISMS:
        ref = [r.seconds for r in reference_leg if r.mechanism == m]
        pure_s = sum(r.seconds for r in pure_leg if r.mechanism == m)
        default = [r.seconds for r in untraced if r.mechanism == m]
        # the default kernel's mean time for one replay of each of m's cells
        default_s = sum(default) * len(ref) / len(default)
        metrics[f"kernel.{m}.speedup_vs_reference"] = sum(ref) / default_s
        metrics[f"kernel.{m}.pure_over_numpy"] = default_s / pure_s
    meta = {
        "tracing_overhead_s": metrics["bench.tracing_overhead_s"],
        "traced_dispatch": tracer.dispatch_reasons,
        "pure_dispatch": {r.label: r.dispatch for r in pure_leg},
    }
    reference = {r.label: r.digest for r in reference_leg}
    return metrics, traced.replays + pure_leg, traced.failures, reference, meta


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the simulator's sources are missing ({SRC})", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for var in _PROGRAM_ENV:
        os.environ.pop(var, None)
    os.environ["REPRO_TRACE_DIR"] = str(work / "traces")
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    sys.path.insert(0, str(SRC))
    import cells
    import gate

    if args.workload not in cells.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(cells.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = cells.WORKLOADS[args.workload]
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}

    _child("inputs", args, work)
    if args.record_reference:
        state = workload.setup(work, args.seed)
        recorded.setdefault(args.workload, {})[str(args.seed)] = (
            cells.reference_digests(workload.cells(state))
        )
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        return 0
    state = workload.setup(work, args.seed)

    slots_wanted = 0 if args.trace else SETUP_SLOTS
    setup_probes, passes = [], []
    measured = 0.0
    while len(passes) < MIN_PASSES or measured < args.seconds:
        if len(setup_probes) < slots_wanted * SETUP_PER_SLOT:
            setup_probes += _setup_slot(args, work)
        gc.collect()  # start every pass from the same heap, untimed
        start = time.perf_counter()
        # The traced run compares host times of passes, traced and not,
        # with each other and with the reference leg: none is calibrated.
        with contextlib.nullcontext() if args.trace else calibrate.HostSampler() as sampler:
            passes.append(
                workload.run_pass(state, block_seconds=BLOCK_SECONDS, sampler=sampler)
            )
        measured += time.perf_counter() - start
    while len(setup_probes) < slots_wanted * SETUP_PER_SLOT:
        setup_probes += _setup_slot(args, work)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    replays = [r for p in passes for r in p.replays]
    failures = [f for p in passes for f in p.failures]
    built = [r for r in replays if r.dispatch != "cache-hit"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "host": _host(),
        "pass_seconds": [p.seconds for p in passes],
        "pass_calibrated_seconds": [p.calibrated_seconds for p in passes],
        "pass_mechanism_seconds": [
            {m: _mechanism_seconds(p.replays, m)[1] for m in cells.MECHANISMS}
            for p in passes
        ],
        "host_records_per_s": (sum(p.records for p in passes)
                               / sum(p.seconds for p in passes)),
        "host_factor_mean": sum(r.host_factor for r in built) / len(built),
        "setup_probes": setup_probes,
        "replays": [[r.label, r.seconds, r.host_factor] for r in built],
        "dispatch": {
            r.label: r.dispatch for r in passes[0].replays if r.dispatch != "cache-hit"
        },
    }

    if args.trace:
        import layers

        metrics, more_replays, more_failures, reference, traced_meta = _traced(
            cells, workload, state, passes
        )
        replays += more_replays
        failures += more_failures
        meta.update(traced_meta)
        units = dict(layers.PER_LAYER)
    else:
        reference = recorded.get(args.workload, {}).get(str(args.seed))
        if reference is None:
            reference = cells.reference_digests(workload.cells(state))
        units = dict(END_TO_END)

    attempted, mismatches = gate.check(replays, reference)
    failures += mismatches
    failed = min(len(failures), attempted)
    if not args.trace:
        metrics = end_to_end(passes, setup_probes, peak_rss_mb, attempted, failed,
                             cells.MECHANISMS)
    meta["failures"] = failures

    report = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    OUT_ROOT.mkdir(exist_ok=True)
    (OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **report}, indent=1) + "\n"
    )
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:>16.6g} {unit}")
    print("# meta " + json.dumps(meta))
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
