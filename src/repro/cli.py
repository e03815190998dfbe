"""Command-line interface: ``python -m repro <command>``.

Exposes the library's main entry points without writing Python:

* ``repro list``                      — workloads and mechanisms
* ``repro profile WORKLOAD...``       — characterise workload traces
* ``repro run WORKLOAD``              — one comparison on one workload
* ``repro fig1|fig2|fig3|fig6|fig7|fig8|fig9|fig10|table1|table2|table3``
                                      — regenerate a paper artefact
* ``repro design``                    — registered-mechanism design-space
                                        comparison (paper + hybrids)
* ``repro sweep [ARTEFACT...]``       — regenerate several artefacts
                                        through one runner/cache
* ``repro energy WORKLOAD``           — the Section 5.3 energy view
* ``repro trace synth|import|export|info``
                                      — columnar trace-store utilities
                                        (synthesise to a file, import
                                        tracehm TSV / v1 / text traces,
                                        export, inspect headers)
* ``repro lint``                      — project-invariant static
                                        analysis

Sizing flags (``--scale/--length/--seed/--workloads``) mirror the
``REPRO_*`` environment variables used by the benchmark harness, and the
execution flags (``--jobs/--cache-dir/--no-cache``) mirror
``REPRO_JOBS``/``REPRO_CACHE_DIR``/``REPRO_NO_CACHE``.  Artefact tables
go to stdout and are byte-identical regardless of job count or cache
state; the runner's hit-rate summary goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from .analysis.sanitize import SANITIZE_ENV_VAR
from .experiments import (
    ExperimentConfig,
    format_table1,
    format_table2,
    format_table3,
    run_comparison,
    run_design_space,
    run_fig10,
    run_fig6,
    run_fig7,
    run_fig9,
    run_oracle_figures,
    trace_for,
)
from .mechanisms import get_mechanism, mechanism_names
from .runner import (
    NO_CACHE_ENV_VAR,
    ProgressTracker,
    ResultCache,
    SweepRunner,
    set_default_runner,
)
from .system.energy import report_for
from .system.simulator import (
    KERNEL_ENV_VAR,
    KERNEL_KINDS,
    MANAGER_KINDS,
    build_manager,
    reference_simulate,
    simulate,
)
from .trace.analysis import compare_profiles, profile_trace
from .trace.workloads import workload_names

ARTEFACTS = (
    "fig1", "fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10",
    "table1", "table2", "table3",
    # beyond the paper: registered-mechanism design-space comparison
    "design",
)


def _shared_flags(suppress: bool) -> argparse.ArgumentParser:
    """The sizing/execution flags, as a reusable parent parser.

    The root parser carries the real defaults; every subcommand carries
    a ``SUPPRESS``-defaulted copy, so `repro --length N fig8` and
    `repro fig8 --length N` both work: a subparser writes a value into
    the namespace only when the flag was actually given after the
    subcommand (argparse re-copies subparser defaults over
    parent-parsed values otherwise).
    """

    def default(value):
        return argparse.SUPPRESS if suppress else value

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--scale", type=int, default=default(32),
                        help="capacity divisor vs the paper machine (default 32)")
    shared.add_argument("--length", type=int, default=default(250_000),
                        help="trace length in requests (default 250000)")
    shared.add_argument("--seed", type=int, default=default(1), help="root seed")
    shared.add_argument("--workloads", default=default(""),
                        help="comma-separated workload subset (default: all)")
    shared.add_argument("--jobs", type=int, default=default(None),
                        help="parallel sweep workers "
                             "(default: REPRO_JOBS or CPU count)")
    shared.add_argument("--cache-dir", default=default(None),
                        help="result-cache directory "
                             "(default: REPRO_CACHE_DIR or ~/.cache/repro)")
    shared.add_argument("--no-cache", action="store_true", default=default(False),
                        help="bypass the on-disk result cache")
    shared.add_argument("--kernel", choices=KERNEL_KINDS, default=default(None),
                        help="replay kernel: fast (default) or reference; "
                             "mirrors REPRO_KERNEL")
    shared.add_argument("--sanitize", action="store_true", default=default(False),
                        help="run with the runtime invariant checker "
                             "(repro.analysis.sanitize); mirrors REPRO_SANITIZE")
    return shared


def _build_parser() -> argparse.ArgumentParser:
    shared = _shared_flags(suppress=True)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MemPod (HPCA 2017) reproduction toolkit",
        parents=[_shared_flags(suppress=False)],
    )

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and mechanisms", parents=[shared])

    profile = sub.add_parser(
        "profile", help="characterise workload traces", parents=[shared]
    )
    profile.add_argument("names", nargs="+", help="workload names")
    profile.add_argument(
        "--replay", default="", metavar="KINDS",
        help="also profile replay performance: comma-separated mechanism "
             "kinds run under both kernels, reporting records/s, speedup, "
             "and result equality",
    )
    profile.add_argument(
        "--cprofile", type=int, default=0, metavar="N",
        help="with --replay: cProfile the fast-kernel replay and print "
             "the top N functions by cumulative time",
    )

    run_cmd = sub.add_parser(
        "run", help="compare mechanisms on one workload", parents=[shared]
    )
    run_cmd.add_argument(
        "name", nargs="?", default=None,
        help="workload name (omit when replaying a file via --trace)",
    )
    run_cmd.add_argument(
        "--mechanisms", default="tlm,mempod,thm,cameo,hbm-only",
        help="comma-separated mechanism list",
    )
    run_cmd.add_argument(
        "--trace", default=None, metavar="FILE", dest="trace_file",
        help="replay a trace file instead of synthesising the workload "
             "(.mpt columnar / .bin v1 / .txt text / .tsv tracehm)",
    )

    energy = sub.add_parser(
        "energy", help="energy comparison on one workload", parents=[shared]
    )
    energy.add_argument("name", help="workload name")

    trace_cmd = sub.add_parser(
        "trace", help="columnar trace-store utilities", parents=[shared]
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_action", required=True)
    synth = trace_sub.add_parser(
        "synth", parents=[shared],
        help="synthesise a workload trace straight to a columnar file",
    )
    synth.add_argument("workload", help="workload name")
    synth.add_argument("--out", "-o", required=True, metavar="FILE",
                       help="destination .mpt file")
    importer = trace_sub.add_parser(
        "import", parents=[shared],
        help="convert an external trace (tracehm TSV, v1 binary, text) "
             "to the columnar format",
    )
    importer.add_argument("src", help="source trace file")
    importer.add_argument("--out", "-o", required=True, metavar="FILE",
                          help="destination .mpt file")
    importer.add_argument(
        "--format", choices=("auto", "tsv", "bin", "txt", "mpt"),
        default="auto", dest="trace_format",
        help="source format (default: inferred from the extension)",
    )
    importer.add_argument(
        "--tick-ps", type=int, default=None, metavar="PS",
        help="TSV only: picoseconds per cnt tick (default 1000)",
    )
    importer.add_argument(
        "--page-bytes", type=int, default=None, metavar="N",
        help="TSV only: page size to record in the header "
             "(default: the MemPod 2 KB page)",
    )
    importer.add_argument("--name", default="", help="trace name to record")
    export = trace_sub.add_parser(
        "export", parents=[shared],
        help="convert a trace file to .txt, .bin, or .mpt by extension",
    )
    export.add_argument("src", help="source trace file")
    export.add_argument("--out", "-o", required=True, metavar="FILE",
                        help="destination file (.txt / .bin / .mpt)")
    info = trace_sub.add_parser(
        "info", parents=[shared], help="print a columnar trace's header"
    )
    info.add_argument("file", help=".mpt file to inspect")

    for artefact in ARTEFACTS:
        sub.add_parser(
            artefact, help=f"regenerate the paper's {artefact}", parents=[shared]
        )

    sweep = sub.add_parser(
        "sweep", help="regenerate several artefacts through one runner",
        parents=[shared],
    )
    sweep.add_argument(
        "artefacts", nargs="*", metavar="ARTEFACT",
        help=f"artefacts to run (default: all of {', '.join(ARTEFACTS)})",
    )

    lint = sub.add_parser(
        "lint",
        help="project-invariant static analysis and the "
             "runtime-annotation check",
        parents=[shared],
    )
    lint.add_argument(
        "--external", action="store_true", default=False,
        help="also run ruff and mypy when installed (CI installs both; "
             "they are skipped with a notice otherwise)",
    )
    lint.add_argument(
        "--deep", action="store_true", default=False,
        help="also run the cache-key checker over everything simulate() reaches",
    )
    lint.add_argument(
        "--json", action="store_true", default=False, dest="as_json",
        help="emit findings as JSON lines (no summary line)",
    )

    return parser


def _config(args: argparse.Namespace) -> ExperimentConfig:
    subset = tuple(n.strip() for n in args.workloads.split(",") if n.strip())
    return ExperimentConfig(
        scale=args.scale, length=args.length, seed=args.seed, workloads=subset
    )


def _build_runner(args: argparse.Namespace) -> SweepRunner:
    """Resolve the runner from flags, falling back to the environment."""
    cache: Optional[ResultCache] = None
    if not args.no_cache and not os.environ.get(NO_CACHE_ENV_VAR):
        cache = ResultCache(args.cache_dir)  # None -> env/default directory
    return SweepRunner(jobs=args.jobs, cache=cache, tracker=ProgressTracker())


def _cmd_list() -> str:
    lines = ["workloads:"]
    names = workload_names()
    lines.append("  homogeneous: " + ", ".join(names[:15]))
    lines.append("  mixed:       " + ", ".join(names[15:]))
    lines.append("mechanisms (canonical):")
    for kind in MANAGER_KINDS:
        lines.append(f"  {kind:<10} {get_mechanism(kind).summary}")
    extras = [n for n in mechanism_names() if n not in MANAGER_KINDS]
    if extras:
        lines.append("mechanisms (registered hybrids):")
        for kind in extras:
            lines.append(f"  {kind:<10} {get_mechanism(kind).summary}")
    lines.append("artefacts:    " + ", ".join(ARTEFACTS))
    return "\n".join(lines)


def _cmd_profile(config: ExperimentConfig, names: Sequence[str]) -> str:
    profiles = [profile_trace(trace_for(config, name)) for name in names]
    return compare_profiles(profiles)


def _cmd_profile_replay(
    config: ExperimentConfig,
    names: Sequence[str],
    kinds: Sequence[str],
    cprofile_top: int,
) -> str:
    """Replay-performance view: per-phase records/s under both kernels.

    For every (workload, mechanism) pair, replays the trace once with
    the reference loop and once with the fast kernel, reports throughput
    and speedup, and checks the two results for field-for-field equality
    (an on-line rerun of the differential suite's invariant).
    """
    import time
    from dataclasses import asdict

    from . import kernel as _kernel  # noqa: F401 -- pay the one-time import
    # (and numpy's) before the clocks start, not inside the first timing.

    geometry = config.geometry
    lines = []
    profiled = None  # (trace, manager factory) for the optional cProfile pass
    for name in names:
        start = time.perf_counter()
        trace = trace_for(config, name)
        build_seconds = time.perf_counter() - start
        records = len(trace)
        lines.append(
            f"{name}: {records:,} records, trace build "
            f"{records / build_seconds:,.0f} records/s"
        )
        lines.append(
            f"  {'mechanism':<10} {'reference rec/s':>16} {'fast rec/s':>12} "
            f"{'speedup':>8} {'results':>9}"
        )
        for kind in kinds:
            params = config.hma_params() if kind == "hma" else {}

            def build():
                return build_manager(kind, geometry, **params)

            start = time.perf_counter()
            reference = reference_simulate(trace, build())
            reference_seconds = time.perf_counter() - start
            start = time.perf_counter()
            fast_manager = build()
            fast = simulate(trace, fast_manager, kernel="fast")
            fast_seconds = time.perf_counter() - start
            equal = asdict(reference) == asdict(fast)
            lines.append(
                f"  {kind:<10} {records / reference_seconds:>16,.0f} "
                f"{records / fast_seconds:>12,.0f} "
                f"{reference_seconds / fast_seconds:>7.2f}x "
                f"{'identical' if equal else 'DIVERGED':>9}"
            )
            # How contended was this cell: which service engine the
            # batched path actually used (fast-path services are the
            # uncounted remainder of stats.served).
            paths = fast_manager.memory.merged_service_paths()
            lines.append(
                f"             batched services: "
                f"closed-form {paths.closed_form_served:,}, "
                f"scan {paths.scan_served:,}, "
                f"scalar-fallback {paths.scalar_fallback_served:,}"
            )
            if profiled is None:
                profiled = (trace, build)
    if cprofile_top and profiled is not None:
        import cProfile
        import io
        import pstats

        trace, build = profiled
        profiler = cProfile.Profile()
        manager = build()
        profiler.enable()
        simulate(trace, manager, kernel="fast")
        profiler.disable()
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.strip_dirs().sort_stats("cumulative").print_stats(cprofile_top)
        lines.append("")
        lines.append(buffer.getvalue().rstrip())
    return "\n".join(lines)


def _load_trace_file(
    path: str,
    fmt: str = "auto",
    name: str = "",
    page_bytes: Optional[int] = None,
    tick_ps: Optional[int] = None,
):
    """Open a trace file, inferring the format from its extension.

    ``.mpt`` opens zero-copy (memory-mapped when numpy is available);
    the other formats load eagerly.  ``--format`` overrides inference
    for files with unconventional extensions.
    """
    from pathlib import Path

    from .trace.io import load_binary, load_text
    from .trace.record import PAGE_BYTES
    from .trace.store import DEFAULT_TSV_TICK_PS, import_tracehm_tsv, open_columnar

    if fmt == "auto":
        suffix = Path(path).suffix.lower()
        fmt = {".mpt": "mpt", ".bin": "bin", ".tsv": "tsv", ".txt": "txt"}.get(
            suffix, ""
        )
        if not fmt:
            raise SystemExit(
                f"repro: cannot infer trace format from {path!r} "
                "(expected .mpt/.bin/.txt/.tsv); pass --format"
            )
    if fmt == "mpt":
        return open_columnar(path, name=name)
    if fmt == "bin":
        return load_binary(path, name=name)
    if fmt == "txt":
        return load_text(path, name=name)
    return import_tracehm_tsv(
        path,
        name=name,
        page_bytes=PAGE_BYTES if page_bytes is None else page_bytes,
        tick_ps=DEFAULT_TSV_TICK_PS if tick_ps is None else tick_ps,
    )


def _cmd_trace(config: ExperimentConfig, args: argparse.Namespace) -> str:
    from .trace.io import (
        columnar_size,
        read_columnar_header,
        save_binary,
        save_columnar,
        save_text,
    )

    action = args.trace_action
    if action == "synth":
        from .trace.interleave import build_trace
        from .trace.workloads import get_workload

        trace = build_trace(
            get_workload(args.workload), config.geometry,
            length=config.length, seed=config.seed,
        ).trace
        save_columnar(trace, args.out)
        info = read_columnar_header(args.out)
        return (
            f"wrote {args.out}: {info.count:,} records, "
            f"page_bytes {info.page_bytes}, {columnar_size(info.count):,} bytes"
        )
    if action == "import":
        trace = _load_trace_file(
            args.src, args.trace_format, args.name, args.page_bytes, args.tick_ps
        )
        save_columnar(trace, args.out)
        return (
            f"imported {args.src} -> {args.out}: {len(trace):,} records, "
            f"page_bytes {trace.page_bytes}"
        )
    if action == "export":
        from pathlib import Path

        trace = _load_trace_file(args.src)
        suffix = Path(args.out).suffix.lower()
        if suffix == ".txt":
            save_text(trace, args.out)
        elif suffix == ".bin":
            save_binary(trace, args.out)
        elif suffix == ".mpt":
            save_columnar(trace, args.out)
        else:
            raise SystemExit(
                f"repro trace export: unsupported destination {args.out!r} "
                "(expected .txt, .bin, or .mpt)"
            )
        return f"exported {args.src} -> {args.out}: {len(trace):,} records"
    # info
    info = read_columnar_header(args.file)
    lines = [
        f"path:        {args.file}",
        f"records:     {info.count:,}",
        f"page_bytes:  {info.page_bytes}",
        f"max_address: {info.max_address}",
        f"stride:      {info.stride:,} records/plane",
        f"file bytes:  {columnar_size(info.count):,}",
    ]
    if info.count:
        trace = _load_trace_file(args.file, fmt="mpt")
        first = trace.records[0]
        last = trace.records[-1]
        lines.append(f"span:        {first[0]:,} .. {last[0]:,} ps")
    return "\n".join(lines)


def _cmd_run(
    config: ExperimentConfig,
    name: Optional[str],
    mechanisms: Sequence[str],
    trace_file: Optional[str] = None,
) -> str:
    geometry = config.geometry
    if trace_file is not None:
        trace = _load_trace_file(trace_file, name=name or "")
    else:
        trace = trace_for(config, name)
    lines = [f"{'mechanism':<10} {'AMMAT':>10} {'vs tlm':>8} {'fast':>6} {'migrations':>11}"]
    baseline_ns: Optional[float] = None
    for mechanism in mechanisms:
        params = config.hma_params() if mechanism == "hma" else {}
        manager = build_manager(mechanism, geometry, **params)
        result = simulate(trace, manager)
        if baseline_ns is None:
            baseline_ns = result.ammat_ns
        lines.append(
            f"{mechanism:<10} {result.ammat_ns:>8.1f}ns "
            f"{result.ammat_ns / baseline_ns:>8.2f} "
            f"{result.fast_service_fraction:>6.0%} {result.migrations:>11,}"
        )
    return "\n".join(lines)


def _cmd_energy(config: ExperimentConfig, name: str) -> str:
    geometry = config.geometry
    trace = trace_for(config, name)
    lines = [f"{'mechanism':<10} {'demand uJ':>10} {'migr uJ':>9} {'interconnect uJ':>16} {'total uJ':>9}"]
    for mechanism in ("mempod", "thm", "cameo"):
        manager = build_manager(mechanism, geometry)
        simulate(trace, manager)
        report = report_for(manager)
        lines.append(
            f"{mechanism:<10} {report.demand_uj:>10.1f} "
            f"{report.migration_memory_uj:>9.1f} "
            f"{report.migration_interconnect_uj:>16.2f} {report.total_uj:>9.1f}"
        )
    lines.append(
        "(pod-local migration pays the cheap on-package hop; centralised "
        "mechanisms cross the global switch — paper Section 5.3)"
    )
    return "\n".join(lines)


def _cmd_artefact(config: ExperimentConfig, artefact: str) -> str:
    if artefact in ("fig1", "fig2", "fig3"):
        figures = run_oracle_figures(config)
        return {
            "fig1": figures.format_fig1,
            "fig2": figures.format_fig2,
            "fig3": figures.format_fig3,
        }[artefact]()
    if artefact == "fig6":
        return run_fig6(config).format_table()
    if artefact == "fig7":
        a = run_fig7(config, epoch_us=50, counters=64)
        b = run_fig7(config, epoch_us=100, counters=128)
        return a.format_table() + "\n\n" + b.format_table()
    if artefact == "fig8":
        result = run_comparison(config)
        return result.format_table() + "\n\n" + result.format_traffic()
    if artefact == "fig9":
        return run_fig9(config).format_table()
    if artefact == "fig10":
        return run_fig10(config).format_table()
    if artefact == "design":
        result = run_design_space(config)
        return result.format_table() + "\n\n" + result.format_specs()
    if artefact == "table1":
        return format_table1()
    if artefact == "table2":
        return format_table2()
    return format_table3()


def _cmd_sweep(config: ExperimentConfig, artefacts: Sequence[str]) -> str:
    """Regenerate several artefacts back to back (one shared runner)."""
    names = list(artefacts) or list(ARTEFACTS)
    for name in names:
        if name not in ARTEFACTS:
            raise SystemExit(
                f"repro sweep: unknown artefact {name!r} "
                f"(choose from {', '.join(ARTEFACTS)})"
            )
    sections = []
    for name in names:
        sections.append(f"== {name} ==\n" + _cmd_artefact(config, name))
    return "\n\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "lint":
        from .analysis.lint import run_lint

        return run_lint(
            external=args.external,
            deep=args.deep,
            as_json=args.as_json,
        )
    config = _config(args)
    if args.kernel:
        # Ambient switch: resolve_kernel() consults the environment, so
        # this one assignment covers in-process simulate() calls and the
        # sweep cells (whose kernel is captured at construction).
        os.environ[KERNEL_ENV_VAR] = args.kernel
    if args.sanitize:
        # Same ambient pattern as --kernel: resolve_sanitize() consults
        # the environment, covering simulate() calls and sweep cells.
        os.environ[SANITIZE_ENV_VAR] = "1"

    if args.command == "list":
        print(_cmd_list())
        return 0
    if args.command == "profile":
        kinds = [k.strip() for k in args.replay.split(",") if k.strip()]
        if kinds:
            print(_cmd_profile_replay(config, args.names, kinds, args.cprofile))
        else:
            print(_cmd_profile(config, args.names))
        return 0
    if args.command == "run":
        if args.name is None and args.trace_file is None:
            raise SystemExit(
                "repro run: provide a workload name or --trace FILE"
            )
        mechanisms = [m.strip() for m in args.mechanisms.split(",") if m.strip()]
        print(_cmd_run(config, args.name, mechanisms, args.trace_file))
        return 0
    if args.command == "energy":
        print(_cmd_energy(config, args.name))
        return 0
    if args.command == "trace":
        print(_cmd_trace(config, args))
        return 0

    # Artefact commands fan their sweep cells out through the runner.
    runner = _build_runner(args)
    previous = set_default_runner(runner)
    try:
        if args.command == "sweep":
            print(_cmd_sweep(config, args.artefacts))
        else:
            print(_cmd_artefact(config, args.command))
    finally:
        set_default_runner(previous)
    if runner.tracker.total:
        print(runner.tracker.summary(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
