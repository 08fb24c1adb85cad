"""Command-line interface: regenerate any figure of the paper.

Usage::

    python -m repro fig2  [--scale 0.1] [--ticks 4] [--seed 42]
    python -m repro fig5a --scale 1.0
    python -m repro fig7
    python -m repro scenario daytrader4 --deployment shared-copy
    python -m repro scenario daytrader4 --thp-policy khugepaged
    python -m repro hugepages --json
    python -m repro doctor daytrader4 --faults 1337:0.25
    python -m repro tables

Figures 2–5 run the page-level breakdown scenarios; Fig. 6 the PowerVM
experiment; Figs. 7–8 the consolidation sweeps.  ``--scale`` shrinks all
memory sizes proportionally (default 0.1 for interactive use; pass 1.0
for the paper's actual sizes).

Each subcommand accepts exactly the options it reads, and argparse
rejects any other.  Every shared option is declared once, on one of the
parent parsers of :func:`_option_parents`, which group the options by
the commands that read them; :data:`_COMMANDS` names the groups each
subcommand composes.  ``ScenarioSpec.from_cli_args`` decodes a
one-testbed command's namespace into a :class:`repro.config.ScenarioSpec`
— the single value object behind the whole experiment API.
``--thp-policy`` / ``--hugepages`` switch the guests to transparent huge
pages (KSM then splits huge blocks to merge, the trade-off ``repro
hugepages`` charts).

``--faults SEED[:RATE]`` arms the fault-injection plan on the commands
that collect a dump: collection turns resilient (retry, backoff,
quarantine), the dump is cross-validated, and breakdowns carry explicit
bounds for whatever the damage made unattributable.  ``doctor`` runs one
scenario under that regime and prints the full collection + validation
reports.

``--jobs N`` (or ``REPRO_JOBS``) fans the independent cells of an
experiment grid — the two footprints behind a consolidation sweep, the
pressure arms, the huge-page curve points — out over worker processes;
results are bit-identical to serial runs.  Figure results are also
persisted in a content-addressed cache (``.repro-cache`` or
``REPRO_CACHE_DIR``), so re-running a figure, or a figure that shares
its scenario with one already run (Fig. 2 / Fig. 3(a)), is near
instant.  ``--no-cache`` bypasses it, ``--cache-stats`` reports on it,
and ``repro cache [--wipe]`` inspects or empties it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.config import THP_POLICIES, ScenarioSpec
from repro.core.experiments.consolidation import (
    run_daytrader_consolidation,
    run_specj_consolidation,
)
from repro.core.experiments.powervm import run_powervm_experiment
from repro.core.experiments.scenarios import (
    SCENARIOS,
    run,
    run_cached,
    testbed_for,
)
from repro.core.preload import CacheDeployment
from repro.exec.cache import ResultCache, default_cache
from repro.exec.stats import render_exec_stats
from repro.core.report import (
    render_java_breakdown,
    render_kv,
    render_series,
    render_vm_breakdown,
)
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.units import MiB

#: figure id -> (scenario, deployment, which breakdown to print)
_BREAKDOWN_FIGURES = {
    "fig2": ("daytrader4", CacheDeployment.NONE, "vm"),
    "fig3a": ("daytrader4", CacheDeployment.NONE, "java"),
    "fig3b": ("mixed3", CacheDeployment.NONE, "java"),
    "fig3c": ("tuscany3", CacheDeployment.NONE, "java"),
    "fig4": ("daytrader4", CacheDeployment.SHARED_COPY, "vm"),
    "fig5a": ("daytrader4", CacheDeployment.SHARED_COPY, "java"),
    "fig5b": ("mixed3", CacheDeployment.SHARED_COPY, "java"),
    "fig5c": ("tuscany3", CacheDeployment.SHARED_COPY, "java"),
}

#: The option groups every one-testbed command reads, and those of the
#: consolidation sweeps (Figs. 7-8).
_TESTBED = ("scale", "ticks", "scan-policy", "tiering", "hugepages")
_CONSOLIDATION = ("scale", "scan-policy", "jobs", "cache")

#: subcommand -> (help, the option groups it reads), in help order.
_COMMANDS = {
    **{
        figure: (f"regenerate {figure}", _TESTBED + ("profile", "cache"))
        for figure in _BREAKDOWN_FIGURES
    },
    "fig6": ("PowerVM before/after totals", ("scale",)),
    "fig7": ("DayTrader consolidation sweep", _CONSOLIDATION),
    "fig8": ("SPECjEnterprise consolidation sweep", _CONSOLIDATION),
    "tables": ("print Tables I-IV presets", ()),
    "scenario": (
        "run a custom scenario",
        _TESTBED + ("profile", "cache", "deployment"),
    ),
    "profile": (
        "run one scenario under the phase profiler and print the "
        "per-phase wall/CPU table",
        _TESTBED + ("profile", "deployment"),
    ),
    "doctor": (
        "collect one scenario resiliently and print its health reports",
        _TESTBED + ("deployment",),
    ),
    "hugepages": (
        "run the huge-page trade-off curve: bytes KSM saves by "
        "splitting huge blocks vs the translation benefit lost, "
        "across THP policies",
        ("scale", "ticks", "hugepages", "jobs", "cache", "report"),
    ),
    "pressure": (
        "run the pressure family: KSM vs compression vs ballooning "
        "vs combined on an undersized host, identical seeds",
        ("scale", "ticks", "jobs", "cache", "report"),
    ),
    "cache": ("inspect or wipe the result cache", ()),
}


def _option_parents() -> Dict[str, argparse.ArgumentParser]:
    """The shared options, each declared once on the parent parser of
    its group.

    A group holds the options that the same commands read (named after
    its first option); a subcommand composes the groups it reads, and
    parent parsers share their actions, so no option is declared twice.
    """
    parents: Dict[str, argparse.ArgumentParser] = {}

    def group(name: str):
        parents[name] = argparse.ArgumentParser(add_help=False)
        return parents[name].add_argument

    add = group("scale")
    add(
        "--scale", type=float, default=0.1,
        help="size factor for all memory quantities (1.0 = paper sizes)",
    )
    add("--seed", type=int, default=20130421)
    add = group("ticks")
    add(
        "--ticks", type=int, default=4,
        help="measurement ticks of each testbed run",
    )
    add = group("scan-policy")
    add(
        "--scan-policy",
        choices=["full", "incremental", "hybrid"],
        default="full",
        help=(
            "KSM scan policy: 'full' round-robin (the paper's setup), "
            "'incremental' dirty-log-driven, or 'hybrid' with periodic "
            "full passes"
        ),
    )
    add(
        "--faults", metavar="SEED[:RATE]", default=None,
        help=(
            "inject collection faults from this seed (optional RATE in "
            "[0,1] overrides every per-kind probability)"
        ),
    )
    add = group("tiering")
    add(
        "--tiering",
        choices=["off", "hints", "compress", "balloon", "combined"],
        default="off",
        help=(
            "working-set tiering mode for the run: feed cold-region "
            "hints to KSM, compress cold pages, balloon guests with "
            "small working sets, or all three combined"
        ),
    )
    add(
        "--thp-policy",
        choices=list(THP_POLICIES),
        default="never",
        help=(
            "transparent-huge-page policy for the guests: 'never' "
            "(all 4 KiB, the paper's setup), 'always' collapse every "
            "eligible aligned range, or 'khugepaged' collapse only "
            "working-set-hot ranges; KSM splits huge blocks on merge"
        ),
    )
    add = group("hugepages")
    add(
        "--hugepages", type=int, default=512, metavar="PAGES",
        help=(
            "huge-block size in base pages (power of two; default 512 "
            "= 2 MiB); a scenario uses it only with --thp-policy other "
            "than never"
        ),
    )
    add = group("profile")
    add(
        "--profile", metavar="PATH", default=None,
        help=(
            "profile the run per phase (build/warmup/workload/tiering/"
            "thp/scan/dump/accounting) and write the wall+CPU JSON "
            "report to PATH; profiled runs bypass the result cache"
        ),
    )
    add = group("jobs")
    add(
        "--jobs", type=int, default=None,
        help=(
            "worker processes for independent work units "
            "(default: $REPRO_JOBS, else 1 = in-process)"
        ),
    )
    add = group("cache")
    add(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache for this command",
    )
    add(
        "--cache-dir", default=None,
        help=(
            "result-cache directory (default: $REPRO_CACHE_DIR, "
            "else .repro-cache)"
        ),
    )
    add(
        "--cache-stats", action="store_true",
        help="print cache and runner statistics after the command",
    )
    add = group("deployment")
    add("name", choices=SCENARIOS)
    add(
        "--deployment",
        choices=[d.value for d in CacheDeployment],
        default="none",
    )
    add = group("report")
    add(
        "--json", action="store_true",
        help="emit the full report as JSON instead of text",
    )
    add(
        "--bench-out", metavar="PATH", default=None,
        help="also write the JSON report to this file",
    )
    return parents


def _build_parser() -> argparse.ArgumentParser:
    parents = _option_parents()
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Increasing the Transparent Page Sharing in Java' "
            "(ISPASS 2013)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        command: sub.add_parser(
            command, help=summary,
            parents=[parents[group] for group in groups],
        )
        for command, (summary, groups) in _COMMANDS.items()
    }
    commands["hugepages"].add_argument(
        "name", nargs="?", choices=SCENARIOS, default=None,
        help="restrict the curve to one scenario (default: all three)",
    )
    pressure = commands["pressure"]
    pressure.add_argument(
        "name", nargs="?", choices=SCENARIOS, default="daytrader4"
    )
    pressure.add_argument(
        "--ram-fraction", type=float, default=0.6,
        help=(
            "host RAM as a fraction of the scenario's normal sizing "
            "(< 1 creates the pressure; default 0.6)"
        ),
    )
    cache_cmd = commands["cache"]
    cache_cmd.add_argument(
        "--cache-dir", default=None,
        help="cache directory (default: $REPRO_CACHE_DIR, else .repro-cache)",
    )
    cache_cmd.add_argument(
        "--wipe", action="store_true", help="delete every cached result"
    )
    return parser


def _cache_from(args) -> Optional[ResultCache]:
    """The result cache a command should use (None = bypass)."""
    if getattr(args, "no_cache", False):
        return None
    if args.cache_dir:
        return ResultCache(root=args.cache_dir)
    return default_cache()


def _print_fault_reports(collection_report, validation_report) -> None:
    """The collection + validation tail of the one-testbed commands."""
    if collection_report is not None:
        print()
        print(collection_report.render())
    if validation_report is not None:
        print()
        print(validation_report.render())


def _scenario_result(
    args, scenario: str, deployment, cache: Optional[ResultCache]
):
    """Run a scenario spec: cached normally, direct when profiled."""
    spec = ScenarioSpec.from_cli_args(
        args, scenario=scenario, deployment=deployment
    )
    profile_path = args.profile
    if profile_path is None and args.command != "profile":
        return run_cached(spec, cache=cache)
    from repro.perf import PhaseProfiler

    profiler = PhaseProfiler()
    result = run(spec, profiler=profiler)
    print(profiler.render(
        f"phase profile: {scenario} ({deployment.value}), "
        f"scale={args.scale}"
    ))
    if profile_path is not None:
        profiler.write_json(profile_path)
        print(f"profile JSON written to {profile_path}")
    print()
    return result


def _run_breakdown_figure(
    figure: str, args, cache: Optional[ResultCache]
) -> None:
    scenario, deployment, kind = _BREAKDOWN_FIGURES[figure]
    result = _scenario_result(args, scenario, deployment, cache)
    title = (
        f"{figure}: {scenario} ({deployment.value}), scale={args.scale}"
    )
    if kind == "vm":
        print(render_vm_breakdown(result.vm_breakdown, title))
    else:
        print(render_java_breakdown(result.java_breakdown, title))
    print()
    print(result.ksm_stats)
    if args.faults is not None:
        _print_fault_reports(
            result.collection_report, result.validation_report
        )


def _run_fig6(args) -> None:
    result = run_powervm_experiment(scale=args.scale, seed=args.seed)
    cases = ["not-preloaded", "preloaded"]
    print(render_series(
        f"fig6: PowerVM usage of three guests (MB at scale {args.scale})",
        "case",
        cases,
        {
            "before sharing": [
                result.cases[c].usage_before_bytes / MiB for c in cases
            ],
            "after sharing": [
                result.cases[c].usage_after_bytes / MiB for c in cases
            ],
            "saving": [result.cases[c].saving_bytes / MiB for c in cases],
        },
    ))


def _run_consolidation(
    figure: str, args, cache: Optional[ResultCache]
) -> None:
    faults = None if args.faults is None else FaultPlan.from_spec(args.faults)
    if figure == "fig7":
        result = run_daytrader_consolidation(
            footprint_scale=args.scale, seed=args.seed, faults=faults,
            scan_policy=args.scan_policy, jobs=args.jobs, cache=cache,
        )
        unit = "req/s"
    else:
        result = run_specj_consolidation(
            footprint_scale=args.scale, seed=args.seed, faults=faults,
            scan_policy=args.scan_policy, jobs=args.jobs, cache=cache,
        )
        unit = "EjOPS"
    print(render_series(
        f"{figure}: throughput vs guest VMs ({unit})",
        "guest VMs",
        result.vm_counts,
        {
            "default": result.series("default"),
            "preloaded": result.series("preloaded"),
        },
    ))
    for label in ("default", "preloaded"):
        footprint = result.footprints[label]
        print(
            f"  {label}: R={footprint.per_vm_resident_bytes / MiB:.0f} MB, "
            f"S={footprint.per_nonprimary_saving_bytes / MiB:.0f} MB, "
            f"max acceptable VMs={result.max_acceptable_vms(label)}"
        )
    if faults is not None:
        print(
            "  (footprints measured under fault injection: R and S come "
            "from the surviving, non-quarantined VMs)"
        )


def _run_doctor(args) -> None:
    spec = ScenarioSpec.from_cli_args(args, scenario=args.name)
    # Measured directly: doctor inspects the dump, which no (cached)
    # ScenarioResult carries.
    result = testbed_for(spec).measure(faults=spec.faults)
    mode = (
        "clean collection" if args.faults is None
        else f"faults {args.faults}"
    )
    print(f"doctor: {args.name} ({args.deployment}), {mode}")
    _print_fault_reports(result.dump.collection, result.validation)
    if result.validation is None:
        # No fault plan: still run the cross-layer checks on the dump.
        from repro.core.validate import validate_dump

        print()
        print(validate_dump(result.dump).render())
    print()
    print(render_vm_breakdown(
        result.vm_breakdown, f"{args.name} breakdown under this dump"
    ))


def _run_tables() -> None:
    from repro.config import (
        DAYTRADER_JVM,
        INTEL_HOST,
        POWER_HOST,
        SPECJ_WORKLOAD,
        TUSCANY_JVM,
    )
    from repro.core.categories import TABLE_IV_CATEGORIES
    from repro.units import GiB

    print(render_kv(
        "Table I: physical machines",
        [
            ("Intel host", f"{INTEL_HOST.name}, "
                           f"{INTEL_HOST.ram_bytes // GiB} GB, KVM"),
            ("POWER host", f"{POWER_HOST.name}, "
                           f"{POWER_HOST.ram_bytes // GiB} GB, PowerVM"),
        ],
    ))
    print(render_kv(
        "Table III highlights",
        [
            ("DayTrader heap / cache",
             f"{DAYTRADER_JVM.heap_bytes // MiB} / "
             f"{DAYTRADER_JVM.shared_cache_bytes // MiB} MB"),
            ("Tuscany heap / cache",
             f"{TUSCANY_JVM.heap_bytes // MiB} / "
             f"{TUSCANY_JVM.shared_cache_bytes // MiB} MB"),
            ("SPECj injection rate", str(SPECJ_WORKLOAD.injection_rate)),
        ],
    ))
    print(render_kv(
        "Table IV: Java memory categories",
        [(c.display_name, c.value) for c in TABLE_IV_CATEGORIES],
    ))


def _run_pressure(args, cache: Optional[ResultCache]) -> int:
    import json

    from repro.core.experiments.pressure import run_pressure_family

    family = run_pressure_family(
        scenario=args.name,
        scale=args.scale,
        measurement_ticks=args.ticks,
        seed=args.seed,
        host_ram_fraction=args.ram_fraction,
        jobs=args.jobs,
        cache=cache,
    )
    report = family.to_dict()
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.bench_out:
        with open(args.bench_out, "w") as handle:
            handle.write(rendered + "\n")
    if args.json:
        print(rendered)
    else:
        baseline = family.baseline
        print(
            f"pressure: {args.name} at scale {args.scale}, host RAM x "
            f"{args.ram_fraction} ({baseline.host_ram_bytes / MiB:.0f} MB)"
        )
        print(
            f"  baseline (no reclaim): "
            f"{baseline.bytes_in_use / MiB:.0f} MB in use, "
            f"throughput x{baseline.throughput_fraction:.3f}"
        )
        for arm in sorted(family.arms):
            result = family.arms[arm]
            freed = family.physically_freed_bytes[arm]
            honest = "ok" if family.savings_honest(arm) else "OVERCLAIMED"
            print(
                f"  {arm:>11}: claimed {result.claimed_saved_bytes / MiB:6.1f} MB "
                f"(freed {freed / MiB:6.1f} MB, {honest}), "
                f"throughput x{result.throughput_fraction:.3f}"
            )
            if result.validation_codes:
                print(
                    f"{'':>13}validation: "
                    + ", ".join(result.validation_codes)
                )
    dishonest = [
        arm for arm in family.arms if not family.savings_honest(arm)
    ]
    invalid = [
        arm for arm in family.arms if family.arms[arm].validation_codes
    ]
    if dishonest or invalid:
        if dishonest:
            print(
                "error: arms claiming more savings than physically "
                f"freed: {', '.join(sorted(dishonest))}",
                file=sys.stderr,
            )
        if invalid:
            print(
                "error: arms with validation findings: "
                f"{', '.join(sorted(invalid))}",
                file=sys.stderr,
            )
        return 1
    return 0


def _run_hugepages(args, cache: Optional[ResultCache]) -> int:
    import json

    from repro.core.experiments.hugepages import (
        FLEET_HOSTS,
        run_hugepage_tradeoff,
    )

    scenarios = (args.name,) if args.name else SCENARIOS
    curve = run_hugepage_tradeoff(
        scale=args.scale,
        measurement_ticks=args.ticks,
        seed=args.seed,
        block_pages=args.hugepages,
        scenarios=scenarios,
        jobs=args.jobs,
        cache=cache,
    )
    report = curve.to_dict()
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.bench_out:
        with open(args.bench_out, "w") as handle:
            handle.write(rendered + "\n")
    if args.json:
        print(rendered)
    else:
        print(
            f"hugepages: {args.hugepages}-page blocks "
            f"({args.hugepages * 4} KiB) at scale {args.scale}"
        )
        for scenario in scenarios:
            print(f"  {scenario}:")
            for policy in sorted({p for (_, p) in curve.points}):
                point = curve.point(scenario, policy)
                print(
                    f"    {policy:>10}: saved {point.saved_bytes / MiB:6.1f} MB "
                    f"({point.thp_splits} split(s), "
                    f"{point.huge_bytes_sacrificed / MiB:.1f} MB huge "
                    f"sacrificed), coverage {point.coverage:.0%}, "
                    f"throughput x{point.throughput_fraction:.3f}"
                )
        print("  pressure (undersized host):")
        for policy in sorted(curve.pressure):
            point = curve.pressure[policy]
            print(
                f"    {policy:>10}: paging x{point.paging_penalty:.3f} * "
                f"tlb x{point.tlb_multiplier:.3f} = "
                f"x{point.throughput_fraction:.3f}"
            )
        print(f"  fleet estimate ({FLEET_HOSTS} hosts):")
        for policy in sorted(curve.fleet):
            row = curve.fleet[policy]
            print(
                f"    {policy:>10}: saved {row['saved_bytes'] / MiB:7.1f} MB, "
                f"huge sacrificed {row['huge_bytes_sacrificed'] / MiB:7.1f} "
                f"MB, throughput x{row['throughput_fraction']:.3f}"
            )
    invalid = sorted(
        f"{scenario}/{policy}"
        for (scenario, policy), point in curve.points.items()
        if point.validation_codes
    )
    if invalid:
        print(
            "error: huge-block validation findings at: "
            + ", ".join(invalid),
            file=sys.stderr,
        )
        return 1
    return 0


def _run_cache(args, cache: ResultCache) -> None:
    if args.wipe:
        removed = cache.wipe()
        print(f"wiped {removed} cached result(s) from {cache.root}")
    else:
        print(cache.describe())


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    status = 0
    try:
        # One instance per command, so --cache-stats reports the
        # lookups the command itself made; a command that takes no
        # cache option builds none.
        cache = _cache_from(args) if "cache_dir" in args else None
        if command in _BREAKDOWN_FIGURES:
            _run_breakdown_figure(command, args, cache)
        elif command == "fig6":
            _run_fig6(args)
        elif command in ("fig7", "fig8"):
            _run_consolidation(command, args, cache)
        elif command == "tables":
            _run_tables()
        elif command == "doctor":
            _run_doctor(args)
        elif command == "pressure":
            status = _run_pressure(args, cache)
        elif command == "hugepages":
            status = _run_hugepages(args, cache)
        elif command == "cache":
            _run_cache(args, cache)
        elif command in ("scenario", "profile"):
            result = _scenario_result(
                args, args.name, CacheDeployment(args.deployment), cache
            )
            print(render_vm_breakdown(
                result.vm_breakdown,
                f"{args.name} ({args.deployment}), scale={args.scale}",
            ))
            print()
            print(render_java_breakdown(result.java_breakdown, "per-JVM"))
            if args.faults is not None:
                _print_fault_reports(
                    result.collection_report, result.validation_report
                )
        if getattr(args, "cache_stats", False):
            print()
            print(render_exec_stats(cache=cache))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
