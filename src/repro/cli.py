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

Every scenario-running subcommand shares one option set, declared once
in :func:`add_scenario_options` and decoded once by
:func:`spec_from_args` into a :class:`repro.config.ScenarioSpec` — the
single value object behind the whole experiment API.  ``--thp-policy``
/ ``--hugepages`` switch the guests to transparent huge pages (KSM then
splits huge blocks to merge, the trade-off ``repro hugepages`` charts).

``--faults SEED[:RATE]`` arms the fault-injection plan on any dump-based
command: collection turns resilient (retry, backoff, quarantine), the
dump is cross-validated, and breakdowns carry explicit bounds for
whatever the damage made unattributable.  ``doctor`` runs one scenario
under that regime and prints the full collection + validation reports.

``--jobs N`` (or ``REPRO_JOBS``) fans independent work units — the two
footprint measurements behind a consolidation sweep — out over worker
processes; results are bit-identical to serial runs.  Figure results are
also persisted in a content-addressed cache (``.repro-cache`` or
``REPRO_CACHE_DIR``), so re-running a figure, or a figure that shares
its scenario with one already run (Fig. 2 / Fig. 3(a)), is near
instant.  ``--no-cache`` bypasses it, ``--cache-stats`` reports on it,
and ``repro cache [--wipe]`` inspects or empties it.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.config import DEFAULT_SCAN_ENGINE, THP_POLICIES, ScenarioSpec
from repro.core.columnar.backend import resolve_backend
from repro.core.experiments.consolidation import (
    run_daytrader_consolidation,
    run_specj_consolidation,
)
from repro.core.experiments.powervm import run_powervm_experiment
from repro.core.experiments.scenarios import (
    SCENARIOS,
    run,
    run_cached,
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


def add_scenario_options(parser: argparse.ArgumentParser) -> None:
    """Declare every shared scenario knob on ``parser``, exactly once.

    Each option maps onto one :class:`repro.config.ScenarioSpec` field;
    :func:`spec_from_args` turns the parsed namespace back into a spec.
    Every subcommand that runs a testbed shares this set, so a new knob
    is added here (and read in ``ScenarioSpec.from_cli_args``) and
    nowhere else.
    """
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="size factor for all memory quantities (1.0 = paper sizes)",
    )
    parser.add_argument(
        "--ticks", type=int, default=4,
        help="measurement ticks for the breakdown scenarios",
    )
    parser.add_argument("--seed", type=int, default=20130421)
    parser.add_argument(
        "--scan-policy",
        choices=["full", "incremental", "hybrid"],
        default="full",
        help=(
            "KSM scan policy: 'full' round-robin (the paper's setup), "
            "'incremental' dirty-log-driven, or 'hybrid' with periodic "
            "full passes"
        ),
    )
    parser.add_argument(
        "--scan-engine",
        choices=["batch", "object"],
        default=DEFAULT_SCAN_ENGINE,
        help=(
            "KSM scanner implementation: 'batch' columnar "
            "whole-worklist kernels (default) or 'object', the per-page "
            "reference walk (identical results, slower passes)"
        ),
    )
    parser.add_argument(
        "--tiering",
        choices=["off", "hints", "compress", "balloon", "combined"],
        default="off",
        help=(
            "working-set tiering mode for the run: feed cold-region "
            "hints to KSM, compress cold pages, balloon guests with "
            "small working sets, or all three combined"
        ),
    )
    parser.add_argument(
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
    parser.add_argument(
        "--hugepages", type=int, default=512, metavar="PAGES",
        help=(
            "huge-block size in base pages (power of two; default 512 "
            "= 2 MiB); only meaningful with --thp-policy != never"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=["dict", "columnar", "columnar-numpy", "columnar-stdlib"],
        default=None,
        help=(
            "dump-analysis pipeline: 'columnar' vectorized arrays "
            "(default; numpy when available, stdlib fallback "
            "otherwise), an explicitly pinned columnar implementation, "
            "or 'dict', the per-page reference walk (identical "
            "results); $REPRO_BACKEND overrides the default"
        ),
    )
    parser.add_argument(
        "--profile", metavar="PATH", default=None,
        help=(
            "profile the run per phase (build/warmup/workload/tiering/"
            "thp/scan/dump/accounting) and write the wall+CPU JSON "
            "report to PATH; profiled runs bypass the result cache"
        ),
    )
    parser.add_argument(
        "--faults", metavar="SEED[:RATE]", default=None,
        help=(
            "inject collection faults from this seed (optional RATE in "
            "[0,1] overrides every per-kind probability)"
        ),
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help=(
            "worker processes for independent work units "
            "(default: $REPRO_JOBS, else 1 = in-process)"
        ),
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache for this command",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help=(
            "result-cache directory (default: $REPRO_CACHE_DIR, "
            "else .repro-cache)"
        ),
    )
    parser.add_argument(
        "--cache-stats", action="store_true",
        help="print cache and runner statistics after the command",
    )


def spec_from_args(
    args, scenario: Optional[str] = None, deployment=None
) -> ScenarioSpec:
    """The :class:`ScenarioSpec` an ``add_scenario_options`` namespace
    describes (``scenario``/``deployment`` override the namespace for
    subcommands that hard-code them)."""
    return ScenarioSpec.from_cli_args(
        args, scenario=scenario, deployment=deployment
    )


def _add_deployment_arguments(parser: argparse.ArgumentParser) -> None:
    """The scenario-name + deployment positional pair."""
    parser.add_argument("name", choices=SCENARIOS)
    parser.add_argument(
        "--deployment",
        choices=[d.value for d in CacheDeployment],
        default="none",
    )


def _add_report_arguments(parser: argparse.ArgumentParser) -> None:
    """The JSON/artifact output pair shared by the family commands."""
    parser.add_argument(
        "--json", action="store_true",
        help="emit the full report as JSON instead of text",
    )
    parser.add_argument(
        "--bench-out", metavar="PATH", default=None,
        help="also write the JSON report to this file",
    )


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    add_scenario_options(common)

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Increasing the Transparent Page Sharing in Java' "
            "(ISPASS 2013)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for figure in _BREAKDOWN_FIGURES:
        sub.add_parser(figure, parents=[common], help=f"regenerate {figure}")
    sub.add_parser("fig6", parents=[common],
                   help="PowerVM before/after totals")
    sub.add_parser("fig7", parents=[common],
                   help="DayTrader consolidation sweep")
    sub.add_parser("fig8", parents=[common],
                   help="SPECjEnterprise consolidation sweep")
    sub.add_parser("tables", help="print Tables I-IV presets")
    scenario = sub.add_parser(
        "scenario", parents=[common], help="run a custom scenario"
    )
    _add_deployment_arguments(scenario)
    profile = sub.add_parser(
        "profile", parents=[common],
        help=(
            "run one scenario under the phase profiler and print the "
            "per-phase wall/CPU table"
        ),
    )
    _add_deployment_arguments(profile)
    doctor = sub.add_parser(
        "doctor", parents=[common],
        help="collect one scenario resiliently and print its health reports",
    )
    _add_deployment_arguments(doctor)
    hugepages = sub.add_parser(
        "hugepages", parents=[common],
        help=(
            "run the huge-page trade-off curve: bytes KSM saves by "
            "splitting huge blocks vs the translation benefit lost, "
            "across THP policies, both scan engines cross-checked"
        ),
    )
    hugepages.add_argument(
        "name", nargs="?", choices=SCENARIOS, default=None,
        help="restrict the curve to one scenario (default: all three)",
    )
    _add_report_arguments(hugepages)
    pressure = sub.add_parser(
        "pressure", parents=[common],
        help=(
            "run the pressure family: KSM vs compression vs ballooning "
            "vs combined on an undersized host, identical seeds"
        ),
    )
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
    _add_report_arguments(pressure)
    fleet = sub.add_parser(
        "fleet",
        help=(
            "run a fleet-scale chaos scenario: seeded faults, live "
            "migration, self-healing placement"
        ),
    )
    fleet.add_argument(
        "--hosts", type=int, default=50, help="host count (default 50)"
    )
    fleet.add_argument(
        "--vms", type=int, default=200, help="VM arrivals (default 200)"
    )
    fleet.add_argument(
        "--host-ram-gib", type=int, default=16,
        help="RAM per host in GiB (default 16)",
    )
    fleet.add_argument("--seed", type=int, default=20130421)
    fleet.add_argument(
        "--chaos-plan", metavar="SEED[:RATE]", default=None,
        help=(
            "arm the fleet chaos engine from this seed (optional RATE "
            "in [0,1] applies to every fleet fault class; without it "
            "the default per-class rates apply).  Omit for a fault-free "
            "run."
        ),
    )
    fleet.add_argument(
        "--horizon-minutes", type=int, default=30,
        help="length of the simulated timeline (default 30)",
    )
    fleet.add_argument(
        "--policy", choices=["sharing-aware", "first-fit"],
        default="sharing-aware",
    )
    fleet.add_argument(
        "--jobs", type=int, default=None,
        help=(
            "worker processes for the per-host sharing convergence "
            "(default: $REPRO_JOBS, else 1); results are bit-identical "
            "at any value"
        ),
    )
    _add_report_arguments(fleet)
    fleet.add_argument(
        "--events", type=int, default=0, metavar="N",
        help="print the first N timeline events (0 = none)",
    )
    fleet.add_argument(
        "--calibrate", type=int, default=0, metavar="N",
        help=(
            "after the run, re-simulate N sampled occupied hosts as "
            "real guest memory scanned by the batch KSM engine and "
            "report the analytic-vs-simulated savings error (0 = off)"
        ),
    )
    cache_cmd = sub.add_parser(
        "cache", help="inspect or wipe the result cache"
    )
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
    if getattr(args, "cache_dir", None):
        return ResultCache(root=args.cache_dir)
    return default_cache()


def _fault_plan(args) -> Optional[FaultPlan]:
    if getattr(args, "faults", None) is None:
        return None
    return FaultPlan.from_spec(args.faults)


def _print_fault_reports(result) -> None:
    """The collection + validation tail shared by figures and doctor."""
    if result.collection_report is not None:
        print()
        print(result.collection_report.render())
    if result.validation_report is not None:
        print()
        print(result.validation_report.render())


def _run_scenario_result(args, scenario: str, deployment):
    """Run a scenario spec: cached normally, direct when profiled."""
    spec = spec_from_args(args, scenario=scenario, deployment=deployment)
    profile_path = getattr(args, "profile", None)
    if profile_path is None and args.command != "profile":
        return run_cached(spec, cache=_cache_from(args))
    from repro.perf import PhaseProfiler

    profiler = PhaseProfiler()
    result = run(spec, profiler=profiler)
    print(profiler.render(
        f"phase profile: {scenario} ({deployment.value}), "
        f"scale={args.scale}, engine={spec.ksm.scan_engine}"
    ))
    if profile_path is not None:
        profiler.write_json(profile_path)
        print(f"profile JSON written to {profile_path}")
    print()
    return result


def _run_breakdown_figure(figure: str, args) -> None:
    scenario, deployment, kind = _BREAKDOWN_FIGURES[figure]
    result = _run_scenario_result(args, scenario, deployment)
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
        _print_fault_reports(result)


def _run_fig6(args) -> None:
    if args.faults is not None:
        print(
            "note: fig6 models the PowerVM hosts without a crash dump; "
            "--faults has nothing to inject and is ignored",
            file=sys.stderr,
        )
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


def _run_consolidation(figure: str, args) -> None:
    faults = _fault_plan(args)
    cache = _cache_from(args)
    backend = resolve_backend(args.backend)
    if figure == "fig7":
        result = run_daytrader_consolidation(
            footprint_scale=args.scale, seed=args.seed, faults=faults,
            scan_policy=args.scan_policy, scan_engine=args.scan_engine,
            backend=backend, jobs=args.jobs, cache=cache,
        )
        unit = "req/s"
    else:
        result = run_specj_consolidation(
            footprint_scale=args.scale, seed=args.seed, faults=faults,
            scan_policy=args.scan_policy, scan_engine=args.scan_engine,
            backend=backend, jobs=args.jobs, cache=cache,
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
    faults = _fault_plan(args)
    result = run(spec_from_args(args, scenario=args.name))
    mode = "clean collection" if faults is None else f"faults {args.faults}"
    print(f"doctor: {args.name} ({args.deployment}), {mode}")
    _print_fault_reports(result)
    if result.validation_report is None:
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


def _run_fleet(args) -> int:
    import json

    from repro.datacenter.controller import (
        FleetScenario,
        run_fleet_scenario,
    )
    from repro.units import GiB

    scenario = FleetScenario(
        host_count=args.hosts,
        vm_count=args.vms,
        host_ram_bytes=args.host_ram_gib * GiB,
        seed=args.seed,
        policy=args.policy,
        chaos_spec=args.chaos_plan,
        horizon_ms=args.horizon_minutes * 60_000,
    )
    result = run_fleet_scenario(scenario, jobs=args.jobs)
    report = result.as_dict()
    calibration = None
    if args.calibrate > 0:
        from repro.datacenter.calibrate import calibrate_fleet

        calibration = calibrate_fleet(
            result.fleet,
            sample=args.calibrate,
            seed=args.seed,
            jobs=args.jobs,
        )
        report["calibration"] = calibration.as_dict()
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.bench_out:
        with open(args.bench_out, "w") as handle:
            handle.write(rendered + "\n")
    if args.json:
        print(rendered)
    else:
        savings = result.savings
        print(
            f"fleet: {args.hosts} hosts x {args.host_ram_gib} GiB, "
            f"{args.vms} VM arrivals, policy={args.policy}"
        )
        chaos = args.chaos_plan if args.chaos_plan else "off"
        print(
            f"  chaos plan {chaos}: {result.faults_injected} fault(s) "
            f"injected over {args.horizon_minutes} simulated minute(s)"
        )
        print(
            f"  admission: {result.admitted} admitted, "
            f"{result.queued_final} still queued, "
            f"{result.rejected} rejected"
        )
        print(
            f"  healing: {len(result.evacuation_latencies_ms)} "
            f"evacuation(s) "
            f"(max latency {report['evacuations']['max_latency_ms']} ms), "
            f"{result.placements_retried} placement(s) retried"
        )
        migrations = result.migrations
        print(
            f"  migrations: {migrations.committed} committed, "
            f"{migrations.failed} failed, "
            f"{migrations.aborted_attempts} attempt(s) aborted by chaos"
        )
        if savings is not None:
            print(
                f"  sharing savings: "
                f"[{savings.lower_bytes / MiB:.0f}, "
                f"{savings.upper_bytes / MiB:.0f}] MB "
                f"({savings.unreachable_hosts} host(s) unreachable) "
                f"= {result.extra_vm_capacity()} extra VM(s) of capacity"
            )
        if result.baseline_saved_bytes is not None:
            delta = report.get("saved_vs_first_fit_bytes", 0)
            print(
                f"  vs first-fit under the same chaos: "
                f"{delta / MiB:+.0f} MB saved"
            )
        print(f"  placement fingerprint: {report['placement_fingerprint']}")
        if calibration is not None:
            print(calibration.render())
        if args.events > 0:
            print()
            print(result.fleet.log.render(limit=args.events))
    if result.violations:
        print(
            f"error: {len(result.violations)} fleet invariant "
            "violation(s) detected",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_pressure(args) -> int:
    import json

    from repro.core.experiments.pressure import run_pressure_family

    family = run_pressure_family(
        scenario=args.name,
        scale=args.scale,
        measurement_ticks=args.ticks,
        seed=args.seed,
        host_ram_fraction=args.ram_fraction,
        jobs=args.jobs,
        cache=_cache_from(args),
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


def _run_hugepages(args) -> int:
    import json

    from repro.core.experiments.hugepages import run_hugepage_tradeoff

    scenarios = (args.name,) if args.name else SCENARIOS
    curve = run_hugepage_tradeoff(
        scale=args.scale,
        measurement_ticks=args.ticks,
        seed=args.seed,
        block_pages=args.hugepages,
        scenarios=scenarios,
        pressure_scenario=scenarios[0],
        jobs=args.jobs,
        cache=_cache_from(args),
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
            f"({args.hugepages * 4} KiB) at scale {args.scale}; "
            "savings engine-verified object==batch"
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
        print(f"  fleet estimate ({curve.fleet_hosts} hosts):")
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


def _run_cache(args) -> None:
    cache = (
        ResultCache(root=args.cache_dir)
        if args.cache_dir
        else default_cache()
    )
    if args.wipe:
        removed = cache.wipe()
        print(f"wiped {removed} cached result(s) from {cache.root}")
    else:
        print(cache.describe())


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    try:
        if command in _BREAKDOWN_FIGURES:
            _run_breakdown_figure(command, args)
        elif command == "fig6":
            _run_fig6(args)
        elif command in ("fig7", "fig8"):
            _run_consolidation(command, args)
        elif command == "tables":
            _run_tables()
        elif command == "doctor":
            _run_doctor(args)
        elif command == "fleet":
            return _run_fleet(args)
        elif command == "pressure":
            return _run_pressure(args)
        elif command == "hugepages":
            return _run_hugepages(args)
        elif command == "cache":
            _run_cache(args)
        elif command in ("scenario", "profile"):
            result = _run_scenario_result(
                args, args.name, CacheDeployment(args.deployment)
            )
            print(render_vm_breakdown(
                result.vm_breakdown,
                f"{args.name} ({args.deployment}), scale={args.scale}",
            ))
            print()
            print(render_java_breakdown(result.java_breakdown, "per-JVM"))
            if args.faults is not None:
                _print_fault_reports(result)
        if getattr(args, "cache_stats", False):
            print()
            print(render_exec_stats(cache=_cache_from(args)))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
