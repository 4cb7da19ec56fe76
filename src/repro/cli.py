"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Commands:

* ``repro list`` — show all registered experiments.
* ``repro run <id> [...]`` — run one (or ``all``) experiments and print
  paper-style tables; ``--csv DIR`` also writes CSV files.
* ``repro bounds --k K --s S --d D`` — print the theoretical bounds.
* ``repro variants`` — list the registered sampler variants.
* ``repro demo`` — drive any registered sampler over a calibrated
  dataset through the unified ``make_sampler`` front door.
* ``repro perf run|compare|baseline`` — the benchmark suite: run the
  scenario x variant grid to a schema-versioned JSON report, diff a
  report against a baseline with per-metric tolerances (nonzero exit on
  regression), or (re)generate ``benchmarks/baseline.json``.
* ``repro perf profile <scenario>`` — cProfile one (scenario, variant)
  cell and print the top cumulative hot spots, so perf work starts from
  data instead of guesses.
* ``repro accuracy run|compare|baseline`` — the statistical twin of the
  perf suite: replay the scenario workloads through the sampler
  variants, score every registered estimator against exact ground
  truth, and gate the error trajectory against
  ``benchmarks/accuracy_baseline.json`` (``compare --format markdown``
  emits the CI job-summary table).
* ``repro lint [paths ...]`` — the project-invariant static analyzer
  (AST rules RPR001-RPR008 over ``src/`` by default); ``--format json``
  emits the schema-versioned report CI archives, ``--list-rules`` prints
  the rule catalog.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from .analysis.bounds import (
    lower_bound_total,
    optimality_gap,
    upper_bound_total,
)
from .core.api import get_variant, make_sampler, sampler_variants
from .core.protocol import EXECUTORS
from .errors import ReproError
from .experiments.config import ExperimentConfig
from .experiments.registry import EXPERIMENTS, run_experiment
from .streams.datasets import SCALES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distinct random sampling from a distributed stream — "
        "reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run_p = sub.add_parser("run", help="run experiments")
    run_p.add_argument(
        "experiment",
        help="experiment id (see 'repro list') or 'all'",
    )
    run_p.add_argument(
        "--scale", default="small", choices=SCALES, help="dataset scale"
    )
    run_p.add_argument(
        "--runs", type=int, default=0, help="repetitions per point (0 = default)"
    )
    run_p.add_argument("--seed", type=int, default=20150525, help="master seed")
    run_p.add_argument(
        "--datasets",
        default="oc48,enron",
        help="comma-separated dataset families",
    )
    run_p.add_argument(
        "--csv", default=None, metavar="DIR", help="also write CSVs here"
    )

    bounds_p = sub.add_parser("bounds", help="print theoretical bounds")
    bounds_p.add_argument("--k", type=int, required=True, help="number of sites")
    bounds_p.add_argument("--s", type=int, required=True, help="sample size")
    bounds_p.add_argument("--d", type=int, required=True, help="distinct elements")

    sub.add_parser("datasets", help="list calibrated dataset profiles")

    sub.add_parser("variants", help="list registered sampler variants")

    demo_p = sub.add_parser(
        "demo",
        help="run a distributed sampler over a calibrated dataset and "
        "print the sample, the distinct-count estimate, and the costs",
    )
    demo_p.add_argument("--dataset", default="oc48", help="dataset family")
    demo_p.add_argument("--scale", default="tiny", choices=SCALES)
    demo_p.add_argument("--sites", type=int, default=5, help="number of sites")
    demo_p.add_argument("--sample-size", type=int, default=16)
    demo_p.add_argument("--seed", type=int, default=0)
    demo_p.add_argument(
        "--variant",
        default="infinite",
        help="sampler variant (see 'repro variants')",
    )
    demo_p.add_argument(
        "--window",
        type=int,
        default=0,
        help="window size in slots (sliding variants; 0 = infinite)",
    )
    demo_p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="coordinator groups S; > 1 runs the hash-partitioned "
        "'sharded:<variant>' wrapper",
    )
    demo_p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes W for the shm executor; > 0 with no "
        "--executor selects shm (0 = auto for an explicit --executor "
        "shm, else in-process serial)",
    )
    demo_p.add_argument(
        "--executor",
        default=None,
        choices=EXECUTORS,
        help="execution backend for the shard groups (default: shm "
        "when --workers > 0, serial otherwise)",
    )
    demo_p.add_argument(
        "--reshard",
        type=int,
        default=0,
        metavar="S2",
        help="elastically re-partition to this many coordinator groups "
        "halfway through the stream (implies the sharded wrapper; the "
        "final sample is bit-identical to a fresh S2-sharded run)",
    )
    demo_p.add_argument(
        "--chaos-drop",
        type=float,
        default=0.0,
        metavar="P",
        help="chaos mode: per-message drop probability (rewires the "
        "group networks onto the seeded ChaosNetwork; needs the "
        "serial executor)",
    )
    demo_p.add_argument(
        "--chaos-duplicate",
        type=float,
        default=0.0,
        metavar="P",
        help="chaos mode: per-message duplication probability",
    )
    demo_p.add_argument(
        "--chaos-reorder",
        type=float,
        default=0.0,
        metavar="P",
        help="chaos mode: per-delivery reorder probability",
    )
    demo_p.add_argument(
        "--chaos-kill",
        type=int,
        action="append",
        metavar="SITE",
        help="chaos mode: blackhole this site for the first half of the "
        "stream, then revive it (repeatable)",
    )
    demo_p.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed for the chaos fault schedule (reproducible faults)",
    )

    perf_p = sub.add_parser(
        "perf", help="benchmark suite: run / compare / baseline"
    )
    perf_sub = perf_p.add_subparsers(dest="perf_command", required=True)

    def _add_suite_args(
        p: argparse.ArgumentParser, n: int = 20_000, repeats: int = 1
    ) -> None:
        p.add_argument(
            "--n", type=int, default=n, help="events per scenario"
        )
        p.add_argument("--sites", type=int, default=8, help="number of sites")
        p.add_argument("--sample-size", type=int, default=16)
        p.add_argument(
            "--window", type=int, default=64, help="window for slotted cells"
        )
        p.add_argument(
            "--shards",
            type=int,
            default=4,
            help="coordinator groups for the sharded:* variants",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=4,
            help="worker processes for the shm-executor scenarios",
        )
        p.add_argument("--seed", type=int, default=20150525)
        p.add_argument(
            "--repeats",
            type=int,
            default=repeats,
            help="timed runs per cell (best-of)",
        )
        p.add_argument(
            "--scenario",
            action="append",
            default=None,
            metavar="NAME",
            help="restrict to a scenario (repeatable; default all)",
        )
        p.add_argument(
            "--variant",
            action="append",
            default=None,
            metavar="NAME",
            help="restrict to a variant (repeatable; default all)",
        )
        p.add_argument(
            "--read-ratio",
            type=float,
            default=4.0,
            help="queries per ingest chunk for the sharded-mixed-rw "
            "scenario (default 4.0; a workload parameter — compare "
            "against a baseline generated at the same ratio)",
        )

    perf_run = perf_sub.add_parser(
        "run", help="run the suite and write a JSON report"
    )
    _add_suite_args(perf_run)
    perf_run.add_argument(
        "--out", default=None, metavar="FILE", help="write the report here"
    )

    perf_cmp = perf_sub.add_parser(
        "compare",
        help="diff a report against a baseline; exit 1 on regression",
    )
    perf_cmp.add_argument("current", help="report JSON produced by 'perf run'")
    perf_cmp.add_argument("baseline", help="baseline JSON to diff against")
    perf_cmp.add_argument(
        "--time-tolerance",
        type=float,
        default=2.5,
        help="max elapsed_s slowdown factor (default 2.5)",
    )
    perf_cmp.add_argument(
        "--count-tolerance",
        type=float,
        default=1.25,
        help="max factor for the deterministic counters (default 1.25)",
    )
    perf_cmp.add_argument(
        "--format",
        choices=("human", "markdown"),
        default="human",
        help="output format (markdown renders the gate verdict plus the "
        "query-path metrics table for CI step summaries)",
    )

    perf_prof = perf_sub.add_parser(
        "profile",
        help="cProfile one (scenario, variant) cell and print hot spots",
    )
    perf_prof.add_argument("scenario", help="perf scenario to profile")
    perf_prof.add_argument(
        "--variant",
        default=None,
        metavar="NAME",
        help="variant to drive (default: first registered variant the "
        "scenario applies to)",
    )
    perf_prof.add_argument("--n", type=int, default=20_000)
    perf_prof.add_argument("--sites", type=int, default=8)
    perf_prof.add_argument("--sample-size", type=int, default=16)
    perf_prof.add_argument("--window", type=int, default=64)
    perf_prof.add_argument("--shards", type=int, default=4)
    perf_prof.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker processes W for the shm executor",
    )
    perf_prof.add_argument(
        "--executor",
        default=None,
        choices=EXECUTORS,
        help="execution backend override (default: what the scenario "
        "forces, else serial)",
    )
    perf_prof.add_argument("--seed", type=int, default=20150525)
    perf_prof.add_argument(
        "--read-ratio",
        type=float,
        default=4.0,
        help="queries per ingest chunk for sharded-mixed-rw",
    )
    perf_prof.add_argument(
        "--top",
        type=int,
        default=25,
        help="hot spots to print, by cumulative time (default 25)",
    )

    lint_p = sub.add_parser(
        "lint",
        help="project-invariant static analysis (AST rules RPR001-RPR008)",
    )
    lint_p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files/directories to scan (default: src)",
    )
    lint_p.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="CODE",
        help="restrict to a rule code (repeatable; default all)",
    )
    lint_p.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default human)",
    )
    lint_p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )

    perf_base = perf_sub.add_parser(
        "baseline", help="run the suite and (re)write the committed baseline"
    )
    # Defaults must mirror the CI perf-smoke run's workload (--n 8000) or
    # a bare `repro perf baseline` would commit counters CI can never
    # match; compare_reports rejects mismatched workloads outright.
    _add_suite_args(perf_base, n=8_000, repeats=2)
    perf_base.add_argument(
        "--out",
        default="benchmarks/baseline.json",
        metavar="FILE",
        help="baseline path (default benchmarks/baseline.json)",
    )
    perf_base.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing committed baseline",
    )

    acc_p = sub.add_parser(
        "accuracy",
        help="estimator accuracy suite: run / compare / baseline",
    )
    acc_sub = acc_p.add_subparsers(dest="accuracy_command", required=True)

    def _add_accuracy_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=8_000, help="events per scenario")
        p.add_argument("--sites", type=int, default=8, help="number of sites")
        p.add_argument("--sample-size", type=int, default=64)
        p.add_argument(
            "--window", type=int, default=64, help="window for slotted cells"
        )
        p.add_argument(
            "--shards",
            type=int,
            default=4,
            help="coordinator groups for the sharded:* variants",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=2,
            help="worker processes for the shm-executor scenarios",
        )
        p.add_argument("--seed", type=int, default=20150525)
        p.add_argument(
            "--scenario",
            action="append",
            default=None,
            metavar="NAME",
            help="restrict to a scenario (repeatable; default: the "
            "acceptance grid)",
        )
        p.add_argument(
            "--variant",
            action="append",
            default=None,
            metavar="NAME",
            help="restrict to a variant (repeatable; default: the "
            "acceptance grid)",
        )
        p.add_argument(
            "--estimator",
            action="append",
            default=None,
            metavar="NAME",
            help="restrict to an estimator (repeatable; default all)",
        )

    acc_run = acc_sub.add_parser(
        "run", help="run the suite and write a JSON report"
    )
    _add_accuracy_args(acc_run)
    acc_run.add_argument(
        "--out", default=None, metavar="FILE", help="write the report here"
    )

    acc_cmp = acc_sub.add_parser(
        "compare",
        help="diff a report against a baseline; exit 1 on regression",
    )
    acc_cmp.add_argument(
        "current", help="report JSON produced by 'accuracy run'"
    )
    acc_cmp.add_argument("baseline", help="baseline JSON to diff against")
    acc_cmp.add_argument(
        "--drift-factor",
        type=float,
        default=1.5,
        help="max error growth factor over the baseline (default 1.5)",
    )
    acc_cmp.add_argument(
        "--slack",
        type=float,
        default=0.02,
        help="additive drift slack over the scaled baseline (default 0.02)",
    )
    acc_cmp.add_argument(
        "--format",
        choices=("human", "markdown"),
        default="human",
        help="output format (markdown renders the CI job-summary table)",
    )

    acc_base = acc_sub.add_parser(
        "baseline", help="run the suite and (re)write the committed baseline"
    )
    _add_accuracy_args(acc_base)
    acc_base.add_argument(
        "--out",
        default="benchmarks/accuracy_baseline.json",
        metavar="FILE",
        help="baseline path (default benchmarks/accuracy_baseline.json)",
    )
    acc_base.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing committed baseline",
    )
    return parser


def _cmd_list() -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for experiment_id in sorted(EXPERIMENTS):
        exp = EXPERIMENTS[experiment_id]
        print(f"{experiment_id.ljust(width)}  {exp.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        scale=args.scale,
        runs=args.runs,
        seed=args.seed,
        datasets=tuple(d for d in args.datasets.split(",") if d),
    )
    ids = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    csv_dir = pathlib.Path(args.csv) if args.csv else None
    if csv_dir:
        csv_dir.mkdir(parents=True, exist_ok=True)
    for experiment_id in ids:
        started = time.perf_counter()
        results = run_experiment(experiment_id, config)
        elapsed = time.perf_counter() - started
        for i, result in enumerate(results):
            print(result.render())
            if csv_dir:
                suffix = f"_{i}" if len(results) > 1 else ""
                path = csv_dir / f"{experiment_id}{suffix}.csv"
                path.write_text(result.to_csv())
        print(f"[{experiment_id} finished in {elapsed:.1f}s]\n")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    upper = upper_bound_total(args.k, args.s, args.d)
    lower = lower_bound_total(args.k, args.s, args.d)
    print(f"k={args.k} s={args.s} d={args.d}")
    print(f"  Lemma 4 upper bound : {upper:,.1f} messages")
    print(f"  Lemma 9 lower bound : {lower:,.1f} messages")
    print(f"  upper/lower gap     : {optimality_gap(args.k, args.s, args.d):.3f}")
    return 0


def _cmd_datasets() -> int:
    from .streams.datasets import DATASETS

    print(f"{'name':<14} {'elements':>12} {'distinct':>10} {'ratio':>7} {'skew':>5}")
    for name in sorted(DATASETS):
        spec = DATASETS[name]
        print(
            f"{name:<14} {spec.n_elements:>12,} {spec.n_distinct:>10,} "
            f"{spec.distinct_ratio:>7.3f} {spec.skew:>5.2f}"
        )
    return 0


def _cmd_variants() -> int:
    width = max(len(name) for name in sampler_variants())
    print(f"{'variant'.ljust(width)}  {'kind':<10} {'routing':<15} description")
    for name in sampler_variants():
        variant = get_variant(name)
        kind = "baseline" if variant.baseline else (
            "windowed" if variant.windowed else "infinite"
        )
        if variant.with_replacement:
            kind = "w/replace"
        print(
            f"{name.ljust(width)}  {kind:<10} {variant.routing:<15} "
            f"{variant.summary}"
        )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    import numpy as np

    from .errors import EstimationError
    from .estimators.distinct_count import estimate_from_sampler
    from .streams.datasets import get_dataset
    from .streams.slotted import SlottedArrivals

    spec = get_dataset(args.dataset, args.scale)
    rng = np.random.default_rng(args.seed)
    ids = spec.generate(rng)
    variant = args.variant
    executor = args.executor or ("shm" if args.workers > 0 else "serial")
    chaos_kill = args.chaos_kill or []
    chaos = bool(
        args.chaos_drop
        or args.chaos_duplicate
        or args.chaos_reorder
        or chaos_kill
    )
    if any(site not in range(args.sites) for site in chaos_kill):
        print(
            f"error: --chaos-kill sites must be in [0, {args.sites})",
            file=sys.stderr,
        )
        return 2
    if args.reshard < 0:
        print("error: --reshard must be >= 1", file=sys.stderr)
        return 2
    if (
        args.shards > 1
        or args.workers > 0
        or args.reshard
        or executor != "serial"
    ) and not variant.startswith("sharded:"):
        variant = f"sharded:{variant}"
    system = make_sampler(
        variant,
        num_sites=args.sites,
        sample_size=args.sample_size,
        window=args.window,
        seed=args.seed,
        algorithm="mix64",
        shards=args.shards,
        executor=executor,
        workers=args.workers,
    )
    initial_shards = args.shards
    chaos_nets: list = []

    def rewire_chaos() -> None:
        from .netsim import ChaosNetwork

        chaos_nets.clear()
        groups = (
            system.groups if variant.startswith("sharded:") else [system]
        )
        for group in groups:
            net = ChaosNetwork.rewire(
                group,
                drop=args.chaos_drop,
                duplicate=args.chaos_duplicate,
                reorder=args.chaos_reorder,
                seed=args.chaos_seed,
            )
            for site in chaos_kill:
                net.kill_site(site)
            chaos_nets.append(net)

    def pump_chaos() -> None:
        for net in chaos_nets:
            net.pump()

    def midpoint() -> None:
        """Halfway through the stream: revive killed sites, reshard live."""
        pump_chaos()
        for net in chaos_nets:
            for site in list(net.dead_sites):
                net.revive_site(site)
        if args.reshard:
            system.reshard(args.reshard)
            if chaos:
                # reshard builds fresh groups (on the default transport);
                # put the chaos faults back for the second half.
                rewire_chaos()

    if chaos:
        rewire_chaos()
    started = time.perf_counter()
    truth = spec.n_distinct
    if args.window:
        schedule = SlottedArrivals(ids.tolist(), args.sites, 5, rng)
        live: set = set()
        final_slot = schedule.num_slots
        for slot, arrivals in schedule.slots():
            if (args.reshard or chaos_kill) and slot == final_slot // 2:
                midpoint()
            system.advance(slot)
            system.observe_batch(arrivals)
            pump_chaos()
            if slot > final_slot - args.window:
                live.update(element for _, element in arrivals)
        # The windowed estimate targets the *window's* distinct count.
        truth = len(live)
    else:
        sites = rng.integers(0, args.sites, ids.size).tolist()
        events = list(zip(sites, ids.tolist()))
        if args.reshard or chaos:
            half = len(events) // 2
            system.observe_batch(events[:half])
            midpoint()
            system.observe_batch(events[half:])
            pump_chaos()
        else:
            system.observe_batch(events)
    elapsed = time.perf_counter() - started
    result = system.sample()
    stats = system.stats()
    print(
        f"dataset {spec.name}: {spec.n_elements:,} elements, "
        f"{spec.n_distinct:,} distinct"
    )
    print(
        f"variant={variant} k={args.sites}, s={args.sample_size}: "
        f"processed in {elapsed:.2f}s "
        f"({spec.n_elements / max(elapsed, 1e-9) / 1e6:.1f}M el/s)"
    )
    if variant.startswith("sharded:"):
        critical = max(system.critical_path_seconds, 1e-9)
        if executor == "serial":
            path_kind = "simulated (serial in-process)"
        else:
            width = args.workers if args.workers > 0 else "auto"
            path_kind = f"measured over {width} worker processes"
        print(
            f"shards: {system.shards} coordinator groups "
            f"[{system.executor.name} executor], critical-path "
            f"{critical:.3f}s {path_kind} "
            f"({spec.n_elements / critical / 1e6:.1f}M el/s across groups)"
        )
        if args.reshard:
            print(
                f"resharded live mid-stream: {initial_shards} -> "
                f"{system.shards} groups (no resampling; the merged "
                "sample is bit-identical to a fresh "
                f"{system.shards}-sharded run)"
            )
        if system.executor.recoveries:
            print(f"crash-replay recoveries: {system.executor.recoveries}")
        system.close()
    if chaos:
        print(
            "chaos: injected "
            f"{sum(n.dropped_messages for n in chaos_nets):,} drops, "
            f"{sum(n.duplicated_messages for n in chaos_nets):,} "
            "duplicates, "
            f"{sum(n.reordered_messages for n in chaos_nets):,} reorders"
            + (
                f"; sites {sorted(set(chaos_kill))} were dead for the "
                "first half"
                if chaos_kill
                else ""
            )
        )
    print(f"sample (first 10 ids): {list(result.items[:10])}")
    try:
        estimate = estimate_from_sampler(system)
        print(
            f"distinct-count estimate: {estimate.estimate:,.0f} "
            f"[{estimate.low:,.0f}, {estimate.high:,.0f}] "
            f"(truth {truth:,})"
        )
    except EstimationError:
        pass  # variant has no bottom-s threshold (with-replacement)
    print(f"messages: {stats.messages_total:,}")
    return 0


def _perf_suite_config(args: argparse.Namespace):
    from .perf import SuiteConfig

    return SuiteConfig(
        n_events=args.n,
        num_sites=args.sites,
        sample_size=args.sample_size,
        window=args.window,
        seed=args.seed,
        repeats=args.repeats,
        scenarios=tuple(args.scenario or ()),
        variants=tuple(args.variant or ()),
        shards=args.shards,
        workers=args.workers,
        read_ratio=args.read_ratio,
    )


def _cmd_perf_profile(args: argparse.Namespace) -> int:
    import cProfile
    import io
    import pstats

    from .errors import PerfError
    from .perf import SuiteConfig
    from .perf.scenarios import get_scenario
    from .perf.suite import build_sampler_for, close_sampler, warmup_sampler

    scenario = get_scenario(args.scenario)
    executor = args.executor or scenario.executor
    config = SuiteConfig(
        n_events=args.n,
        num_sites=args.sites,
        sample_size=args.sample_size,
        window=args.window,
        seed=args.seed,
        shards=args.shards,
        workers=args.workers,
        read_ratio=args.read_ratio,
    )
    variant_name = args.variant
    if variant_name is None:
        for name in sampler_variants():
            probe = build_sampler_for(
                config, name, scenario.slotted, executor
            )
            if scenario.applies_to(name, probe):
                variant_name = name
                break
        if variant_name is None:
            raise PerfError(
                f"no registered variant applies to scenario {args.scenario!r}"
            )
    else:
        probe = build_sampler_for(
            config, variant_name, scenario.slotted, executor
        )
        if not scenario.applies_to(variant_name, probe):
            raise PerfError(
                f"scenario {args.scenario!r} does not apply to variant "
                f"{variant_name!r}"
            )
    params = config.scenario_params()
    events = scenario.build(params)
    sampler = build_sampler_for(
        config, variant_name, scenario.slotted, executor
    )
    warmup_sampler(sampler)  # keep worker start-up out of the profile
    profiler = cProfile.Profile()
    profiler.enable()
    scenario.driver(sampler, events, params)
    profiler.disable()
    close_sampler(sampler)
    print(
        f"profiled scenario={args.scenario} variant={variant_name} "
        f"n={len(events)} sites={args.sites} shards={args.shards} "
        f"executor={executor or 'serial'}"
    )
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(args.top)
    print(stream.getvalue(), end="")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .devtools.lint import all_rules, run_lint

    if args.list_rules:
        width = max(len(rule.code) for rule in all_rules())
        for rule in all_rules():
            print(
                f"{rule.code.ljust(width)}  [{rule.severity}] "
                f"{rule.name}: {rule.summary}"
            )
        return 0
    report = run_lint(args.paths, rules=args.rule)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def _guard_baseline_overwrite(out, force: bool) -> None:
    """Refuse to clobber a committed baseline unless ``--force`` is given.

    Raises:
        ReproError: When the target exists and ``force`` is False —
            an accidental bare ``baseline`` run must not silently move
            the goalposts the CI gates measure against.
    """
    path = pathlib.Path(out)
    if path.exists() and not force:
        raise ReproError(
            f"refusing to overwrite existing baseline {path} "
            "(pass --force to regenerate it deliberately)"
        )


def _cmd_perf(args: argparse.Namespace) -> int:
    from .perf import (
        Tolerances,
        compare_reports,
        load_report,
        render_markdown,
        run_suite,
        save_report,
    )

    if args.perf_command == "profile":
        return _cmd_perf_profile(args)

    if args.perf_command == "compare":
        current = load_report(args.current)
        baseline = load_report(args.baseline)
        comparison = compare_reports(
            current,
            baseline,
            Tolerances(
                time_factor=args.time_tolerance,
                count_factor=args.count_tolerance,
            ),
        )
        if args.format == "markdown":
            print(render_markdown(comparison, current))
        else:
            print(comparison.render())
        return 0 if comparison.ok else 1

    if args.perf_command == "baseline":
        _guard_baseline_overwrite(args.out, args.force)
    report = run_suite(_perf_suite_config(args), progress=print)
    out = args.out
    if args.perf_command == "baseline" or out is not None:
        path = save_report(report, out)
        print(f"wrote {path} ({len(report.records)} records)")
    return 0


def _accuracy_config(args: argparse.Namespace):
    from .accuracy import AccuracyConfig
    from .accuracy.suite import DEFAULT_SCENARIOS, DEFAULT_VARIANTS

    return AccuracyConfig(
        n_events=args.n,
        num_sites=args.sites,
        sample_size=args.sample_size,
        window=args.window,
        seed=args.seed,
        scenarios=tuple(args.scenario or DEFAULT_SCENARIOS),
        variants=tuple(args.variant or DEFAULT_VARIANTS),
        estimators=tuple(args.estimator or ()),
        shards=args.shards,
        workers=args.workers,
    )


def _cmd_accuracy(args: argparse.Namespace) -> int:
    from .accuracy import (
        AccuracyTolerances,
        compare_accuracy_reports,
        load_accuracy_report,
        run_accuracy_suite,
        save_accuracy_report,
    )

    if args.accuracy_command == "compare":
        current = load_accuracy_report(args.current)
        baseline = load_accuracy_report(args.baseline)
        comparison = compare_accuracy_reports(
            current,
            baseline,
            AccuracyTolerances(
                drift_factor=args.drift_factor, slack=args.slack
            ),
        )
        if args.format == "markdown":
            print(comparison.render_markdown(), end="")
        else:
            print(comparison.render())
        return 0 if comparison.ok else 1

    if args.accuracy_command == "baseline":
        _guard_baseline_overwrite(args.out, args.force)
    report = run_accuracy_suite(_accuracy_config(args), progress=print)
    out = args.out
    if args.accuracy_command == "baseline" or out is not None:
        path = save_accuracy_report(report, out)
        print(f"wrote {path} ({len(report.records)} records)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "datasets":
            return _cmd_datasets()
        if args.command == "variants":
            return _cmd_variants()
        if args.command == "demo":
            return _cmd_demo(args)
        if args.command == "perf":
            return _cmd_perf(args)
        if args.command == "accuracy":
            return _cmd_accuracy(args)
        if args.command == "lint":
            return _cmd_lint(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
