"""Command-line interface for the repro library.

Subcommands::

    repro generate    synthesize a dataset (random walks or stock-like) to CSV
    repro build       load a CSV dataset into a persistent database file
    repro info        describe a database file
    repro query       similarity / kNN search against a database file
    repro compare     run all search methods on a workload and tabulate costs
    repro experiment  regenerate a paper figure or ablation (e1..e4, a1..a5)
    repro report      run the whole experiment battery, emit markdown
    repro cluster     group a dataset's sequences by warping similarity
    repro explain     show the optimal warping between a query and a sequence
    repro bench       run named benchmarks, track BENCH_*.json, gate regressions
    repro lint        run the domain-aware static analyzer over the tree
    repro profile     trace a query workload, render flamegraphs/timelines

Every subcommand is importable and testable through :func:`main`, which
accepts an argv list and returns a process exit code.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import Callable, Sequence as TypingSequence

import numpy as np

from . import __version__
from .data.queries import QueryWorkload
from .data.stocks import load_stock_csv, synthetic_sp500
from .data.synthetic import random_walk_dataset
from .core.engine import TimeWarpingDatabase
from .eval import experiments as exp
from .eval.harness import WorkloadRunner
from .eval.reporting import format_table
from .exceptions import ReproError, ValidationError
from .exec import available_executors
from .storage.store import available_stores
from .index.backend import EXACT_BACKEND_NAMES
from .obs.export import (
    render_flamegraph_svg,
    render_metrics_table,
    render_pruning_waterfall,
    render_span_timeline,
    render_span_tree,
    snapshot_to_json,
    spans_to_folded,
    spans_to_json,
)
from .obs.metrics import MetricsRegistry, use_registry
from .obs.querylog import QueryLogWriter, load_querylog, use_querylog
from .obs.tracing import Tracer, active_tracer, use_tracer
from .methods import (
    CascadeScan,
    EngineMethod,
    FastMapMethod,
    LBScan,
    NaiveScan,
    STFilter,
    TWSimSearch,
)
from .storage.database import SequenceDatabase
from .types import Sequence

__all__ = ["main", "build_parser"]

_EXPERIMENTS: dict[str, Callable[[], exp.ExperimentResult]] = {
    "e1": exp.experiment1_candidate_ratio,
    "e2": exp.experiment2_elapsed_stock,
    "e3": exp.experiment3_scale_count,
    "e4": exp.experiment4_scale_length,
    "a1": exp.ablation_base_distance,
    "a2": exp.ablation_features,
    "a3": exp.ablation_bulk_load,
    "a5": exp.ablation_lower_bounds,
    "c1": exp.experiment_cascade_stages,
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for doc generation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Index-based similarity search under time warping "
        "(Kim/Park/Chu, ICDE 2001).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect observability counters and print them after the command",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the metrics snapshot as JSON to PATH (implies --metrics "
        "collection, suppresses the table unless --metrics is also given)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record trace spans and print the span tree after the command",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write recorded spans as JSON to PATH",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a dataset to CSV")
    gen.add_argument("--kind", choices=["walk", "stocks"], default="walk")
    gen.add_argument("--n", type=int, default=100, help="number of sequences")
    gen.add_argument("--length", type=int, default=100, help="average length")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--jitter", type=float, default=0.0, help="length jitter (walks only)"
    )
    gen.add_argument("--out", required=True, help="output CSV path")

    build = sub.add_parser("build", help="load a CSV into a database file")
    build.add_argument("--input", required=True, help="CSV dataset")
    build.add_argument("--out", required=True, help="database file path")
    build.add_argument("--page-size", type=int, default=1024)
    build.add_argument(
        "--store",
        choices=sorted(available_stores()),
        default=None,
        help="sequence store layout (default: REPRO_STORE or 'heap'); "
        "'mmap' writes a memory-mapped columnar data file read back "
        "zero-copy; answers and counters are identical for every choice",
    )

    info = sub.add_parser("info", help="describe a database file")
    info.add_argument("--db", required=True)

    query = sub.add_parser("query", help="search a database file")
    query.add_argument("--db", required=True)
    query.add_argument(
        "--query",
        required=True,
        help="comma-separated elements, or @FILE with one element per line",
    )
    query.add_argument(
        "--backend",
        choices=sorted(EXACT_BACKEND_NAMES),
        default="rtree",
        help="index backend used to answer the query",
    )
    query.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the database across N shards queried in parallel",
    )
    query.add_argument(
        "--executor",
        choices=sorted(available_executors()),
        default=None,
        help="shard execution plane (default: REPRO_EXECUTOR or 'thread'); "
        "answers are identical for every choice",
    )
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument("--epsilon", type=float, help="tolerance search")
    group.add_argument("--knn", type=int, help="k-nearest-neighbour search")
    query.add_argument(
        "--explain",
        action="store_true",
        help="print this query's pruning waterfall (per-tier candidates, "
        "node reads, DTW cells, early-abandon depth) and a span timeline; "
        "needs --epsilon",
    )
    query.add_argument(
        "--querylog",
        metavar="PATH",
        help="append this query's structured JSONL record to PATH",
    )
    query.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="with --querylog, only write the record when the query "
        "took at least MS milliseconds (slow-query log)",
    )

    compare = sub.add_parser(
        "compare", help="run all methods on a workload and tabulate costs"
    )
    compare.add_argument("--input", help="CSV dataset (default: synthetic stocks)")
    compare.add_argument("--epsilon", type=float, default=1.0)
    compare.add_argument("--queries", type=int, default=5)
    compare.add_argument("--seed", type=int, default=7)
    compare.add_argument(
        "--fastmap", action="store_true", help="include the FastMap baseline"
    )
    compare.add_argument(
        "--cascade",
        action="store_true",
        help="include Cascade-Scan and print per-stage survival ratios",
    )
    compare.add_argument(
        "--backend",
        action="append",
        choices=sorted(EXACT_BACKEND_NAMES),
        default=None,
        metavar="NAME",
        help="also run the query engine with this index backend "
        "(repeatable; combine with --shards)",
    )
    compare.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard count for the --backend engine rows",
    )
    compare.add_argument(
        "--executor",
        choices=sorted(available_executors()),
        default=None,
        help="shard execution plane for the --backend engine rows",
    )
    compare.add_argument(
        "--store",
        choices=sorted(available_stores()),
        default=None,
        help="sequence store holding the workload's database "
        "(default: REPRO_STORE or 'heap')",
    )

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper figure or ablation"
    )
    experiment.add_argument("id", choices=sorted(_EXPERIMENTS))

    report = sub.add_parser(
        "report", help="run the whole experiment battery, emit markdown"
    )
    report.add_argument("--out", help="write to this file instead of stdout")
    report.add_argument(
        "--skip-stock", action="store_true", help="omit Figures 2-3"
    )
    report.add_argument(
        "--skip-scale", action="store_true", help="omit Figures 4-5"
    )
    report.add_argument(
        "--skip-ablations", action="store_true", help="omit ablations"
    )

    cluster = sub.add_parser(
        "cluster", help="group a dataset's sequences by warping similarity"
    )
    cluster.add_argument("--input", help="CSV dataset (default: synthetic stocks)")
    cluster_eps = cluster.add_mutually_exclusive_group(required=True)
    cluster_eps.add_argument("--epsilon", type=float, help="fixed tolerance")
    cluster_eps.add_argument(
        "--selectivity",
        type=float,
        help="calibrate the tolerance to this pair selectivity (e.g. 0.01)",
    )
    cluster.add_argument("--seed", type=int, default=0)

    explain = sub.add_parser(
        "explain", help="show the optimal warping between a query and a sequence"
    )
    explain.add_argument("--db", required=True)
    explain.add_argument("--seq", type=int, required=True, help="sequence id")
    explain.add_argument(
        "--query",
        required=True,
        help="comma-separated elements, or @FILE with one element per line",
    )

    bench = sub.add_parser(
        "bench",
        help="run named benchmarks, write BENCH_*.json, gate regressions",
    )
    bench.add_argument(
        "--list", action="store_true", help="list registered benchmark specs"
    )
    bench.add_argument(
        "--run",
        action="append",
        metavar="NAME",
        help="run this spec (repeatable; 'all' runs every spec)",
    )
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="use each spec's CI-sized smoke workload",
    )
    bench.add_argument(
        "--out",
        default=".",
        metavar="DIR",
        help="directory for BENCH_*.json trajectory files (default: .)",
    )
    bench.add_argument(
        "--compare",
        action="store_true",
        help="compare results against the committed baselines; with --run "
        "compares the results just produced, otherwise the BENCH_*.json "
        "files found in --out",
    )
    bench.add_argument(
        "--update-baselines",
        action="store_true",
        help="bless the produced/loaded results as the new baselines",
    )
    bench.add_argument(
        "--baseline-dir",
        default=None,
        metavar="DIR",
        help="baseline store (default: benchmarks/_baselines)",
    )
    bench.add_argument(
        "--wall-tolerance",
        type=float,
        default=None,
        metavar="FRAC",
        help="relative wall-time drift tolerated before warning "
        "(default: 0.35)",
    )
    bench.add_argument(
        "--strict-wall",
        action="store_true",
        help="treat wall-time drift beyond the band as failure, not warning",
    )

    profile = sub.add_parser(
        "profile",
        help="run a traced query workload; emit flamegraphs, timelines "
        "and a structured query log",
    )
    profile.add_argument("--db", help="database file to query")
    profile.add_argument(
        "--queries", type=int, default=5, help="number of workload queries"
    )
    profile.add_argument("--epsilon", type=float, default=1.0)
    profile.add_argument("--seed", type=int, default=7)
    profile.add_argument(
        "--backend",
        choices=sorted(EXACT_BACKEND_NAMES),
        default="rtree",
    )
    profile.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the database across N shards",
    )
    profile.add_argument(
        "--executor",
        choices=sorted(available_executors()),
        default=None,
        help="shard execution plane (default: REPRO_EXECUTOR or 'thread')",
    )
    profile.add_argument(
        "--svg",
        metavar="PATH",
        help="write a flamegraph SVG of the traced spans to PATH",
    )
    profile.add_argument(
        "--folded",
        metavar="PATH",
        help="write folded stacks (flamegraph.pl format) to PATH",
    )
    profile.add_argument(
        "--querylog",
        metavar="PATH",
        help="write one structured JSONL record per query to PATH",
    )
    profile.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="with --querylog, only log queries at least MS ms slow",
    )
    profile.add_argument(
        "--validate",
        metavar="PATH",
        help="instead of running queries, load PATH as a query log and "
        "validate every record against the current schema",
    )

    lint = sub.add_parser(
        "lint",
        help="run the repro-specific static analyzer (rules RL001-RL016)",
    )
    lint.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="files or directories to lint (directories recurse into *.py)",
    )
    lint.add_argument(
        "--rules",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all, e.g. "
        "RL002,RL004)",
    )
    lint.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        dest="fmt",
        help="report format (default: table)",
    )
    lint.add_argument(
        "--fix-suppressions",
        action="store_true",
        help="append '# repro-lint: disable=CODE' to each violating line "
        "(merging codes into an existing disable comment) instead of "
        "failing",
    )
    lint.add_argument(
        "--prune-suppressions",
        action="store_true",
        help="delete stale 'repro-lint: disable=' waivers (comments whose "
        "rule no longer fires on that line/file) instead of failing",
    )
    lint.add_argument(
        "--graph",
        default=None,
        metavar="OUT",
        help="also export the semantic call graph to OUT (.json or .dot, "
        "chosen by extension)",
    )
    lint.add_argument(
        "--project-root",
        default=None,
        metavar="DIR",
        help="repository root for cross-file rules (default: walk up from "
        "the first PATH to pyproject.toml)",
    )

    return parser


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "walk":
        sequences = random_walk_dataset(
            args.n, args.length, seed=args.seed, length_jitter=args.jitter
        )
    else:
        sequences = synthetic_sp500(args.n, args.length, seed=args.seed).sequences
    out = Path(args.out)
    with open(out, "w") as f:
        for seq in sequences:
            label = seq.label or ""
            row = ",".join(f"{v:.10g}" for v in seq.values)
            f.write(f"{label},{row}\n" if label else row + "\n")
    print(f"wrote {len(sequences)} sequences to {out}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    dataset = load_stock_csv(args.input)
    db = SequenceDatabase(page_size=args.page_size, store=args.store)
    db.insert_many(dataset.sequences)
    db.save(args.out)
    print(
        f"built {args.out}: {len(db)} sequences, {db.total_pages} pages "
        f"of {db.page_size} B ({db.store_name} store)"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    db = SequenceDatabase.load(args.db)
    lengths = [len(db.fetch(i)) for i in db.ids()]
    print(f"database: {args.db}")
    print(f"  sequences:      {len(db)}")
    print(f"  store:          {db.store_name}")
    print(f"  page size:      {db.page_size} B")
    print(f"  data pages:     {db.total_pages}")
    print(f"  total elements: {sum(lengths)}")
    if lengths:
        print(
            f"  lengths:        min={min(lengths)} "
            f"avg={sum(lengths) / len(lengths):.1f} max={max(lengths)}"
        )
    return 0


def _parse_query(text: str) -> np.ndarray:
    """The ``--query`` values: comma-separated, or ``@FILE`` (whitespace).

    A token that is not a number raises a :class:`ValidationError`
    naming it (and, for ``@FILE``, its line), so the CLI reports one
    error line instead of a traceback.
    """
    if text.startswith("@"):
        path = Path(text[1:])
        try:
            lines = path.read_text().splitlines()
        except OSError as error:
            raise ValidationError(
                f"cannot read query file {path}: {error}"
            ) from error
        tokens = [
            (token, f"{path}:{number}")
            for number, line in enumerate(lines, start=1)
            for token in line.split()
        ]
    else:
        tokens = [
            (token.strip(), "--query") for token in text.split(",") if token.strip()
        ]
    values: list[float] = []
    for token, where in tokens:
        try:
            values.append(float(token))
        except ValueError:
            raise ValidationError(
                f"query value {token!r} ({where}) is not a number"
            ) from None
    return np.array(values)


def _querylog_writer(args: argparse.Namespace) -> QueryLogWriter | None:
    """A writer for the --querylog/--slow-ms flags (None when unused)."""
    if not getattr(args, "querylog", None):
        if getattr(args, "slow_ms", None) is not None:
            raise ValidationError("--slow-ms requires --querylog PATH")
        return None
    threshold = args.slow_ms / 1000.0 if args.slow_ms is not None else None
    return QueryLogWriter(args.querylog, slow_threshold_seconds=threshold)


def _report_querylog(writer: QueryLogWriter | None) -> None:
    if writer is None:
        return
    line = f"query log: {writer.written} record(s) -> {writer.path}"
    if writer.skipped:
        line += f" ({writer.skipped} under the slow-query threshold)"
    print(line)


def _cmd_query(args: argparse.Namespace) -> int:
    if args.shards < 1:
        raise ValidationError(f"shards must be >= 1, got {args.shards}")
    storage = SequenceDatabase.load(args.db)
    query = _parse_query(args.query)
    writer = _querylog_writer(args)
    # --explain gets its own tracer when none is ambient, so the span
    # timeline works without requiring the global --trace flag.
    tracer = active_tracer()
    own_tracer = args.explain and tracer is None
    if own_tracer:
        tracer = Tracer()
    with ExitStack() as scopes:
        if writer is not None:
            scopes.enter_context(use_querylog(writer))
        if own_tracer:
            scopes.enter_context(use_tracer(tracer))
        facade = scopes.enter_context(
            TimeWarpingDatabase.from_storage(
                storage,
                backend=args.backend,
                shards=args.shards,
                executor=args.executor,
            )
        )
        if args.epsilon is not None:
            result = facade.search_detailed(query, args.epsilon)
            matches = result.matches
            candidates = len(result.candidate_ids)
            print(
                f"{len(matches)} match(es) within eps={args.epsilon} "
                f"({candidates} candidate(s) examined)"
            )
            for match in matches:
                print(f"  seq {match.seq_id}  D_tw={match.distance:.6g}")
            if args.explain:
                print()
                print("pruning waterfall:")
                stages = [
                    (stage.name, stage.n_in, stage.n_out)
                    for stage in result.stats.stages
                ]
                print(render_pruning_waterfall(stages, result.metrics))
                if tracer is not None:
                    print()
                    print("span timeline:")
                    print(render_span_timeline(tracer.roots))
        else:
            if args.explain:
                raise ValidationError(
                    "--explain requires --epsilon (the pruning waterfall is "
                    "defined for tolerance search)"
                )
            neighbours = facade.knn(query, args.knn)
            print(f"{args.knn} nearest neighbour(s):")
            for match in neighbours:
                print(f"  seq {match.seq_id}  D_tw={match.distance:.6g}")
    _report_querylog(writer)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.input:
        sequences = load_stock_csv(args.input).sequences
    else:
        sequences = synthetic_sp500(120, 60, seed=args.seed).sequences
    db = SequenceDatabase(store=args.store)
    db.insert_many(sequences)
    factories = [
        lambda d: NaiveScan(d),
        lambda d: LBScan(d),
        lambda d: STFilter(d),
        lambda d: TWSimSearch(d),
    ]
    if args.cascade:
        factories.append(lambda d: CascadeScan(d))
    if args.fastmap:
        factories.append(lambda d: FastMapMethod(d))
    if args.shards < 1:
        raise ValidationError(f"shards must be >= 1, got {args.shards}")
    for backend in args.backend or ():
        factories.append(
            lambda d, b=backend: EngineMethod(
                d, backend=b, shards=args.shards, executor=args.executor
            )
        )
    runner = WorkloadRunner(db, factories)
    queries = QueryWorkload(
        sequences, n_queries=args.queries, seed=args.seed
    ).queries()
    try:
        summary = runner.run(queries, args.epsilon)
    finally:
        for method in runner.methods:
            if isinstance(method, EngineMethod):
                method.close()
    rows = []
    for name in summary.methods():
        agg = summary[name]
        rows.append(
            [
                name,
                agg.mean_answers,
                agg.mean_candidates,
                agg.mean_cpu,
                agg.mean_io,
                agg.mean_elapsed,
            ]
        )
    print(
        format_table(
            ["method", "answers", "candidates", "cpu s", "sim-io s", "elapsed s"],
            rows,
            title=(
                f"{len(db)} sequences, {len(queries)} queries, "
                f"eps={args.epsilon}"
            ),
        )
    )
    if args.cascade:
        stage_rows = []
        for name in summary.methods():
            agg = summary[name]
            for stage, ratio in agg.stage_survival().items():
                stage_rows.append([name, stage, ratio])
        if stage_rows:
            print()
            print(
                format_table(
                    ["method", "stage", "survival ratio"],
                    stage_rows,
                    title="per-stage pruning (survivors / entrants)",
                )
            )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = _EXPERIMENTS[args.id]()
    print(result.render())
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .analysis import cluster_by_similarity, suggest_epsilon
    from .analysis.clustering import medoid

    if args.input:
        sequences = load_stock_csv(args.input).sequences
    else:
        sequences = synthetic_sp500(120, 60, seed=args.seed).sequences
    arrays = [np.asarray(seq.values) for seq in sequences]
    labels = [seq.label or f"seq{i}" for i, seq in enumerate(sequences)]
    if args.epsilon is not None:
        epsilon = args.epsilon
    else:
        epsilon = suggest_epsilon(
            arrays, args.selectivity, seed=args.seed
        )
        print(f"calibrated tolerance: eps = {epsilon:.4g}")
    clustering = cluster_by_similarity(arrays, epsilon)
    groups = clustering.non_trivial()
    print(
        f"{len(sequences)} sequences -> {clustering.n_clusters} cluster(s), "
        f"{len(groups)} with >= 2 members"
    )
    for rank, members in enumerate(groups[:10], 1):
        archetype = medoid(arrays, members)
        names = ", ".join(labels[i] for i in members[:6])
        extra = " ..." if len(members) > 6 else ""
        print(
            f"  #{rank}: {len(members)} member(s), medoid {labels[archetype]}: "
            f"{names}{extra}"
        )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .distance.alignment import render_alignment

    db = SequenceDatabase.load(args.db)
    query = _parse_query(args.query)
    stored = db.fetch(args.seq)
    print(f"alignment of seq {args.seq} (len {len(stored)}) vs query "
          f"(len {query.size}):")
    print(render_alignment(stored.values, query))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .eval.report import generate_report

    report = generate_report(
        include_stock=not args.skip_stock,
        include_scale=not args.skip_scale,
        include_ablations=not args.skip_ablations,
    )
    if args.out:
        Path(args.out).write_text(report)
        print(f"wrote report to {args.out}")
    else:
        print(report)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .perf import (
        DEFAULT_BASELINE_DIR,
        DEFAULT_WALL_TOLERANCE,
        WORKLOADS,
        bench_filename,
        compare_against_baselines,
        iter_specs,
        run_spec,
        save_baseline,
        write_bench_result,
    )
    from .perf.runner import to_experiment_result
    from .perf.spec import BenchResult, load_bench_file

    if not (args.list or args.run or args.compare or args.update_baselines):
        raise ValidationError(
            "nothing to do: pass --list, --run NAME, --compare, or "
            "--update-baselines"
        )
    baseline_dir = args.baseline_dir or str(DEFAULT_BASELINE_DIR)
    if args.list:
        name_w = max(len(name) for name in WORKLOADS)
        for name, spec in sorted(WORKLOADS.items()):
            print(f"{name:<{name_w}}  [{spec.kind}]  {spec.title}")
        if not (args.run or args.compare or args.update_baselines):
            return 0

    results: list[BenchResult] = []
    if args.run:
        out_dir = Path(args.out)
        for spec in iter_specs(args.run):
            result = run_spec(spec, smoke=args.smoke)
            path = write_bench_result(result, out_dir)
            summary = ", ".join(
                f"{series}={values[-1]:.4g}s"
                for series, values in sorted(result.series.items())
            )
            print(f"{spec.name}: wrote {path} ({summary})")
        # refresh after writing so --compare reads what --run produced
        results = [
            load_bench_file(out_dir / bench_filename(spec.name))
            for spec in iter_specs(args.run)
        ]
    elif args.compare or args.update_baselines:
        found = sorted(Path(args.out).glob("BENCH_*.json"))
        if not found:
            print(
                f"error: no BENCH_*.json files in {args.out!r} "
                "(produce some with --run)",
                file=sys.stderr,
            )
            return 1
        results = [load_bench_file(p) for p in found]
        print(f"loaded {len(results)} result(s) from {args.out}")

    if args.update_baselines:
        for result in results:
            path = save_baseline(result, baseline_dir=baseline_dir)
            tier = "smoke" if result.smoke else "full"
            print(f"{result.name}: baseline ({tier}) -> {path}")
        return 0

    if args.compare:
        report = compare_against_baselines(
            results,
            baseline_dir=baseline_dir,
            wall_tolerance=(
                args.wall_tolerance
                if args.wall_tolerance is not None
                else DEFAULT_WALL_TOLERANCE
            ),
            strict_wall=args.strict_wall,
        )
        print()
        print(report.render())
        return report.exit_code
    # keep the human-readable rendering available from the CLI too
    if args.run and not args.compare:
        for result in results:
            print()
            print(to_experiment_result(result).render())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    if args.validate:
        records = load_querylog(args.validate)
        kinds: dict[str, int] = {}
        for record in records:
            kinds[record.kind] = kinds.get(record.kind, 0) + 1
        detail = ", ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
        suffix = f" ({detail})" if detail else ""
        print(f"{args.validate}: {len(records)} valid record(s){suffix}")
        return 0
    if args.shards < 1:
        raise ValidationError(f"shards must be >= 1, got {args.shards}")
    if args.db:
        storage = SequenceDatabase.load(args.db)
        sequences = [storage.fetch(i) for i in storage.ids()]
    else:
        sequences = synthetic_sp500(60, 40, seed=args.seed).sequences
        storage = SequenceDatabase()
        storage.insert_many(sequences)
    queries = QueryWorkload(
        sequences, n_queries=args.queries, seed=args.seed
    ).queries()
    tracer = Tracer()
    writer = _querylog_writer(args)
    total_matches = 0
    with ExitStack() as scopes:
        scopes.enter_context(use_tracer(tracer))
        if writer is not None:
            scopes.enter_context(use_querylog(writer))
        facade = scopes.enter_context(
            TimeWarpingDatabase.from_storage(
                storage,
                backend=args.backend,
                shards=args.shards,
                executor=args.executor,
            )
        )
        for query in queries:
            total_matches += len(facade.search(query, args.epsilon))
    roots = tracer.roots
    print(
        f"profiled {len(queries)} query(ies) at eps={args.epsilon}: "
        f"{total_matches} total match(es), {len(roots)} root span(s)"
    )
    print()
    print("span timeline:")
    print(render_span_timeline(roots))
    if args.folded:
        folded = Path(args.folded)
        folded.parent.mkdir(parents=True, exist_ok=True)
        folded.write_text(spans_to_folded(roots) + "\n")
        print(f"wrote folded stacks to {args.folded}")
    if args.svg:
        svg = Path(args.svg)
        svg.parent.mkdir(parents=True, exist_ok=True)
        svg.write_text(render_flamegraph_svg(roots))
        print(f"wrote flamegraph SVG to {args.svg}")
    _report_querylog(writer)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import apply_suppressions, prune_suppressions, run_lint

    rules = None
    if args.rules:
        rules = [code.strip() for code in args.rules.split(",") if code.strip()]
    root = Path(args.project_root) if args.project_root else None
    report = run_lint(
        [Path(p) for p in args.paths],
        rules=rules,
        root=root,
        want_graph=args.graph is not None,
    )
    if args.graph is not None:
        from .lint.semantics import render_dot, render_json

        out = Path(args.graph)
        render = render_dot if out.suffix == ".dot" else render_json
        assert report.graph is not None
        out.write_text(render(report.graph))
        print(f"wrote call graph to {out}")
    if args.fix_suppressions:
        changed = apply_suppressions(report)
        for path in changed:
            print(f"suppressed: {path}")
        print(
            f"added suppressions for {len(report.violations)} violation(s) "
            f"across {len(changed)} file(s)"
        )
        return 0
    if args.prune_suppressions:
        changed = prune_suppressions(report)
        for path in changed:
            print(f"pruned: {path}")
        print(
            f"removed {len(report.stale)} stale waiver(s) "
            f"across {len(changed)} file(s)"
        )
        return 0
    if args.fmt == "json":
        print(report.to_json())
    else:
        print(report.render())
    return report.exit_code


_COMMANDS = {
    "generate": _cmd_generate,
    "build": _cmd_build,
    "info": _cmd_info,
    "query": _cmd_query,
    "compare": _cmd_compare,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
    "cluster": _cmd_cluster,
    "explain": _cmd_explain,
    "bench": _cmd_bench,
    "profile": _cmd_profile,
    "lint": _cmd_lint,
}


def _emit_observability(
    args: argparse.Namespace,
    registry: MetricsRegistry | None,
    tracer: Tracer | None,
) -> None:
    """Print/write whatever --metrics/--trace flags asked for."""
    if registry is not None:
        snapshot = registry.snapshot()
        if args.metrics_out:
            Path(args.metrics_out).write_text(snapshot_to_json(snapshot))
            print(f"wrote metrics snapshot to {args.metrics_out}")
        if args.metrics:
            print()
            print(render_metrics_table(snapshot))
    if tracer is not None:
        roots = tracer.roots
        if args.trace_out:
            Path(args.trace_out).write_text(spans_to_json(roots))
            print(f"wrote {len(roots)} trace span(s) to {args.trace_out}")
        if args.trace:
            print()
            print(render_span_tree(roots))


def main(argv: TypingSequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    registry = (
        MetricsRegistry() if (args.metrics or args.metrics_out) else None
    )
    tracer = Tracer() if (args.trace or args.trace_out) else None
    try:
        with ExitStack() as scopes:
            if registry is not None:
                scopes.enter_context(use_registry(registry))
            if tracer is not None:
                scopes.enter_context(use_tracer(tracer))
            code = _COMMANDS[args.command](args)
        _emit_observability(args, registry, tracer)
        # Flush here so a reader that closed the pipe surfaces below,
        # not in the interpreter's exit flush.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``repro query ... | head``):
        # not an error.  Point stdout at devnull so the exit flush of
        # whatever is still buffered stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
