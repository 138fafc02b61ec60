"""Command-line interface to the reproduction.

Subcommands mirror the workflow of the paper's systems::

    repro-rating world      --seed 7 --out fair.csv
    repro-rating attack     --world fair.csv --target tv1:-1 --target tv3:+1 \
                            --bias 2.5 --std 0.4 --out attack.json
    repro-rating evaluate   --world fair.csv --submission attack.json --scheme P
    repro-rating detect     --world fair.csv --product tv1
    repro-rating population --seed 7 --size 25 --scheme SA
    repro-rating search     --seed 7 --scheme P --probes 4

``world`` writes fair rating data as CSV; ``attack`` builds one unfair
rating submission (JSON); ``evaluate`` scores a submission's Manipulation
Power under a defense; ``detect`` prints the joint detector's verdict for
one product (``--explain`` adds the per-rating provenance table);
``population`` simulates a challenge round with synthetic participants;
``search`` runs the Procedure 2 region search.

Every command accepts ``--seed`` for reproducibility, plus the global
observability flags ``--log-level LEVEL`` (structured logs to stderr),
``--metrics-out PATH`` (collect pipeline metrics for the invocation and
write them as JSON), ``--trace-out PATH`` (export the recorded span tree
as Chrome/Perfetto ``trace_event`` JSON, with one lane per worker
process), ``--ledger PATH`` (append one run record -- argv, workload
fingerprint, metrics, timings, result digests, environment -- to a
persistent JSONL ledger), and ``--profile-out PATH`` (sample the
invocation with the span-attributed wall-clock profiler at
``--profile-hz`` samples/second; ``--profile-mem`` adds
tracemalloc-backed per-span allocation telemetry).  Time-series
telemetry rides on three more globals: ``--metrics-stream PATH``
streams one flattened metrics snapshot per epoch close as JSONL
(tailable live with ``repro-rating monitor PATH``),
``--alert-rules PATH`` evaluates a declarative alert ruleset
(threshold / rate-of-change / burn-rate conditions, TOML or JSON;
default: the packaged ruleset) at each epoch close, and
``--openmetrics-out PATH`` writes the final registry in OpenMetrics /
Prometheus text exposition format.  The scaling globals ``--workers N`` and
``--cache-dir DIR`` route ``population``/``search``/``sensitivity``
through the :mod:`repro.exec` engine: evaluations fan out over ``N``
processes (bit-identical to serial, and since the telemetry-capsule
merge, observationally identical too) and/or replay from a persistent MP
cache.

Three inspection subcommands close the loop: ``trace FILE`` validates
and summarizes an exported trace, ``profile FILE`` summarizes a
``--profile-out`` artifact (top self-time spans and frames) and
re-exports it as speedscope JSON, collapsed stacks, or a Perfetto
profiler lane, and ``runs list|show|diff|check`` reads a ledger -- ``runs check`` compares the latest run against a rolling
baseline of comparable runs and exits 1 when result digests, stable
metrics, wall-clock, or the alert state regressed beyond the
configured thresholds (``--allow-alerts`` waives the alert check), and
3 when no comparable baseline exists (nothing was checked -- distinct
from "checked and clean").  ``monitor FILE`` tails a
``--metrics-stream`` file and renders terminal sparklines plus the
live alert board (``--once`` renders a single frame for scripts and
CI), and ``alerts`` validates and lists alert-rule files
(``--check`` for exit-status-only validation).

Detection quality closes the last gap: ``report --out FILE`` runs a
seeded challenge scenario end to end and writes a single self-contained
HTML (or Markdown) run report -- ground-truth scorecards with
per-detector confusion counts, an ROC sweep with an inline SVG curve,
per-epoch trust trajectories, assumption-drift warnings, ledger and
environment metadata -- with zero external asset references.  The
``--report-out PATH`` global does the same for *any* invocation,
rendering whatever its registry collected.

``lint`` runs :mod:`repro.lint`, the AST-based invariant checker that
machine-verifies the determinism contract (seeded RNGs, pickle-safe task
payloads, catalogued metric names, wall-clock hygiene, span balance,
ordered iteration near fingerprints); every argument after ``lint`` goes
to ``python -m repro.lint`` unchanged, so the two take the same options.
See ``docs/LINT.md``.

Exit status is 0 on success, 1 on a detected regression (``runs check``)
or a non-baselined lint finding, 2 on argument errors, 3 when ``runs
check`` found no comparable baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter, sleep
from typing import Optional, Sequence

import numpy as np

from repro.aggregation import BetaFilterScheme, PScheme, SimpleAveragingScheme
from repro.analysis.reporting import format_table
from repro.attacks.base import ProductTarget
from repro.attacks.generator import AttackGenerator, AttackSpec
from repro.attacks.optimizer import SearchArea, heuristic_region_search
from repro.attacks.population import PopulationConfig, generate_population
from repro.attacks.time_models import UniformWindow
from repro.detectors import JointDetector
from repro.errors import ReproError
from repro.marketplace.challenge import RatingChallenge
from repro.marketplace.fair_ratings import FairRatingConfig, FairRatingGenerator
from repro.marketplace.io import (
    load_dataset_csv,
    load_submission_json,
    save_dataset_csv,
    save_submission_json,
)
from repro.obs import (
    DEFAULT_RULES_PATH,
    AlertEngine,
    MetricsRegistry,
    MetricsStreamWriter,
    TimeSeriesRecorder,
    ledger as run_ledger,
    load_rules,
    profile as obs_profile,
    render_frame,
    render_openmetrics,
    replay_stream,
    report_from_registry,
    set_registry,
    setup_logging,
    write_json,
    write_report,
)
from repro.obs.trace import read_trace, summarize_trace, write_trace
from repro.types import RatingDataset

__all__ = ["main", "build_parser"]

_SCHEMES = {
    "SA": SimpleAveragingScheme,
    "BF": BetaFilterScheme,
    "P": PScheme,
}


def _make_scheme(name: str):
    return _SCHEMES[name]()


def _parse_target(text: str) -> ProductTarget:
    try:
        product_id, direction_s = text.rsplit(":", 1)
        direction = int(direction_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"target must look like 'tv1:-1' or 'tv3:+1', got {text!r}"
        ) from None
    if direction not in (-1, 1):
        raise argparse.ArgumentTypeError(
            f"target direction must be -1 or +1, got {direction}"
        )
    return ProductTarget(product_id, direction)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-rating",
        description="Rating-system attack modeling (ICDCS 2008 reproduction).",
    )
    # Observability flags shared by every subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--log-level", default="WARNING",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        help="structured log verbosity (stderr; default WARNING)",
    )
    common.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="collect pipeline metrics and write them to PATH as JSON",
    )
    common.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="export the invocation's span tree as Chrome/Perfetto "
             "trace_event JSON (one lane per worker process); inspect "
             "with 'repro-rating trace PATH' or ui.perfetto.dev",
    )
    common.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append one run record (argv, workload fingerprint, metrics, "
             "timings, result digests, environment) to the JSONL ledger at "
             "PATH; inspect with the 'runs' subcommand "
             "(default for 'runs': $REPRO_LEDGER or .repro/ledger.jsonl)",
    )
    common.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="write a self-contained HTML (or Markdown, by extension) run "
             "report of this invocation's telemetry to PATH",
    )
    common.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="sample the invocation with the span-attributed profiler and "
             "write the profile artifact to PATH; inspect or re-export with "
             "'repro-rating profile PATH'",
    )
    common.add_argument(
        "--profile-hz", type=int, default=obs_profile.DEFAULT_HZ, metavar="N",
        help="profiler sampling rate in samples/second "
             f"(default {obs_profile.DEFAULT_HZ})",
    )
    common.add_argument(
        "--profile-mem", action="store_true",
        help="with --profile-out: also record tracemalloc-backed per-span "
             "allocation deltas and peak watermarks (mem.* metrics; "
             "noticeably more overhead than sampling alone)",
    )
    common.add_argument(
        "--metrics-stream", default=None, metavar="PATH",
        help="stream one flattened metrics snapshot per epoch close to "
             "PATH as JSONL; tail it live with 'repro-rating monitor "
             "PATH' (commands without epochs write one closing snapshot)",
    )
    common.add_argument(
        "--alert-rules", default=None, metavar="PATH",
        help="alert-rule file (TOML or JSON) evaluated at each epoch "
             "close; implies series recording (default ruleset: the "
             "packaged drift/quality rules; validate files with "
             "'repro-rating alerts --check')",
    )
    common.add_argument(
        "--openmetrics-out", default=None, metavar="PATH",
        help="write the invocation's final registry in OpenMetrics / "
             "Prometheus text exposition format to PATH",
    )
    common.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker processes for parallelizable commands "
             "(population/search/sensitivity); 0 = serial (default). "
             "Results are bit-identical at any worker count.",
    )
    common.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent MP-evaluation cache directory; repeated runs "
             "replay cached evaluations instead of recomputing them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    world = add_parser("world", help="generate fair rating data (CSV)")
    world.add_argument("--seed", type=int, default=0)
    world.add_argument("--out", required=True, help="output CSV path")
    world.add_argument("--duration-days", type=float, default=82.0)
    world.add_argument("--history-days", type=float, default=45.0)
    world.add_argument("--arrivals-per-day", type=float, default=6.0)

    attack = add_parser("attack", help="generate an attack submission (JSON)")
    attack.add_argument("--world", required=True, help="fair data CSV")
    attack.add_argument(
        "--target", dest="targets", action="append", type=_parse_target,
        required=True, help="product:direction, e.g. tv1:-1 (repeatable)",
    )
    attack.add_argument("--bias", type=float, default=2.0)
    attack.add_argument("--std", type=float, default=0.5)
    attack.add_argument("--n-ratings", type=int, default=50)
    attack.add_argument("--window-start", type=float, default=20.0)
    attack.add_argument("--window-days", type=float, default=40.0)
    attack.add_argument(
        "--correlation", choices=("identity", "random", "heuristic"),
        default="identity",
    )
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument("--out", required=True, help="output JSON path")

    evaluate = add_parser("evaluate", help="score a submission's MP")
    evaluate.add_argument("--world", required=True, help="fair data CSV")
    evaluate.add_argument("--submission", required=True, help="submission JSON")
    evaluate.add_argument(
        "--scheme", choices=sorted(_SCHEMES), action="append", dest="schemes",
        help="defense scheme (repeatable; default: all three)",
    )
    evaluate.add_argument("--period-days", type=float, default=30.0)

    detect = add_parser("detect", help="run the joint detector on a product")
    detect.add_argument("--world", required=True, help="rating data CSV")
    detect.add_argument("--product", required=True)
    detect.add_argument(
        "--explain", action="store_true",
        help="print the per-rating detection provenance table "
             "(which path/detectors marked each suspicious rating)",
    )

    population = add_parser(
        "population", help="simulate a challenge round with synthetic participants"
    )
    population.add_argument("--seed", type=int, default=2008)
    population.add_argument("--size", type=int, default=25)
    population.add_argument(
        "--scheme", choices=sorted(_SCHEMES), default="SA",
    )
    population.add_argument("--top", type=int, default=10)

    search = add_parser("search", help="Procedure 2 region search")
    search.add_argument("--seed", type=int, default=2008)
    search.add_argument("--scheme", choices=sorted(_SCHEMES), default="SA")
    search.add_argument("--probes", type=int, default=4)
    search.add_argument("--subareas", type=int, default=4)

    ablation = add_parser(
        "ablation", help="P-scheme design ablation on the canonical attacks"
    )
    ablation.add_argument("--seed", type=int, default=2008)

    sensitivity = add_parser(
        "sensitivity", help="ROC-style sweep of one detector threshold"
    )
    sensitivity.add_argument("--parameter", required=True,
                             help="a DetectorConfig field name")
    sensitivity.add_argument(
        "--value", dest="values", action="append", type=float, required=True,
        help="threshold value to probe (repeatable)",
    )
    sensitivity.add_argument("--seed", type=int, default=0)
    sensitivity.add_argument("--fair-worlds", type=int, default=1)
    sensitivity.add_argument("--attacks", type=int, default=2)

    report = add_parser(
        "report", help="run a seeded challenge scenario and write a "
                       "self-contained HTML/Markdown run report"
    )
    report.add_argument("--seed", type=int, default=7)
    report.add_argument(
        "--size", type=int, default=5,
        help="synthetic attack submissions in the scenario (default 5)",
    )
    report.add_argument("--out", required=True, help="report output path")
    report.add_argument(
        "--title", default="Detection quality report",
        help="report title",
    )
    report.add_argument(
        "--roc-parameter", default="hc_suspicious_threshold",
        help="DetectorConfig field swept for the ROC section",
    )
    report.add_argument(
        "--roc-value", dest="roc_values", action="append", type=float,
        default=None,
        help="threshold value for the ROC sweep "
             "(repeatable; default 0.85 0.92 0.96)",
    )

    trace = add_parser(
        "trace", help="validate and summarize an exported trace JSON"
    )
    trace.add_argument("trace_file", help="a file written by --trace-out")
    trace.add_argument(
        "--top", type=int, default=10, help="longest spans to list"
    )

    profile = add_parser(
        "profile", help="inspect or re-export a --profile-out artifact"
    )
    profile.add_argument(
        "profile_file", help="a file written by --profile-out"
    )
    profile.add_argument(
        "--top", type=int, default=10,
        help="rows in the self-time tables (default 10)",
    )
    profile.add_argument(
        "--speedscope", metavar="PATH", default=None,
        help="re-export the samples as speedscope JSON "
             "(load at https://www.speedscope.app)",
    )
    profile.add_argument(
        "--collapsed", metavar="PATH", default=None,
        help="re-export the samples as collapsed-stack text "
             "(flamegraph.pl input)",
    )
    profile.add_argument(
        "--trace", metavar="PATH", default=None,
        help="re-export the samples as a Chrome/Perfetto trace_event "
             "JSON profiler lane",
    )

    # ``lint`` owns its options: main() hands everything after the
    # subcommand name to repro.lint.main unparsed (so ``repro-rating lint
    # --help`` prints repro.lint's own help); registered here for the
    # subcommand listing only.
    sub.add_parser(
        "lint", add_help=False,
        help="run the AST-based invariant checker (repro.lint)",
    )

    monitor = add_parser(
        "monitor", help="tail a --metrics-stream file: sparklines + alerts"
    )
    monitor.add_argument(
        "stream_file", help="a JSONL file written by --metrics-stream"
    )
    monitor.add_argument(
        "--once", action="store_true",
        help="render one frame from the full file and exit "
             "(for scripts and CI; default: follow the file live)",
    )
    monitor.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="poll interval in follow mode (default 2.0)",
    )
    monitor.add_argument(
        "--top", type=int, default=16, metavar="N",
        help="series rows rendered per frame (default 16)",
    )
    monitor.add_argument(
        "--width", type=int, default=32, metavar="N",
        help="sparkline width in cells (default 32)",
    )
    monitor.add_argument(
        "--select", action="append", default=None, metavar="SUBSTR",
        help="only render series whose name contains SUBSTR (repeatable)",
    )

    alerts = add_parser(
        "alerts", help="validate and list alert-rule files"
    )
    alerts.add_argument(
        "rule_files", nargs="*", metavar="PATH",
        help="rule files to inspect (default: the packaged ruleset)",
    )
    alerts.add_argument(
        "--check", action="store_true",
        help="validate only (no rule listing); exit 1 on any invalid file",
    )

    runs = add_parser(
        "runs", help="inspect the run ledger (list/show/diff/check)"
    )
    runs.add_argument(
        "action", choices=("list", "show", "diff", "check"),
        help="list records, show one, diff two, or check for regressions",
    )
    runs.add_argument(
        "ids", nargs="*", metavar="RUN_ID",
        help="run id prefixes for show/diff (default: the latest run[s])",
    )
    runs.add_argument(
        "-n", "--limit", type=int, default=20,
        help="records shown by 'list' (default 20)",
    )
    runs.add_argument(
        "--window", type=int, default=5,
        help="baseline size for 'check': latest compared against up to "
             "WINDOW earlier comparable runs (default 5)",
    )
    runs.add_argument(
        "--max-timing-ratio", type=float, default=1.5,
        help="'check' flags wall-clock above RATIO x baseline median "
             "(default 1.5)",
    )
    runs.add_argument(
        "--metric-tolerance", type=float, default=0.0,
        help="'check' flags counters drifting beyond this relative "
             "tolerance (default 0 = exact)",
    )
    runs.add_argument(
        "--digest-tolerance", type=float, default=0.0,
        help="'check' flags result digests moving beyond this absolute "
             "tolerance (default 0 = exact)",
    )
    runs.add_argument(
        "--allow-alerts", action="store_true",
        help="'check' does not flag newly-firing alerts against an "
             "alert-free baseline (use when the alerts are expected)",
    )

    return parser


# --------------------------------------------------------------------- #
# Command implementations
# --------------------------------------------------------------------- #


# The seed rides inside the argparse namespace (``args.seed``).
def _cmd_world(args) -> int:  # lint: ignore[rng-missing-param]
    config = FairRatingConfig(
        duration_days=args.duration_days,
        history_days=args.history_days,
        base_arrivals_per_day=args.arrivals_per_day,
    )
    dataset = FairRatingGenerator(config=config, seed=args.seed).generate()
    save_dataset_csv(dataset, args.out)
    run_ledger.record_digest("world.ratings", dataset.total_ratings())
    print(
        f"wrote {dataset.total_ratings()} fair ratings over "
        f"{len(dataset)} products to {args.out}"
    )
    return 0


def _cmd_attack(args) -> int:
    dataset = load_dataset_csv(args.world)
    rater_ids = [f"attacker_{i:02d}" for i in range(max(args.n_ratings, 1))]
    generator = AttackGenerator(dataset, rater_ids, seed=args.seed)
    spec = AttackSpec(
        bias_magnitude=args.bias,
        std=args.std,
        n_ratings=args.n_ratings,
        time_model=UniformWindow(args.window_start, args.window_days),
        correlation=args.correlation,
    )
    submission = generator.generate(args.targets, spec, submission_id="cli_attack")
    save_submission_json(submission, args.out)
    print(
        f"wrote {submission.total_ratings()} unfair ratings "
        f"({len(submission.product_ids)} products) to {args.out}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    fair = load_dataset_csv(args.world).fair_only()
    submission = load_submission_json(args.submission)
    attacked = fair.merge(submission.as_dict())
    spans = [s.time_span() for s in fair.streams() if len(s)]
    start = min(lo for lo, _ in spans)
    end = max(hi for _, hi in spans) + 1e-9
    from repro.marketplace.mp import manipulation_power

    scheme_names = args.schemes or sorted(_SCHEMES)
    rows = []
    for name in scheme_names:
        result = manipulation_power(
            _make_scheme(name), attacked, fair,
            period_days=args.period_days, start_day=start, end_day=end,
        )
        rows.append((name, result.total))
        run_ledger.record_digest(f"evaluate.{name}.total_mp", result.total)
    print(format_table(["scheme", "total MP"], rows, title="Manipulation Power"))
    return 0


def _provenance_table(stream, report) -> str:
    """The per-rating detection provenance table for ``detect --explain``."""
    rows = []
    for index in np.nonzero(report.suspicious)[0]:
        labels = report.provenance_of(int(index))
        paths = ",".join(label for label in labels if label.startswith("path"))
        detectors = ",".join(
            label for label in labels if not label.startswith("path")
        )
        rows.append(
            (
                int(index),
                float(stream.times[index]),
                float(stream.values[index]),
                stream.rater_ids[index],
                paths or "-",
                detectors or "-",
            )
        )
    if not rows:
        return "no suspicious ratings: nothing to explain"
    return format_table(
        ["idx", "day", "value", "rater", "paths", "detectors"],
        rows,
        float_format=".2f",
        title=f"Detection provenance for {stream.product_id}",
    )


def _cmd_detect(args) -> int:
    dataset = load_dataset_csv(args.world)
    if args.product not in dataset:
        print(f"error: product {args.product!r} not in {args.world}", file=sys.stderr)
        return 2
    stream = dataset[args.product]
    report = JointDetector().analyze(stream)
    run_ledger.record_digest("detect.num_suspicious", report.num_suspicious)
    print(f"product {args.product}: {len(stream)} ratings")
    print(f"suspicious ratings: {report.num_suspicious}")
    print(f"alarms: {dict(report.alarms)}")
    for label, intervals in (
        ("Path 1", report.path1_intervals),
        ("Path 2", report.path2_intervals),
    ):
        for interval in intervals:
            print(f"{label} interval: days {interval.start:.1f} to {interval.stop:.1f}")
    if len(stream) and stream.unfair.any():
        unfair = stream.unfair
        recall = (report.suspicious & unfair).sum() / unfair.sum()
        print(f"ground-truth recall: {recall:.0%}")
    if args.explain:
        print(_provenance_table(stream, report))
    return 0


def _cmd_population(args) -> int:
    if args.workers > 0 or args.cache_dir:
        # Route through the execution engine (bit-identical to the
        # serial path below; the context builds the same world/population).
        from repro.experiments.context import ExperimentContext

        context = ExperimentContext(
            seed=args.seed,
            population_size=args.size,
            workers=args.workers,
            cache_dir=args.cache_dir,
        )
        try:
            results = context.results_for(args.scheme)
            challenge = context.challenge
            population = context.population
            board = challenge.leaderboard(
                population,
                context.scheme(args.scheme),
                validate=False,
                results=[results[s.submission_id] for s in population],
            )
        finally:
            context.close()
    else:
        challenge = RatingChallenge(seed=args.seed)
        population = generate_population(
            challenge, PopulationConfig(size=args.size), seed=args.seed + 1
        )
        scheme = _make_scheme(args.scheme)
        board = challenge.leaderboard(population, scheme, validate=False)
    if board:
        run_ledger.record_digest("population.top_mp", board[0].total_mp)
        run_ledger.record_digest(
            "population.mean_mp",
            sum(entry.total_mp for entry in board) / len(board),
        )
    rows = [
        (entry.rank, entry.submission_id, entry.strategy, entry.total_mp)
        for entry in board[: args.top]
    ]
    print(
        format_table(
            ["rank", "submission", "archetype", "total MP"],
            rows,
            title=f"{args.scheme}-scheme leaderboard (top {args.top} of {args.size})",
        )
    )
    return 0


def _cmd_search(args) -> int:
    challenge = RatingChallenge(seed=args.seed)
    by_volume = sorted(
        challenge.fair_dataset.product_ids,
        key=lambda pid: len(challenge.fair_dataset[pid]),
    )
    targets = [
        ProductTarget(by_volume[0], -1),
        ProductTarget(by_volume[1], -1),
        ProductTarget(by_volume[2], +1),
        ProductTarget(by_volume[3], +1),
    ]
    area = SearchArea(bias_min=-4.0, bias_max=0.0, std_min=0.0, std_max=2.0)
    if args.workers > 0 or args.cache_dir:
        from repro.exec import (
            MPCache,
            ParallelEvaluator,
            region_probe_batch,
            share_challenge,
        )

        share_challenge(challenge)
        cache = MPCache(cache_dir=args.cache_dir) if args.cache_dir else None
        with ParallelEvaluator(workers=args.workers, cache=cache) as evaluator:
            result = heuristic_region_search(
                None,
                area,
                n_subareas=args.subareas,
                probes_per_subarea=args.probes,
                probe_batch=region_probe_batch(
                    evaluator,
                    challenge_seed=args.seed,
                    scheme_name=args.scheme,
                    targets=targets,
                    seed_root=args.seed + 5,
                ),
            )
    else:
        generator = AttackGenerator(
            challenge.fair_dataset, challenge.config.biased_rater_ids(),
            seed=args.seed + 5,
        )
        evaluate = generator.evaluator(targets, challenge, _make_scheme(args.scheme))
        result = heuristic_region_search(
            evaluate,
            area,
            n_subareas=args.subareas,
            probes_per_subarea=args.probes,
        )
    rows = []
    for i, round_ in enumerate(result.rounds):
        bias, std = round_.best_subarea.center
        rows.append((i + 1, bias, std, round_.best_score))
    print(
        format_table(
            ["round", "best bias", "best std", "best MP"],
            rows,
            title=f"Procedure 2 vs {args.scheme}-scheme",
        )
    )
    bias, std = result.best_point
    run_ledger.record_digest("search.best_mp", result.best_mp)
    print(f"strongest region: bias={bias:.2f}, std={std:.2f} (MP {result.best_mp:.3f})")
    return 0


def _cmd_ablation(args) -> int:
    from repro.experiments import ExperimentContext
    from repro.experiments.ablations import run_pscheme_ablation

    context = ExperimentContext(seed=args.seed, population_size=1)
    print(run_pscheme_ablation(context).to_text())
    return 0


def _cmd_sensitivity(args) -> int:
    from repro.experiments.sensitivity import sweep_detector_parameter

    if args.workers > 0 or args.cache_dir:
        from repro.exec import MPCache, ParallelEvaluator

        cache = MPCache(cache_dir=args.cache_dir) if args.cache_dir else None
        with ParallelEvaluator(workers=args.workers, cache=cache) as evaluator:
            result = sweep_detector_parameter(
                args.parameter,
                args.values,
                n_fair_worlds=args.fair_worlds,
                n_attacks=args.attacks,
                seed=args.seed,
                evaluator=evaluator,
            )
    else:
        result = sweep_detector_parameter(
            args.parameter,
            args.values,
            n_fair_worlds=args.fair_worlds,
            n_attacks=args.attacks,
            seed=args.seed,
        )
    print(result.to_text())
    return 0


def _cmd_report(args) -> int:
    from repro.attacks.population import population_labels
    from repro.experiments.sensitivity import sweep_detector_parameter
    from repro.obs import DriftMonitor, RocSweep, get_registry
    from repro.obs.quality import aggregate_confusions, score_detection
    from repro.trust.manager import TrustManager

    registry = get_registry()
    previous = None
    if not registry.enabled:
        # Without --metrics-out/--trace-out/--ledger nothing installed a
        # collecting registry; install one locally so the report's counter
        # and histogram sections have content.
        registry = MetricsRegistry()
        previous = set_registry(registry)
    try:
        epoch_days = 30.0
        challenge = RatingChallenge(seed=args.seed)
        population = generate_population(
            challenge, PopulationConfig(size=args.size), seed=args.seed + 1
        )
        labels = population_labels(population)
        detector = JointDetector()

        # Ground-truth scorecards for every attacked product stream.
        cards = []
        scorecard_rows = []
        for submission in population:
            attacked = challenge.attacked_dataset(submission)
            archetype = labels[submission.submission_id].archetype
            # Batch only the attacked products: that is the exact set of
            # streams the per-stream loop analyzed, so the quality.*
            # counters stay identical.
            reports = detector.analyze_batch(
                RatingDataset([attacked[pid] for pid in submission.product_ids])
            )
            for pid in submission.product_ids:
                stream = attacked[pid]
                card = score_detection(stream, reports[pid])
                cards.append(card)
                scorecard_rows.append(
                    (
                        f"{submission.submission_id}/{pid}",
                        archetype,
                        card.detected,
                        card.detection_latency_days,
                        card.bias_at_detection,
                    )
                )

        # ROC sweep of one detector threshold.
        roc_values = sorted(set(args.roc_values or (0.85, 0.92, 0.96)))
        sweep = sweep_detector_parameter(
            args.roc_parameter, roc_values,
            n_fair_worlds=1, n_attacks=2, seed=args.seed,
        )
        roc = RocSweep(
            parameter=args.roc_parameter,
            points=sweep.roc_points(),
            auc=sweep.auc(),
        )

        # Trust trajectories and drift checks on the first submission's
        # attacked world (calibrating drift on the fair world).
        first = population[0]
        attacked = challenge.attacked_dataset(first)
        marks = {
            pid: report.suspicious
            for pid, report in detector.analyze_batch(attacked).items()
        }
        epoch_times = []
        edge = challenge.start_day + epoch_days
        while edge < challenge.end_day + epoch_days:
            epoch_times.append(edge)
            edge += epoch_days
        snapshots = TrustManager().run(attacked, marks, epoch_times)
        attacker_set = set(first.rater_ids())
        fair_set = {
            rid
            for pid in attacked
            for rid in attacked[pid].rater_ids
        } - attacker_set

        def mean_trust(snapshot, ids):
            if not ids:
                return 0.5
            return float(np.mean([snapshot.value(rid) for rid in ids]))

        trust_trajectories = {
            f"attackers ({first.submission_id})": [
                mean_trust(s, attacker_set) for s in snapshots
            ],
            "fair raters": [mean_trust(s, fair_set) for s in snapshots],
        }

        monitor = DriftMonitor()
        monitor.calibrate(challenge.fair_dataset)
        drift_warnings = []
        window_start = challenge.start_day
        # With --metrics-stream/--alert-rules a series recorder rides on
        # the registry: snapshot it per drift epoch so the stream (and
        # the alert engine) sees a genuine multi-epoch trajectory.
        recorder = getattr(registry, "series", None)
        for epoch_index, edge in enumerate(epoch_times):
            drift_warnings.extend(
                monitor.check_epoch(attacked, window_start, edge)
            )
            window_start = edge
            if recorder is not None:
                recorder.record_epoch(epoch_index, registry)

        ledger_rows = [
            (
                record.run_id,
                record.when,
                record.command,
                record.status,
                record.timings.get("wall_seconds", 0.0),
            )
            for record in run_ledger.RunLedger(
                _runs_ledger_path(args)
            ).tail(8)
        ]

        data = report_from_registry(
            registry,
            title=args.title,
            environment=run_ledger.runtime_environment(),
            ledger_rows=ledger_rows,
            notes=(
                f"seeded challenge scenario: seed={args.seed}, "
                f"population size {args.size}",
                f"{len(cards)} attacked product streams judged against "
                f"ground-truth labels",
            ),
        )
        data.confusions = aggregate_confusions(cards)
        data.scorecard_rows = scorecard_rows
        data.roc = roc
        data.trust_trajectories = trust_trajectories
        data.drift_warnings = tuple(str(w) for w in drift_warnings)
        kind = write_report(data, args.out)

        detected = sum(1 for card in cards if card.detected)
        run_ledger.record_digest("report.streams_scored", len(cards))
        run_ledger.record_digest("report.detected_streams", detected)
        run_ledger.record_digest("report.roc_auc", roc.auc)
        print(
            f"{kind} report written to {args.out}: {detected}/{len(cards)} "
            f"attacked streams detected, ROC AUC {roc.auc:.3f}, "
            f"{len(drift_warnings)} drift warning(s)"
        )
        return 0
    finally:
        if previous is not None:
            set_registry(previous)


def _cmd_trace(args) -> int:
    payload = read_trace(args.trace_file)
    print(f"trace {args.trace_file}: structurally valid")
    print(summarize_trace(payload, top=args.top))
    return 0


def _cmd_profile(args) -> int:
    payload = obs_profile.read_profile(args.profile_file)
    samples = {
        key: float(count) for key, count in payload["samples"].items()
    }
    hz = float(payload["hz"])
    total = sum(samples.values())
    print(f"profile {args.profile_file}: structurally valid")
    print(
        f"{total:.0f} samples at {hz:g} Hz ({total / hz:.2f}s sampled, "
        f"{obs_profile.attributed_fraction(samples):.1%} span-attributed)"
    )
    span_rows = sorted(
        obs_profile.self_seconds_by_span(samples, hz=hz).items(),
        key=lambda item: (-item[1], item[0]),
    )[: args.top]
    if span_rows:
        print()
        print(format_table(
            ["span", "self_seconds"], span_rows, float_format=".3f",
            title=f"Top {len(span_rows)} spans by sampled self time",
        ))
    frame_rows = [
        (label, count / hz)
        for label, count in obs_profile.top_frames(samples, args.top)
    ]
    if frame_rows:
        print()
        print(format_table(
            ["frame", "self_seconds"], frame_rows, float_format=".3f",
            title=f"Top {len(frame_rows)} frames by self time",
        ))
    if args.speedscope:
        obs_profile.write_speedscope(
            samples, args.speedscope, hz=hz,
            name=os.path.basename(args.profile_file),
        )
        print(f"speedscope JSON written to {args.speedscope}")
    if args.collapsed:
        with open(args.collapsed, "w", encoding="utf-8") as handle:
            handle.write(obs_profile.collapsed_stacks(samples))
        print(f"collapsed stacks written to {args.collapsed}")
    if args.trace:
        events = obs_profile.profile_trace_events(samples, hz=hz)
        metadata = [
            {
                "name": "process_name", "ph": "M", "pid": os.getpid(),
                "tid": 0, "args": {"name": "repro profile"},
            },
            {
                "name": "thread_name", "ph": "M", "pid": os.getpid(),
                "tid": obs_profile.PROFILE_TID,
                "args": {"name": "profiler samples"},
            },
        ]
        document = {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs.profile"},
        }
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"profile trace written to {args.trace}")
    return 0


def _ingest_stream_line(recorder, line: str) -> None:
    """Fold one metrics-stream JSONL line into ``recorder``.

    Mirrors :func:`repro.obs.series.read_metrics_stream`: a malformed
    line (the partial tail of a live writer) is skipped, not fatal.
    """
    line = line.strip()
    if not line:
        return
    try:
        payload = json.loads(line)
        epoch = int(payload["epoch"])
        metrics = {str(k): float(v) for k, v in payload["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return
    recorder.ingest_snapshot(epoch, metrics)


def _cmd_monitor(args) -> int:
    engine = AlertEngine(load_rules(args.alert_rules or DEFAULT_RULES_PATH))
    select = tuple(args.select or ())
    title = os.path.basename(args.stream_file)
    if args.once:
        recorder, _ = replay_stream(args.stream_file, engine=engine)
        sys.stdout.write(
            render_frame(
                recorder, engine=engine, select=select,
                top=args.top, width=args.width, title=title,
            )
        )
        return 0
    # Follow mode: poll the file for complete new lines, fold each into
    # the recorder (driving the alert engine exactly like the producing
    # run), and redraw the frame.  Ctrl-C exits cleanly.
    recorder = TimeSeriesRecorder(engine=engine)
    position = 0
    pending = ""
    try:
        while True:
            if os.path.exists(args.stream_file):
                with open(args.stream_file, "r", encoding="utf-8") as handle:
                    handle.seek(position)
                    pending += handle.read()
                    position = handle.tell()
                lines = pending.split("\n")
                pending = lines.pop()  # keep any partial tail for later
                for line in lines:
                    _ingest_stream_line(recorder, line)
            frame = render_frame(
                recorder, engine=engine, select=select,
                top=args.top, width=args.width, title=title,
            )
            sys.stdout.write("\x1b[2J\x1b[H" + frame)
            sys.stdout.flush()
            sleep(max(args.interval, 0.05))
    except KeyboardInterrupt:
        return 0


def _cmd_alerts(args) -> int:
    paths = args.rule_files or [str(DEFAULT_RULES_PATH)]
    status = 0
    for path in paths:
        try:
            rules = load_rules(path)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
            continue
        print(f"{path}: {len(rules)} rule(s) OK")
        if args.check:
            continue
        rows = [
            (
                rule.name,
                rule.kind,
                rule.metric,
                f"{rule.op} {rule.value:g}",
                f"{rule.for_epochs}/{rule.resolve_epochs}",
                rule.severity,
            )
            for rule in rules
        ]
        print(
            format_table(
                ["rule", "kind", "metric", "condition",
                 "for/resolve", "severity"],
                rows,
            )
        )
    return status


def _runs_ledger_path(args) -> str:
    """The ledger a ``runs`` invocation should read."""
    if args.ledger:
        return args.ledger
    return os.environ.get("REPRO_LEDGER") or os.path.join(
        ".repro", "ledger.jsonl"
    )


def _cmd_runs(args) -> int:
    ledger = run_ledger.RunLedger(_runs_ledger_path(args))
    if args.action == "list":
        print(run_ledger.format_runs_table(ledger.tail(args.limit)))
        return 0
    if args.action == "show":
        record = ledger.find(args.ids[0]) if args.ids else ledger.latest()
        if record is None:
            print(f"error: ledger {ledger.path} is empty", file=sys.stderr)
            return 2
        print(json.dumps(record.as_dict(), indent=2, sort_keys=True))
        return 0
    if args.action == "diff":
        if len(args.ids) >= 2:
            a, b = ledger.find(args.ids[0]), ledger.find(args.ids[1])
        else:
            recent = ledger.tail(2)
            if len(recent) < 2:
                print(
                    f"error: need two records to diff, ledger {ledger.path} "
                    f"has {len(recent)}",
                    file=sys.stderr,
                )
                return 2
            a, b = recent
        lines = run_ledger.diff_records(a, b)
        print(f"diff {a.run_id} ({a.when}) -> {b.run_id} ({b.when})")
        print("\n".join(lines) if lines else "(no differences)")
        return 0
    # action == "check"
    report = run_ledger.check_ledger(
        ledger,
        window=args.window,
        max_timing_ratio=args.max_timing_ratio,
        metric_tolerance=args.metric_tolerance,
        digest_tolerance=args.digest_tolerance,
        allow_alerts=args.allow_alerts,
    )
    print(report.to_text())
    if not report.ok:
        return 1
    # Distinct exit code: nothing was comparable, so nothing was checked.
    return 3 if report.no_baseline else 0


_COMMANDS = {
    "world": _cmd_world,
    "attack": _cmd_attack,
    "evaluate": _cmd_evaluate,
    "detect": _cmd_detect,
    "population": _cmd_population,
    "search": _cmd_search,
    "ablation": _cmd_ablation,
    "sensitivity": _cmd_sensitivity,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "monitor": _cmd_monitor,
    "alerts": _cmd_alerts,
    "runs": _cmd_runs,
}

#: Inspection commands never record telemetry about themselves.
_INSPECTION_COMMANDS = frozenset(
    {"trace", "profile", "monitor", "alerts", "runs"}
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        from repro.lint import main as lint_main

        return lint_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    setup_logging(args.log_level)
    recording = args.command not in _INSPECTION_COMMANDS
    registry = previous = capture = profiler = None
    recorder = stream_sink = None
    if recording and (
        args.metrics_out or args.trace_out or args.ledger or args.report_out
        or args.profile_out or args.metrics_stream or args.alert_rules
        or args.openmetrics_out
    ):
        # Collect this invocation's pipeline telemetry and persist it.
        registry = MetricsRegistry()
        previous = set_registry(registry)
        if args.metrics_stream or args.alert_rules:
            # Series recording: epoch closes (online system, report's
            # drift loop) snapshot the registry; each snapshot streams
            # to the sink and drives the alert engine.
            try:
                rules = load_rules(args.alert_rules or DEFAULT_RULES_PATH)
            except ReproError as exc:
                print(f"error: {exc}", file=sys.stderr)
                set_registry(previous)
                return 2
            try:
                stream_sink = (
                    MetricsStreamWriter(args.metrics_stream)
                    if args.metrics_stream else None
                )
            except OSError as exc:
                print(
                    f"error: cannot open metrics stream: {exc}",
                    file=sys.stderr,
                )
                set_registry(previous)
                return 2
            recorder = TimeSeriesRecorder(
                sink=stream_sink,
                engine=AlertEngine(rules),
            )
            registry.attach_series(recorder)
        if args.ledger:
            capture = run_ledger.begin_run_capture()
        if args.profile_out:
            # Sample this process, and arm per-task profilers so pooled
            # work profiles itself worker-side (samples ride back on the
            # telemetry capsules).
            obs_profile.enable_profiling(
                hz=args.profile_hz, memory=args.profile_mem
            )
            profiler = obs_profile.SpanProfiler(
                hz=args.profile_hz, memory=args.profile_mem
            ).start()
    start = perf_counter()
    try:
        status = _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    finally:
        wall_seconds = perf_counter() - start
        if profiler is not None:
            profiler.stop()
            obs_profile.disable_profiling()
        if recorder is not None and recorder.empty:
            # Commands with no epoch structure still stream one closing
            # summary snapshot (and one alert evaluation) at epoch 0 --
            # taken while this invocation's registry is still active, so
            # the alert engine's own metrics land in it too.
            recorder.record_epoch(0, registry)
        if registry is not None:
            set_registry(previous)
        if capture is not None:
            run_ledger.end_run_capture()
    if registry is None:
        return status
    if recorder is not None:
        if stream_sink is not None:
            stream_sink.close()
            print(
                f"metrics stream written to {args.metrics_stream} "
                f"({stream_sink.lines_written} snapshots)",
                file=sys.stderr,
            )
        firing = recorder.engine.firing() if recorder.engine else []
        if firing:
            print(
                f"alerts firing at exit: {', '.join(firing)}",
                file=sys.stderr,
            )
    if args.openmetrics_out:
        try:
            with open(args.openmetrics_out, "w", encoding="utf-8") as handle:
                handle.write(render_openmetrics(registry))
            print(
                f"openmetrics written to {args.openmetrics_out}",
                file=sys.stderr,
            )
        except OSError as exc:
            print(f"error: cannot write openmetrics: {exc}", file=sys.stderr)
            status = status or 2
    if args.metrics_out:
        try:
            write_json(registry, args.metrics_out)
            print(f"metrics written to {args.metrics_out}", file=sys.stderr)
        except OSError as exc:
            print(f"error: cannot write metrics: {exc}", file=sys.stderr)
            status = status or 2
    if args.trace_out:
        try:
            events = write_trace(registry, args.trace_out)
            print(
                f"trace written to {args.trace_out} ({events} events)",
                file=sys.stderr,
            )
        except OSError as exc:
            print(f"error: cannot write trace: {exc}", file=sys.stderr)
            status = status or 2
    if args.profile_out:
        try:
            total = obs_profile.write_profile(registry, args.profile_out)
            print(
                f"profile written to {args.profile_out} "
                f"({total:.0f} samples)",
                file=sys.stderr,
            )
        except OSError as exc:
            print(f"error: cannot write profile: {exc}", file=sys.stderr)
            status = status or 2
    if args.ledger:
        record = run_ledger.build_record(
            command=args.command,
            argv=list(argv) if argv is not None else sys.argv[1:],
            registry=registry,
            wall_seconds=wall_seconds,
            status=status,
            capture=capture,
        )
        try:
            run_ledger.RunLedger(args.ledger).append(record)
            print(
                f"run {record.run_id} appended to {args.ledger}",
                file=sys.stderr,
            )
        except OSError as exc:
            print(f"error: cannot append to ledger: {exc}", file=sys.stderr)
            status = status or 2
    if args.report_out:
        trace_summary = None
        if args.trace_out:
            try:
                trace_summary = summarize_trace(read_trace(args.trace_out))
            except (OSError, ReproError, ValueError):
                trace_summary = None
        data = report_from_registry(
            registry,
            title=f"repro {args.command} run report",
            environment=run_ledger.runtime_environment(),
            trace_summary=trace_summary,
        )
        try:
            kind = write_report(data, args.report_out)
            print(
                f"{kind} report written to {args.report_out}",
                file=sys.stderr,
            )
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            status = status or 2
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
