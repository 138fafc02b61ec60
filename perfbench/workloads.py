"""The benchmark's workloads over the paper's evaluation pipeline.

Each workload builds its inputs from the seed exactly as
``ExperimentContext`` does (world ``RatingChallenge(seed)``, population
``generate_population(..., seed + 1)``, probe attacks
``AttackGenerator(seed + 5)``), then runs *passes* of *ops* in a closed
loop: one caller, serial, issuing the next op when the previous returns.
A pass is the workload's unit result and repeats identical work, so every
pass must reproduce the first one bit for bit.
"""

from __future__ import annotations

import heapq
import math
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.aggregation import BetaFilterScheme, PScheme, SimpleAveragingScheme
from repro.attacks import optimizer
from repro.attacks.base import ProductTarget
from repro.attacks.generator import AttackGenerator
from repro.attacks.optimizer import SearchArea
from repro.attacks.population import PopulationConfig, generate_population
from repro.experiments.context import ExperimentContext
from repro.marketplace.challenge import RatingChallenge
from repro.online.system import OnlineRatingSystem
from repro.types import RatingDataset, RatingStream

from perfbench.harness import (
    LoopStats,
    PassResult,
    combine,
    digest_floats,
    digest_mp,
    digest_scores,
)

SCHEMES: Dict[str, Callable[[], object]] = {
    "P": PScheme,
    "SA": SimpleAveragingScheme,
    "BF": BetaFilterScheme,
}


def sample_indices(n: int, k: int) -> List[int]:
    """Up to ``k`` op indices spread evenly over ``range(n)``, first and last included."""
    if n <= 0:
        return []
    if k <= 1 or n == 1:
        return [0]
    return sorted({round(i * (n - 1) / (k - 1)) for i in range(k)})


def _report_failure(what: str) -> None:
    """Print the traceback of a failed op to stderr (the run goes on)."""
    print(f"op failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _world(seed: int) -> RatingChallenge:
    return RatingChallenge(seed=seed)


def _population(world: RatingChallenge, size: int, seed: int):
    return generate_population(world, PopulationConfig(size=size), seed=seed + 1)


@dataclass
class Workload:
    """One workload: its inputs, its op, and how its outputs are checked."""

    name: str
    size: int
    #: Ops recomputed through fresh, cache-free instances after the run.
    samples: int = 4

    def setup(self, seed: int, size: int, workdir: Path) -> Dict[str, object]:
        raise NotImplementedError

    def run_pass(self, state: Dict[str, object], stats: LoopStats) -> PassResult:
        raise NotImplementedError

    def check_sample(self, state: Dict[str, object], first: PassResult) -> int:
        """Mismatches among sampled ops of ``first`` recomputed from scratch."""
        raise NotImplementedError

    def cleanup(self, state: Dict[str, object]) -> None:
        """Release anything :meth:`setup` created outside memory."""


# --------------------------------------------------------------------- #
# headline: the E7 table, P -> SA -> BF
# --------------------------------------------------------------------- #


@dataclass
class Headline(Workload):
    """``size`` is the population; an op is one submission's E7 row."""

    def setup(self, seed, size, workdir):
        world = _world(seed)
        return {
            "world": world,
            "population": _population(world, size, seed),
            "schemes": {name: factory() for name, factory in SCHEMES.items()},
        }

    def run_pass(self, state, stats):
        """Scheme-major, one shared instance per scheme, as ``PopulationEvalTask``.

        An op's latency is the sum of its submission's three evaluations;
        the per-scheme parts are kept in ``stats.groups``.
        """
        world = state["world"]
        population = state["population"]
        schemes = state.pop("schemes", None) or {n: f() for n, f in SCHEMES.items()}
        first_op = stats.ops
        parts: Dict[str, List[Optional[str]]] = {}
        max_mp: Dict[str, float] = {}
        for name, scheme in schemes.items():
            digests = parts[name] = []
            totals = []
            for index, submission in enumerate(population):
                stats.op_id = first_op + index
                tick = perf_counter()
                try:
                    result = world.evaluate(submission, scheme, validate=False)
                except Exception:  # a failed op is counted, the run goes on
                    result = None
                    _report_failure(f"{name} {submission.submission_id}")
                stats.record(tick, perf_counter(), op=first_op + index, group=name)
                if result is None or not math.isfinite(result.total):
                    digests.append(None)
                    continue
                digests.append(digest_mp(result))
                totals.append(result.total)
            max_mp[name] = max(totals) if totals else float("nan")
        stats.op_id = None
        rows = [
            None if None in row else combine(row) for row in zip(*parts.values())
        ]
        extras = [x for name, value in max_mp.items() for x in (f"max_mp.{name}", value)]
        return PassResult(rows, combine(rows, *extras), max_mp)

    def check_sample(self, state, first):
        world = state["world"]
        population = state["population"]
        mismatches = 0
        for index in sample_indices(len(population), self.samples):
            row = [
                digest_mp(world.evaluate(population[index], factory(), validate=False))
                for factory in SCHEMES.values()
            ]
            mismatches += combine(row) != first.op_digests[index]
        return mismatches


# --------------------------------------------------------------------- #
# region_search: Procedure 2 against the P-scheme
# --------------------------------------------------------------------- #

INITIAL_AREA = SearchArea(bias_min=-4.0, bias_max=0.0, std_min=0.0, std_max=2.0)
N_SUBAREAS = 4


def region_targets(world: RatingChallenge) -> List[ProductTarget]:
    """Downgrade the two lowest-volume products, boost the next two."""
    fair = world.fair_dataset
    by_volume = sorted(fair.product_ids, key=lambda pid: len(fair[pid]))
    return [
        ProductTarget(by_volume[0], -1),
        ProductTarget(by_volume[1], -1),
        ProductTarget(by_volume[2], +1),
        ProductTarget(by_volume[3], +1),
    ]


@dataclass
class RegionSearch(Workload):
    """``size`` is the search's probes per subarea."""

    def _generator(self, state) -> AttackGenerator:
        world = state["world"]
        return AttackGenerator(
            world.fair_dataset,
            world.config.biased_rater_ids(),
            scale=world.config.scale,
            seed=state["seed"] + 5,
        )

    def setup(self, seed, size, workdir):
        world = _world(seed)
        state = {"world": world, "seed": seed, "probes_per_subarea": size}
        state["targets"] = region_targets(world)
        state["generator"] = self._generator(state)
        state["scheme"] = PScheme()
        return state

    def run_pass(self, state, stats):
        world = state["world"]
        generator = state.pop("generator", None) or self._generator(state)
        scheme = state.pop("scheme", None) or PScheme()
        submissions: List = []
        generate = generator.generate

        def capturing_generate(*args, **kwargs):
            submission = generate(*args, **kwargs)
            submissions.append(submission)
            return submission

        generator.generate = capturing_generate
        evaluate = generator.evaluator(state["targets"], world, scheme)
        mps: List[float] = []
        digests: List[Optional[str]] = []

        def probe(bias: float, std: float) -> float:
            tick = perf_counter()
            try:
                mp = float(evaluate(bias, std))
            except Exception:  # a failed op is counted, the run goes on
                mp = float("nan")
                _report_failure(f"probe ({bias}, {std})")
            stats.record(tick, perf_counter())
            mps.append(mp)
            digests.append(digest_floats(mp) if math.isfinite(mp) else None)
            return mp

        result = optimizer.heuristic_region_search(
            probe,
            INITIAL_AREA,
            n_subareas=N_SUBAREAS,
            probes_per_subarea=state["probes_per_subarea"],
        )
        area = result.final_area
        box = [area.bias_min, area.bias_max, area.std_min, area.std_max]
        digest = combine(digests, "best_mp", result.best_mp, "area", box)
        return PassResult(
            digests,
            digest,
            {"P": result.best_mp},
            {
                "submissions": submissions,
                "mps": mps,
                "searches": 1,
            },
        )

    def check_sample(self, state, first):
        world = state["world"]
        submissions = first.state["submissions"]
        mps = first.state["mps"]
        mismatches = 0
        for index in sample_indices(len(submissions), self.samples):
            total = world.evaluate(submissions[index], PScheme()).total
            mismatches += digest_floats(total) != digest_floats(mps[index])
        return mismatches


# --------------------------------------------------------------------- #
# online_replay: the ingest / epoch-publish path
# --------------------------------------------------------------------- #


@dataclass
class OnlineReplay(Workload):
    """``size`` submissions, each replayed through a fresh online system."""

    samples: int = 2

    def setup(self, seed, size, workdir):
        world = _world(seed)
        population = _population(world, size, seed)
        history: Dict[str, List] = {}
        fair_live: List = []
        for stream in world.fair_dataset.streams():
            for rating in stream:
                if rating.time < world.start_day:
                    history.setdefault(rating.product_id, []).append(rating)
                else:
                    fair_live.append(rating)
        fair_live.sort()
        # Validated submissions rate only inside the challenge window, so
        # all their ratings are live and merge into the fair live stream.
        attacks = [
            sorted(r for stream in submission.streams.values() for r in stream)
            for submission in population
        ]
        history_dataset = RatingDataset(
            [RatingStream.from_ratings(pid, ratings) for pid, ratings in history.items()]
        )
        return {
            "world": world,
            "population": population,
            "history": history_dataset if history else None,
            "fair_live": fair_live,
            "attacks": attacks,
        }

    def run_pass(self, state, stats):
        world = state["world"]
        digests: List[Optional[str]] = []
        replays: List[List[str]] = []
        for attack in state["attacks"]:
            system = OnlineRatingSystem(
                PScheme(),
                start_day=world.start_day,
                period_days=world.config.period_days,
                history=state["history"],
            )
            reports: List[str] = []
            tick = perf_counter()
            try:
                for rating in heapq.merge(state["fair_live"], attack):
                    tick = perf_counter()
                    published = system.submit(rating)
                    if published:
                        stats.record(tick, perf_counter())
                        reports.extend(digest_scores(r.scores) for r in published)
                        digests.append(combine(reports[-len(published):]))
                while system.current_epoch_end <= world.end_day:
                    tick = perf_counter()
                    report = system.close_epoch()
                    stats.record(tick, perf_counter())
                    reports.append(digest_scores(report.scores))
                    digests.append(combine(reports[-1:]))
            except Exception:  # the replay's remaining publishes are lost
                _report_failure("online replay")
                stats.record(tick, perf_counter())
                digests.append(None)
            replays.append(reports)
        return PassResult(digests, combine(digests), state={"replays": replays})

    def check_sample(self, state, first):
        """Sampled replays rerun through the program's own ``replay_online``."""
        world = state["world"]
        population = state["population"]
        replays = first.state["replays"]
        mismatches = 0
        for index in sample_indices(len(population), self.samples):
            system = world.replay_online(PScheme(), population[index], validate=False)
            expected = [digest_scores(r.scores) for r in system.reports]
            mismatches += expected != replays[index]
        return mismatches


# --------------------------------------------------------------------- #
# cache_replay: warm MP-cache replays through the execution engine
# --------------------------------------------------------------------- #

CACHE_SCHEME = "SA"


def _population_digests(results: Dict[str, object], population) -> List[str]:
    return [digest_mp(results[s.submission_id]) for s in population]


@dataclass
class CacheReplay(Workload):
    """``size`` is the population; a pass is ``replays`` warm replays."""

    replays: int = 10

    def setup(self, seed, size, workdir):
        cache_dir = Path(tempfile.mkdtemp(prefix="mpcache-", dir=workdir))
        context = ExperimentContext(seed=seed, population_size=size, cache_dir=str(cache_dir))
        results = context.results_for(CACHE_SCHEME)
        context.close()
        cold = combine(_population_digests(results, context.population))
        return {
            "seed": seed,
            "size": size,
            "cache_dir": cache_dir,
            "cold_digest": cold,
            "context": context,
        }

    def run_pass(self, state, stats):
        digests: List[Optional[str]] = []
        best: List[float] = []
        for _ in range(self.replays):
            tick = perf_counter()
            try:
                context = ExperimentContext(
                    seed=state["seed"],
                    population_size=state["size"],
                    cache_dir=str(state["cache_dir"]),
                )
                results = context.results_for(CACHE_SCHEME)
                context.close()
            except Exception:  # a failed op is counted, the run goes on
                results = None
                _report_failure("warm replay")
            stats.record(tick, perf_counter())
            if results is None:
                digests.append(None)
                continue
            digest = combine(_population_digests(results, context.population))
            digests.append(digest if digest == state["cold_digest"] else None)
            best.append(max(r.total for r in results.values()))
            state["context"] = context
        max_mp = max(best) if best else float("nan")
        return PassResult(digests, combine(digests, "max_mp", max_mp), {CACHE_SCHEME: max_mp})

    def check_sample(self, state, first):
        """Sampled submissions rescored by a fresh scheme vs the replay."""
        context = state["context"]
        population = context.population
        results = context.results_for(CACHE_SCHEME)
        mismatches = 0
        for index in sample_indices(len(population), self.samples):
            submission = population[index]
            fresh = context.challenge.evaluate(
                submission, SCHEMES[CACHE_SCHEME](), validate=False
            )
            mismatches += digest_mp(fresh) != digest_mp(results[submission.submission_id])
        return mismatches

    def cleanup(self, state):
        shutil.rmtree(state["cache_dir"], ignore_errors=True)


# --------------------------------------------------------------------- #

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Headline("headline", size=60),
        RegionSearch("region_search", size=5),
        OnlineReplay("online_replay", size=10),
        CacheReplay("cache_replay", size=30),
    )
}
