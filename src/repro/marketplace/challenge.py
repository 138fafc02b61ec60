"""The Rating Challenge (paper Section III).

Rules reproduced here:

- a catalogue of nine similar products with real (here: synthetic) fair
  ratings over the challenge window;
- each participant controls **50 biased raters** and decides when each
  rater rates, which products, and with what values;
- each biased rater rates a given product **at most once** (the
  aggregation model of Eq. 7 assumes one rating per rater per object);
- the objective is to boost up to two products and downgrade up to two
  others;
- submissions are scored by the MP metric (30-day periods, top two
  monthly deviations per product) under a chosen aggregation scheme.

Every submission is compared against the same fair world, so the challenge
owns that invariant: :meth:`RatingChallenge.fair_baseline` scores the fair
world once per scheme instance and :meth:`RatingChallenge.evaluate` hands
the result to the MP metric instead of rescoring it per submission.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.base import AttackSubmission
from repro.errors import ChallengeRuleError, ValidationError
from repro.marketplace.fair_ratings import FairRatingConfig, FairRatingGenerator
from repro.marketplace.mp import MPResult, manipulation_power
from repro.marketplace.product import Product, default_tv_lineup
from repro.obs.spans import span
from repro.types import DEFAULT_SCALE, RatingDataset, RatingScale, RatingStream
from repro.utils.rng import SeedLike

__all__ = ["ChallengeConfig", "RatingChallenge", "LeaderboardEntry"]


@dataclass(frozen=True)
class ChallengeConfig:
    """Static parameters of a Rating Challenge instance."""

    n_biased_raters: int = 50
    max_boost_products: int = 2
    max_downgrade_products: int = 2
    period_days: float = 30.0
    biased_rater_prefix: str = "attacker"
    scale: RatingScale = field(default_factory=lambda: DEFAULT_SCALE)

    def __post_init__(self) -> None:
        if self.n_biased_raters < 1:
            raise ValidationError(
                f"n_biased_raters must be >= 1, got {self.n_biased_raters}"
            )
        if self.max_boost_products < 0 or self.max_downgrade_products < 0:
            raise ValidationError("product limits must be >= 0")
        if self.period_days <= 0:
            raise ValidationError(f"period_days must be > 0, got {self.period_days}")

    @property
    def max_attacked_products(self) -> int:
        """Upper bound on distinct products a submission may touch."""
        return self.max_boost_products + self.max_downgrade_products

    def biased_rater_ids(self) -> Tuple[str, ...]:
        """The rater ids the participant controls."""
        width = max(2, len(str(self.n_biased_raters - 1)))
        return tuple(
            f"{self.biased_rater_prefix}_{i:0{width}d}"
            for i in range(self.n_biased_raters)
        )


@dataclass(frozen=True)
class LeaderboardEntry:
    """One row of a challenge leaderboard."""

    rank: int
    submission_id: str
    strategy: str
    total_mp: float
    per_product: Dict[str, float]


class RatingChallenge:
    """A runnable instance of the paper's Rating Challenge.

    Parameters
    ----------
    products / fair_config / seed:
        Forwarded to :class:`FairRatingGenerator` when ``fair_dataset`` is
        not supplied.
    fair_dataset:
        Pre-generated fair data (lets several challenges share one world).
    config:
        Challenge rules.
    """

    def __init__(
        self,
        products: Optional[Sequence[Product]] = None,
        fair_config: Optional[FairRatingConfig] = None,
        config: Optional[ChallengeConfig] = None,
        seed: SeedLike = None,
        fair_dataset: Optional[RatingDataset] = None,
    ) -> None:
        self.products = list(products) if products is not None else default_tv_lineup()
        self.fair_config = fair_config if fair_config is not None else FairRatingConfig()
        self.config = config if config is not None else ChallengeConfig()
        if fair_dataset is not None:
            self.fair_dataset = fair_dataset
        else:
            generator = FairRatingGenerator(
                products=self.products, config=self.fair_config, seed=seed
            )
            self.fair_dataset = generator.generate()
        # When the whole world is a pure function of an integer seed
        # (all-default construction), record it: the parallel engine uses
        # it to rebuild this challenge identically in worker processes.
        reconstructible = (
            products is None
            and fair_config is None
            and config is None
            and fair_dataset is None
            and isinstance(seed, int)
            and not isinstance(seed, bool)
        )
        self.seed: Optional[int] = int(seed) if reconstructible else None
        self._biased_ids = set(self.config.biased_rater_ids())
        self._product_ids = {p.product_id for p in self.products}
        # scheme -> (fair_dataset, grid stamp, scores); weak keys, so a
        # discarded scheme instance drops its entry.
        self._fair_scores: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def __getstate__(self) -> dict:
        # The memo is weak-keyed and process-local: never pickled.
        state = self.__dict__.copy()
        del state["_fair_scores"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._fair_scores = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------ #
    # Time span
    # ------------------------------------------------------------------ #

    @property
    def start_day(self) -> float:
        """Challenge window start (from the fair-rating config)."""
        return self.fair_config.start_day

    @property
    def end_day(self) -> float:
        """Challenge window end (exclusive)."""
        return self.fair_config.end_day

    # ------------------------------------------------------------------ #
    # Rule validation
    # ------------------------------------------------------------------ #

    def validate(self, submission: AttackSubmission) -> None:
        """Raise :class:`~repro.errors.ChallengeRuleError` on any violation.

        Checks: attacked products exist and are at most the boost+downgrade
        budget; rater ids are the participant's biased raters; each biased
        rater rates each product at most once; times lie in the challenge
        window; values lie on the rating scale.
        """
        if len(submission.streams) > self.config.max_attacked_products:
            raise ChallengeRuleError(
                f"submission attacks {len(submission.streams)} products; the "
                f"challenge allows at most {self.config.max_attacked_products}"
            )
        for product_id, stream in submission.streams.items():
            if product_id not in self._product_ids:
                raise ChallengeRuleError(
                    f"product {product_id!r} is not part of the challenge"
                )
            seen_raters = set()
            for rating in stream:
                if rating.rater_id not in self._biased_ids:
                    raise ChallengeRuleError(
                        f"rater {rating.rater_id!r} is not one of the "
                        f"{self.config.n_biased_raters} biased raters"
                    )
                if rating.rater_id in seen_raters:
                    raise ChallengeRuleError(
                        f"rater {rating.rater_id!r} rates product "
                        f"{product_id!r} more than once"
                    )
                seen_raters.add(rating.rater_id)
                if not self.start_day <= rating.time < self.end_day:
                    raise ChallengeRuleError(
                        f"rating at day {rating.time:.2f} is outside the "
                        f"challenge window [{self.start_day}, {self.end_day})"
                    )
                if not self.config.scale.contains(rating.value):
                    raise ChallengeRuleError(
                        f"rating value {rating.value} is outside the scale "
                        f"[{self.config.scale.minimum}, {self.config.scale.maximum}]"
                    )

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def attacked_dataset(self, submission: AttackSubmission) -> RatingDataset:
        """Fair data with the submission's unfair ratings merged in."""
        with span("challenge.attacked_dataset"):
            return self.fair_dataset.merge(submission.as_dict())

    def fair_baseline(self, scheme) -> Dict[str, np.ndarray]:
        """``scheme``'s monthly scores of the fair world (read-only arrays).

        Computed once per scheme instance and reused while the scheme's
        ``config`` compares equal, :attr:`fair_dataset` is the same object
        and the month grid is unchanged; any of those changing recomputes
        it.  Schemes that cannot be weakly referenced are rescored on
        every call.
        """
        stamp = (
            getattr(scheme, "config", None),
            self.config.period_days,
            self.start_day,
            self.end_day,
        )
        try:
            entry = self._fair_scores.get(scheme)
        except TypeError:  # not weakly referenceable or not hashable
            return self._score_fair(scheme)
        if entry is not None and entry[0] is self.fair_dataset and entry[1] == stamp:
            return entry[2]
        scores = self._score_fair(scheme)
        self._fair_scores[scheme] = (self.fair_dataset, stamp, scores)
        return scores

    def _score_fair(self, scheme) -> Dict[str, np.ndarray]:
        scores = scheme.monthly_scores(
            self.fair_dataset, self.config.period_days, self.start_day, self.end_day
        )
        for series in scores.values():
            series.setflags(write=False)
        return scores

    def evaluate(
        self, submission: AttackSubmission, scheme, validate: bool = True
    ) -> MPResult:
        """Score one submission under ``scheme`` (any aggregation scheme)."""
        if validate:
            self.validate(submission)
        return manipulation_power(
            scheme,
            self.attacked_dataset(submission),
            self.fair_dataset,
            period_days=self.config.period_days,
            start_day=self.start_day,
            end_day=self.end_day,
            fair_scores=self.fair_baseline(scheme),
        )

    def replay_online(
        self,
        scheme,
        submission: Optional[AttackSubmission] = None,
        validate: bool = True,
        monitor_drift: bool = True,
    ):
        """Stream the challenge world through an online rating system.

        The (optionally attacked) dataset splits at :attr:`start_day`:
        everything earlier seeds the system as pre-challenge history
        (calibrating the drift monitor), everything later is submitted in
        timestamp order, and every epoch that fits *completely* inside
        the challenge window is closed.  A trailing partial window stays
        accumulating: checking drift over a window the data only partly
        covers zero-pads the daily arrival counts, which systematically
        inflates the dispersion statistic and false-alarms on fair
        worlds.  Returns the :class:`~repro.online.system.
        OnlineRatingSystem` with its epoch reports -- the operational
        (drift/alert) view of the same world the batch evaluator scores.
        Telemetry from every layer goes to the active registry; replay
        under ``use_registry(registry)`` to collect it in one place.
        """
        from repro.online.system import OnlineRatingSystem

        if submission is not None and validate:
            self.validate(submission)
        dataset = (
            self.attacked_dataset(submission)
            if submission is not None
            else self.fair_dataset
        )
        history: List = []
        live: List = []
        for stream in dataset.streams():
            for rating in stream:
                (history if rating.time < self.start_day else live).append(rating)
        history_streams = {}
        for rating in history:
            history_streams.setdefault(rating.product_id, []).append(rating)
        history_dataset = RatingDataset(
            [
                RatingStream.from_ratings(product_id, ratings)
                for product_id, ratings in history_streams.items()
            ]
        )
        system = OnlineRatingSystem(
            scheme,
            start_day=self.start_day,
            period_days=self.config.period_days,
            history=history_dataset if history else None,
            monitor_drift=monitor_drift,
        )
        system.submit_many(sorted(live))
        while system.current_epoch_end <= self.end_day:
            system.close_epoch()
        return system

    def leaderboard(
        self,
        submissions: Sequence[AttackSubmission],
        scheme,
        validate: bool = True,
        results: Optional[Sequence[MPResult]] = None,
    ) -> List[LeaderboardEntry]:
        """Rank submissions by total MP under ``scheme`` (descending).

        ``results`` (aligned with ``submissions``) skips re-evaluation --
        used when MP values were already computed, e.g. by the parallel
        evaluation engine.
        """
        if results is None:
            results = [
                self.evaluate(submission, scheme, validate=validate)
                for submission in submissions
            ]
        results = sorted(
            zip(submissions, results), key=lambda pair: -pair[1].total
        )
        return [
            LeaderboardEntry(
                rank=i + 1,
                submission_id=submission.submission_id,
                strategy=submission.strategy,
                total_mp=result.total,
                per_product=dict(result.per_product),
            )
            for i, (submission, result) in enumerate(results)
        ]
