"""P-scheme: the paper's signal-based reliable rating aggregation system.

The four-step pipeline of Section IV-A:

1. **Raw rating analysis** -- the four detectors (MC, H/L-ARC, HC, ME) run
   over every product stream.
2. **Joint detection** -- Path 1 / Path 2 integration marks suspicious
   ratings (:class:`~repro.detectors.integration.JointDetector`).
3. **Trust manager** -- Procedure 1 converts per-epoch suspicious counts
   into per-rater beta trust (:class:`~repro.trust.manager.TrustManager`);
   epochs coincide with the monthly score periods.
4. **Filter + aggregation** -- highly suspicious ratings (marked suspicious
   *and* from a rater whose trust fell below the filter threshold) are
   removed; the remaining ratings are combined by the trust-weighted
   average of Eq. 7, under which raters at or below neutral trust (0.5)
   carry no weight.

An optional second pass (``two_pass=True``) re-runs detection with the
first pass's trust feeding the trust-moderated MC segment rule (Section
IV-B.3 condition 2), then recomputes trust -- capturing the feedback loop
between detection and trust at roughly double the cost.

Detection on a given stream is independent of the rest of the dataset, so
per-stream detection reports are cached by stream content (least recently
used evicted first); evaluating hundreds of challenge submissions against
the same fair world only pays for the attacked products.  The fair world's
own monthly scores are not memoised here: the MP layer
(:meth:`~repro.marketplace.challenge.RatingChallenge.evaluate`) computes
them once per scheme instance.  Whether the report cache pays is
observable: it reports hits/misses/evictions into the active metrics
registry (``pscheme.report_cache.*``) and each pipeline stage is timed
under ``span.pscheme.monthly_scores.{detect,trust,aggregate}.seconds``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.aggregation.base import AggregationScheme, period_slices
from repro.aggregation.weighted import trust_weighted_average
from repro.detectors.base import DetectorConfig
from repro.detectors.integration import JointDetector
from repro.errors import ValidationError
from repro.marketplace.mp import month_edges
from repro.obs import span
from repro.obs.registry import get_registry
from repro.trust.manager import TrustManager
from repro.types import RatingDataset, RatingStream

__all__ = ["PSchemeConfig", "PScheme"]


@dataclass(frozen=True)
class PSchemeConfig:
    """Tunables of the P-scheme.

    Attributes
    ----------
    detector:
        Detection-stage configuration (windows, thresholds).
    initial_trust:
        Trust assigned to unseen raters (paper: 0.5).
    filter_trust_threshold:
        "Highly suspicious" filter: a rating is dropped when it is marked
        suspicious and its rater's trust is below this value.  Suspicious
        ratings from better-trusted raters stay in (they are probably the
        fair collateral of an imprecise interval) and are merely
        down-weighted by Eq. 7.
    two_pass:
        Re-run detection with first-pass trust (see module docstring).
    forgetting_factor:
        Evidence fading per epoch (1.0 = the paper's Procedure 1, no
        fading; below 1 lets trust recover -- see
        :class:`~repro.trust.manager.TrustManager`).
    use_trust_weights:
        Ablation switch.  ``True`` (default) runs the full pipeline:
        trust-moderated filtering plus Eq. 7 weighting.  ``False`` reduces
        the scheme to *filter-only*: every rating the detectors marked is
        dropped and the survivors are averaged without trust -- isolating
        how much the trust layer contributes beyond raw detection.
    """

    detector: DetectorConfig = field(default_factory=DetectorConfig)
    initial_trust: float = 0.5
    filter_trust_threshold: float = 0.4
    two_pass: bool = False
    use_trust_weights: bool = True
    forgetting_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.initial_trust < 1.0:
            raise ValidationError(
                f"initial_trust must be in (0, 1), got {self.initial_trust}"
            )
        if not 0.0 < self.forgetting_factor <= 1.0:
            raise ValidationError(
                f"forgetting_factor must be in (0, 1], got {self.forgetting_factor}"
            )
        if not 0.0 <= self.filter_trust_threshold <= 1.0:
            raise ValidationError(
                "filter_trust_threshold must be in [0, 1], got "
                f"{self.filter_trust_threshold}"
            )


def _stream_key(stream: RatingStream) -> tuple:
    """Everything detection reads from a stream, as a by-value dict key."""
    return (
        stream.product_id,
        stream.times.tobytes(),
        stream.values.tobytes(),
        stream.rater_ids,
    )


class PScheme(AggregationScheme):
    """The proposed reliable rating aggregation system."""

    name = "P"

    #: Trust-free detection reports kept per instance (least recently
    #: used evicted first).
    report_cache_size = 128

    def __init__(self, config: Optional[PSchemeConfig] = None) -> None:
        self.config = config if config is not None else PSchemeConfig()
        self.detector = JointDetector(self.config.detector)
        self._report_cache: "OrderedDict" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Detection with per-stream caching
    # ------------------------------------------------------------------ #

    def detect(
        self,
        dataset: RatingDataset,
        trust_lookup: Optional[Callable[[str], float]] = None,
    ) -> Dict[str, np.ndarray]:
        """Suspicious-rating masks per product.

        Results are cached per stream only for the trust-free pass (with a
        trust lookup the result depends on dataset-wide state).  Returned
        arrays are write-protected: cached masks are shared across calls,
        so a mutating caller would otherwise corrupt every later cache
        hit.  Copy before modifying.

        On the trust-free pass only the cache-missing streams are
        analyzed, so a warm cache pays detection for the attacked
        products only.
        """
        registry = get_registry()
        if trust_lookup is not None:
            reports = self.detector.analyze_batch(dataset, trust_lookup)
            marks: Dict[str, np.ndarray] = {}
            for product_id in dataset:
                mask = reports[product_id].suspicious
                mask.setflags(write=False)
                marks[product_id] = mask
            return marks
        marks = {}
        keys: Dict[str, tuple] = {}
        missing = []
        for product_id in dataset:
            stream = dataset[product_id]
            key = _stream_key(stream)
            keys[product_id] = key
            cached = self._report_cache.get(key)
            if cached is None:
                registry.inc("pscheme.report_cache.misses")
                missing.append(stream)
            else:
                registry.inc("pscheme.report_cache.hits")
                self._report_cache.move_to_end(key)
                marks[product_id] = cached
        if missing:
            reports = self.detector.analyze_batch(RatingDataset(missing))
            for stream in missing:
                mask = reports[stream.product_id].suspicious
                mask.setflags(write=False)
                self._report_cache[keys[stream.product_id]] = mask
                while len(self._report_cache) > self.report_cache_size:
                    self._report_cache.popitem(last=False)
                    registry.inc("pscheme.report_cache.evictions")
                marks[stream.product_id] = mask
        return {product_id: marks[product_id] for product_id in dataset}

    # ------------------------------------------------------------------ #

    def _trust_and_marks(self, dataset: RatingDataset, epoch_times):
        """Run detection + Procedure 1, optionally with the feedback pass."""
        with span("detect"):
            marks = self.detect(dataset)
        manager = TrustManager(
            self.config.initial_trust, self.config.forgetting_factor
        )
        with span("trust"):
            snapshots = manager.run(dataset, marks, epoch_times)
        if self.config.two_pass:
            final = snapshots[-1]
            lookup = lambda rid: final.value(rid, self.config.initial_trust)  # noqa: E731
            with span("detect"):
                marks = self.detect(dataset, trust_lookup=lookup)
            manager = TrustManager(
                self.config.initial_trust, self.config.forgetting_factor
            )
            with span("trust"):
                snapshots = manager.run(dataset, marks, epoch_times)
        return marks, snapshots

    def monthly_scores(
        self,
        dataset: RatingDataset,
        period_days: float = 30.0,
        start_day: float = 0.0,
        end_day: float = 90.0,
    ) -> Dict[str, np.ndarray]:
        with span("pscheme.monthly_scores"):
            edges = month_edges(start_day, end_day, period_days)
            epoch_times = [float(hi) for hi in edges[1:]]
            marks, snapshots = self._trust_and_marks(dataset, epoch_times)
            with span("aggregate"):
                scores = self._aggregate(dataset, edges, marks, snapshots)
        return scores

    def _aggregate(self, dataset, edges, marks, snapshots):
        """Step 4: filter highly suspicious ratings, combine per Eq. 7."""
        scores: Dict[str, np.ndarray] = {}
        threshold = self.config.filter_trust_threshold
        for product_id in dataset:
            stream = dataset[product_id]
            mask = marks[product_id]
            series = np.full(edges.size - 1, np.nan)
            for i, window in enumerate(period_slices(stream, edges)):
                if window.stop == window.start:
                    continue
                suspicious = mask[window]
                values = stream.values[window]
                if not self.config.use_trust_weights:
                    # Filter-only ablation: drop marked ratings, plain mean.
                    keep = ~suspicious
                    if not keep.any():
                        continue
                    series[i] = float(values[keep].mean())
                    continue
                snapshot = snapshots[i]
                trusts = np.asarray(
                    [
                        snapshot.value(rater_id, self.config.initial_trust)
                        for rater_id in stream.rater_ids[window]
                    ]
                )
                keep = ~(suspicious & (trusts < threshold))
                if not keep.any():
                    continue
                series[i] = trust_weighted_average(values[keep], trusts[keep])
            scores[product_id] = series
        return scores
