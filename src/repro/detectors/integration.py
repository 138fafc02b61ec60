"""Joint detection of suspicious ratings -- paper Section IV-F, Figure 1.

Single detectors false-alarm on natural variation (fair ratings drift in
mean and arrival rate), so the paper combines them along two parallel
paths:

**Path 1 (strong attacks).**  The MC curve shows a suspicious interval
(the U-shape bracketed by two peaks, or a trust-moderated suspicious
segment) *and* the H-ARC or L-ARC curve independently shows one too.
Where the two intervals overlap, the correspondingly high (``> a``)
or low (``< b``) ratings are marked suspicious.

**Path 2 (alarm-confirmed intervals).**  When an H-ARC (L-ARC) alarm is
raised -- the side-specific arrival rate is anomalous -- the ME (HC)
detector is consulted: ratings that are high (low) inside an
ME-suspicious (HC-suspicious) interval are marked.

Both paths always run; their marks are unioned (a product can be attacked
more than once, Section IV-F).

Every mark also records *provenance*: which path fired and which
sub-detectors contributed, as ``PROV_*`` bit flags per rating
(:mod:`repro.detectors.base`).  The mask travels on the
:class:`DetectionReport`, feeding per-decision attribution (the CLI's
``detect --explain``) without re-running detection.  Per-sub-detector
wall-clock timings are recorded into the active metrics registry under
``detector.<kind>.seconds``; when a collecting registry is active, each
verdict is additionally joined against the stream's ground-truth unfair
labels into a :mod:`repro.obs.quality` scorecard (``quality.*``
counters: per-detector confusion cells, detection latency, bias at
detection).

Implementation note: the paper issues the Path 2 alarm only when the ARC
curve "does not have such a U-shape"; we raise it whenever the curve
exceeds the alarm threshold, because the ME/HC confirmation step already
suppresses false positives and this keeps Path 2 effective when Path 1
misses (e.g. an MC curve flattened by a high-variance attack).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.detectors.arrival_rate import ArrivalRateDetector, ArrivalRateReport
from repro.detectors.base import (
    PROV_H_ARC,
    PROV_HC,
    PROV_L_ARC,
    PROV_MC,
    PROV_ME,
    PROV_PATH1,
    PROV_PATH2,
    DetectionReport,
    DetectorConfig,
    TimeInterval,
)
from repro.detectors.histogram import (
    HistogramChangeDetector,
    HistogramChangeReport,
)
from repro.detectors.mean_change import MeanChangeDetector, MeanChangeReport
from repro.detectors.model_error import ModelErrorDetector, ModelErrorReport
from repro.obs import get_logger
from repro.obs.registry import get_registry
from repro.obs.spans import span
from repro.types import RatingStream

__all__ = ["JointDetector"]

TrustLookup = Callable[[str], float]

logger = get_logger(__name__)


class JointDetector:
    """The complete suspicious-rating detection stage of the P-scheme."""

    def __init__(self, config: Optional[DetectorConfig] = None) -> None:
        self.config = config if config is not None else DetectorConfig()
        self.mean_change = MeanChangeDetector(self.config)
        self.h_arc = ArrivalRateDetector("H-ARC", self.config)
        self.l_arc = ArrivalRateDetector("L-ARC", self.config)
        self.histogram = HistogramChangeDetector(self.config)
        self.model_error = ModelErrorDetector(self.config)

    # ------------------------------------------------------------------ #

    @staticmethod
    def _report_intervals(report) -> List[TimeInterval]:
        """All suspicious intervals a sub-detector produced.

        For MC and ARC reports this unions the U-shape interval (when
        present) with the segment-based suspicious intervals.
        """
        intervals: List[TimeInterval] = list(report.suspicious_intervals)
        u_shape = getattr(report, "u_shape", None)
        if u_shape is not None:
            intervals.append(TimeInterval.from_u_shape(u_shape))
        return intervals

    @staticmethod
    def _mark(
        mask: np.ndarray,
        provenance: np.ndarray,
        stream: RatingStream,
        interval: TimeInterval,
        value_mask: np.ndarray,
        flags: int,
    ) -> None:
        """Mark ratings inside ``interval`` that satisfy ``value_mask``,
        recording ``flags`` as their provenance."""
        hit = interval.mask(stream.times) & value_mask
        mask |= hit
        provenance[hit] |= flags

    def _path1(
        self,
        stream: RatingStream,
        mc_report: MeanChangeReport,
        harc_report: ArrivalRateReport,
        larc_report: ArrivalRateReport,
        high_mask: np.ndarray,
        low_mask: np.ndarray,
        mask: np.ndarray,
        provenance: np.ndarray,
    ) -> List[TimeInterval]:
        """Path 1: MC interval overlapping an H/L-ARC interval.

        The MC detector *confirms* that the rating level moved; the ARC
        interval *delimits* the attack (arrival anomalies bracket exactly
        the injected ratings, while the strongest MC peak pair may span
        only a slice of a long attack).  So on overlap, the whole ARC
        interval is marked.
        """
        fired: List[TimeInterval] = []
        mc_intervals = self._report_intervals(mc_report)
        for arc_report, value_mask, arc_flag in (
            (harc_report, high_mask, PROV_H_ARC),
            (larc_report, low_mask, PROV_L_ARC),
        ):
            for arc_interval in self._report_intervals(arc_report):
                confirmed = any(
                    mc_interval.intersect(arc_interval) is not None
                    for mc_interval in mc_intervals
                )
                if not confirmed:
                    continue
                self._mark(
                    mask, provenance, stream, arc_interval, value_mask,
                    PROV_PATH1 | PROV_MC | arc_flag,
                )
                fired.append(arc_interval)
        return fired

    def _path2(
        self,
        stream: RatingStream,
        harc_report: ArrivalRateReport,
        larc_report: ArrivalRateReport,
        me_report: ModelErrorReport,
        hc_report: HistogramChangeReport,
        high_mask: np.ndarray,
        low_mask: np.ndarray,
        mask: np.ndarray,
        provenance: np.ndarray,
    ) -> List[TimeInterval]:
        """Path 2: an H-ARC (L-ARC) alarm confirmed by the ME (HC) detector."""
        fired: List[TimeInterval] = []
        for arc_report, confirming, value_mask, flags in (
            (harc_report, me_report, high_mask, PROV_PATH2 | PROV_H_ARC | PROV_ME),
            (larc_report, hc_report, low_mask, PROV_PATH2 | PROV_L_ARC | PROV_HC),
        ):
            if not arc_report.alarm:
                continue
            for interval in confirming.suspicious_intervals:
                self._mark(mask, provenance, stream, interval, value_mask, flags)
                fired.append(interval)
        return fired

    # ------------------------------------------------------------------ #

    def _timed(self, kind: str, analyze: Callable, *args):
        """Run one sub-detector under a span, recording wall-clock time.

        The span (``detector.<kind>``, nested under whatever stage is
        open) is what the sampling profiler attributes frames to, so a
        profile breaks each sub-detector's cost down per frame; the flat
        ``detector.<kind>.seconds`` histogram is kept for dashboards
        that predate the span tree.
        """
        registry = get_registry()
        with span(f"detector.{kind}"):
            start = perf_counter()
            report = analyze(*args)
            elapsed = perf_counter() - start
        registry.observe(f"detector.{kind}.seconds", elapsed)
        registry.inc(f"detector.{kind}.calls")
        return report

    def analyze(
        self,
        stream: RatingStream,
        trust_lookup: Optional[TrustLookup] = None,
    ) -> DetectionReport:
        """Run both detection paths over one product stream.

        ``trust_lookup`` (rater id -> current trust) feeds the
        trust-moderated MC segment rule; omit it on the first pass, before
        any trust has been established.

        The five sub-detectors each run under their own
        ``detector.<kind>`` span; the integration work that follows (value
        thresholds, Path 1/Path 2 marking, the ``quality.*`` join) runs
        under the sibling ``detector.joint`` span.
        """
        n = len(stream)
        if n < self.config.min_ratings:
            get_registry().inc("detector.short_streams")
            return DetectionReport(
                product_id=stream.product_id,
                suspicious=np.zeros(n, dtype=bool),
            )
        mc_report = self._timed("MC", self.mean_change.analyze, stream, trust_lookup)
        harc_report = self._timed("H-ARC", self.h_arc.analyze, stream)
        larc_report = self._timed("L-ARC", self.l_arc.analyze, stream)
        hc_report = self._timed("HC", self.histogram.analyze, stream)
        me_report = self._timed("ME", self.model_error.analyze, stream)

        registry = get_registry()
        with span("detector.joint"):
            mean_value = float(stream.values.mean())
            high_mask = stream.values > self.config.high_value_threshold(mean_value)
            low_mask = stream.values < self.config.low_value_threshold(mean_value)
            mask = np.zeros(n, dtype=bool)
            provenance = np.zeros(n, dtype=np.uint8)
            path1: List[TimeInterval] = []
            path2: List[TimeInterval] = []
            if self.config.enable_path1:
                path1 = self._path1(
                    stream, mc_report, harc_report, larc_report,
                    high_mask, low_mask, mask, provenance,
                )
            if self.config.enable_path2:
                path2 = self._path2(
                    stream, harc_report, larc_report, me_report, hc_report,
                    high_mask, low_mask, mask, provenance,
                )
            registry.inc("detector.joint.calls")
            if mask.any():
                registry.inc("detector.joint.marked_ratings", int(mask.sum()))
                logger.debug(
                    "product=%s marked=%d path1_intervals=%d path2_intervals=%d",
                    stream.product_id, int(mask.sum()), len(path1), len(path2),
                )
            curves = {
                "MC": mc_report.curve,
                "H-ARC": harc_report.curve,
                "L-ARC": larc_report.curve,
                "HC": hc_report.curve,
                "ME": me_report.curve,
            }
            report = DetectionReport(
                product_id=stream.product_id,
                suspicious=mask,
                path1_intervals=tuple(path1),
                path2_intervals=tuple(path2),
                provenance=provenance,
                curves=curves,
                alarms={"H-ARC": harc_report.alarm, "L-ARC": larc_report.alarm},
            )
            if registry.enabled:
                # Join the verdict against the stream's ground-truth unfair
                # labels and fold the scorecard into the registry, so every
                # detection pass contributes to the quality.* namespace.
                # (Imported here: repro.obs.quality needs the provenance
                # flags from this package, so a top-level import would be
                # circular.)
                from repro.obs.quality import emit_scorecard, score_detection

                emit_scorecard(score_detection(stream, report), registry)
        return report

    def analyze_batch(
        self,
        dataset,
        trust_lookup: Optional[TrustLookup] = None,
    ) -> Dict[str, DetectionReport]:
        """Run :meth:`analyze` over every product stream of ``dataset``.

        Returns ``{product_id: DetectionReport}`` in dataset order.  Each
        stream is analyzed on its own, as in the paper (Section IV,
        Figure 1); verdicts are joined per product by the caller.
        """
        return {
            product_id: self.analyze(dataset[product_id], trust_lookup)
            for product_id in dataset
        }
