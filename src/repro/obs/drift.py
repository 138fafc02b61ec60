"""Assumption drift monitors for the fair-rating regime.

The paper's detectors (and this reproduction's calibrated thresholds)
assume the *fair* traffic stays inside a stated regime: arrivals are
Poisson-like, rating values hover around a stable mean (~4 on the 0-5
scale), and the residuals of the fair model are white (the ME detector's
AR fit depends on it).  Nothing in the pipeline used to say when a
deployment leaves that regime -- the standard silent-failure mode of
beta-filter trust models (Whitby et al.; TRAVOS).

Three dependency-free statistics, checked per product per epoch:

- **arrival dispersion** -- the Fano factor (variance/mean) of daily
  rating counts; ~1 for a Poisson process, >> 1 for bursty arrivals,
  << 1 for suspiciously regular (scripted) arrivals;
- **residual whiteness** -- a Ljung-Box Q statistic over the de-meaned
  rating values, against a Wilson-Hilferty chi-squared quantile;
- **mean drift** -- the epoch's mean rating value vs the calibrated fair
  mean.

Violations become structured :class:`DriftWarning` records, log lines,
and ``drift.*`` counters in the active metrics registry.  The
:class:`~repro.online.system.OnlineRatingSystem` runs a
:class:`DriftMonitor` on every epoch close and publishes the warnings on
the :class:`~repro.online.system.EpochReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.obs.logging_setup import get_logger
from repro.obs.registry import get_registry
from repro.types import RatingDataset, RatingStream

__all__ = [
    "DriftMonitorConfig",
    "DriftWarning",
    "DriftMonitor",
    "arrival_dispersion",
    "ljung_box_statistic",
    "chi2_quantile",
]

logger = get_logger(__name__)


def arrival_dispersion(counts: np.ndarray) -> float:
    """Fano factor (variance/mean) of per-day arrival counts.

    ~1 under a homogeneous Poisson process; NaN when the window is empty.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0 or counts.sum() == 0:
        return float("nan")
    mean = counts.mean()
    return float(counts.var() / mean)


def ljung_box_statistic(values: np.ndarray, lags: int) -> float:
    """Ljung-Box Q over the de-meaned series (H0: white noise).

    ``Q = n (n + 2) * sum_k rho_k^2 / (n - k)`` for ``k = 1..lags``;
    compare against a chi-squared quantile with ``lags`` degrees of
    freedom.  NaN when the series is shorter than ``lags + 1`` or has
    zero variance (a constant series carries no whiteness evidence).
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if lags < 1:
        raise ValidationError(f"lags must be >= 1, got {lags}")
    if n <= lags + 1:
        return float("nan")
    centered = values - values.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        return float("nan")
    q = 0.0
    for k in range(1, lags + 1):
        rho = float(np.dot(centered[:-k], centered[k:])) / denom
        q += rho * rho / (n - k)
    return float(n * (n + 2) * q)


def chi2_quantile(df: int, p: float = 0.99) -> float:
    """Wilson-Hilferty approximation of the chi-squared quantile.

    Accurate to a few percent for ``df >= 2`` -- plenty for a monitor
    threshold -- and keeps the module dependency-free (no scipy).
    """
    if df < 1:
        raise ValidationError(f"df must be >= 1, got {df}")
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must be in (0, 1), got {p}")
    # Standard-normal quantile via Acklam's rational approximation
    # (central region only; monitor thresholds live well inside it).
    z = _normal_quantile(p)
    return float(df * (1.0 - 2.0 / (9.0 * df) + z * np.sqrt(2.0 / (9.0 * df))) ** 3)


def _normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's approximation)."""
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = np.sqrt(-2.0 * np.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p > p_high:
        return -_normal_quantile(1.0 - p)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


@dataclass(frozen=True)
class DriftMonitorConfig:
    """Tunables of the assumption drift monitors.

    The default bounds were calibrated so the seeded fair worlds (weekly
    cycle, slow trend, Poisson arrivals) stay silent while the canonical
    attack archetypes (bursts, scripted evenly-spaced arrivals, strong
    bias) trip at least one monitor; see ``tests/unit/test_drift.py``.
    """

    #: Minimum evidence before any monitor speaks.
    min_ratings: int = 20
    min_days: float = 7.0
    #: Fano-factor bounds for per-day arrival counts.  The fair worlds'
    #: weekly cycle already overdisperses mildly (factor ~1.2-1.8), so
    #: the high bound sits well above Poisson's 1.
    dispersion_low: float = 0.25
    dispersion_high: float = 3.0
    #: Ljung-Box lags; threshold is the chi-squared ``whiteness_p``
    #: quantile with ``lags`` degrees of freedom.
    whiteness_lags: int = 8
    whiteness_p: float = 0.999
    #: Absolute drift of the epoch mean vs the calibrated fair mean.
    mean_drift_threshold: float = 0.75
    #: Calibrated fair mean; ``None`` calibrates from data
    #: (:meth:`DriftMonitor.calibrate`, or self-calibration on first use).
    fair_mean: Optional[float] = None

    def __post_init__(self) -> None:
        if self.min_ratings < 1:
            raise ValidationError("min_ratings must be >= 1")
        if self.dispersion_low >= self.dispersion_high:
            raise ValidationError(
                "dispersion_low must be below dispersion_high"
            )
        if self.mean_drift_threshold <= 0:
            raise ValidationError("mean_drift_threshold must be > 0")

    @property
    def whiteness_threshold(self) -> float:
        """The Ljung-Box rejection threshold implied by lags + p."""
        return chi2_quantile(self.whiteness_lags, self.whiteness_p)


@dataclass(frozen=True)
class DriftWarning:
    """One assumption violation observed in one product's epoch window."""

    kind: str  #: "arrival-dispersion" | "residual-whiteness" | "mean-drift"
    product_id: str
    statistic: float
    threshold: float
    window: Tuple[float, float]
    detail: str

    def __str__(self) -> str:
        lo, hi = self.window
        return (
            f"[{self.kind}] {self.product_id} days [{lo:.1f}, {hi:.1f}): "
            f"statistic={self.statistic:.3f} threshold={self.threshold:.3f} "
            f"({self.detail})"
        )


class DriftMonitor:
    """Checks product streams against the fair-regime assumptions.

    Counters go to the active registry: ``drift.checks`` (monitored
    product-epochs), ``drift.warnings`` (total violations), and
    ``drift.<kind>.violations`` per monitor kind.
    """

    #: Counter-friendly names per warning kind.
    _KINDS = {
        "arrival-dispersion": "dispersion",
        "residual-whiteness": "whiteness",
        "mean-drift": "mean",
    }

    def __init__(self, config: Optional[DriftMonitorConfig] = None) -> None:
        self.config = config if config is not None else DriftMonitorConfig()
        self._fair_mean: Optional[float] = self.config.fair_mean

    @property
    def fair_mean(self) -> Optional[float]:
        """The calibrated fair mean (``None`` until calibrated)."""
        return self._fair_mean

    def calibrate(self, dataset: RatingDataset) -> None:
        """Set the fair mean from known-fair data (e.g. the history)."""
        values = [
            float(stream.values.sum())
            for stream in dataset.streams()
            if len(stream)
        ]
        counts = sum(len(stream) for stream in dataset.streams())
        if counts:
            self._fair_mean = sum(values) / counts

    # ------------------------------------------------------------------ #

    def check_stream(
        self, stream: RatingStream, start: float, stop: float
    ) -> List[DriftWarning]:
        """All assumption violations for one product over ``[start, stop)``."""
        window = stream.between(start, stop)
        if len(window) < self.config.min_ratings:
            return []
        if self._fair_mean is None:
            # Self-calibrate on first evidence: the first monitored window
            # defines the regime, so drift is measured relative to it.
            self._fair_mean = float(window.values.mean())
        warnings: List[DriftWarning] = []
        span = (float(start), float(stop))
        if stop - start >= self.config.min_days:
            _, counts = window.daily_counts(start, stop)
            fano = arrival_dispersion(counts)
            if np.isfinite(fano) and not (
                self.config.dispersion_low <= fano <= self.config.dispersion_high
            ):
                side = "bursty" if fano > self.config.dispersion_high else "scripted"
                bound = (
                    self.config.dispersion_high
                    if fano > self.config.dispersion_high
                    else self.config.dispersion_low
                )
                warnings.append(
                    DriftWarning(
                        kind="arrival-dispersion",
                        product_id=stream.product_id,
                        statistic=fano,
                        threshold=bound,
                        window=span,
                        detail=f"daily-count Fano factor looks {side}, not Poisson",
                    )
                )
        q = ljung_box_statistic(window.values, self.config.whiteness_lags)
        threshold = self.config.whiteness_threshold
        if np.isfinite(q) and q > threshold:
            warnings.append(
                DriftWarning(
                    kind="residual-whiteness",
                    product_id=stream.product_id,
                    statistic=q,
                    threshold=threshold,
                    window=span,
                    detail=(
                        f"Ljung-Box Q over {self.config.whiteness_lags} lags "
                        f"rejects white residuals"
                    ),
                )
            )
        drift = abs(float(window.values.mean()) - self._fair_mean)
        if drift > self.config.mean_drift_threshold:
            warnings.append(
                DriftWarning(
                    kind="mean-drift",
                    product_id=stream.product_id,
                    statistic=drift,
                    threshold=self.config.mean_drift_threshold,
                    window=span,
                    detail=(
                        f"epoch mean {window.values.mean():.2f} vs calibrated "
                        f"fair mean {self._fair_mean:.2f}"
                    ),
                )
            )
        self._record(warnings)
        return warnings

    def check_epoch(
        self, dataset: RatingDataset, start: float, stop: float
    ) -> List[DriftWarning]:
        """Check every product stream of ``dataset`` over one epoch window."""
        warnings: List[DriftWarning] = []
        for product_id in dataset:
            warnings.extend(self.check_stream(dataset[product_id], start, stop))
        return warnings

    def _record(self, warnings: List[DriftWarning]) -> None:
        registry = get_registry()
        registry.inc("drift.checks")
        if not warnings:
            return
        registry.inc("drift.warnings", len(warnings))
        for warning in warnings:
            registry.inc(f"drift.{self._KINDS[warning.kind]}.violations")
            logger.warning("%s", warning)
