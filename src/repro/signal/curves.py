"""Sliding-window indicator-curve construction.

Each detector in the paper produces a curve of a test statistic versus
time, built by sliding a window over the rating stream:

- **MC curve** (Section IV-B.2): Gaussian mean-change statistic.  The paper
  states windows are constructed "either by making them contain the same
  number of ratings or have the same time duration"; the challenge deploy
  used 30-*day* MC windows, so both variants are provided.
- **ARC curve** (Section IV-C.2): Poisson rate-change statistic over the
  daily-count series, centre ``k' = k + D``, shrinking windows at edges.
- **HC curve** (Section IV-D): two-cluster balance ``min(n1/n2, n2/n1)``
  over rating-count windows.
- **ME curve** (Section IV-E): normalized AR model error over rating-count
  windows.

All constructors return a :class:`Curve`: aligned arrays of evaluation
times, evaluation indices (index into the underlying series), and
statistic values.

Every builder runs on the vectorized fast path: windows are evaluated in
batched passes (grouped by window size where sizes shrink at the edges)
instead of one Python-level statistic call per centre, while producing
**bit-identical** values to the per-window formulation -- see
:mod:`repro.signal.rolling` for how that guarantee is kept and
``tests/property/test_incremental_curves.py`` for the exact-equality
pinning against the retained naive references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ValidationError
from repro.signal.ar import sliding_ar_normalized_errors
from repro.signal.rolling import (
    centered_half_widths,
    mean_change_stats_equal_halves,
    rate_change_stats_equal_halves,
    two_cluster_balance,
)
from repro.utils.validation import check_positive, check_positive_int

__all__ = [
    "Curve",
    "mean_change_curve_by_count",
    "mean_change_curve_by_time",
    "arrival_rate_curve",
    "histogram_change_curve",
    "model_error_curve",
]


@dataclass(frozen=True)
class Curve:
    """An indicator curve: a statistic evaluated along a rating stream.

    Attributes
    ----------
    kind:
        Which detector produced the curve (``"MC"``, ``"ARC"``, ``"H-ARC"``,
        ``"L-ARC"``, ``"HC"``, ``"ME"``).
    times:
        Evaluation times (days), one per point.
    indices:
        For rating-indexed curves: the rating index at the window centre.
        For day-indexed curves (ARC): the day index.  Aligned with ``times``.
    values:
        The statistic values.
    """

    kind: str
    times: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if not (self.times.size == self.indices.size == self.values.size):
            raise ValidationError("curve arrays must be aligned")
        for arr in (self.times, self.indices, self.values):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def is_empty(self) -> bool:
        """Whether the curve has no evaluation points."""
        return self.values.size == 0

    def max_value(self) -> float:
        """Largest statistic on the curve (``0.0`` for an empty curve)."""
        return float(self.values.max()) if self.values.size else 0.0

    def above(self, threshold: float) -> np.ndarray:
        """Boolean mask of points with ``value > threshold``."""
        return self.values > threshold

    def below(self, threshold: float) -> np.ndarray:
        """Boolean mask of points with ``value < threshold``."""
        return self.values < threshold


def _empty_curve(kind: str) -> Curve:
    return Curve(
        kind=kind,
        times=np.array([], dtype=float),
        indices=np.array([], dtype=int),
        values=np.array([], dtype=float),
    )


def mean_change_curve_by_count(
    times: np.ndarray, values: np.ndarray, half_width: int
) -> Curve:
    """MC curve with rating-count windows of half-width ``half_width``.

    ``MC(k)`` tests a mean change between ratings ``[k-W, k)`` and
    ``[k, k+W)`` (shrinking symmetrically near the edges), evaluated for
    every centre ``k`` in ``1 .. n-1``.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    half_width = check_positive_int(half_width, "half_width")
    if values.size < 2:
        return _empty_curve("MC")
    centers, halves = centered_half_widths(values.size, half_width)
    stats = mean_change_stats_equal_halves(values, centers, halves)
    return Curve(
        kind="MC",
        times=times[centers],
        indices=centers,
        values=stats,
    )


def mean_change_curve_by_time(
    times: np.ndarray, values: np.ndarray, window_days: float
) -> Curve:
    """MC curve with fixed-duration windows of ``window_days`` days.

    At each rating index ``k`` the two halves are the ratings in
    ``[t(k) - window_days/2, t(k))`` and ``[t(k), t(k) + window_days/2)``.
    Centres where either half is empty get statistic ``0`` (no evidence of
    change is obtainable there).

    The halves at each centre are located with two ``searchsorted`` sweeps
    (equivalent to the historical two-pointer scan); the half means are
    then computed per distinct half length by gathering exactly the needed
    windows into a row matrix and reducing row-wise (bit-equal to the
    per-slice mean, same pairwise reduction), so the whole curve is built
    without a per-centre Python loop and without touching windows no
    centre asked for.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    window_days = check_positive(window_days, "window_days")
    n = values.size
    if n < 2:
        return _empty_curve("MC")
    half = window_days / 2.0
    centers = np.arange(n)
    lo = np.searchsorted(times, times - half, side="left")
    hi = np.searchsorted(times, times + half, side="left")
    first_len = centers - lo
    second_len = hi - centers
    valid = (first_len > 0) & (second_len > 0)
    stats = np.zeros(n, dtype=float)
    if valid.any():
        first_mean = np.empty(n, dtype=float)
        second_mean = np.empty(n, dtype=float)
        for length in np.unique(first_len[valid]):
            length = int(length)
            sel = valid & (first_len == length)
            starts = centers[sel] - length
            first_mean[sel] = values[starts[:, None] + np.arange(length)].mean(
                axis=1
            )
        for length in np.unique(second_len[valid]):
            length = int(length)
            sel = valid & (second_len == length)
            starts = centers[sel]
            second_mean[sel] = values[starts[:, None] + np.arange(length)].mean(
                axis=1
            )
        n1 = first_len[valid]
        n2 = second_len[valid]
        diff = first_mean[valid] - second_mean[valid]
        # Same expression tree as gaussian_mean_change_statistic.
        coefficient = 2.0 * (n1 * n2) / (n1 + n2)
        stats[valid] = coefficient * diff * diff
    return Curve(kind="MC", times=times.copy(), indices=centers, values=stats)


def arrival_rate_curve(
    days: np.ndarray,
    counts: np.ndarray,
    half_width_days: int,
    kind: str = "ARC",
    total_llr: bool = True,
) -> Curve:
    """ARC curve over a daily-count series with half-width ``D`` days.

    ``ARC(k')`` is the Poisson GLRT statistic between counts
    ``[k'-D, k')`` and ``[k', k'+D)``; edge windows shrink symmetrically
    (Section IV-C.2).  ``days`` holds the day index of each count.

    With ``total_llr=True`` (default) each point is the *total*
    log-likelihood ratio of its window (statistic times window length),
    which keeps one absolute threshold valid across window sizes; with
    ``False`` it is the paper's per-day form (Eq. 5 left-hand side).
    """
    days = np.asarray(days, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if days.size != counts.size:
        raise ValidationError("days and counts must be aligned")
    half_width_days = check_positive_int(half_width_days, "half_width_days")
    if counts.size < 2:
        return _empty_curve(kind)
    if np.any(counts < 0):
        raise ValidationError("daily counts must be non-negative")
    centers, halves = centered_half_widths(counts.size, half_width_days)
    stats = rate_change_stats_equal_halves(counts, centers, halves, total_llr)
    return Curve(
        kind=kind,
        times=days[centers],
        indices=centers,
        values=stats,
    )


def _full_window_centers(n: int, window: int) -> np.ndarray:
    """Centre indices of the length-``window`` sliding windows of a
    length-``n`` series (window start + ``window // 2``)."""
    return np.arange(0, n - window + 1) + window // 2


def histogram_change_curve(
    times: np.ndarray, values: np.ndarray, window_ratings: int
) -> Curve:
    """HC curve: two-cluster balance over rating-count windows.

    Within each window of ``window_ratings`` ratings (sliding by one), the
    values are split into two single-linkage clusters of sizes ``n1, n2``
    and ``HC = min(n1/n2, n2/n1)``.  A window whose values collapse into a
    single cluster gets ``HC = 0``.  The curve is indexed by the window's
    centre rating.  Values near ``1`` mean a balanced bimodal histogram --
    the signature of a sizeable block of unfair ratings far from the fair
    mode.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    window_ratings = check_positive_int(window_ratings, "window_ratings", minimum=2)
    n = values.size
    if n < window_ratings:
        return _empty_curve("HC")
    centers = _full_window_centers(times.size, window_ratings)
    return Curve(
        kind="HC",
        times=times[centers],
        indices=centers,
        values=two_cluster_balance(sliding_window_view(values, window_ratings)),
    )


def model_error_curve(
    times: np.ndarray, values: np.ndarray, window_ratings: int, order: int = 4
) -> Curve:
    """ME curve: normalized AR model error over rating-count windows.

    Low model error means the window contains a predictable signal, i.e.
    likely collaborative unfair ratings (Section IV-E).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    window_ratings = check_positive_int(window_ratings, "window_ratings", minimum=2)
    order = check_positive_int(order, "order")
    if window_ratings < 2 * order:
        raise ValidationError(
            f"window_ratings={window_ratings} too small for AR({order}) covariance fit"
        )
    if values.size < window_ratings:
        return _empty_curve("ME")
    centers = _full_window_centers(times.size, window_ratings)
    return Curve(
        kind="ME",
        times=times[centers],
        indices=centers,
        values=sliding_ar_normalized_errors(values, window_ratings, order),
    )
