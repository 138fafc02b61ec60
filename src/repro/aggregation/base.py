"""Aggregation scheme interface and shared window plumbing."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Tuple

import numpy as np

from repro.marketplace.mp import month_edges
from repro.types import RatingDataset, RatingStream

__all__ = ["month_windows", "period_slices", "AggregationScheme"]


def month_windows(
    start_day: float, end_day: float, period_days: float = 30.0
) -> List[Tuple[float, float]]:
    """Half-open ``[start, stop)`` period windows covering the time span."""
    edges = month_edges(start_day, end_day, period_days)
    return [(float(edges[i]), float(edges[i + 1])) for i in range(edges.size - 1)]


def period_slices(stream: RatingStream, edges: np.ndarray) -> List[slice]:
    """Each period's ratings as a slice of the time-sorted ``stream``.

    ``stream.values[period_slices(stream, edges)[i]]`` holds the ratings
    with ``edges[i] <= time < edges[i + 1]`` -- the rows
    ``stream.between(edges[i], edges[i + 1])`` selects, in the same order,
    without building and re-validating a sub-stream per period.
    """
    bounds = np.searchsorted(stream.times, edges, side="left").tolist()
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


class AggregationScheme(ABC):
    """Base class: turns a dataset into per-product monthly score series.

    Subclasses must set :attr:`name` and implement
    :meth:`monthly_scores`.  Scores use NaN for months with no publishable
    value (no ratings, or everything filtered); the MP metric treats those
    months as contributing zero manipulation.
    """

    name: str = "abstract"

    @abstractmethod
    def monthly_scores(
        self,
        dataset: RatingDataset,
        period_days: float = 30.0,
        start_day: float = 0.0,
        end_day: float = 90.0,
    ) -> Dict[str, np.ndarray]:
        """Per-product arrays of one aggregated score per period."""

    # Convenience used by examples and tests ---------------------------- #

    def final_scores(
        self,
        dataset: RatingDataset,
        period_days: float = 30.0,
        start_day: float = 0.0,
        end_day: float = 90.0,
    ) -> Dict[str, float]:
        """The last non-NaN monthly score per product (NaN if none)."""
        out: Dict[str, float] = {}
        for product_id, series in self.monthly_scores(
            dataset, period_days, start_day, end_day
        ).items():
            finite = series[np.isfinite(series)]
            out[product_id] = float(finite[-1]) if finite.size else float("nan")
        return out
