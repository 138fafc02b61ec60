"""SA-scheme: simple averaging, no unfair-rating detection.

The undefended baseline of Section V-A.  Against it, the optimal attack is
to submit the most extreme values allowed -- which is exactly what the
variance-bias analysis of Figure 3 shows (large-MP submissions sit at
large negative bias, any variance).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.aggregation.base import AggregationScheme, period_slices
from repro.marketplace.mp import month_edges
from repro.types import RatingDataset

__all__ = ["SimpleAveragingScheme"]


class SimpleAveragingScheme(AggregationScheme):
    """Monthly score = arithmetic mean of that month's ratings."""

    name = "SA"

    def monthly_scores(
        self,
        dataset: RatingDataset,
        period_days: float = 30.0,
        start_day: float = 0.0,
        end_day: float = 90.0,
    ) -> Dict[str, np.ndarray]:
        edges = month_edges(start_day, end_day, period_days)
        scores: Dict[str, np.ndarray] = {}
        for product_id in dataset:
            stream = dataset[product_id]
            series = np.full(edges.size - 1, np.nan)
            for i, window in enumerate(period_slices(stream, edges)):
                if window.stop > window.start:
                    series[i] = stream.values[window].mean()
            scores[product_id] = series
        return scores
