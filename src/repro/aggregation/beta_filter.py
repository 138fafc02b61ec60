"""BF-scheme: beta-function based majority-rule filtering.

The representative majority-rule defense from Whitby, Jøsang and Indulska
("Filtering out unfair ratings in Bayesian reputation systems"), as used
for comparison in the paper's Section V-A:

1. Each rating ``r`` on the 0..5 scale is normalized to ``x = r / 5`` and
   viewed as beta evidence ``Beta(1 + x, 2 - x)`` held by its rater.
2. Within each monthly window, the majority opinion is the mean normalized
   value of the window's ratings.  A rating is filtered out when the
   majority opinion falls outside the ``[q, 1 - q]`` quantile range of
   that rating's individual beta distribution -- i.e. the rater's opinion
   is statistically incompatible with the majority.
3. Rater trust accumulates over months as ``(S_i + 1) / (S_i + F_i + 2)``
   where ``F_i`` counts the rater's filtered ratings (Section V-A).  The
   monthly score is the plain mean of the surviving ratings from raters
   whose trust has not collapsed below the exclusion threshold.

Two deliberate properties, matching the paper's findings about BF:

- The majority estimate is the **mean**, so a colluding block drags the
  majority toward itself and shields all but the most extreme unfair
  ratings.  This is exactly why the paper observes that BF "can only
  detect the unfair ratings with large bias and very small variance".
- Filtering is **single-pass** by default (``max_iterations=1``): the
  compatibility bounds are computed once from the initial majority.
  Iterating the filter lets a boosting block cascade -- each removal of a
  harsh-but-honest rating raises the majority, exposing the next honest
  rating -- which *amplifies* boost attacks instead of stopping them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
from scipy.stats import beta as beta_dist

from repro.aggregation.base import AggregationScheme, period_slices
from repro.errors import ValidationError
from repro.marketplace.mp import month_edges
from repro.types import DEFAULT_SCALE, RatingDataset, RatingScale

__all__ = ["BetaFilterConfig", "BetaFilterScheme"]


@dataclass(frozen=True)
class BetaFilterConfig:
    """Tunables of the BF-scheme.

    Attributes
    ----------
    quantile:
        The ``q`` of the ``[q, 1 - q]`` compatibility interval.  Larger
        values filter more aggressively.
    max_iterations:
        Rounds of the remove-and-retest loop.  1 (default) computes the
        bounds once; see the module docstring for why iterating is risky.
    exclude_trust_threshold:
        Raters whose cumulative trust falls below this are excluded from
        aggregation even when their current rating survives the filter.
    scale:
        Rating scale used for normalisation.
    """

    quantile: float = 0.15
    max_iterations: int = 1
    exclude_trust_threshold: float = 0.25
    scale: RatingScale = field(default_factory=lambda: DEFAULT_SCALE)

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 0.5:
            raise ValidationError(
                f"quantile must be in (0, 0.5), got {self.quantile}"
            )
        if self.max_iterations < 1:
            raise ValidationError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if not 0.0 <= self.exclude_trust_threshold <= 1.0:
            raise ValidationError(
                "exclude_trust_threshold must be in [0, 1], got "
                f"{self.exclude_trust_threshold}"
            )


class BetaFilterScheme(AggregationScheme):
    """Majority-rule beta filtering with cumulative beta trust.

    A window's keep-mask depends only on the configuration and the
    window's rating values, so the last :attr:`mask_cache_size` masks are
    kept (least recently used evicted first).  The key holds the config
    and the values' bytes, so a hit is an equality match: a (product,
    month) cell an attack left untouched is never filtered twice.
    """

    name = "BF"

    #: Keep-masks kept per instance: a challenge world's cells (9
    #: products x 3 months) plus a few submissions' attacked cells.
    mask_cache_size = 256

    def __init__(self, config: BetaFilterConfig = BetaFilterConfig()) -> None:
        self.config = config
        self._masks: "OrderedDict" = OrderedDict()

    # ------------------------------------------------------------------ #

    def _normalize(self, values: np.ndarray) -> np.ndarray:
        scale = self.config.scale
        return (np.asarray(values, dtype=float) - scale.minimum) / scale.width

    def filter_window(self, values: np.ndarray) -> np.ndarray:
        """Return the keep-mask after majority filtering of one window.

        A window with a single rating is never filtered (there is no
        majority to conflict with).
        """
        x = self._normalize(values)
        n = x.size
        keep = np.ones(n, dtype=bool)
        if n <= 1:
            return keep
        q = self.config.quantile
        alpha = 1.0 + x
        beta_param = 2.0 - x
        lower = beta_dist.ppf(q, alpha, beta_param)
        upper = beta_dist.ppf(1.0 - q, alpha, beta_param)
        for _ in range(self.config.max_iterations):
            included = x[keep]
            if included.size == 0:
                break
            majority = float(included.mean())
            incompatible = keep & ((majority < lower) | (majority > upper))
            if not incompatible.any():
                break
            # Never remove the last rating: a majority of zero is undefined.
            if int(keep.sum()) - int(incompatible.sum()) < 1:
                break
            keep &= ~incompatible
        return keep

    def _keep_mask(self, values: np.ndarray) -> np.ndarray:
        """:meth:`filter_window` through the LRU; the mask is read-only."""
        key = (self.config, values.tobytes())
        keep = self._masks.get(key)
        if keep is not None:
            self._masks.move_to_end(key)
            return keep
        keep = self.filter_window(values)
        keep.setflags(write=False)
        self._masks[key] = keep
        if len(self._masks) > self.mask_cache_size:
            self._masks.popitem(last=False)
        return keep

    # ------------------------------------------------------------------ #

    def monthly_scores(
        self,
        dataset: RatingDataset,
        period_days: float = 30.0,
        start_day: float = 0.0,
        end_day: float = 90.0,
    ) -> Dict[str, np.ndarray]:
        edges = month_edges(start_day, end_day, period_days)
        n_windows = edges.size - 1
        # Rater evidence lives in count arrays indexed by per-call rater
        # codes; the counts are whole numbers, so the trust values equal
        # the scalar (S + 1) / (S + F + 2) bit for bit.
        codes: Dict[str, int] = {}
        columns = []
        for product_id in dataset:
            stream = dataset[product_id]
            raters = np.fromiter(
                (codes.setdefault(r, len(codes)) for r in stream.rater_ids),
                dtype=np.intp,
                count=len(stream),
            )
            columns.append(
                (product_id, stream.values, raters, period_slices(stream, edges))
            )
        successes = np.zeros(len(codes))
        failures = np.zeros(len(codes))
        threshold = self.config.exclude_trust_threshold
        scores: Dict[str, np.ndarray] = {
            product_id: np.full(n_windows, np.nan) for product_id in dataset
        }
        # Work month-by-month across ALL products so trust accumulates
        # globally (a rater filtered on one product is distrusted on all).
        for w_index in range(n_windows):
            # Phase 1: filter every product's window, update evidence.
            masks: List[Optional[np.ndarray]] = []
            for _, values, raters, windows in columns:
                window = windows[w_index]
                if window.stop == window.start:
                    masks.append(None)
                    continue
                keep = self._keep_mask(values[window])
                masks.append(keep)
                np.add.at(successes, raters[window], keep)
                np.add.at(failures, raters[window], ~keep)
            # Phase 2: aggregate the survivors of trusted-enough raters.
            for (product_id, values, raters, windows), keep in zip(columns, masks):
                if keep is None or not keep.any():
                    continue
                window = windows[w_index]
                window_raters = raters[window]
                good = successes[window_raters]
                trust = (good + 1.0) / (good + failures[window_raters] + 2.0)
                usable = keep & (trust >= threshold)
                if not usable.any():
                    continue
                scores[product_id][w_index] = float(values[window][usable].mean())
        return scores
