"""The trust manager of the P-scheme (paper Procedure 1).

At a sequence of update epochs ``t_hat(1) < t_hat(2) < ...`` the manager
looks at every rating any rater provided (across **all** products) since
the previous epoch, counts how many of those ratings the detectors marked
suspicious, and folds the counts into each rater's beta evidence:

    F_i += f_i                 (suspicious ratings this epoch)
    S_i += n_i - f_i           (clean ratings this epoch)
    T_i  = (S_i + 1) / (S_i + F_i + 2)

Unknown raters have trust 0.5 (no evidence), matching the paper's initial
trust value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.obs.registry import get_registry
from repro.trust.beta import BetaEvidence
from repro.types import RatingDataset

__all__ = ["TrustSnapshot", "TrustManager"]


@dataclass(frozen=True)
class TrustSnapshot:
    """Per-rater trust as of one epoch."""

    epoch_time: float
    trust: Mapping[str, float]

    def value(self, rater_id: str, default: float = 0.5) -> float:
        """Trust of ``rater_id`` at this epoch (``default`` if unseen)."""
        return self.trust.get(rater_id, default)


class TrustManager:
    """Implements Procedure 1 over a dataset plus suspicious-rating marks.

    Usage::

        manager = TrustManager()
        snapshots = manager.run(dataset, marks, epoch_times)
        trust_at_end = snapshots[-1]

    ``marks`` maps each product id to a boolean array aligned with that
    product's stream: ``True`` where the joint detector marked the rating
    suspicious.

    ``forgetting_factor`` enables the standard beta-reputation fading
    extension (Jøsang-Ismail): before each epoch's counts are folded in,
    the accumulated evidence is multiplied by the factor, so old behaviour
    matters exponentially less than recent behaviour.  1.0 (the default,
    and the paper's Procedure 1) never forgets; values below 1 let both
    honest raters recover from false alarms and attackers "redeem"
    themselves -- the trade-off the fading literature studies.
    """

    def __init__(
        self,
        initial_trust: float = 0.5,
        forgetting_factor: float = 1.0,
    ) -> None:
        if not 0.0 < initial_trust < 1.0:
            raise ValidationError(
                f"initial_trust must be in (0, 1), got {initial_trust}"
            )
        if not 0.0 < forgetting_factor <= 1.0:
            raise ValidationError(
                f"forgetting_factor must be in (0, 1], got {forgetting_factor}"
            )
        self.initial_trust = initial_trust
        self.forgetting_factor = forgetting_factor
        self._evidence: Dict[str, BetaEvidence] = {}

    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Drop all accumulated evidence."""
        self._evidence.clear()

    def trust_of(self, rater_id: str) -> float:
        """Current trust for ``rater_id`` (initial trust when unseen)."""
        evidence = self._evidence.get(rater_id)
        if evidence is None:
            return self.initial_trust
        return evidence.trust

    def record_epoch(self, counts: Mapping[str, Tuple[int, int]]) -> None:
        """Fold one epoch's ``{rater: (n_i, f_i)}`` counts into evidence.

        ``n_i`` is the number of ratings rater ``i`` provided during the
        epoch and ``f_i`` how many of those were marked suspicious.  With
        a forgetting factor below 1, *all* raters' accumulated evidence is
        faded first (a rater silent this epoch still fades).
        """
        if self.forgetting_factor < 1.0:
            for evidence in self._evidence.values():
                evidence.successes *= self.forgetting_factor
                evidence.failures *= self.forgetting_factor
        for rater_id, (n_i, f_i) in counts.items():
            if f_i > n_i:
                raise ValidationError(
                    f"rater {rater_id!r}: suspicious count {f_i} exceeds "
                    f"rating count {n_i}"
                )
            evidence = self._evidence.setdefault(rater_id, BetaEvidence())
            evidence.record(good=n_i - f_i, bad=f_i)

    def snapshot(self, epoch_time: float) -> TrustSnapshot:
        """Freeze the current per-rater trust values."""
        return TrustSnapshot(
            epoch_time=epoch_time,
            trust={rid: ev.trust for rid, ev in self._evidence.items()},
        )

    # ------------------------------------------------------------------ #

    def run(
        self,
        dataset: RatingDataset,
        marks: Mapping[str, np.ndarray],
        epoch_times: Sequence[float],
    ) -> List[TrustSnapshot]:
        """Execute Procedure 1 over ``dataset`` and return epoch snapshots.

        ``epoch_times`` must be strictly increasing; epoch ``k`` covers
        ratings with ``t_hat(k-1) <= time < t_hat(k)`` (the first epoch
        covers everything before ``t_hat(1)``).  Returns one snapshot per
        epoch, taken *after* that epoch's update.
        """
        epoch_times = list(epoch_times)
        if any(b <= a for a, b in zip(epoch_times, epoch_times[1:])):
            raise ValidationError("epoch_times must be strictly increasing")
        self.reset()
        snapshots: List[TrustSnapshot] = []
        previous = -np.inf
        for epoch_time in epoch_times:
            counts: Dict[str, List[int]] = {}
            for product_id in dataset:
                stream = dataset[product_id]
                mask = np.asarray(marks.get(product_id, np.zeros(len(stream), bool)))
                if mask.size != len(stream):
                    raise ValidationError(
                        f"marks for {product_id!r} have length {mask.size}, "
                        f"stream has {len(stream)}"
                    )
                in_epoch = (stream.times >= previous) & (stream.times < epoch_time)
                for idx in np.nonzero(in_epoch)[0]:
                    entry = counts.setdefault(stream.rater_ids[idx], [0, 0])
                    entry[0] += 1
                    if mask[idx]:
                        entry[1] += 1
            self.record_epoch({rid: (n, f) for rid, (n, f) in counts.items()})
            snapshots.append(self.snapshot(epoch_time))
            previous = epoch_time
        registry = get_registry()
        if registry.enabled:
            # Procedure 1 telemetry: how many epochs ran, how many raters
            # hold evidence, and where the final trust mass sits.
            registry.inc("trust.epochs", len(epoch_times))
            registry.inc("trust.runs")
            registry.set_gauge("trust.raters", float(len(self._evidence)))
            if snapshots:
                for value in snapshots[-1].trust.values():
                    registry.observe("trust.value", value)
        return snapshots
