"""Time-series telemetry: per-epoch snapshots of the metrics registry.

The registry (:mod:`repro.obs.registry`) collects *scalars*: by the end
of a run you know that ``drift.warnings`` is 3, but not *when* the
warnings happened.  For the online system (:mod:`repro.online`) --
whose whole point is operating over time -- that loses exactly the
signal an operator needs.  This module adds the time axis:

- :class:`TimeSeriesRecorder` attaches to a :class:`~repro.obs.registry.
  MetricsRegistry` and, at every epoch close, flattens the registry's
  counters, gauges, and histogram summaries into one numeric snapshot
  appended to ring-buffered per-metric series.  The time axis is the
  **epoch index**, never the wall clock, so recorded series are
  bit-reproducible across runs (and ``repro.lint``'s wall-clock rule
  stays clean).
- Recorder state is pickleable and merges **order-independently**
  (point union keyed by epoch, ties resolved by ``max``), mirroring the
  capsule contract: serial and hermetic-parallel runs export identical
  series.
- :class:`MetricsStreamWriter` streams one JSON line per epoch to disk
  (the ``--metrics-stream`` CLI flag), flushed at epoch close so
  ``repro monitor`` can tail a live run.
- :func:`render_openmetrics` writes the OpenMetrics / Prometheus text
  exposition format for the future service endpoint, and
  :func:`parse_openmetrics` reads it back (golden-file tested).
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.obs.ledger import DEFAULT_IGNORE_PREFIXES
from repro.obs.registry import MetricsRegistry

__all__ = [
    "DEFAULT_SERIES_IGNORE",
    "MetricsStreamWriter",
    "TimeSeriesRecorder",
    "flatten_registry",
    "parse_openmetrics",
    "read_metrics_stream",
    "render_openmetrics",
]

#: Namespaces excluded from series by default: run bookkeeping that is
#: legitimately topology- or timing-dependent (same set the ledger
#: comparator ignores), plus per-span timing histograms.
DEFAULT_SERIES_IGNORE: Tuple[str, ...] = DEFAULT_IGNORE_PREFIXES + ("span.",)

#: Histogram summary fields exported as derived series (``<name>.count``
#: etc.).  Timing histograms (``*.seconds``) export only ``count`` unless
#: ``timing_detail`` is set: their values are wall-clock noise.
_HISTOGRAM_FIELDS: Tuple[str, ...] = ("count", "mean", "p50", "p90", "max")

#: Suffixes a series name may carry when it is derived from a histogram
#: (used by the alert-rule lint check to resolve names to the catalog).
HISTOGRAM_SERIES_SUFFIXES: Tuple[str, ...] = tuple(
    f".{field}" for field in _HISTOGRAM_FIELDS
)


def flatten_registry(
    registry: MetricsRegistry,
    ignore_prefixes: Sequence[str] = DEFAULT_SERIES_IGNORE,
    timing_detail: bool = False,
) -> Dict[str, float]:
    """One numeric value per metric: the registry as a flat snapshot.

    Counters map to their value, gauges to their level (non-finite
    levels are skipped -- an unset gauge is NaN), and each non-empty
    histogram to derived ``<name>.count`` / ``.mean`` / ``.p50`` /
    ``.p90`` / ``.max`` entries with non-finite fields skipped
    individually.
    """
    ignore = tuple(ignore_prefixes)
    flat: Dict[str, float] = {}
    for name, counter in sorted(registry.counters.items()):
        if name.startswith(ignore):
            continue
        flat[name] = float(counter.value)
    for name, gauge in sorted(registry.gauges.items()):
        if name.startswith(ignore) or not math.isfinite(gauge.value):
            continue
        flat[name] = float(gauge.value)
    for name, hist in sorted(registry.histograms.items()):
        if name.startswith(ignore) or not hist.count:
            continue
        flat[f"{name}.count"] = float(hist.count)
        if name.endswith(".seconds") and not timing_detail:
            continue
        values = {
            "mean": hist.mean,
            "p50": hist.percentile(50),
            "p90": hist.percentile(90),
            "max": hist.max,
        }
        for field, value in values.items():
            if math.isfinite(value):
                flat[f"{name}.{field}"] = float(value)
    return flat


class TimeSeriesRecorder:
    """Ring-buffered per-metric series sampled at epoch boundaries.

    Attach one to a registry (``registry.attach_series(recorder)``) and
    call :meth:`record_epoch` at each epoch close; the recorder snapshots
    the registry, appends one ``(epoch, value)`` point per metric, writes
    the snapshot to the configured ``sink`` (if any), and evaluates the
    configured alert ``engine`` (if any), returning the alert events the
    epoch produced.

    Determinism contract: the time axis is the epoch index, conflicting
    points for the same epoch resolve to ``max``, and :meth:`merge_state`
    is commutative and associative -- folding worker capsules in any
    order yields bit-identical series.
    """

    def __init__(
        self,
        capacity: int = 1024,
        ignore_prefixes: Sequence[str] = DEFAULT_SERIES_IGNORE,
        timing_detail: bool = False,
        sink: Optional["MetricsStreamWriter"] = None,
        engine=None,
    ) -> None:
        if capacity < 1:
            raise ValidationError(f"series capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.ignore_prefixes = tuple(ignore_prefixes)
        self.timing_detail = bool(timing_detail)
        self.sink = sink
        self.engine = engine
        self._points: Dict[str, List[Tuple[int, float]]] = {}
        self.snapshots_recorded = 0
        self.last_epoch: Optional[int] = None

    # -- recording ------------------------------------------------------ #

    def record_epoch(self, epoch: int, registry: MetricsRegistry) -> list:
        """Snapshot ``registry`` at epoch ``epoch``; return alert events.

        The snapshot is taken *before* the recorder's own ``series.*``
        metrics are bumped, so self-telemetry appears in series from the
        following epoch -- deterministically, regardless of topology.
        The alert engine records its ``alert.*`` metrics into the active
        registry.
        """
        epoch = int(epoch)
        snapshot = flatten_registry(
            registry, self.ignore_prefixes, self.timing_detail
        )
        dropped = 0
        for name, value in snapshot.items():
            dropped += self._append(name, epoch, value)
        self.snapshots_recorded += 1
        if self.last_epoch is None or epoch > self.last_epoch:
            self.last_epoch = epoch
        registry.inc("series.snapshots")
        registry.set_gauge("series.metrics", float(len(self._points)))
        if dropped:
            registry.inc("series.dropped_points", dropped)
        if self.sink is not None:
            self.sink.write(epoch, snapshot)
        if self.engine is not None:
            return self.engine.evaluate(self, epoch)
        return []

    def ingest_snapshot(self, epoch: int, metrics: Mapping[str, float]) -> list:
        """Fold an externally produced snapshot (e.g. a replayed JSONL
        line) into the series; return alert events, like
        :meth:`record_epoch`, but without the ``series.*`` metrics."""
        epoch = int(epoch)
        for name, value in sorted(metrics.items()):
            value = float(value)
            if math.isfinite(value):
                self._append(name, epoch, value)
        self.snapshots_recorded += 1
        if self.last_epoch is None or epoch > self.last_epoch:
            self.last_epoch = epoch
        if self.engine is not None:
            return self.engine.evaluate(self, epoch)
        return []

    def _append(self, name: str, epoch: int, value: float) -> int:
        """Append one point; return how many old points fell off the ring."""
        points = self._points.setdefault(name, [])
        if points and points[-1][0] == epoch:
            points[-1] = (epoch, max(points[-1][1], value))
            return 0
        points.append((epoch, value))
        overflow = len(points) - self.capacity
        if overflow > 0:
            del points[:overflow]
            return overflow
        return 0

    # -- inspection ----------------------------------------------------- #

    @property
    def empty(self) -> bool:
        """True when no snapshot has contributed any point."""
        return not self._points

    def names(self) -> List[str]:
        """Sorted names of every recorded series."""
        return sorted(self._points)

    def series(self, name: str) -> List[Tuple[int, float]]:
        """The ``(epoch, value)`` points recorded for ``name``."""
        return list(self._points.get(name, ()))

    def latest(self) -> Dict[str, float]:
        """The most recent value of every series."""
        return {name: points[-1][1] for name, points in self._points.items()}

    # -- capsule-style state -------------------------------------------- #

    def state(self) -> Dict[str, object]:
        """The full pickleable state (plain containers only)."""
        return {
            "capacity": self.capacity,
            "snapshots": self.snapshots_recorded,
            "last_epoch": self.last_epoch,
            "points": {
                name: [list(point) for point in points]
                for name, points in self._points.items()
            },
        }

    def merge_state(self, state: Mapping[str, object]) -> None:
        """Fold another recorder's :meth:`state` into this one.

        Point sets union per series keyed by epoch; a conflicting epoch
        resolves to ``max``, which commutes and associates, so merge
        order never changes the result.  Rings re-truncate to this
        recorder's capacity, keeping the most recent epochs.
        """
        for name, points in state.get("points", {}).items():
            merged = {epoch: value for epoch, value in self._points.get(name, ())}
            for epoch, value in points:
                epoch = int(epoch)
                value = float(value)
                if epoch in merged:
                    merged[epoch] = max(merged[epoch], value)
                else:
                    merged[epoch] = value
            ordered = sorted(merged.items())
            self._points[name] = ordered[-self.capacity:]
        self.snapshots_recorded += int(state.get("snapshots", 0))
        other_last = state.get("last_epoch")
        if other_last is not None:
            if self.last_epoch is None or int(other_last) > self.last_epoch:
                self.last_epoch = int(other_last)

    def clear(self) -> None:
        """Drop every recorded point (capacity and wiring stay)."""
        self._points.clear()
        self.snapshots_recorded = 0
        self.last_epoch = None


class MetricsStreamWriter:
    """A JSONL sink: one flat snapshot per line, flushed per epoch.

    The format is ``{"epoch": N, "metrics": {name: value, ...}}`` with
    sorted keys, so a stream file diffs cleanly across runs and a tail
    reader (``repro monitor``) sees complete lines as epochs close.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._handle = open(self.path, "w", encoding="utf-8")
        self.lines_written = 0

    def write(self, epoch: int, metrics: Mapping[str, float]) -> None:
        """Append one epoch snapshot and flush."""
        line = json.dumps(
            {"epoch": int(epoch), "metrics": dict(metrics)},
            sort_keys=True,
            allow_nan=False,
        )
        self._handle.write(line + "\n")
        self._handle.flush()
        self.lines_written += 1

    def close(self) -> None:
        """Flush and close the underlying file."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "MetricsStreamWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_metrics_stream(path) -> List[Tuple[int, Dict[str, float]]]:
    """Parse a ``--metrics-stream`` JSONL file into epoch snapshots.

    A malformed line (e.g. the partial tail of a crashed or still-running
    writer) is skipped rather than fatal -- the monitor must be able to
    read a live file.
    """
    snapshots: List[Tuple[int, Dict[str, float]]] = []
    path = Path(path)
    if not path.exists():
        return snapshots
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                epoch = int(payload["epoch"])
                metrics = {
                    str(k): float(v) for k, v in payload["metrics"].items()
                }
            except (ValueError, KeyError, TypeError, AttributeError):
                continue
            snapshots.append((epoch, metrics))
    return snapshots


# -- OpenMetrics text exposition ---------------------------------------- #

_OM_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

#: Histogram quantiles exported in the ``summary`` family.
_OM_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("0.5", 50.0),
    ("0.9", 90.0),
    ("0.99", 99.0),
)


def _om_name(name: str) -> str:
    """A metric name sanitized to the OpenMetrics grammar."""
    return _OM_BAD_CHARS.sub("_", name)


def _om_value(value: float) -> str:
    """A float rendered so that ``float()`` round-trips it exactly."""
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_openmetrics(registry: MetricsRegistry, prefix: str = "") -> str:
    """The registry in OpenMetrics text exposition format.

    Counters become ``counter`` families (``<name>_total`` samples),
    gauges become ``gauge`` families (NaN levels skipped), histograms
    become ``summary`` families (count, sum, and fixed quantiles).
    Families are sorted by exposed name; the output ends with ``# EOF``.
    """
    families: List[Tuple[str, List[str]]] = []
    for name, counter in registry.counters.items():
        exposed = _om_name(prefix + name)
        families.append((
            exposed,
            [
                f"# TYPE {exposed} counter",
                f"{exposed}_total {_om_value(counter.value)}",
            ],
        ))
    for name, gauge in registry.gauges.items():
        if not math.isfinite(gauge.value):
            continue
        exposed = _om_name(prefix + name)
        families.append((
            exposed,
            [
                f"# TYPE {exposed} gauge",
                f"{exposed} {_om_value(gauge.value)}",
            ],
        ))
    for name, hist in registry.histograms.items():
        if not hist.count:
            continue
        exposed = _om_name(prefix + name)
        lines = [
            f"# TYPE {exposed} summary",
            f"{exposed}_count {_om_value(hist.count)}",
            f"{exposed}_sum {_om_value(hist.total)}",
        ]
        for label, q in _OM_QUANTILES:
            quantile = hist.percentile(q)
            if math.isfinite(quantile):
                lines.append(
                    f'{exposed}{{quantile="{label}"}} {_om_value(quantile)}'
                )
        families.append((exposed, lines))
    families.sort(key=lambda item: item[0])
    body = [line for _, lines in families for line in lines]
    body.append("# EOF")
    return "\n".join(body) + "\n"


_OM_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$"
)


def parse_openmetrics(text: str) -> Dict[str, Dict[str, object]]:
    """Parse :func:`render_openmetrics` output back into plain dicts.

    Returns ``{"counters": {...}, "gauges": {...}, "summaries": {name:
    {"count": n, "sum": s, "quantiles": {"0.5": v, ...}}}}`` keyed by
    exposed (sanitized) names.  Raises :class:`ValidationError` on a
    line that is neither a comment nor a valid sample.
    """
    kinds: Dict[str, str] = {}
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    summaries: Dict[str, Dict[str, object]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                kinds[parts[2]] = parts[3]
            continue
        match = _OM_SAMPLE.match(line)
        if match is None:
            raise ValidationError(f"invalid OpenMetrics sample line: {raw!r}")
        name = match.group("name")
        value = float(match.group("value"))
        labels = match.group("labels") or ""
        base = name
        for suffix in ("_total", "_count", "_sum"):
            if name.endswith(suffix) and kinds.get(name[: -len(suffix)]):
                base = name[: -len(suffix)]
                break
        kind = kinds.get(base) or kinds.get(name)
        if kind == "counter":
            counters[base] = value
        elif kind == "gauge":
            gauges[name] = value
        elif kind == "summary":
            summary = summaries.setdefault(
                base, {"count": 0.0, "sum": 0.0, "quantiles": {}}
            )
            if name.endswith("_count"):
                summary["count"] = value
            elif name.endswith("_sum"):
                summary["sum"] = value
            elif labels.startswith('quantile="'):
                summary["quantiles"][labels[len('quantile="'):-1]] = value
        else:
            raise ValidationError(
                f"sample {name!r} has no preceding # TYPE line"
            )
    return {"counters": counters, "gauges": gauges, "summaries": summaries}
