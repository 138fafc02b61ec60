"""Spans around the program's layer boundaries, for the traced run only.

The benchmark measures every layer from outside: :class:`Tracer` swaps
each public callable listed in :data:`BOUNDARIES` for a wrapper that
records a span (name, start, end, parent span, op id), on the class or at
the import site the program calls it through, and puts the original back
afterwards.  Spans stay in memory until the run ends; :func:`layer_metrics`
then derives per-span calls, busy time and self time.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

#: ``(span name, module, attribute path)`` of every wrapped boundary.  The
#: span name is ``<layer>.<callable>``; a two-part attribute path is a
#: class member, a one-part path a module-level function at that site.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("detectors.JointDetector.analyze_batch", "repro.detectors.integration", "JointDetector.analyze_batch"),
    ("detectors.JointDetector.analyze", "repro.detectors.integration", "JointDetector.analyze"),
    ("trust.TrustManager.run", "repro.trust.manager", "TrustManager.run"),
    ("aggregation.PScheme.monthly_scores", "repro.aggregation.pscheme", "PScheme.monthly_scores"),
    ("aggregation.PScheme.detect", "repro.aggregation.pscheme", "PScheme.detect"),
    ("aggregation.SimpleAveragingScheme.monthly_scores", "repro.aggregation.simple", "SimpleAveragingScheme.monthly_scores"),
    ("aggregation.BetaFilterScheme.monthly_scores", "repro.aggregation.beta_filter", "BetaFilterScheme.monthly_scores"),
    ("aggregation.BetaFilterScheme.filter_window", "repro.aggregation.beta_filter", "BetaFilterScheme.filter_window"),
    ("types.RatingStream.subset", "repro.types", "RatingStream.subset"),
    ("types.RatingStream.between", "repro.types", "RatingStream.between"),
    ("types.RatingStream.from_ratings", "repro.types", "RatingStream.from_ratings"),
    ("types.RatingDataset.merge", "repro.types", "RatingDataset.merge"),
    ("marketplace.RatingChallenge.evaluate", "repro.marketplace.challenge", "RatingChallenge.evaluate"),
    ("marketplace.RatingChallenge.validate", "repro.marketplace.challenge", "RatingChallenge.validate"),
    ("marketplace.manipulation_power", "repro.marketplace.challenge", "manipulation_power"),
    ("attacks.generate_population", "repro.attacks.population", "generate_population"),
    ("attacks.generate_population", "repro.experiments.context", "generate_population"),
    ("attacks.AttackGenerator.generate", "repro.attacks.generator", "AttackGenerator.generate"),
    ("attacks.heuristic_region_search", "repro.attacks.optimizer", "heuristic_region_search"),
    ("online.OnlineRatingSystem.submit", "repro.online.system", "OnlineRatingSystem.submit"),
    ("online.OnlineRatingSystem.close_epoch", "repro.online.system", "OnlineRatingSystem.close_epoch"),
    ("online.OnlineRatingSystem.dataset", "repro.online.system", "OnlineRatingSystem.dataset"),
    ("obs.DriftMonitor.check_epoch", "repro.obs.drift", "DriftMonitor.check_epoch"),
    ("exec.ParallelEvaluator.map", "repro.exec.parallel", "ParallelEvaluator.map"),
    ("exec.MPCache.get", "repro.exec.cache", "MPCache.get"),
    ("exec.MPCache.put", "repro.exec.cache", "MPCache.put"),
    ("exec.EvalTask.fingerprint", "repro.exec.tasks", "EvalTask.fingerprint"),
    ("experiments.ExperimentContext.results_for", "repro.experiments.context", "ExperimentContext.results_for"),
)

#: Distinct span names, in table order.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in BOUNDARIES))

#: Scheme entry points whose calls on the unchanged fair dataset are
#: summed separately as ``aggregation.fair_rescore``.
RESCORE_SPANS = frozenset(
    name for name in SPAN_NAMES if name.endswith(".monthly_scores")
)


class Tracer:
    """Records spans while :meth:`active`; keeps them until the run ends.

    ``current_op`` returns the id of the op in progress (the workload's
    op counter); spans opened outside any op carry that counter's value
    at the time.  ``fair_dataset`` identifies the fair world, so scheme
    calls that rescore it can be summed on their own.
    """

    def __init__(self, current_op: Callable[[], int], fair_dataset=None) -> None:
        self.current_op = current_op
        self.fair_dataset = fair_dataset
        self._name_ids: Dict[str, int] = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.nested = array("b")  # inside an open span of the same name
        self.fair_rescore_s = 0.0
        self.batch_streams = 0
        self.batch_ratings = 0
        self._stack: List[int] = []
        self._open: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.start)

    # ------------------------------------------------------------------ #

    def _call(self, name_id: int, fn, args, kwargs):
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.current_op())
        self.nested.append(1 if self._open.get(name_id) else 0)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        self._open[name_id] = self._open.get(name_id, 0) + 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.start[index] = start
            self.end[index] = end
            self._stack.pop()
            self._open[name_id] -= 1

    def _wrap(self, name: str, fn):
        name_id = self._name_ids[name]
        call = self._call
        if name in RESCORE_SPANS:

            @functools.wraps(fn)
            def rescore_wrapper(scheme, dataset, *args, **kwargs):
                tick = perf_counter()
                try:
                    return call(name_id, fn, (scheme, dataset) + args, kwargs)
                finally:
                    if dataset is self.fair_dataset:
                        self.fair_rescore_s += perf_counter() - tick

            return rescore_wrapper
        if name == "detectors.JointDetector.analyze_batch":

            @functools.wraps(fn)
            def batch_wrapper(detector, dataset, *args, **kwargs):
                self.batch_streams += len(dataset)
                self.batch_ratings += dataset.total_ratings()
                return call(name_id, fn, (detector, dataset) + args, kwargs)

            return batch_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name_id, fn, args, kwargs)

        return wrapper

    @contextmanager
    def active(self) -> Iterator["Tracer"]:
        """Wrap every boundary for the duration of the block."""
        restore: List[Tuple[object, str, object]] = []
        try:
            for name, module_name, path in BOUNDARIES:
                owner = importlib.import_module(module_name)
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                attr = parts[-1]
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                elif isinstance(raw, property):
                    wrapped = property(self._wrap(name, raw.fget))
                else:
                    wrapped = self._wrap(name, raw)
                restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)


# --------------------------------------------------------------------- #
# Per-span totals
# --------------------------------------------------------------------- #


def _covered(parent_start: float, parent_end: float, children: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to the parent interval."""
    covered = 0.0
    cursor = parent_start
    for start, end in sorted(children):
        start = max(start, cursor)
        end = min(end, parent_end)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(
    start: Sequence[float], end: Sequence[float], parent: Sequence[int]
) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for index, up in enumerate(parent):
        if up >= 0:
            children.setdefault(up, []).append((start[index], end[index]))
    return [
        (end[i] - start[i]) - _covered(start[i], end[i], children.get(i, ()))
        for i in range(len(start))
    ]


def span_totals(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """``{span name: {"calls", "busy_s", "self_s"}}`` over every span.

    ``busy_s`` sums only outermost spans of a name, so a callable that
    re-enters itself is not counted twice; ``self_s`` sums every span.
    """
    totals = {name: {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    for i, self_s in enumerate(selfs):
        row = totals[SPAN_NAMES[tracer.name_id[i]]]
        row["calls"] += 1
        row["self_s"] += self_s
        if not tracer.nested[i]:
            row["busy_s"] += tracer.end[i] - tracer.start[i]
    return totals


def counter_ratio(counters: Dict[str, float], hits: str, misses: str) -> float:
    """``hits / (hits + misses)`` from program counters (0 when both are 0)."""
    h = counters.get(hits, 0.0)
    m = counters.get(misses, 0.0)
    return h / (h + m) if h + m else 0.0


def layer_metrics(
    tracer: Tracer,
    registry,
    traced_ops: int,
    searches: int = 0,
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of a traced run: ``{name: (value, unit)}``.

    Span totals and counts are per op (``traced_ops`` ops ran traced);
    cache figures come from the program's own counters in ``registry``.
    """
    per_op = 1.0 / max(traced_ops, 1)
    out: Dict[str, Tuple[float, str]] = {}
    for name, row in span_totals(tracer).items():
        out[f"{name}.calls"] = (row["calls"] * per_op, "1/op")
        out[f"{name}.busy_s"] = (row["busy_s"] * per_op, "s/op")
        out[f"{name}.self_s"] = (row["self_s"] * per_op, "s/op")
    out["detectors.streams"] = (tracer.batch_streams * per_op, "1/op")
    out["detectors.ratings"] = (tracer.batch_ratings * per_op, "1/op")
    counters = {name: counter.value for name, counter in registry.counters.items()}
    for kind in DETECTOR_KINDS:
        hist = registry.histograms.get(f"detector.{kind}.seconds")
        p50 = hist.percentile(50) * 1e3 if hist is not None and hist.count else 0.0
        out[f"detectors.{kind}.p50_ms"] = (p50, "ms")
    out["aggregation.fair_rescore.busy_s"] = (tracer.fair_rescore_s * per_op, "s/op")
    for cache in ("report_cache", "scores_cache"):
        base = f"pscheme.{cache}"
        out[f"{base}.hit_ratio"] = (
            counter_ratio(counters, f"{base}.hits", f"{base}.misses"), "ratio"
        )
        out[f"{base}.evictions"] = (counters.get(f"{base}.evictions", 0.0) * per_op, "1/op")
    out["search.probes"] = (
        counters.get("search.probes", 0.0) / searches if searches else 0.0,
        "1/search",
    )
    out["exec.cache.hit_ratio"] = (
        counter_ratio(counters, "exec.cache.hits", "exec.cache.misses"), "ratio"
    )
    return out


#: Sub-detectors whose ``detector.<kind>.seconds`` histograms are read.
DETECTOR_KINDS: Tuple[str, ...] = ("MC", "H-ARC", "L-ARC", "HC", "ME")


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in report order (``trace_overhead`` last)."""
    names = [f"{span}.{field}" for span in SPAN_NAMES for field in ("calls", "busy_s", "self_s")]
    names += ["detectors.streams", "detectors.ratings"]
    names += [f"detectors.{kind}.p50_ms" for kind in DETECTOR_KINDS]
    names += ["aggregation.fair_rescore.busy_s"]
    for cache in ("report_cache", "scores_cache"):
        names += [f"pscheme.{cache}.hit_ratio", f"pscheme.{cache}.evictions"]
    names += ["search.probes", "exec.cache.hit_ratio", "trace_overhead"]
    return names

