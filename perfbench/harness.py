"""Statistics, digests, host-speed scaling and the timed closed loop.

Nothing here imports the program: the digests hash float64 bytes with
``hashlib`` directly, so they stay valid however the program's own
fingerprint helpers change.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: p90 needs at least this many ops: ten samples beyond the 90th percentile.
MIN_OPS = 100
#: Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10


# --------------------------------------------------------------------- #
# Percentiles
# --------------------------------------------------------------------- #


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-th percentile."""
    return int(math.floor(n * (100.0 - q) / 100.0 + 1e-9))


def highest_percentile(
    n: int, candidates: Sequence[float] = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
) -> Optional[float]:
    """The highest candidate percentile with >= 10 samples beyond it."""
    valid = [q for q in candidates if samples_beyond(n, q) >= TAIL_SAMPLES]
    return max(valid) if valid else None


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default definition)."""
    if not len(values):
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss``, KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# Digests
# --------------------------------------------------------------------- #


def _f64(values) -> bytes:
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def digest_floats(*parts) -> str:
    """Hex digest of labelled float arrays: ``digest_floats("a", [1.0], ...)``.

    Strings are hashed as UTF-8 labels, everything else as float64 bytes.
    """
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, str):
            h.update(b"s" + part.encode("utf-8") + b"\0")
        else:
            h.update(b"f" + _f64(np.atleast_1d(np.asarray(part, dtype=float))))
    return h.hexdigest()


def digest_mp(result) -> str:
    """Digest of one ``MPResult``: its total and every product's deltas."""
    parts: List = ["total", result.total]
    for product_id in sorted(result.deltas):
        parts.extend([product_id, result.deltas[product_id]])
    return digest_floats(*parts)


def digest_scores(scores) -> str:
    """Digest of published per-product scores (``{product: float}``)."""
    parts: List = []
    for product_id in sorted(scores):
        parts.extend([product_id, scores[product_id]])
    return digest_floats(*parts)


def combine(digests: Iterable[str], *extra) -> str:
    """One digest over per-op digests plus labelled float extras."""
    return digest_floats(*(f"op:{d}" for d in digests), *extra)


# --------------------------------------------------------------------- #
# Host speed
# --------------------------------------------------------------------- #

#: Reported times are scaled to a host on which one speed sample takes
#: exactly this long (seconds).
REFERENCE_SECONDS = 1e-3
#: A timed run takes a speed sample after an op at most this often (s).
SAMPLE_EVERY = 0.05
#: Local host speed at time t: median sample cost within t +- this (s).
SPEED_WINDOW = 2.0
#: Longer intervals are scaled piecewise, in pieces of at most this (s).
SPEED_STEP = 0.25

_KERNEL_ARRAY = np.linspace(0.0, 1.0, 4096)[::-1].copy()


def speed_kernel() -> float:
    """A fixed mix of interpreter and numpy work: the host-speed yardstick.

    Never change it: every reported time is scaled by its cost, so a
    change would rescale every baseline.
    """
    table: Dict[int, float] = {}
    for i in range(3000):
        key = (i * 7919) % 211
        table[key] = table.get(key, 0.0) + i * 0.5
    acc = 0.0
    for key, value in sorted(table.items()):
        acc += value / (key + 1)
    values = _KERNEL_ARRAY
    for _ in range(6):
        values = np.sort(values * 1.0001)
        acc += float(np.cumsum(values)[-1])
    return acc


class HostSpeed:
    """Tracks how fast the host runs, from speed samples taken between ops.

    On a shared host the speed of the CPU the run gets swings by up to
    2x within seconds, and every kind of work here (interpreter-bound
    set-up and replay, numpy-bound detection) swings with it.  A sample
    times :func:`speed_kernel`; :meth:`scaled` converts a measured
    interval into *reference seconds*: its length times
    ``REFERENCE_SECONDS / local sample cost``, the local cost being the
    median sample within ``SPEED_WINDOW`` seconds on either side.  A
    program change moves reference seconds just as it moves wall time;
    a change of host speed does not.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[float, float]] = []
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __len__(self) -> int:
        return len(self.spans)

    def sample(self) -> None:
        tick = perf_counter()
        speed_kernel()
        self.spans.append((tick, perf_counter()))
        self._arrays = None

    def maybe_sample(self) -> None:
        """Sample unless the last sample is younger than ``SAMPLE_EVERY``."""
        if not self.spans or perf_counter() - self.spans[-1][1] >= SAMPLE_EVERY:
            self.sample()

    def sample_for(self, seconds: float) -> None:
        """Sample back to back for ``seconds`` (around an op-less phase)."""
        end = perf_counter() + seconds
        self.sample()
        while perf_counter() < end:
            self.sample()

    def local_cost(self, at: float) -> float:
        """Median sample cost around time ``at`` (the nearest, if none is near)."""
        if self._arrays is None:
            spans = np.asarray(self.spans)
            self._arrays = (spans.mean(axis=1), spans[:, 1] - spans[:, 0])
        mid, cost = self._arrays
        lo, hi = np.searchsorted(mid, [at - SPEED_WINDOW, at + SPEED_WINDOW])
        if lo == hi:
            return float(cost[np.argmin(np.abs(mid - at))])
        return float(np.median(cost[lo:hi]))

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]``."""
        total = 0.0
        pieces = max(1, int(math.ceil((end - start) / SPEED_STEP)))
        width = (end - start) / pieces
        for piece in range(pieces):
            at = start + (piece + 0.5) * width
            total += width * REFERENCE_SECONDS / self.local_cost(at)
        return total

    def scaled_between(self, start: float, end: float) -> float:
        """Reference seconds of ``[start, end]`` without its own samples."""
        inside = sum(
            self.scaled(a, b) for a, b in self.spans if a >= start and b <= end
        )
        return self.scaled(start, end) - inside


# --------------------------------------------------------------------- #
# Closed-loop runs
# --------------------------------------------------------------------- #


Interval = Tuple[float, float]


@dataclass
class PassResult:
    """What one pass of a workload produced.

    ``op_digests`` holds one digest per op, or ``None`` for an op that
    raised or returned a non-finite result; ``digest`` covers the whole
    pass; ``max_mp`` maps a scheme to the pass's best MP under it.
    """

    op_digests: List[Optional[str]]
    digest: str
    max_mp: Dict[str, float] = field(default_factory=dict)
    state: Dict[str, object] = field(default_factory=dict)


@dataclass
class LoopStats:
    """Timings gathered over a run's passes.

    Every timed interval is kept as raw ``perf_counter`` readings.  An op
    is one or more intervals (a headline row is three evaluations);
    ``groups`` holds op-part intervals by label (the headline's schemes).
    ``op_id`` overrides the id of the op in progress, which is otherwise
    the number of ops recorded so far.  With ``speed`` set, a speed
    sample follows recorded ops, and :meth:`op_seconds` and friends
    report reference seconds; without it they report wall seconds.
    """

    op_spans: List[List[Interval]] = field(default_factory=list)
    groups: Dict[str, List[Interval]] = field(default_factory=dict)
    pass_spans: List[Interval] = field(default_factory=list)
    pass_ops: List[int] = field(default_factory=list)
    passes: List[PassResult] = field(default_factory=list)
    op_id: Optional[int] = None
    speed: Optional[HostSpeed] = None

    @property
    def ops(self) -> int:
        return len(self.op_spans)

    def current_op(self) -> int:
        return self.ops if self.op_id is None else self.op_id

    def record(
        self, start: float, end: float, op: Optional[int] = None, group: Optional[str] = None
    ) -> None:
        """Record one timed interval of op ``op`` (default: a new op)."""
        if op is None or op == len(self.op_spans):
            self.op_spans.append([(start, end)])
        else:
            self.op_spans[op].append((start, end))
        if group is not None:
            self.groups.setdefault(group, []).append((start, end))
        if self.speed is not None:
            self.speed.maybe_sample()

    def seconds(self, start: float, end: float) -> float:
        """One interval in the run's unit (reference or wall seconds)."""
        return end - start if self.speed is None else self.speed.scaled(start, end)

    def op_seconds(self) -> List[float]:
        return [sum(self.seconds(a, b) for a, b in spans) for spans in self.op_spans]

    def group_seconds(self) -> Dict[str, List[float]]:
        return {
            name: [self.seconds(a, b) for a, b in spans] for name, spans in self.groups.items()
        }

    def pass_seconds(self) -> List[float]:
        """Each pass's time, less the speed samples taken inside it."""
        if self.speed is None:
            return [b - a for a, b in self.pass_spans]
        return [self.speed.scaled_between(a, b) for a, b in self.pass_spans]

    def ops_per_second(self) -> float:
        """Throughput of the median pass: median of ops / seconds per pass."""
        return statistics.median(n / s for n, s in zip(self.pass_ops, self.pass_seconds()))


def timed_pass(run_pass: Callable[[LoopStats], PassResult], stats: LoopStats) -> None:
    """Run one pass and record its interval and op count in ``stats``."""
    before = stats.ops
    tick = perf_counter()
    result = run_pass(stats)
    stats.pass_spans.append((tick, perf_counter()))
    stats.pass_ops.append(stats.ops - before)
    stats.passes.append(result)


def run_closed_loop(
    run_pass: Callable[[LoopStats], PassResult],
    seconds: float,
    min_ops: int = MIN_OPS,
    stats: Optional[LoopStats] = None,
) -> LoopStats:
    """Repeat ``run_pass`` for about ``seconds`` and at least ``min_ops`` ops.

    Passes are whole: another one starts while the run is short of
    ``min_ops`` ops, or while half a median pass still fits before the
    deadline.  Every pass runs at least once.  With host-speed tracking,
    the run samples before its first pass and after its last, so every
    interval has samples on both sides.
    """
    stats = stats if stats is not None else LoopStats()
    if stats.speed is not None:
        stats.speed.sample_for(SPEED_STEP)
    start = perf_counter()
    while True:
        timed_pass(run_pass, stats)
        elapsed = perf_counter() - start
        typical = statistics.median(b - a for a, b in stats.pass_spans)
        if stats.ops >= min_ops and elapsed + 0.5 * typical >= seconds:
            break
    if stats.speed is not None:
        stats.speed.sample_for(SPEED_STEP)
    return stats


def count_pass_failures(passes: Sequence[PassResult]) -> int:
    """Ops that raised, or that differ from the first pass's same op."""
    failed = 0
    first = passes[0].op_digests
    for result in passes:
        for index, digest in enumerate(result.op_digests):
            if digest is None or index >= len(first) or digest != first[index]:
                failed += 1
    return failed
