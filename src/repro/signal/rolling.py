"""Vectorized sliding-window statistic kernels (bit-identical fast path).

The indicator-curve builders in :mod:`repro.signal.curves` historically
recomputed full window statistics at every step: one Python-level call per
window centre, each paying numpy dispatch overhead for a handful of
floats.  The kernels here compute the *same* statistics for **all**
windows of one length in a single vectorized pass.

Bit-identical by construction
-----------------------------
The detection pipeline's determinism contracts (telemetry parity, ledger
digests, cached detection reports) require the fast path to produce the
*exact same bits* as the per-window loops it replaces, not merely values
within tolerance.  That rules out the textbook rolling-sum/prefix-sum
update: sequential accumulation rounds differently from numpy's pairwise
reduction, so a prefix-sum mean differs from ``window.mean()`` in the
last ulp.  Instead every kernel evaluates each window with the **same
reduction algorithm** the naive loop used, batched across windows:

- ``sliding_means`` reduces the rows of a ``sliding_window_view``; numpy
  applies its pairwise summation per row exactly as it does for a 1-D
  contiguous slice, so row ``i`` equals ``x[i:i+width].mean()`` bitwise.
- the GLRT combiners below mirror the scalar expression trees of
  :func:`repro.signal.glrt.gaussian_mean_change_statistic` and
  :func:`repro.signal.poisson.poisson_rate_change_statistic` operation
  for operation (same associativity, same ufunc loops), so elementwise
  IEEE arithmetic reproduces the scalar results.
- ``two_cluster_balance`` sorts whole window stacks at once; cluster
  sizes depend only on the sorted value sequence and the arg-max of the
  adjacent gaps, both of which are algorithm-independent.

The equivalences are pinned by ``tests/property/test_incremental_curves.py``
with ``np.array_equal`` (no tolerance) against retained naive reference
implementations.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "sliding_means",
    "centered_half_widths",
    "mean_change_stats_equal_halves",
    "rate_change_stats_equal_halves",
    "two_cluster_balance",
]


def sliding_means(x: np.ndarray, width: int) -> np.ndarray:
    """Means of every length-``width`` window of ``x``.

    ``out[i] == x[i:i+width].mean()`` bit-for-bit (the row reduction of a
    sliding window view runs the same pairwise summation as the 1-D
    slice).  Empty when ``x.size < width``.
    """
    x = np.asarray(x, dtype=float)
    if x.size < width:
        return np.empty(0, dtype=float)
    return sliding_window_view(x, width).mean(axis=1)


def centered_half_widths(n: int, half_width: int) -> tuple:
    """``(centers, halves)`` for every valid change-point centre.

    Vectorized equivalent of :func:`repro.utils.windows.centered_windows`
    for the symmetric-shrink case: centres run ``1 .. n-1`` and each
    window is ``[c - h, c + h)`` with ``h = min(half_width, c, n - c)``
    (always ``>= 1``, so both halves are non-empty).
    """
    if n < 2:
        empty = np.empty(0, dtype=int)
        return empty, empty
    centers = np.arange(1, n)
    halves = np.minimum(half_width, np.minimum(centers, n - centers))
    return centers, halves


def mean_change_stats_equal_halves(
    values: np.ndarray, centers: np.ndarray, halves: np.ndarray
) -> np.ndarray:
    """Gaussian mean-change statistics at ``centers`` with equal halves.

    For each centre ``c`` with half-width ``h`` the statistic is the one
    :func:`~repro.signal.glrt.gaussian_mean_change_statistic` computes for
    ``values[c-h:c]`` vs ``values[c:c+h]``.  Windows are grouped by ``h``
    so each distinct half-width costs one vectorized pass.
    """
    values = np.asarray(values, dtype=float)
    stats = np.empty(centers.size, dtype=float)
    for h in np.unique(halves):
        h = int(h)
        sel = halves == h
        c = centers[sel]
        means = sliding_means(values, h)
        diff = means[c - h] - means[c]
        # Same expression tree as the scalar statistic:
        # 2.0 * (n1 * n2) / (n1 + n2) * diff * diff  with  n1 == n2 == h.
        coefficient = 2.0 * (h * h) / (h + h)
        stats[sel] = coefficient * diff * diff
    return stats


def _xlogx_vec(means: np.ndarray) -> np.ndarray:
    """Vectorized ``x ln x`` with the ``0 ln 0 = 0`` convention."""
    out = np.zeros(means.size, dtype=float)
    positive = means > 0.0
    out[positive] = means[positive] * np.log(means[positive])
    return out


def rate_change_stats_equal_halves(
    counts: np.ndarray,
    centers: np.ndarray,
    halves: np.ndarray,
    total_llr: bool,
) -> np.ndarray:
    """Poisson rate-change statistics at ``centers`` with equal halves.

    Matches :func:`~repro.signal.poisson.poisson_rate_change_statistic`
    applied to ``counts[c-h:c]`` vs ``counts[c:c+h]`` for every centre,
    grouped by half-width exactly like
    :func:`mean_change_stats_equal_halves`.
    """
    counts = np.asarray(counts, dtype=float)
    stats = np.empty(centers.size, dtype=float)
    for h in np.unique(halves):
        h = int(h)
        sel = halves == h
        c = centers[sel]
        means = sliding_means(counts, h)
        mean1 = means[c - h]
        mean2 = means[c]
        total_days = h + h
        pooled = (h * mean1 + h * mean2) / total_days
        statistic = (
            (h / total_days) * _xlogx_vec(mean1)
            + (h / total_days) * _xlogx_vec(mean2)
            - _xlogx_vec(pooled)
        )
        statistic = np.maximum(statistic, 0.0)
        if total_llr:
            statistic = statistic * total_days
        stats[sel] = statistic
    return stats


def two_cluster_balance(windows: np.ndarray) -> np.ndarray:
    """HC balance ``min(n1/n2, n2/n1)`` for a stack of value windows.

    ``windows`` is ``(num_windows, width)``; each row is clustered exactly
    like :func:`repro.signal.clustering.two_cluster_split_1d`: split the
    sorted row at its *last* largest adjacent gap, ``0.0`` when all values
    coincide.  Each row is clustered independently of the others.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.size == 0:
        return np.empty(0, dtype=float)
    ordered = np.sort(windows, axis=1)
    gaps = np.diff(ordered, axis=1)
    max_gap = gaps.max(axis=1)
    # Last largest gap: first-max of the reversed gap rows.
    split_after = (gaps.shape[1] - 1) - np.argmax(gaps[:, ::-1], axis=1)
    n1 = split_after + 1
    n2 = windows.shape[1] - n1
    balance = np.minimum(n1 / n2, n2 / n1)
    return np.where(max_gap <= 0.0, 0.0, balance)
