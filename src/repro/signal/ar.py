"""Autoregressive modeling by the covariance method.

Paper, Section IV-E: within a window, the ratings are fit onto an AR signal
model and the *model error* is examined.  A high model error means the
window looks like white noise (honest, independent ratings); a low model
error means a predictable "signal" is present, which is the signature of
collaborative unfair ratings.

The covariance method (Hayes, *Statistical Digital Signal Processing and
Modeling*) finds AR coefficients ``a_1 .. a_p`` minimizing the forward
prediction error

    E = sum_{n=p}^{N-1} | x[n] + sum_{k=1}^{p} a_k x[n-k] |^2

by solving the covariance normal equations.  Unlike the autocorrelation
method it does not window the data, so it is exact for short records --
which matters here because detector windows hold only ~40 ratings.

We report the *normalized* model error ``E / ((N - p) * var(x))`` so the
statistic is scale-free: 1.0 for white noise in expectation, near 0.0 for
a strongly predictable signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EmptyDataError, ValidationError
from repro.utils.validation import check_positive_int

__all__ = [
    "ARFit",
    "fit_ar_covariance",
    "model_error",
    "sliding_ar_normalized_errors",
]


@dataclass(frozen=True)
class ARFit:
    """Result of fitting an AR(p) model with the covariance method.

    Attributes
    ----------
    order:
        Model order ``p``.
    coefficients:
        Array ``[a_1, ..., a_p]`` in the convention
        ``x[n] ~= -(a_1 x[n-1] + ... + a_p x[n-p])``.
    error_power:
        Total squared prediction error ``E`` over the fit range.
    normalized_error:
        ``E / ((N - p) * var(x))`` -- scale-free model error in ``[0, ~1+]``.
        Defined as 1.0 when the window has zero variance (a constant window
        is perfectly "predictable" only trivially; treating it as noise-free
        signal would make unanimous fair ratings look like attacks).
    """

    order: int
    coefficients: np.ndarray
    error_power: float
    normalized_error: float


def _covariance_normal_equations(x: np.ndarray, order: int):
    """Build the covariance-method normal equations ``C a = -c``.

    ``C[i, j] = sum_n x[n-1-i] x[n-1-j]`` and ``c[i] = sum_n x[n] x[n-1-i]``
    for ``n = order .. N-1``.
    """
    n = x.size
    rows = n - order
    # Design matrix: row t holds [x[order-1+t], x[order-2+t], ..., x[t]],
    # i.e. the length-``order`` sliding windows of ``x``, reversed.  The
    # copy keeps the matrix contiguous so the BLAS products below see the
    # same memory layout (and produce the same bits) as the old per-lag
    # column fill.
    design = np.ascontiguousarray(
        np.lib.stride_tricks.sliding_window_view(x, order)[:rows, ::-1]
    ).astype(float, copy=False)
    target = x[order:]
    gram = design.T @ design
    cross = design.T @ target
    return gram, cross, design, target


def fit_ar_covariance(x: np.ndarray, order: int) -> ARFit:
    """Fit an AR(``order``) model to ``x`` via the covariance method.

    Requires ``len(x) >= 2 * order`` so the normal equations are at least
    square-determined; raises :class:`~repro.errors.ValidationError`
    otherwise.  Singular windows (e.g. all-constant data) are handled with
    a pseudo-inverse solve.
    """
    x = np.asarray(x, dtype=float)
    order = check_positive_int(order, "order")
    if x.size == 0:
        raise EmptyDataError("cannot fit an AR model to an empty window")
    if x.size < 2 * order:
        raise ValidationError(
            f"AR({order}) covariance fit needs at least {2 * order} samples, got {x.size}"
        )
    gram, cross, design, target = _covariance_normal_equations(x, order)
    try:
        solution = np.linalg.solve(gram, cross)
    except np.linalg.LinAlgError:
        solution = np.linalg.pinv(gram) @ cross
    else:
        # A gram matrix whose entries underflow (subnormal ratings) can be
        # numerically singular without LAPACK reporting it; the LU solve
        # then returns NaN/inf coefficients.
        if not np.all(np.isfinite(solution)):
            solution = np.linalg.pinv(gram) @ cross
    coefficients = -solution  # convention: x[n] + sum a_k x[n-k] = residual
    residual = target - design @ solution
    error_power = float(residual @ residual)
    variance = float(x.var())
    if variance <= 1e-12:
        normalized = 1.0
    else:
        normalized = error_power / ((x.size - order) * variance)
    coefficients.setflags(write=False)
    return ARFit(
        order=order,
        coefficients=coefficients,
        error_power=error_power,
        normalized_error=float(normalized),
    )


def model_error(x: np.ndarray, order: int = 4) -> float:
    """Convenience wrapper returning only the normalized model error."""
    return fit_ar_covariance(x, order).normalized_error


# --------------------------------------------------------------------- #
# Sliding-window fast path
#
# The ME indicator curve fits an AR model in every length-``window``
# window of a stream.  Successive windows share all but one row of their
# covariance-method design matrix, so instead of rebuilding (and
# re-multiplying) the matrix per window, the whole stack of designs is
# materialized once from the global sliding-window view and every gram
# matrix / cross vector / solve / residual runs as one batched gufunc
# pass.  Each batch slice sees exactly the operands the per-window
# :func:`fit_ar_covariance` would build (same values, same contiguous
# layout), and numpy's stacked matmul / solve dispatch the identical BLAS
# and LAPACK routines per slice -- so the results are bit-identical to
# the naive loop (property-pinned in the curve test suite).
# --------------------------------------------------------------------- #


def _sliding_ar_operands(x: np.ndarray, window: int, order: int):
    """``(designs, targets)`` for every length-``window`` window of ``x``.

    ``designs`` is ``(K, window - order, order)`` with ``designs[s]``
    bit-equal to the contiguous design matrix ``fit_ar_covariance`` builds
    for ``x[s:s+window]``; ``targets[s]`` is the matching prediction
    target ``x[s+order : s+window]``.  ``K = x.size - window + 1``, at
    least 1.
    """
    rows = window - order
    num_windows = x.size - window + 1
    lagged = np.lib.stride_tricks.sliding_window_view(x, order)[:, ::-1]
    designs = np.ascontiguousarray(
        np.lib.stride_tricks.sliding_window_view(lagged, (rows, order))[
            :num_windows, 0
        ]
    )
    targets = np.lib.stride_tricks.sliding_window_view(x[order:], rows)[
        :num_windows
    ]
    return designs, targets


def _normalized_errors_from_operands(
    designs: np.ndarray,
    targets: np.ndarray,
    variances: np.ndarray,
    order: int,
) -> np.ndarray:
    """Normalized AR model errors for a stack of window operands.

    One batched gram / solve / residual pass over all windows; raises
    :class:`numpy.linalg.LinAlgError` when any window's normal equations
    are singular or solve to non-finite coefficients (the caller falls back to the per-window pinv path for that
    stream).  ``variances`` holds each window's value variance; windows
    with (near-)zero variance get error ``1.0``, matching
    :func:`fit_ar_covariance`.
    """
    rows = targets.shape[1]
    window = rows + order
    transposed = designs.transpose(0, 2, 1)
    grams = np.matmul(transposed, designs)
    crosses = np.matmul(transposed, targets[:, :, None])
    solutions = np.linalg.solve(grams, crosses)
    if not np.all(np.isfinite(solutions)):
        raise np.linalg.LinAlgError("numerically singular AR window")
    residuals = targets - np.matmul(designs, solutions)[:, :, 0]
    error_powers = np.matmul(residuals[:, None, :], residuals[:, :, None])[
        :, 0, 0
    ]
    with np.errstate(divide="ignore", invalid="ignore"):
        normalized = error_powers / ((window - order) * variances)
    return np.where(variances <= 1e-12, 1.0, normalized)


def sliding_ar_normalized_errors(
    x: np.ndarray, window: int, order: int
) -> np.ndarray:
    """Normalized model error of every length-``window`` window of ``x``.

    ``out[s]`` equals ``fit_ar_covariance(x[s:s+window], order)
    .normalized_error`` bit-for-bit.  Streams containing a singular
    window (e.g. constant values) fall back to the per-window fit, which
    handles singularity with the pseudo-inverse.
    """
    x = np.asarray(x, dtype=float)
    order = check_positive_int(order, "order")
    if window < 2 * order:
        raise ValidationError(
            f"AR({order}) covariance fit needs windows of at least "
            f"{2 * order} samples, got {window}"
        )
    num_windows = x.size - window + 1
    if num_windows <= 0:
        return np.empty(0, dtype=float)
    designs, targets = _sliding_ar_operands(x, window, order)
    variances = np.lib.stride_tricks.sliding_window_view(x, window).var(axis=1)
    try:
        return _normalized_errors_from_operands(designs, targets, variances, order)
    except np.linalg.LinAlgError:
        return np.asarray(
            [
                fit_ar_covariance(x[s : s + window], order).normalized_error
                for s in range(num_windows)
            ],
            dtype=float,
        )
