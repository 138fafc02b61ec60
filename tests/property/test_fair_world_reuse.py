"""Exact-equality pinning of the fair-world reuse path.

Scoring a submission reuses work in three places: the challenge scores
the fair world once per scheme instance (``RatingChallenge.fair_baseline``),
SA and BF cut month windows as slices of the sorted stream, and BF keeps
an LRU of per-window keep-masks while accumulating rater evidence in
count arrays.  This module keeps the naive per-window references -- one
``between()`` sub-stream per month and one ``BetaEvidence`` accumulator
per rater, as the schemes computed before -- and asserts the production
paths match them and cache-free recomputes with ``np.array_equal`` (no
tolerance) on a seeded challenge population and on hypothesis-generated
datasets covering empty windows, single-rating windows, raters spanning
products, all-filtered windows and ``max_iterations > 1``.
"""

from typing import Dict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aggregation import (
    BetaFilterConfig,
    BetaFilterScheme,
    PScheme,
    SimpleAveragingScheme,
    month_windows,
)
from repro.attacks.population import PopulationConfig, generate_population
from repro.marketplace.challenge import RatingChallenge
from repro.marketplace.mp import manipulation_power
from repro.trust.beta import BetaEvidence
from repro.types import RatingDataset, RatingStream

# --------------------------------------------------------------------- #
# Naive references: one between() sub-stream per month, scalar evidence.
# --------------------------------------------------------------------- #


def naive_sa_scores(dataset, period_days, start_day, end_day) -> Dict[str, np.ndarray]:
    windows = month_windows(start_day, end_day, period_days)
    scores = {}
    for product_id in dataset:
        stream = dataset[product_id]
        series = np.full(len(windows), np.nan)
        for i, (lo, hi) in enumerate(windows):
            window = stream.between(lo, hi)
            if len(window):
                series[i] = window.values.mean()
        scores[product_id] = series
    return scores


def naive_bf_scores(
    config, dataset, period_days, start_day, end_day
) -> Dict[str, np.ndarray]:
    scheme = BetaFilterScheme(config)
    windows = month_windows(start_day, end_day, period_days)
    evidence: Dict[str, BetaEvidence] = {}
    cut = {
        product_id: [dataset[product_id].between(lo, hi) for lo, hi in windows]
        for product_id in dataset
    }
    scores = {product_id: np.full(len(windows), np.nan) for product_id in dataset}
    for w in range(len(windows)):
        masks = {}
        for product_id in dataset:
            window = cut[product_id][w]
            if len(window) == 0:
                continue
            keep = scheme.filter_window(window.values)
            masks[product_id] = keep
            for rater_id, kept in zip(window.rater_ids, keep):
                acc = evidence.setdefault(rater_id, BetaEvidence())
                acc.record(good=1.0 if kept else 0.0, bad=0.0 if kept else 1.0)
        for product_id, keep in masks.items():
            window = cut[product_id][w]
            if not keep.any():
                continue
            trusted = np.asarray(
                [
                    evidence[rater_id].trust >= config.exclude_trust_threshold
                    for rater_id in window.rater_ids
                ]
            )
            usable = keep & trusted
            if usable.any():
                scores[product_id][w] = float(window.values[usable].mean())
    return scores


def assert_scores_equal(got, expected):
    assert list(got) == list(expected)
    for product_id in expected:
        assert np.array_equal(got[product_id], expected[product_id], equal_nan=True), (
            product_id,
            got[product_id],
            expected[product_id],
        )


# --------------------------------------------------------------------- #
# Whole-challenge differential: reuse path vs cache-free recompute.
# --------------------------------------------------------------------- #

def bf_with_lru(size, config=BetaFilterConfig()):
    scheme = BetaFilterScheme(config)
    scheme.mask_cache_size = size
    return scheme


SCHEMES = {
    "P": PScheme,
    "SA": SimpleAveragingScheme,
    "BF": BetaFilterScheme,
    # A mask LRU far smaller than one submission's cells: evictions and
    # re-filtering happen inside every evaluation.
    "BF-tiny-lru": lambda: bf_with_lru(3),
}
POPULATION = {"P": 6, "SA": 24, "BF": 24, "BF-tiny-lru": 12}


@pytest.fixture(scope="module")
def world():
    challenge = RatingChallenge(seed=2008)
    population = generate_population(
        challenge, PopulationConfig(size=max(POPULATION.values())), seed=2009
    )
    return challenge, population


def cache_free_mp(challenge, submission, factory):
    """MP with every scheme call on a fresh instance: no cache can hit."""
    grid = (challenge.config.period_days, challenge.start_day, challenge.end_day)
    fair_scores = factory().monthly_scores(challenge.fair_dataset, *grid)
    return manipulation_power(
        factory(),
        challenge.attacked_dataset(submission),
        challenge.fair_dataset,
        *grid,
        fair_scores=fair_scores,
    )


@pytest.mark.parametrize("name", list(SCHEMES))
def test_evaluate_matches_cache_free_recompute(world, name):
    challenge, population = world
    factory = SCHEMES[name]
    shared = factory()
    for submission in population[: POPULATION[name]]:
        got = challenge.evaluate(submission, shared, validate=False)
        expected = cache_free_mp(challenge, submission, factory)
        assert got.total == expected.total
        assert list(got.deltas) == list(expected.deltas)
        for product_id, deltas in expected.deltas.items():
            assert np.array_equal(got.deltas[product_id], deltas)
    # The fair baseline was computed for this instance and reused.
    assert challenge.fair_baseline(shared) is challenge.fair_baseline(shared)


@pytest.mark.parametrize("name", ["SA", "BF"])
def test_production_fair_world_matches_naive_reference(world, name):
    challenge, _ = world
    grid = (challenge.config.period_days, challenge.start_day, challenge.end_day)
    if name == "SA":
        expected = naive_sa_scores(challenge.fair_dataset, *grid)
    else:
        expected = naive_bf_scores(BetaFilterConfig(), challenge.fair_dataset, *grid)
    assert_scores_equal(challenge.fair_baseline(SCHEMES[name]()), expected)


# --------------------------------------------------------------------- #
# Randomized datasets vs the naive references.
# --------------------------------------------------------------------- #

GRID = (30.0, 0.0, 90.0)

ratings = st.lists(
    st.tuples(
        st.integers(0, 2),  # product
        st.integers(0, 5),  # rater: a small pool, so raters span products
        # Whole and half days, clustered low, so some months stay empty
        # and others hold a single rating; 90+ lies outside the grid.
        st.one_of(st.integers(0, 200).map(lambda t: t / 2.0), st.integers(0, 10)),
        st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0, 4.5, 5.0]),
    ),
    min_size=0,
    max_size=40,
)

configs = st.builds(
    BetaFilterConfig,
    quantile=st.sampled_from([0.05, 0.15, 0.3, 0.45]),
    max_iterations=st.sampled_from([1, 2, 5]),
    # 0.6 excludes a rater after a single filtered rating: whole windows
    # of survivors can then be excluded (an all-filtered, NaN month).
    exclude_trust_threshold=st.sampled_from([0.0, 0.25, 0.6]),
)


def build_dataset(rows) -> RatingDataset:
    streams = []
    for product in range(3):
        mine = [row for row in rows if row[0] == product]
        streams.append(
            RatingStream(
                f"p{product}",
                [row[2] for row in mine],
                [row[3] for row in mine],
                [f"r{row[1]}" for row in mine],
            )
        )
    return RatingDataset(streams)


@settings(max_examples=150, deadline=None)
@given(rows=ratings)
def test_sa_matches_naive(rows):
    dataset = build_dataset(rows)
    assert_scores_equal(
        SimpleAveragingScheme().monthly_scores(dataset, *GRID),
        naive_sa_scores(dataset, *GRID),
    )


@settings(max_examples=150, deadline=None)
@given(first=ratings, second=ratings, config=configs, lru=st.sampled_from([1, 4, 256]))
# Empty dataset, then one single-rating month per product.
@example(first=[], second=[(p, p, 40.0, 1.0) for p in range(3)],
         config=BetaFilterConfig(), lru=4)
# One rater spanning products: filtered on p0 (an outlier), then
# excluded on p1 where its rating survived the filter, leaving p1's
# month with no usable rating.
@example(
    first=[(0, 0, 1.0, 0.0)] + [(0, r, 2.0, 5.0) for r in range(1, 5)]
    + [(1, 0, 3.0, 4.0)],
    second=[],
    config=BetaFilterConfig(exclude_trust_threshold=0.6, max_iterations=5),
    lru=256,
)
def test_bf_matches_naive_across_reuse(first, second, config, lru):
    """One instance scores A, B, then A again: masks are reused and evicted."""
    scheme = bf_with_lru(lru, config)
    a, b = build_dataset(first), build_dataset(second)
    expected_a = naive_bf_scores(config, a, *GRID)
    assert_scores_equal(scheme.monthly_scores(a, *GRID), expected_a)
    assert_scores_equal(
        scheme.monthly_scores(b, *GRID), naive_bf_scores(config, b, *GRID)
    )
    assert_scores_equal(scheme.monthly_scores(a, *GRID), expected_a)
    assert len(scheme._masks) <= lru


@settings(max_examples=50, deadline=None)
@given(rows=ratings, first=configs, second=configs)
def test_bf_config_swap_never_reuses_masks(rows, first, second):
    """Masks are keyed by config: replacing it cannot serve stale masks."""
    dataset = build_dataset(rows)
    scheme = BetaFilterScheme(first)
    scheme.monthly_scores(dataset, *GRID)
    scheme.config = second
    assert_scores_equal(
        scheme.monthly_scores(dataset, *GRID),
        naive_bf_scores(second, dataset, *GRID),
    )


def test_bf_masks_are_read_only():
    scheme = BetaFilterScheme()
    dataset = build_dataset([(0, r, float(r), 4.0 + (r == 3)) for r in range(6)])
    scheme.monthly_scores(dataset, *GRID)
    assert scheme._masks
    for keep in scheme._masks.values():
        assert not keep.flags.writeable
