"""Unit tests for the assumption drift monitors (repro.obs.drift)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.obs import MetricsRegistry, use_registry
from repro.obs.drift import (
    DriftMonitor,
    DriftMonitorConfig,
    arrival_dispersion,
    chi2_quantile,
    ljung_box_statistic,
)
from repro.types import RatingDataset, RatingStream


def poisson_stream(seed=0, days=60.0, rate=5.0, mean=4.0, product="p"):
    rng = np.random.default_rng(seed)
    n = rng.poisson(rate * days)
    times = np.sort(rng.uniform(0.0, days, n))
    values = np.clip(rng.normal(mean, 0.6, n), 0, 5)
    return RatingStream(product, times, values, [f"u{i}" for i in range(n)])


class TestStatistics:
    def test_dispersion_near_one_for_poisson_counts(self):
        rng = np.random.default_rng(3)
        counts = rng.poisson(5.0, 2000)
        assert arrival_dispersion(counts) == pytest.approx(1.0, abs=0.15)

    def test_dispersion_high_for_bursts(self):
        counts = np.zeros(30)
        counts[15] = 90  # everything lands on one day
        assert arrival_dispersion(counts) > 3.0

    def test_dispersion_low_for_scripted_arrivals(self):
        assert arrival_dispersion(np.full(30, 4)) == 0.0

    def test_dispersion_empty_is_nan(self):
        assert np.isnan(arrival_dispersion(np.array([])))
        assert np.isnan(arrival_dispersion(np.zeros(10)))

    def test_ljung_box_small_for_white_noise(self):
        rng = np.random.default_rng(5)
        q = ljung_box_statistic(rng.normal(0, 1, 500), lags=8)
        assert q < chi2_quantile(8, 0.999)

    def test_ljung_box_large_for_autocorrelated_series(self):
        # A slow sine sweep is maximally non-white.
        t = np.linspace(0, 8 * np.pi, 400)
        q = ljung_box_statistic(np.sin(t), lags=8)
        assert q > chi2_quantile(8, 0.999)

    def test_ljung_box_short_or_constant_is_nan(self):
        assert np.isnan(ljung_box_statistic(np.ones(5), lags=8))
        assert np.isnan(ljung_box_statistic(np.full(100, 2.5), lags=8))

    def test_ljung_box_rejects_bad_lags(self):
        with pytest.raises(ValidationError):
            ljung_box_statistic(np.ones(100), lags=0)

    def test_chi2_quantile_close_to_tabulated(self):
        # Reference values: chi2.ppf from scipy (not a dependency here).
        assert chi2_quantile(8, 0.99) == pytest.approx(20.09, rel=0.02)
        assert chi2_quantile(8, 0.999) == pytest.approx(26.12, rel=0.02)
        assert chi2_quantile(1, 0.95) == pytest.approx(3.84, rel=0.05)

    def test_chi2_quantile_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            chi2_quantile(0, 0.99)
        with pytest.raises(ValidationError):
            chi2_quantile(8, 1.0)


class TestDriftMonitorConfig:
    def test_defaults_validate(self):
        config = DriftMonitorConfig()
        assert config.whiteness_threshold > 0

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValidationError):
            DriftMonitorConfig(dispersion_low=2.0, dispersion_high=1.0)
        with pytest.raises(ValidationError):
            DriftMonitorConfig(min_ratings=0)
        with pytest.raises(ValidationError):
            DriftMonitorConfig(mean_drift_threshold=0.0)


class TestDriftMonitor:
    def test_fair_poisson_stream_stays_silent(self):
        registry = MetricsRegistry()
        monitor = DriftMonitor()
        stream = poisson_stream(seed=1)
        with use_registry(registry):
            warnings = monitor.check_stream(stream, 0.0, 60.0)
        assert warnings == []
        assert registry.counter_value("drift.checks") == 1
        assert registry.counter_value("drift.warnings") == 0

    def test_burst_trips_arrival_dispersion(self):
        base = poisson_stream(seed=2)
        n = 60
        burst = RatingStream(
            "p",
            np.sort(np.random.default_rng(9).uniform(30.0, 30.5, n)),
            np.full(n, 4.0),
            [f"b{i}" for i in range(n)],
        )
        monitor = DriftMonitor()
        monitor.calibrate(RatingDataset([base]))
        kinds = {
            w.kind for w in monitor.check_stream(base.merge(burst), 0.0, 60.0)
        }
        assert "arrival-dispersion" in kinds

    def test_mean_shift_trips_mean_drift(self):
        monitor = DriftMonitor(
            config=DriftMonitorConfig(fair_mean=4.0)
        )
        shifted = poisson_stream(seed=3, mean=2.5)
        kinds = {w.kind for w in monitor.check_stream(shifted, 0.0, 60.0)}
        assert "mean-drift" in kinds

    def test_oscillation_trips_residual_whiteness(self):
        rng = np.random.default_rng(4)
        n = 300
        times = np.sort(rng.uniform(0.0, 60.0, n))
        values = 4.0 + 1.0 * np.sin(times / 3.0)
        stream = RatingStream("p", times, values, [f"u{i}" for i in range(n)])
        monitor = DriftMonitor(config=DriftMonitorConfig(fair_mean=4.0))
        kinds = {w.kind for w in monitor.check_stream(stream, 0.0, 60.0)}
        assert "residual-whiteness" in kinds

    def test_below_min_ratings_skips_silently(self):
        registry = MetricsRegistry()
        monitor = DriftMonitor()
        tiny = RatingStream("p", [1.0, 2.0], [4.0, 4.0], ["a", "b"])
        with use_registry(registry):
            assert monitor.check_stream(tiny, 0.0, 60.0) == []
        assert registry.counter_value("drift.checks") == 0

    def test_self_calibration_on_first_window(self):
        monitor = DriftMonitor()
        assert monitor.fair_mean is None
        monitor.check_stream(poisson_stream(seed=6), 0.0, 60.0)
        assert monitor.fair_mean == pytest.approx(4.0, abs=0.3)

    def test_calibrate_sets_fair_mean_from_dataset(self):
        monitor = DriftMonitor()
        monitor.calibrate(RatingDataset([poisson_stream(seed=7)]))
        assert monitor.fair_mean == pytest.approx(4.0, abs=0.3)

    def test_violation_counters_per_kind(self):
        registry = MetricsRegistry()
        monitor = DriftMonitor(config=DriftMonitorConfig(fair_mean=4.0))
        with use_registry(registry):
            monitor.check_stream(poisson_stream(seed=8, mean=2.0), 0.0, 60.0)
        assert registry.counter_value("drift.mean.violations") >= 1
        assert registry.counter_value("drift.warnings") >= 1

    def test_check_epoch_covers_every_product(self):
        registry = MetricsRegistry()
        monitor = DriftMonitor(config=DriftMonitorConfig(fair_mean=4.0))
        dataset = RatingDataset(
            [poisson_stream(seed=9, product="a"),
             poisson_stream(seed=10, product="b")]
        )
        with use_registry(registry):
            monitor.check_epoch(dataset, 0.0, 60.0)
        assert registry.counter_value("drift.checks") == 2

    def test_warning_str_is_informative(self):
        monitor = DriftMonitor(config=DriftMonitorConfig(fair_mean=4.0))
        warnings = monitor.check_stream(
            poisson_stream(seed=11, mean=2.0), 0.0, 60.0
        )
        text = str(warnings[0])
        assert "mean-drift" in text and "days [0.0, 60.0)" in text


class TestSeededFairWorldsStaySilent:
    """The calibrated thresholds must not cry wolf on the fair worlds."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_fair_challenge_world_produces_no_warnings(self, seed):
        from repro.marketplace.challenge import RatingChallenge

        challenge = RatingChallenge(seed=seed)
        monitor = DriftMonitor()
        monitor.calibrate(challenge.fair_dataset)
        warnings = []
        start = challenge.start_day
        while start < challenge.end_day:
            stop = min(start + 30.0, challenge.end_day)
            warnings.extend(
                monitor.check_epoch(challenge.fair_dataset, start, stop)
            )
            start = stop
        assert warnings == []


class TestOnlineIntegration:
    def test_epoch_report_carries_drift_warnings(self):
        from repro.aggregation import SimpleAveragingScheme
        from repro.online import OnlineRatingSystem
        from repro.types import Rating

        system = OnlineRatingSystem(SimpleAveragingScheme(), period_days=30.0)
        rng = np.random.default_rng(13)
        # One normal epoch, then a bursty low-value epoch on the product.
        for i, day in enumerate(np.sort(rng.uniform(0.0, 30.0, 80))):
            system.submit(Rating(
                time=float(day), rater_id=f"u{i}", product_id="p",
                value=float(np.clip(rng.normal(4, 0.6), 0, 5)),
            ))
        first = system.close_epoch()
        assert first.drift_warnings == ()
        assert first.telemetry["drift_warnings"] == 0.0
        for i, day in enumerate(np.sort(rng.uniform(44.8, 45.2, 120))):
            system.submit(Rating(
                time=float(day), rater_id=f"b{i}", product_id="p", value=1.0,
            ))
        second = system.close_epoch()
        kinds = {w.kind for w in second.drift_warnings}
        assert kinds & {
            "arrival-dispersion", "residual-whiteness", "mean-drift"
        }
        assert second.telemetry["drift_warnings"] == float(
            len(second.drift_warnings)
        )

    def test_monitor_can_be_disabled(self):
        from repro.aggregation import SimpleAveragingScheme
        from repro.online import OnlineRatingSystem
        from repro.types import Rating

        system = OnlineRatingSystem(
            SimpleAveragingScheme(), monitor_drift=False
        )
        for i in range(40):
            system.submit(Rating(
                time=float(i % 30), rater_id=f"u{i}", product_id="p",
                value=4.0,
            ))
        report = system.close_epoch()
        assert report.drift_warnings == ()
        assert system.drift_monitor is None
