"""The default alert ruleset's operating contract, end to end.

Silent on seeded fair challenge worlds; fires -- with a reported
detection latency in epochs -- when a concentrated rating burst hits
the online replay.  This is the behavioral spec behind
``src/repro/obs/alert_rules/default.toml``: a ruleset that false-alarms
on fair worlds is worse than no ruleset at all.
"""

import pytest

from repro import (
    AttackGenerator,
    AttackSpec,
    ConcentratedBurst,
    ProductTarget,
    PScheme,
    RatingChallenge,
)
from repro.obs import (
    DEFAULT_RULES_PATH,
    AlertEngine,
    MetricsRegistry,
    TimeSeriesRecorder,
    load_rules,
    use_registry,
)


def replay_with_default_rules(challenge, submission=None):
    """Online replay with the shipped ruleset attached; returns engine."""
    registry = MetricsRegistry()
    engine = AlertEngine(load_rules(DEFAULT_RULES_PATH))
    registry.attach_series(TimeSeriesRecorder(engine=engine))
    with use_registry(registry):
        challenge.replay_online(PScheme(), submission=submission)
    return engine


def burst_submission(challenge, seed):
    generator = AttackGenerator(
        challenge.fair_dataset,
        challenge.config.biased_rater_ids(),
        seed=seed + 100,
    )
    return generator.generate(
        [ProductTarget("tv1", +1)],
        AttackSpec(3.0, 0.3, 50, ConcentratedBurst(center=45.0, width=0.5)),
        submission_id="burst",
    )


class TestDefaultRulesetBehavior:
    @pytest.mark.parametrize("seed", [9, 2008, 42])
    def test_silent_on_fair_worlds(self, seed):
        engine = replay_with_default_rules(RatingChallenge(seed=seed))
        assert engine.events == []
        assert engine.firing() == []

    def test_fires_on_concentrated_burst(self):
        challenge = RatingChallenge(seed=9)
        engine = replay_with_default_rules(
            challenge, submission=burst_submission(challenge, seed=9)
        )
        firing = {
            event.rule: event
            for event in engine.events
            if event.state == "firing"
        }
        assert "drift-warnings-moving" in firing
        assert "drift-dispersion-burst" in firing
        # The burst lands inside epoch 1's window and is flagged the
        # epoch it completes: detection latency is reported in epochs.
        event = firing["drift-warnings-moving"]
        assert event.epoch == 1
        assert event.latency_epochs == 0
        # The detector's quality.* scorecards reach the same registry as
        # the drift counters, so the attack rule fires alongside them.
        event = firing["quality-attack-detected"]
        assert event.epoch == 1
        assert event.latency_epochs == 0
