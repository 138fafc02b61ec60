"""Unit tests for the Rating Challenge rules and evaluation."""

import gc
import pickle

import numpy as np
import pytest

from repro.aggregation.beta_filter import BetaFilterConfig, BetaFilterScheme
from repro.aggregation.simple import SimpleAveragingScheme
from repro.attacks.base import AttackSubmission, build_attack_stream
from repro.errors import ChallengeRuleError, ValidationError
from repro.marketplace.challenge import ChallengeConfig, RatingChallenge


@pytest.fixture(scope="module")
def challenge():
    return RatingChallenge(seed=77)


def make_submission(challenge, product_ids=("tv1",), times=None, values=None, n=10,
                    rater_ids=None):
    rids = rater_ids if rater_ids is not None else challenge.config.biased_rater_ids()[:n]
    streams = {}
    for pid in product_ids:
        t = times if times is not None else np.linspace(5.0, 60.0, n)
        v = values if values is not None else np.full(n, 1.0)
        streams[pid] = build_attack_stream(pid, t, v, rids)
    return AttackSubmission("test_sub", streams)


class TestChallengeConfig:
    def test_default_rules(self):
        config = ChallengeConfig()
        assert config.n_biased_raters == 50
        assert config.max_attacked_products == 4

    def test_biased_rater_ids_unique(self):
        ids = ChallengeConfig().biased_rater_ids()
        assert len(ids) == 50
        assert len(set(ids)) == 50

    def test_invalid_configs(self):
        with pytest.raises(ValidationError):
            ChallengeConfig(n_biased_raters=0)
        with pytest.raises(ValidationError):
            ChallengeConfig(period_days=0)


class TestValidation:
    def test_valid_submission_passes(self, challenge):
        challenge.validate(make_submission(challenge))

    def test_unknown_product_rejected(self, challenge):
        submission = make_submission(challenge, product_ids=("nonexistent",))
        with pytest.raises(ChallengeRuleError, match="not part of the challenge"):
            challenge.validate(submission)

    def test_too_many_products_rejected(self, challenge):
        pids = challenge.fair_dataset.product_ids[:5]
        submission = make_submission(challenge, product_ids=pids)
        with pytest.raises(ChallengeRuleError, match="at most"):
            challenge.validate(submission)

    def test_foreign_rater_rejected(self, challenge):
        submission = make_submission(
            challenge, n=2, rater_ids=["intruder", "attacker_01"],
        )
        with pytest.raises(ChallengeRuleError, match="biased raters"):
            challenge.validate(submission)

    def test_duplicate_rater_on_product_rejected(self, challenge):
        rids = [challenge.config.biased_rater_ids()[0]] * 2
        submission = make_submission(challenge, n=2, rater_ids=rids)
        with pytest.raises(ChallengeRuleError, match="more than once"):
            challenge.validate(submission)

    def test_same_rater_on_two_products_allowed(self, challenge):
        submission = make_submission(challenge, product_ids=("tv1", "tv2"), n=5)
        challenge.validate(submission)

    def test_time_before_window_rejected(self, challenge):
        times = np.array([-10.0] + [20.0] * 4)
        submission = make_submission(challenge, times=times, n=5)
        with pytest.raises(ChallengeRuleError, match="outside the challenge window"):
            challenge.validate(submission)

    def test_time_after_window_rejected(self, challenge):
        times = np.array([20.0] * 4 + [challenge.end_day + 1.0])
        submission = make_submission(challenge, times=times, n=5)
        with pytest.raises(ChallengeRuleError, match="outside the challenge window"):
            challenge.validate(submission)

    def test_history_period_not_attackable(self, challenge):
        # Times in the fair history (before day 0) violate the rules.
        times = np.full(5, challenge.start_day - 5.0)
        submission = make_submission(challenge, times=times, n=5)
        with pytest.raises(ChallengeRuleError):
            challenge.validate(submission)

    def test_value_off_scale_rejected(self, challenge):
        values = np.array([1.0, 5.5, 1.0])
        submission = make_submission(challenge, values=values, n=3)
        with pytest.raises(ChallengeRuleError, match="outside the scale"):
            challenge.validate(submission)


class TestEvaluation:
    def test_evaluate_returns_positive_mp_for_real_attack(self, challenge):
        submission = make_submission(challenge, n=40)
        result = challenge.evaluate(submission, SimpleAveragingScheme())
        assert result.total > 0.0
        assert set(result.per_product) == set(challenge.fair_dataset.product_ids)

    def test_attacked_dataset_merges_marks(self, challenge):
        submission = make_submission(challenge, n=10)
        attacked = challenge.attacked_dataset(submission)
        assert attacked["tv1"].unfair.sum() == 10
        assert challenge.fair_dataset["tv1"].unfair.sum() == 0

    def test_evaluate_validates_by_default(self, challenge):
        submission = make_submission(challenge, product_ids=("nonexistent",))
        with pytest.raises(ChallengeRuleError):
            challenge.evaluate(submission, SimpleAveragingScheme())

    def test_leaderboard_sorted_descending(self, challenge):
        weak = make_submission(challenge, n=3)
        strong = make_submission(challenge, n=45)
        strong = AttackSubmission("strong", dict(strong.streams))
        weak = AttackSubmission("weak", dict(weak.streams))
        board = challenge.leaderboard([weak, strong], SimpleAveragingScheme())
        assert board[0].submission_id == "strong"
        assert board[0].rank == 1
        assert board[1].rank == 2
        assert board[0].total_mp >= board[1].total_mp

    def test_shared_fair_dataset(self):
        base = RatingChallenge(seed=3)
        clone = RatingChallenge(fair_dataset=base.fair_dataset)
        assert clone.fair_dataset is base.fair_dataset


class CountingBF(BetaFilterScheme):
    """BF that records every dataset it scores."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scored = []

    def monthly_scores(self, dataset, *args, **kwargs):
        self.scored.append(dataset)
        return super().monthly_scores(dataset, *args, **kwargs)

    def fair_calls(self, challenge):
        return sum(dataset is challenge.fair_dataset for dataset in self.scored)


class SlottedSA:
    """A scheme that cannot be weakly referenced."""

    __slots__ = ()
    name = "SA"

    def monthly_scores(self, dataset, period_days, start_day, end_day):
        return SimpleAveragingScheme().monthly_scores(
            dataset, period_days, start_day, end_day
        )


def submissions(challenge, count):
    return [
        make_submission(challenge, product_ids=(f"tv{1 + i % 3}",),
                        values=np.full(10, float(i % 5)))
        for i in range(count)
    ]


def assert_same_mp(got, expected):
    assert got.total == expected.total
    for product_id, deltas in expected.deltas.items():
        assert np.array_equal(got.deltas[product_id], deltas)


class TestFairBaselineMemo:
    """The fair world is scored once per scheme instance, and only then."""

    @pytest.fixture
    def fresh(self, challenge):
        return RatingChallenge(fair_dataset=challenge.fair_dataset)

    def test_scored_once_per_instance(self, fresh):
        scheme = CountingBF()
        for submission in submissions(fresh, 5):
            fresh.evaluate(submission, scheme)
        assert scheme.fair_calls(fresh) == 1
        assert len(scheme.scored) == 6

    def test_baseline_arrays_are_read_only(self, fresh):
        for series in fresh.fair_baseline(SimpleAveragingScheme()).values():
            assert not series.flags.writeable
            with pytest.raises(ValueError):
                series[0] = 0.0

    def test_replacing_config_recomputes(self, fresh):
        scheme = CountingBF()
        submission = make_submission(fresh)
        fresh.evaluate(submission, scheme)
        scheme.config = BetaFilterConfig()  # equal config: still valid
        fresh.evaluate(submission, scheme)
        assert scheme.fair_calls(fresh) == 1
        scheme.config = BetaFilterConfig(quantile=0.3, exclude_trust_threshold=0.6)
        got = fresh.evaluate(submission, scheme)
        assert scheme.fair_calls(fresh) == 2
        expected = RatingChallenge(fair_dataset=fresh.fair_dataset).evaluate(
            submission, BetaFilterScheme(scheme.config)
        )
        assert_same_mp(got, expected)

    def test_swapping_fair_dataset_recomputes(self, fresh):
        scheme = CountingBF()
        submission = make_submission(fresh)
        fresh.evaluate(submission, scheme)
        other = RatingChallenge(seed=78).fair_dataset
        fresh.fair_dataset = other
        got = fresh.evaluate(submission, scheme)
        assert scheme.fair_calls(fresh) == 1  # once against the new world
        assert sum(d is other for d in scheme.scored) == 1
        assert len(scheme.scored) == 4
        expected = RatingChallenge(fair_dataset=other).evaluate(
            submission, BetaFilterScheme()
        )
        assert_same_mp(got, expected)

    def test_collected_scheme_drops_its_entry(self, fresh):
        scheme = SimpleAveragingScheme()
        fresh.evaluate(make_submission(fresh), scheme)
        assert len(fresh._fair_scores) == 1
        del scheme
        gc.collect()
        assert len(fresh._fair_scores) == 0

    def test_fresh_instances_do_not_grow_the_memo(self, fresh):
        submission = make_submission(fresh)
        for _ in range(10):
            fresh.evaluate(submission, SimpleAveragingScheme())
            assert len(fresh._fair_scores) <= 1
        gc.collect()
        assert len(fresh._fair_scores) == 0

    def test_pickled_challenge_drops_memo_and_scores_alike(self, fresh):
        scheme = SimpleAveragingScheme()
        submission = make_submission(fresh)
        expected = fresh.evaluate(submission, scheme)
        clone = pickle.loads(pickle.dumps(fresh))
        assert len(clone._fair_scores) == 0
        assert_same_mp(clone.evaluate(submission, scheme), expected)
        assert len(clone._fair_scores) == 1

    def test_unreferenceable_scheme_is_rescored(self, fresh):
        submission = make_submission(fresh)
        got = fresh.evaluate(submission, SlottedSA())
        assert len(fresh._fair_scores) == 0
        assert_same_mp(got, fresh.evaluate(submission, SimpleAveragingScheme()))
