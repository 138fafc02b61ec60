"""Property-based tests: serialization round-trips and streaming equivalence."""

import copy
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import SimpleAveragingScheme
from repro.attacks.base import AttackSubmission, build_attack_stream
from repro.errors import ValidationError
from repro.marketplace.io import (
    dataset_from_csv,
    dataset_to_csv,
    submission_from_json,
    submission_to_json,
)
from repro.online import OnlineRatingSystem
from repro.types import Rating, RatingDataset, RatingStream

times_strategy = st.lists(
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    min_size=0,
    max_size=30,
)
values_strategy = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


def build_dataset(times_lists):
    streams = []
    for index, times in enumerate(times_lists):
        n = len(times)
        values = [float((i * 7 % 11) / 2.2) for i in range(n)]
        raters = [f"u{index}_{i}" for i in range(n)]
        unfair = [i % 3 == 0 for i in range(n)]
        streams.append(RatingStream(f"prod{index}", times, values, raters, unfair))
    return RatingDataset(streams)


class TestCsvRoundTripProperties:
    @given(st.lists(times_strategy, min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_round_trip_preserves_everything(self, times_lists):
        original = build_dataset(times_lists)
        restored = dataset_from_csv(dataset_to_csv(original))
        # Products with zero ratings vanish from CSV (no rows); all others
        # must round-trip exactly.
        for pid in original:
            if len(original[pid]) == 0:
                assert pid not in restored
                continue
            np.testing.assert_array_equal(restored[pid].times, original[pid].times)
            np.testing.assert_array_equal(restored[pid].values, original[pid].values)
            assert restored[pid].rater_ids == original[pid].rater_ids
            np.testing.assert_array_equal(restored[pid].unfair, original[pid].unfair)


class TestJsonRoundTripProperties:
    @given(times_strategy, st.integers(0, 2**31))
    @settings(max_examples=60)
    def test_submission_round_trip(self, times, seed):
        rng = np.random.default_rng(seed)
        n = len(times)
        values = rng.uniform(0, 5, n)
        stream = build_attack_stream(
            "p", times, values, [f"a{i}" for i in range(n)]
        )
        original = AttackSubmission(
            "s", {"p": stream}, strategy="test", params={"seed": seed}
        )
        restored = submission_from_json(submission_to_json(original))
        np.testing.assert_allclose(
            restored.streams["p"].times, original.streams["p"].times
        )
        np.testing.assert_allclose(
            restored.streams["p"].values, original.streams["p"].values
        )
        assert restored.streams["p"].rater_ids == original.streams["p"].rater_ids


# --------------------------------------------------------------------- #
# Fuzzing: malformed CSV / JSON either parses to something that
# round-trips or raises ValidationError -- never any other exception.
# --------------------------------------------------------------------- #

# Replacement tokens: wrong types, non-finite numbers, stray quoting and
# line breaks, values that only look like flags or numbers.
BAD_CSV_FIELDS = st.sampled_from(
    ["", " ", "nan", "NaN", "inf", "-inf", "1e400", "abc", "2", "-1", "01",
     "true", "1.5", '"', '"a\rb"', '"a\nb"', "x,y", "\x00", "product_id"]
)
BAD_JSON_VALUES = st.sampled_from(
    [None, True, False, "x", "1.5", [], {}, [1, 2], 0, -3, 1.5,
     float("nan"), float("inf"), -float("inf"), 10**400, "\r"]
).map(copy.deepcopy)


def csv_round_trips_or_rejects(text):
    try:
        dataset = dataset_from_csv(text)
    except ValidationError:
        return
    written = dataset_to_csv(dataset)
    assert dataset_to_csv(dataset_from_csv(written)) == written


def submission_round_trips_or_rejects(text):
    try:
        submission = submission_from_json(text)
    except ValidationError:
        return
    written = submission_to_json(submission)
    assert submission_to_json(submission_from_json(written)) == written


@st.composite
def mutated_csv(draw):
    lines = dataset_to_csv(
        build_dataset(draw(st.lists(times_strategy, min_size=1, max_size=3)))
    ).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        index = draw(st.integers(0, len(lines) - 1))
        fields = lines[index].split(",")
        kind = draw(st.sampled_from(
            ["field", "drop_field", "dup_header", "dup_column", "drop_line"]
        ))
        if kind == "field":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(BAD_CSV_FIELDS)
            lines[index] = ",".join(fields)
        elif kind == "drop_field":
            del fields[draw(st.integers(0, len(fields) - 1))]
            lines[index] = ",".join(fields)
        elif kind == "dup_header":
            lines.insert(index, lines[0])
        elif kind == "dup_column":
            column = draw(st.integers(0, 4))
            lines = [
                ",".join(row[: column + 1] + row[column:])
                for row in (line.split(",") for line in lines)
            ]
        elif len(lines) > 1:
            del lines[index]
    text = "\n".join(lines) + "\n"
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _json_paths(node, path=()):
    """Every (container path, key) pair addressing a value in ``node``."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield path, key
        yield from _json_paths(child, path + (key,))


@st.composite
def mutated_submission_json(draw):
    n = draw(st.integers(0, 4))
    times = draw(st.lists(st.floats(-30.0, 200.0), min_size=n, max_size=n))
    stream = build_attack_stream(
        "p", times, [float(i % 5) for i in range(n)], [f"a{i}" for i in range(n)]
    )
    payload = json.loads(submission_to_json(
        AttackSubmission("s", {"p": stream}, strategy="test", params={"k": 1})
    ))
    if draw(st.booleans()):
        payload = draw(BAD_JSON_VALUES)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_json_paths(payload))
        if not paths:
            break
        path, key = draw(st.sampled_from(paths))
        parent = payload
        for step in path:
            parent = parent[step]
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(BAD_JSON_VALUES)
    text = json.dumps(payload)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


class TestMalformedInputFuzz:
    @given(mutated_csv())
    @settings(max_examples=300)
    def test_csv_parses_and_round_trips_or_raises_validation_error(self, text):
        csv_round_trips_or_rejects(text)

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_arbitrary_csv_text(self, body):
        csv_round_trips_or_rejects("product_id,rater_id,time,value,unfair\n" + body)

    @given(mutated_submission_json())
    @settings(max_examples=300)
    def test_submission_json_parses_and_round_trips_or_raises(self, text):
        submission_round_trips_or_rejects(text)

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_arbitrary_json_text(self, text):
        submission_round_trips_or_rejects(text)

    @given(
        st.lists(
            st.floats(-365.0, 365.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60)
    def test_negative_and_unsorted_times_are_valid(self, times):
        rows = "".join(f"p,r{i},{t!r},3.0,0\n" for i, t in enumerate(times))
        dataset = dataset_from_csv("product_id,rater_id,time,value,unfair\n" + rows)
        assert dataset["p"].times.tolist() == sorted(times)
        payload = {
            "submission_id": "s",
            "products": {"p": {"ratings": [
                {"rater_id": f"r{i}", "time": t, "value": 3.0}
                for i, t in enumerate(times)
            ]}},
        }
        submission = submission_from_json(json.dumps(payload))
        assert submission.streams["p"].times.tolist() == sorted(times)
        assert all(math.isfinite(t) for t in submission.streams["p"].times)


class TestOnlineBatchEquivalence:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=89.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=40)
    def test_epoch_scores_equal_batch_scores(self, pairs):
        ratings = [
            Rating(time=t, rater_id=f"u{i}", product_id="p", value=v)
            for i, (t, v) in enumerate(pairs)
        ]
        system = OnlineRatingSystem(SimpleAveragingScheme(), period_days=30.0)
        system.submit_many(sorted(ratings))
        while system.current_epoch_start < 90.0:
            system.close_epoch()
        batch = SimpleAveragingScheme().monthly_scores(
            system.dataset(), 30.0, 0.0, 90.0
        )
        for index in range(3):
            online_score = system.reports[index].scores.get("p", float("nan"))
            batch_score = batch["p"][index]
            if np.isnan(batch_score):
                assert np.isnan(online_score)
            else:
                assert online_score == batch_score
