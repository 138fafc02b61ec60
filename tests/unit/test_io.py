"""Unit tests for dataset CSV and submission JSON serialization."""

import numpy as np
import pytest

from repro.attacks.base import AttackSubmission, build_attack_stream
from repro.errors import ValidationError
from repro.marketplace.io import (
    dataset_from_csv,
    dataset_to_csv,
    load_dataset_csv,
    load_submission_json,
    save_dataset_csv,
    save_submission_json,
    submission_from_json,
    submission_to_json,
)
from repro.types import RatingDataset, RatingStream


def sample_dataset():
    s1 = RatingStream(
        "p1", [0.5, 1.25, 2.0], [4.0, 3.5, 5.0], ["a", "b", "c"],
        [False, True, False],
    )
    s2 = RatingStream("p2", [0.75], [2.0], ["d"])
    return RatingDataset([s1, s2])


def sample_submission():
    stream = build_attack_stream(
        "p1", [10.0, 20.5], [0.5, 1.0], ["atk_0", "atk_1"]
    )
    return AttackSubmission(
        "sub_x", {"p1": stream}, strategy="burst",
        params={"bias": -3.0, "targets": {"p1": -1}},
    )


class TestDatasetCsv:
    def test_roundtrip(self):
        original = sample_dataset()
        restored = dataset_from_csv(dataset_to_csv(original))
        assert set(restored.product_ids) == set(original.product_ids)
        for pid in original:
            np.testing.assert_array_equal(restored[pid].times, original[pid].times)
            np.testing.assert_array_equal(restored[pid].values, original[pid].values)
            assert restored[pid].rater_ids == original[pid].rater_ids
            np.testing.assert_array_equal(restored[pid].unfair, original[pid].unfair)

    def test_header_written(self):
        text = dataset_to_csv(sample_dataset())
        assert text.splitlines()[0] == "product_id,rater_id,time,value,unfair"

    def test_empty_csv_rejected(self):
        with pytest.raises(ValidationError):
            dataset_from_csv("")

    def test_wrong_header_rejected(self):
        with pytest.raises(ValidationError, match="header"):
            dataset_from_csv("a,b,c\n1,2,3\n")

    def test_bad_field_count_rejected(self):
        text = "product_id,rater_id,time,value,unfair\np1,a,1.0,4.0\n"
        with pytest.raises(ValidationError, match="5 fields"):
            dataset_from_csv(text)

    def test_bad_number_rejected(self):
        text = "product_id,rater_id,time,value,unfair\np1,a,abc,4.0,0\n"
        with pytest.raises(ValidationError):
            dataset_from_csv(text)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset_csv(sample_dataset(), path)
        restored = load_dataset_csv(path)
        assert restored.total_ratings() == 4

    def test_fair_world_roundtrip(self):
        from repro.marketplace import FairRatingGenerator, FairRatingConfig

        config = FairRatingConfig(duration_days=10.0, history_days=0.0)
        original = FairRatingGenerator(config=config, seed=0).generate()
        restored = dataset_from_csv(dataset_to_csv(original))
        assert restored.total_ratings() == original.total_ratings()
        for pid in original:
            np.testing.assert_array_equal(
                restored[pid].values, original[pid].values
            )


    @pytest.mark.parametrize(
        "row, field",
        [
            ("p,a,1.0,4.0,2", "unfair"),
            ("p,a,1.0,4.0,yes", "unfair"),
            ("p,a,nan,4.0,0", "time"),
            ("p,a,1.0,inf,0", "value"),
            ('p,"a\rb",1.0,4.0,0', "rater_id"),
        ],
    )
    def test_malformed_fields_named(self, row, field):
        text = "product_id,rater_id,time,value,unfair\n" + row + "\n"
        with pytest.raises(ValidationError, match=field):
            dataset_from_csv(text)


class TestSubmissionJson:
    def test_roundtrip(self):
        original = sample_submission()
        restored = submission_from_json(submission_to_json(original))
        assert restored.submission_id == original.submission_id
        assert restored.strategy == original.strategy
        assert restored.params["bias"] == -3.0
        np.testing.assert_array_equal(
            restored.streams["p1"].values, original.streams["p1"].values
        )
        assert restored.streams["p1"].unfair.all()

    def test_invalid_json_rejected(self):
        with pytest.raises(ValidationError):
            submission_from_json("{not json")

    @pytest.mark.parametrize(
        "text", ['{"submission_id": ' + "1" * 5000 + "}", "[" * 100_000]
    )
    def test_unparseable_numbers_and_nesting_rejected(self, text):
        with pytest.raises(ValidationError, match="invalid submission JSON"):
            submission_from_json(text)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValidationError, match="products"):
            submission_from_json('{"submission_id": "x"}')

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"submission_id": "x", "products": {"p": {"ratings": '
             '[{"time": 1.0, "value": 2.0}]}}}', "rater_id"),
            ('{"submission_id": "x", "products": []}', "products"),
            ('{"submission_id": "x", "products": {"p": []}}', "products"),
            ('{"submission_id": "x", "products": {"p": {"ratings": '
             '[{"rater_id": "a", "time": "soon", "value": 2.0}]}}}', "time"),
            ('{"submission_id": "x", "products": {"p": {"ratings": '
             '[{"rater_id": "a", "time": 1.0, "value": NaN}]}}}', "value"),
            ('"just a string"', "object"),
        ],
    )
    def test_malformed_fields_named(self, text, field):
        with pytest.raises(ValidationError, match=field):
            submission_from_json(text)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "sub.json"
        save_submission_json(sample_submission(), path)
        restored = load_submission_json(path)
        assert restored.total_ratings() == 2

    def test_numpy_params_serializable(self):
        stream = build_attack_stream("p", [1.0], [0.0], ["a"])
        submission = AttackSubmission(
            "s", {"p": stream},
            params={"bias": np.float64(2.0), "n": np.int64(3), "arr": (1, 2)},
        )
        restored = submission_from_json(submission_to_json(submission))
        assert restored.params["bias"] == 2.0
        assert restored.params["n"] == 3
        assert restored.params["arr"] == [1, 2]
