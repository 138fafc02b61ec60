"""Serialization for rating datasets and attack submissions.

Two interchange formats:

- **CSV** for rating data -- one row per rating
  (``product_id,rater_id,time,value,unfair``), the shape in which rating
  traces are usually published;
- **JSON** for attack submissions -- the structured equivalent of the file
  the paper's challenge participants uploaded (who rates what, when, with
  which value), plus the strategy metadata the analysis modules use.

Both round-trip exactly (modulo float text formatting, which uses
``repr``-precision decimals).
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.attacks.base import AttackSubmission, build_attack_stream
from repro.errors import ValidationError
from repro.types import RatingDataset, RatingStream

__all__ = [
    "dataset_to_csv",
    "dataset_from_csv",
    "save_dataset_csv",
    "load_dataset_csv",
    "submission_to_json",
    "submission_from_json",
    "save_submission_json",
    "load_submission_json",
]

_CSV_HEADER = ["product_id", "rater_id", "time", "value", "unfair"]


# --------------------------------------------------------------------- #
# Rating datasets <-> CSV
# --------------------------------------------------------------------- #


def dataset_to_csv(dataset: RatingDataset) -> str:
    """Render a dataset as CSV text (header + one row per rating)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for product_id in dataset:
        stream = dataset[product_id]
        for i in range(len(stream)):
            writer.writerow(
                [
                    product_id,
                    stream.rater_ids[i],
                    repr(float(stream.times[i])),
                    repr(float(stream.values[i])),
                    int(stream.unfair[i]),
                ]
            )
    return buffer.getvalue()


def _single_line(value: str, where: str) -> str:
    """An id must stay on one line, or the CSV writer cannot round-trip it."""
    if "\r" in value or "\n" in value:
        raise ValidationError(f"{where} {value!r} contains a line break")
    return value


def _finite(raw, where: str) -> float:
    try:
        number = float(raw)
    except (ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ValidationError(f"{where} must be a finite number, got {raw!r}")
    return number


def dataset_from_csv(text: str) -> RatingDataset:
    """Parse CSV text produced by :func:`dataset_to_csv` (or compatible).

    Malformed input raises :class:`ValidationError` naming the line and
    field: a wrong header or field count, a non-numeric or non-finite
    ``time``/``value``, an ``unfair`` flag other than ``0``/``1``, or an
    id containing a line break.
    """
    try:
        records = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ValidationError(f"malformed CSV: {exc}") from None
    if not records:
        raise ValidationError("empty CSV: expected a header row")
    if [h.strip() for h in records[0]] != _CSV_HEADER:
        raise ValidationError(
            f"unexpected CSV header {records[0]!r}; expected {_CSV_HEADER}"
        )
    rows: Dict[str, List] = {}
    for line_no, row in enumerate(records[1:], start=2):
        if not row:
            continue
        if len(row) != 5:
            raise ValidationError(
                f"CSV line {line_no}: expected 5 fields, got {len(row)}"
            )
        product_id, rater_id, time_s, value_s, unfair_s = row
        where = f"CSV line {line_no}:"
        flag = unfair_s.strip()
        if flag not in ("0", "1"):
            raise ValidationError(f"{where} unfair must be 0 or 1, got {unfair_s!r}")
        entry = rows.setdefault(
            _single_line(product_id, f"{where} product_id"), [[], [], [], []]
        )
        entry[0].append(_finite(time_s, f"{where} time"))
        entry[1].append(_finite(value_s, f"{where} value"))
        entry[2].append(_single_line(rater_id, f"{where} rater_id"))
        entry[3].append(flag == "1")
    streams = [
        RatingStream(product_id, times, values, raters, unfair)
        for product_id, (times, values, raters, unfair) in rows.items()
    ]
    return RatingDataset(streams)


def save_dataset_csv(dataset: RatingDataset, path: Union[str, Path]) -> None:
    """Write a dataset to a CSV file."""
    Path(path).write_text(dataset_to_csv(dataset))


def load_dataset_csv(path: Union[str, Path]) -> RatingDataset:
    """Read a dataset from a CSV file."""
    return dataset_from_csv(Path(path).read_text())


# --------------------------------------------------------------------- #
# Attack submissions <-> JSON
# --------------------------------------------------------------------- #


def submission_to_json(submission: AttackSubmission) -> str:
    """Render a submission as pretty-printed JSON."""
    payload = {
        "submission_id": submission.submission_id,
        "strategy": submission.strategy,
        "params": _jsonable(submission.params),
        "products": {
            product_id: {
                "ratings": [
                    {
                        "rater_id": stream.rater_ids[i],
                        "time": float(stream.times[i]),
                        "value": float(stream.values[i]),
                    }
                    for i in range(len(stream))
                ]
            }
            for product_id, stream in submission.streams.items()
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _jsonable(value):
    """Best-effort conversion of params metadata to JSON-safe values."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string"}


def _expect(value, kind, where: str):
    """``value`` if it has JSON type ``kind`` (``float`` for numbers)."""
    if kind is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return _finite(value, where)
        raise ValidationError(f"{where} must be a number, got {value!r}")
    if not isinstance(value, kind):
        raise ValidationError(
            f"{where} must be {_JSON_TYPES[kind]}, got {type(value).__name__}"
        )
    return value


def submission_from_json(text: str) -> AttackSubmission:
    """Parse JSON text produced by :func:`submission_to_json`.

    Malformed input raises :class:`ValidationError` naming the field: a
    missing key, a value of the wrong JSON type, or a non-finite
    ``time``/``value``.
    """
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integers longer than Python converts.
        raise ValidationError(f"invalid submission JSON: {exc}") from None
    _expect(payload, dict, "submission JSON")
    for key in ("submission_id", "products"):
        if key not in payload:
            raise ValidationError(f"submission JSON missing {key!r}")
    streams = {}
    for product_id, block in _expect(payload["products"], dict, "products").items():
        where = f"products[{product_id!r}]"
        _single_line(product_id, where)
        ratings = _expect(block, dict, where).get("ratings", [])
        times, values, raters = [], [], []
        for i, rating in enumerate(_expect(ratings, list, f"{where}.ratings")):
            at = f"{where}.ratings[{i}]"
            missing = {"rater_id", "time", "value"} - _expect(rating, dict, at).keys()
            if missing:
                raise ValidationError(f"{at} missing {sorted(missing)}")
            raters.append(
                _single_line(_expect(rating["rater_id"], str, f"{at}.rater_id"), at)
            )
            times.append(_expect(rating["time"], float, f"{at}.time"))
            values.append(_expect(rating["value"], float, f"{at}.value"))
        streams[product_id] = build_attack_stream(product_id, times, values, raters)
    return AttackSubmission(
        submission_id=_expect(payload["submission_id"], str, "submission_id"),
        streams=streams,
        strategy=_expect(payload.get("strategy", "unknown"), str, "strategy"),
        params=_expect(payload.get("params", {}), dict, "params"),
    )


def save_submission_json(
    submission: AttackSubmission, path: Union[str, Path]
) -> None:
    """Write a submission to a JSON file."""
    Path(path).write_text(submission_to_json(submission))


def load_submission_json(path: Union[str, Path]) -> AttackSubmission:
    """Read a submission from a JSON file."""
    return submission_from_json(Path(path).read_text())
