"""Unit tests for repro.obs.alerts: rules, engine hysteresis, loading."""

import json

import pytest

from repro.errors import ValidationError
from repro.obs import MetricsRegistry, use_registry
from repro.obs.alerts import (
    DEFAULT_RULES_PATH,
    AlertEngine,
    AlertRule,
    _parse_mini_toml,
    load_rules,
)
from repro.obs.series import TimeSeriesRecorder


def feed(recorder, values, metric="m"):
    """Ingest one value per epoch, starting at epoch 0."""
    for epoch, value in enumerate(values):
        recorder.ingest_snapshot(epoch, {metric: value})


class TestAlertRuleValidation:
    def test_defaults_are_valid(self):
        rule = AlertRule(name="r", metric="m")
        assert rule.kind == "threshold"
        assert rule.severity == "warning"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"metric": ""},
            {"kind": "slope"},
            {"op": "=="},
            {"severity": "panic"},
            {"window": 0},
            {"for_epochs": 0},
            {"resolve_epochs": -1},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        base = {"name": "r", "metric": "m"}
        base.update(kwargs)
        with pytest.raises(ValidationError):
            AlertRule(**base)

    @pytest.mark.parametrize(
        "op,signal,expected",
        [
            (">", 1.1, True), (">", 1.0, False),
            (">=", 1.0, True), ("<", 0.9, True),
            ("<=", 1.0, True), ("<=", 1.1, False),
        ],
    )
    def test_breached_comparisons(self, op, signal, expected):
        rule = AlertRule(name="r", metric="m", op=op, value=1.0)
        assert rule.breached(signal) is expected


class TestSignals:
    def test_threshold_uses_latest_value(self):
        recorder = TimeSeriesRecorder()
        feed(recorder, [1.0, 5.0])
        rule = AlertRule(name="r", metric="m", kind="threshold")
        assert rule.signal(recorder, 1) == 5.0
        assert rule.signal(recorder, 0) == 1.0

    def test_no_data_yields_none(self):
        rule = AlertRule(name="r", metric="m")
        assert rule.signal(TimeSeriesRecorder(), 0) is None

    def test_rate_of_change_is_one_epoch_delta(self):
        recorder = TimeSeriesRecorder()
        feed(recorder, [2.0, 7.0])
        rule = AlertRule(name="r", metric="m", kind="rate_of_change")
        assert rule.signal(recorder, 1) == 5.0

    def test_first_appearance_counts_as_positive_delta(self):
        # A counter's first point has no predecessor: missing reads 0,
        # so a counter that starts moving registers immediately.
        recorder = TimeSeriesRecorder()
        recorder.ingest_snapshot(3, {"m": 4.0})
        rule = AlertRule(name="r", metric="m", kind="rate_of_change")
        assert rule.signal(recorder, 3) == 4.0

    def test_burn_rate_spans_the_window(self):
        recorder = TimeSeriesRecorder()
        feed(recorder, [0.0, 2.0, 4.0, 9.0])
        rule = AlertRule(name="r", metric="m", kind="burn_rate", window=3)
        assert rule.signal(recorder, 3) == 9.0


class TestEngineHysteresis:
    def test_fires_after_for_epochs_with_latency(self):
        rule = AlertRule(
            name="r", metric="m", op=">", value=0.0, for_epochs=2
        )
        engine = AlertEngine([rule])
        recorder = TimeSeriesRecorder()
        recorder.ingest_snapshot(0, {"m": 1.0})
        assert engine.evaluate(recorder, 0) == []  # breach 1: not yet
        recorder.ingest_snapshot(1, {"m": 1.0})
        events = engine.evaluate(recorder, 1)
        assert [e.state for e in events] == ["firing"]
        assert events[0].latency_epochs == 1
        assert engine.firing() == ["r"]

    def test_resolves_after_resolve_epochs(self):
        rule = AlertRule(
            name="r", metric="m", op=">", value=0.0, resolve_epochs=2
        )
        engine = AlertEngine([rule])
        recorder = TimeSeriesRecorder()
        recorder.ingest_snapshot(0, {"m": 1.0})
        assert [e.state for e in engine.evaluate(recorder, 0)] == ["firing"]
        recorder.ingest_snapshot(1, {"m": 0.0})
        assert engine.evaluate(recorder, 1) == []  # clear 1: still firing
        assert engine.state_of("r") == "firing"
        recorder.ingest_snapshot(2, {"m": 0.0})
        events = engine.evaluate(recorder, 2)
        assert [e.state for e in events] == ["resolved"]
        assert engine.firing() == []

    def test_interrupted_breach_streak_resets(self):
        rule = AlertRule(
            name="r", metric="m", op=">", value=0.0, for_epochs=2
        )
        engine = AlertEngine([rule])
        recorder = TimeSeriesRecorder()
        for epoch, value in enumerate([1.0, 0.0, 1.0]):
            recorder.ingest_snapshot(epoch, {"m": value})
            engine.evaluate(recorder, epoch)
        # Never two consecutive breaches: must not fire.
        assert engine.firing() == []

    def test_alert_metrics_emitted(self):
        registry = MetricsRegistry()
        rule = AlertRule(name="r", metric="m", op=">", value=0.0)
        engine = AlertEngine([rule])
        recorder = TimeSeriesRecorder()
        recorder.ingest_snapshot(0, {"m": 1.0})
        with use_registry(registry):
            engine.evaluate(recorder, 0)
        assert registry.counter_value("alert.evaluations") == 1.0
        assert registry.counter_value("alert.events") == 1.0
        assert registry.counter_value("alert.firing") == 1.0
        assert registry.gauge("alert.active").value == 1.0

    def test_duplicate_rule_names_rejected(self):
        rule = AlertRule(name="r", metric="m")
        with pytest.raises(ValidationError):
            AlertEngine([rule, rule])

    def test_unknown_rule_state_raises(self):
        engine = AlertEngine([])
        with pytest.raises(ValidationError):
            engine.state_of("ghost")

    def test_event_as_dict_is_json_serializable(self):
        rule = AlertRule(name="r", metric="m", op=">", value=0.0)
        engine = AlertEngine([rule])
        recorder = TimeSeriesRecorder()
        recorder.ingest_snapshot(0, {"m": 1.0})
        (event,) = engine.evaluate(recorder, 0)
        payload = json.loads(json.dumps(event.as_dict()))
        assert payload["rule"] == "r"
        assert payload["state"] == "firing"


class TestLoadRules:
    def test_toml_rules_load(self, tmp_path):
        path = tmp_path / "rules.toml"
        path.write_text(
            '[[rule]]\nname = "a"\nmetric = "drift.warnings"\n'
            'kind = "rate_of_change"\nvalue = 2\nseverity = "critical"\n'
            '\n[[rule]]\nname = "b"\nmetric = "alert.active"\n',
            encoding="utf-8",
        )
        rules = load_rules(path)
        assert [r.name for r in rules] == ["a", "b"]
        assert rules[0].kind == "rate_of_change"
        assert rules[0].value == 2.0

    def test_json_rules_load(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(
            json.dumps(
                {"rules": [{"name": "a", "metric": "m", "op": ">="}]}
            ),
            encoding="utf-8",
        )
        (rule,) = load_rules(path)
        assert rule.op == ">="

    def test_unknown_keys_rejected_with_path(self, tmp_path):
        path = tmp_path / "rules.toml"
        path.write_text(
            '[[rule]]\nname = "a"\nmetric = "m"\nthresh = 3\n',
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="unknown keys"):
            load_rules(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "rules.toml"
        path.write_text(
            '[[rule]]\nname = "a"\nmetric = "m"\n'
            '[[rule]]\nname = "a"\nmetric = "n"\n',
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="duplicate"):
            load_rules(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_rules(tmp_path / "absent.toml")

    def test_mini_toml_parses_the_rule_grammar(self):
        payload = _parse_mini_toml(
            "# comment\n"
            "[[rule]]\n"
            'name = "a"\n'
            "value = 1.5\n"
            "window = 3\n"
            "enabled = true\n"
        )
        assert payload == {
            "rule": [
                {"name": "a", "value": 1.5, "window": 3, "enabled": True}
            ]
        }

    def test_mini_toml_rejects_stray_assignment(self):
        with pytest.raises(ValidationError, match="expected"):
            _parse_mini_toml('name = "a"\n')

    def test_mini_toml_rejects_unsupported_value(self):
        with pytest.raises(ValidationError, match="unsupported value"):
            _parse_mini_toml('[[rule]]\nname = [1, 2]\n')


class TestDefaultRuleset:
    def test_packaged_ruleset_loads(self):
        rules = load_rules(DEFAULT_RULES_PATH)
        assert len(rules) >= 3
        names = {rule.name for rule in rules}
        assert "drift-warnings-moving" in names
        kinds = {rule.kind for rule in rules}
        assert kinds == {"threshold", "rate_of_change", "burn_rate"}
