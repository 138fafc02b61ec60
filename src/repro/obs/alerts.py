"""Declarative alerting over recorded metric series.

The paper's detectors are change detectors over rating streams; this
module applies the same shape to the system's own health telemetry.
Operators declare :class:`AlertRule` conditions in a TOML or JSON file
-- no code -- and :class:`AlertEngine` evaluates them against a
:class:`~repro.obs.series.TimeSeriesRecorder` at every epoch close,
with firing/resolved hysteresis so a single noisy epoch neither fires
nor clears an alarm.

Three condition kinds cover the attack signatures the related work
cares about:

- ``threshold``: the latest value breaches ``op value`` -- single-epoch
  spikes (a concentrated ballot burst blowing up ``drift.dispersion``).
- ``rate_of_change``: the one-epoch delta breaches -- a counter that
  suddenly starts moving (``drift.warnings`` incrementing at all).
- ``burn_rate``: the delta over a rolling ``window`` of epochs breaches
  -- slow drift that never spikes, which is exactly how low-rate and
  unorganized attacks (arXiv:2604.13049, arXiv:1610.04086) surface.

Every state transition is an :class:`AlertEvent` carrying the detection
latency in epochs (epochs elapsed between the first breach and the
alarm actually firing, i.e. the hysteresis cost).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.obs.registry import get_registry

__all__ = [
    "DEFAULT_RULES_PATH",
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "load_rules",
]

#: The ruleset shipped with the library: drift/quality conditions that
#: stay silent on seeded fair worlds and fire on attack scenarios.
DEFAULT_RULES_PATH = Path(__file__).with_name("alert_rules") / "default.toml"

_KINDS = ("threshold", "rate_of_change", "burn_rate")
_OPS = (">", ">=", "<", "<=")
_SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class AlertRule:
    """One declarative alert condition over a single metric series.

    ``for_epochs`` consecutive breaching epochs are required before the
    alert fires; ``resolve_epochs`` consecutive clear epochs before a
    firing alert resolves (both default 1: no hysteresis).
    """

    name: str
    metric: str
    kind: str = "threshold"
    op: str = ">"
    value: float = 0.0
    window: int = 1
    for_epochs: int = 1
    resolve_epochs: int = 1
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("alert rule needs a non-empty name")
        if not self.metric:
            raise ValidationError(f"rule {self.name!r} needs a metric")
        if self.kind not in _KINDS:
            raise ValidationError(
                f"rule {self.name!r}: kind must be one of {_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.op not in _OPS:
            raise ValidationError(
                f"rule {self.name!r}: op must be one of {_OPS}, got {self.op!r}"
            )
        if self.severity not in _SEVERITIES:
            raise ValidationError(
                f"rule {self.name!r}: severity must be one of {_SEVERITIES}, "
                f"got {self.severity!r}"
            )
        for attr in ("window", "for_epochs", "resolve_epochs"):
            if getattr(self, attr) < 1:
                raise ValidationError(
                    f"rule {self.name!r}: {attr} must be >= 1, "
                    f"got {getattr(self, attr)}"
                )
        object.__setattr__(self, "value", float(self.value))

    def breached(self, signal: float) -> bool:
        """Does ``signal`` violate this rule's comparison?"""
        if self.op == ">":
            return signal > self.value
        if self.op == ">=":
            return signal >= self.value
        if self.op == "<":
            return signal < self.value
        return signal <= self.value

    def signal(self, recorder, epoch: int) -> Optional[float]:
        """The value this rule compares at ``epoch`` (None: no data yet).

        ``threshold`` uses the latest recorded value; ``rate_of_change``
        the delta from the previous epoch; ``burn_rate`` the delta over
        the rolling ``window``.  A metric with no point at or before
        ``epoch`` yields None (the rule cannot breach); a missing
        *earlier* point in a delta reads as 0.0, so a counter's first
        appearance registers as a positive delta.
        """
        points = recorder.series(self.metric)
        now = _value_at(points, epoch)
        if now is None:
            return None
        if self.kind == "threshold":
            return now
        lag = 1 if self.kind == "rate_of_change" else self.window
        then = _value_at(points, epoch - lag)
        return now - (then if then is not None else 0.0)


def _value_at(points: Sequence[Tuple[int, float]], epoch: int) -> Optional[float]:
    """The most recent value at or before ``epoch`` (None when absent)."""
    value = None
    for point_epoch, point_value in points:
        if point_epoch > epoch:
            break
        value = point_value
    return value


@dataclass(frozen=True)
class AlertEvent:
    """One alert state transition (``firing`` or ``resolved``)."""

    rule: str
    metric: str
    state: str
    epoch: int
    value: float
    threshold: float
    severity: str = "warning"
    latency_epochs: int = 0
    description: str = ""

    def as_dict(self) -> Dict[str, object]:
        """A JSON-serializable dump (ledger/report payload)."""
        return {
            "rule": self.rule,
            "metric": self.metric,
            "state": self.state,
            "epoch": self.epoch,
            "value": self.value,
            "threshold": self.threshold,
            "severity": self.severity,
            "latency_epochs": self.latency_epochs,
            "description": self.description,
        }


@dataclass
class _RuleState:
    """Per-rule hysteresis bookkeeping."""

    breach_streak: int = 0
    clear_streak: int = 0
    firing: bool = False
    first_breach_epoch: Optional[int] = None


class AlertEngine:
    """Evaluates a ruleset against a recorder at each epoch close.

    State transitions append to :attr:`events` and emit ``alert.*``
    metrics into the active registry; :meth:`evaluate` returns just the
    events the given epoch produced.
    """

    def __init__(self, rules: Sequence[AlertRule]) -> None:
        names = [rule.name for rule in rules]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValidationError(
                f"duplicate alert rule names: {sorted(duplicates)}"
            )
        self.rules: Tuple[AlertRule, ...] = tuple(rules)
        self._states: Dict[str, _RuleState] = {
            rule.name: _RuleState() for rule in self.rules
        }
        self.events: List[AlertEvent] = []

    # -- inspection ----------------------------------------------------- #

    def firing(self) -> List[str]:
        """Names of the rules currently in the firing state."""
        return [
            rule.name
            for rule in self.rules
            if self._states[rule.name].firing
        ]

    def state_of(self, rule_name: str) -> str:
        """``firing`` or ``ok`` for one rule (by name)."""
        state = self._states.get(rule_name)
        if state is None:
            raise ValidationError(f"unknown alert rule: {rule_name!r}")
        return "firing" if state.firing else "ok"

    # -- evaluation ----------------------------------------------------- #

    def evaluate(self, recorder, epoch: int) -> List[AlertEvent]:
        """Evaluate every rule at ``epoch``; return this epoch's events."""
        epoch = int(epoch)
        produced: List[AlertEvent] = []
        for rule in self.rules:
            state = self._states[rule.name]
            signal = rule.signal(recorder, epoch)
            breached = signal is not None and rule.breached(signal)
            if breached:
                state.clear_streak = 0
                state.breach_streak += 1
                if state.first_breach_epoch is None:
                    state.first_breach_epoch = epoch
                if not state.firing and state.breach_streak >= rule.for_epochs:
                    state.firing = True
                    produced.append(
                        AlertEvent(
                            rule=rule.name,
                            metric=rule.metric,
                            state="firing",
                            epoch=epoch,
                            value=float(signal),
                            threshold=rule.value,
                            severity=rule.severity,
                            latency_epochs=epoch - state.first_breach_epoch,
                            description=rule.description,
                        )
                    )
            else:
                state.breach_streak = 0
                if state.firing:
                    state.clear_streak += 1
                    if state.clear_streak >= rule.resolve_epochs:
                        state.firing = False
                        state.clear_streak = 0
                        state.first_breach_epoch = None
                        produced.append(
                            AlertEvent(
                                rule=rule.name,
                                metric=rule.metric,
                                state="resolved",
                                epoch=epoch,
                                value=float(signal) if signal is not None else 0.0,
                                threshold=rule.value,
                                severity=rule.severity,
                                description=rule.description,
                            )
                        )
                else:
                    state.first_breach_epoch = None
        self.events.extend(produced)
        registry = get_registry()
        registry.inc("alert.evaluations", float(len(self.rules)))
        for event in produced:
            registry.inc("alert.events")
            if event.state == "firing":
                registry.inc("alert.firing")
                registry.observe(
                    "alert.latency_epochs", float(event.latency_epochs)
                )
            else:
                registry.inc("alert.resolved")
        registry.set_gauge("alert.active", float(len(self.firing())))
        return produced


# -- rule-file loading --------------------------------------------------- #

_RULE_FIELDS = frozenset(
    {
        "name",
        "metric",
        "kind",
        "op",
        "value",
        "window",
        "for_epochs",
        "resolve_epochs",
        "severity",
        "description",
    }
)


def load_rules(path) -> List[AlertRule]:
    """Parse an alert-rule file (``.toml`` or ``.json``) into rules.

    TOML files declare ``[[rule]]`` array-of-tables entries; JSON files
    a ``{"rules": [...]}`` object.  Unknown keys, duplicate names, and
    invalid field values raise :class:`ValidationError` with the file
    named, so ``repro alerts --check`` gives actionable errors.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read alert rules {path}: {exc}") from exc
    try:
        if path.suffix.lower() == ".json":
            payload = json.loads(text)
        else:
            payload = _load_toml(text)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, Mapping):
        raise ValidationError(f"{path}: top level must be a table/object")
    raw_rules = payload.get("rules", payload.get("rule", []))
    if not isinstance(raw_rules, list):
        raise ValidationError(f"{path}: 'rules' must be an array")
    rules: List[AlertRule] = []
    for index, raw in enumerate(raw_rules):
        if not isinstance(raw, Mapping):
            raise ValidationError(f"{path}: rule #{index + 1} must be a table")
        unknown = set(raw) - _RULE_FIELDS
        if unknown:
            raise ValidationError(
                f"{path}: rule #{index + 1} has unknown keys {sorted(unknown)}"
            )
        try:
            rules.append(AlertRule(**dict(raw)))
        except (TypeError, ValidationError) as exc:
            raise ValidationError(f"{path}: rule #{index + 1}: {exc}") from exc
    names = [rule.name for rule in rules]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        raise ValidationError(
            f"{path}: duplicate rule names {sorted(duplicates)}"
        )
    return rules


def _load_toml(text: str) -> Dict[str, object]:
    """Parse TOML via the stdlib when present, else the mini parser.

    ``tomllib`` landed in Python 3.11; on 3.9/3.10 (still supported by
    this package, no third-party deps allowed) rule files fall back to
    :func:`_parse_mini_toml`, which covers the subset the rule grammar
    needs: ``[[rule]]`` array-of-tables with scalar assignments.
    """
    try:
        import tomllib
    except ImportError:
        return _parse_mini_toml(text)
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ValidationError(f"invalid TOML: {exc}") from exc


def _parse_mini_toml(text: str) -> Dict[str, object]:
    """A minimal TOML subset parser for alert-rule files.

    Supports comments, ``[[name]]`` array-of-tables headers, and
    ``key = value`` with basic-string, integer, float, and boolean
    values -- exactly the grammar :func:`load_rules` documents.
    """
    payload: Dict[str, object] = {}
    current: Optional[Dict[str, object]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[[") and line.endswith("]]"):
            table_name = line[2:-2].strip()
            if not table_name:
                raise ValidationError(f"line {lineno}: empty table name")
            current = {}
            payload.setdefault(table_name, []).append(current)
            continue
        if "=" not in line or current is None:
            raise ValidationError(
                f"line {lineno}: expected 'key = value' inside [[rule]]"
            )
        key, _, value = line.partition("=")
        current[key.strip()] = _mini_toml_value(value.strip(), lineno)
    return payload


def _mini_toml_value(token: str, lineno: int) -> object:
    """One scalar TOML value (string, bool, int, or float)."""
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise ValidationError(
            f"line {lineno}: unsupported value {token!r}"
        ) from None
