"""Alert-rule hygiene: every rule's metric must exist in the catalog.

An alert rule that watches a metric nothing emits can never fire -- a
silent monitoring gap, which is exactly the failure mode declarative
alerting was supposed to remove.  This rule loads every committed
alert-rule file (TOML/JSON, see :mod:`repro.obs.alerts`) and checks
each rule's ``metric`` against the same markdown catalog the
metric-parity rules use.  A metric may also name a *derived* series
(``<histogram>.count`` / ``.mean`` / ``.p50`` / ``.p90`` / ``.max``,
see :data:`repro.obs.series.HISTOGRAM_SERIES_SUFFIXES`); those resolve
by stripping the suffix and matching a catalogued histogram.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Sequence

from repro.errors import ValidationError
from repro.lint.catalog import CatalogEntry, globs_intersect, parse_catalog
from repro.lint.core import Finding, Rule
from repro.obs.alerts import load_rules
from repro.obs.series import HISTOGRAM_SERIES_SUFFIXES

__all__ = ["AlertRuleMetricRule"]


def _metric_catalogued(metric: str, entries: Sequence[CatalogEntry]) -> bool:
    """Whether an alert rule's metric resolves to a catalog entry."""
    if any(globs_intersect(metric, entry.glob) for entry in entries):
        return True
    for suffix in HISTOGRAM_SERIES_SUFFIXES:
        if not metric.endswith(suffix):
            continue
        base = metric[: -len(suffix)]
        if any(
            globs_intersect(base, entry.glob)
            for entry in entries
            if entry.kind == "histogram"
        ):
            return True
    return False


def _metric_line(text: str, metric: str) -> int:
    """First line mentioning ``metric`` (1 when not found)."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if metric in line:
            return lineno
    return 1


class AlertRuleMetricRule(Rule):
    """Committed alert-rule files only reference catalogued metrics."""

    id = "alert-unknown-metric"
    summary = "alert rules watch metrics the catalog knows about"

    def __init__(
        self,
        catalog_paths: Sequence[str],
        alert_rule_paths: Sequence[str] = (),
    ) -> None:
        self.catalog_paths = list(catalog_paths)
        self.alert_rule_paths = list(alert_rule_paths)

    def check(self, program, modules) -> Iterable[Finding]:
        if not self.alert_rule_paths:
            return []
        entries = parse_catalog(self.catalog_paths)
        if not entries:
            # No catalog on disk (partial tree): parity is unjudgeable.
            return []
        findings: List[Finding] = []
        for raw in self.alert_rule_paths:
            path = Path(raw)
            rel = path.as_posix()
            try:
                rules = load_rules(path)
            except ValidationError as exc:
                findings.append(
                    Finding(
                        path=rel,
                        line=1,
                        column=0,
                        rule=self.id,
                        message=f"cannot load alert rules: {exc}",
                        symbol=rel,
                    )
                )
                continue
            text = path.read_text(encoding="utf-8")
            for rule in rules:
                if _metric_catalogued(rule.metric, entries):
                    continue
                findings.append(
                    Finding(
                        path=rel,
                        line=_metric_line(text, rule.metric),
                        column=0,
                        rule=self.id,
                        message=(
                            f"alert rule {rule.name!r} watches metric "
                            f"{rule.metric!r}, which no catalog entry "
                            f"covers (it can never fire)"
                        ),
                        symbol=f"{rule.name}:{rule.metric}",
                    )
                )
        return findings
