"""Metric-catalog parity and span-balance rules.

The metric-name tables in ``docs/API.md`` / ``docs/OBSERVABILITY.md``
are the contract dashboards and the run-ledger regression checker build
on.  Drift in either direction is a failure:

- ``metric-uncataloged``: code emits a ``quality.*`` / ``exec.*`` / ...
  name the catalog does not know -- the new series would be invisible to
  docs and to ``runs check`` reviewers;
- ``metric-stale``: the catalog promises a name nothing emits -- readers
  chase telemetry that does not exist.

Emissions are every string literal (or f-string pattern) extraction
found passed to ``counter( / gauge( / histogram( / inc( / observe( /
set_gauge(`` and to ``span(``; f-string holes become wildcards and
parity is decided by pattern intersection (see
:mod:`repro.lint.catalog`).

``span-balance`` rides along: spans must be opened via ``with span(...)``
so the per-thread stack always unwinds -- a bare ``span(...)`` call (or
manual ``record_span`` / span-stack plumbing outside ``repro.obs``)
leaves the stack unbalanced and corrupts every enclosing span path.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.lint.catalog import (
    CatalogEntry,
    catalog_matches,
    globs_intersect,
    parse_catalog,
)
from repro.lint.core import Finding, Rule

__all__ = ["MetricCatalogRule", "MetricStaleRule", "SpanBalanceRule"]


class _CatalogMixin:
    def __init__(self, catalog_paths: Sequence[str]) -> None:
        self.catalog_paths = list(catalog_paths)
        self._entries: Optional[List[CatalogEntry]] = None

    @property
    def entries(self) -> List[CatalogEntry]:
        if self._entries is None:
            self._entries = parse_catalog(self.catalog_paths)
        return self._entries


class MetricCatalogRule(_CatalogMixin, Rule):
    id = "metric-uncataloged"
    summary = (
        "every emitted metric name must appear in the docs metric catalog "
        "(docs/API.md / docs/OBSERVABILITY.md)"
    )

    def check(self, program, modules) -> Iterable[Finding]:
        if not self.entries:
            return
        target = self.catalog_paths[0] if self.catalog_paths else "the docs"
        for module in modules:
            for site in module.sites("emissions"):
                if catalog_matches(site["glob"], self.entries):
                    continue
                yield self.at(
                    module.path, site,
                    f"metric '{site['display']}' is not in the catalog; "
                    f"add it to {target} or rename it to a catalogued "
                    "pattern",
                    site["display"],
                )


class MetricStaleRule(_CatalogMixin, Rule):
    id = "metric-stale"
    summary = (
        "every catalogued metric name must still be emitted somewhere in "
        "the linted tree (stale docs mislead dashboards)"
    )

    def check(self, program, modules) -> Iterable[Finding]:
        emitted = [e["glob"] for m in modules for e in m.sites("emissions")]
        for entry in self.entries:
            if any(globs_intersect(entry.glob, glob) for glob in emitted):
                continue
            yield Finding(
                path=entry.path,
                line=entry.line,
                column=0,
                rule=self.id,
                message=(
                    f"catalogued metric '{entry.name}' is never emitted "
                    "by the linted code; delete the row or restore the "
                    "emission"
                ),
                symbol=entry.name,
            )


class SpanBalanceRule(Rule):
    id = "span-balance"
    summary = (
        "spans open only via 'with span(...)'; bare span() calls or manual "
        "record_span/stack plumbing outside repro.obs unbalance the "
        "per-thread span stack"
    )

    def check(self, program, modules) -> Iterable[Finding]:
        for module in modules:
            in_obs = "/obs/" in module.path
            for site in module.sites("spans"):
                if site["name"] != "span":
                    if not in_obs:
                        yield self.at(
                            module.path, site,
                            f"manual {site['name']}() outside repro.obs "
                            "bypasses the span context manager; open spans "
                            "with 'with span(...)'",
                            site["name"],
                        )
                elif not site["in_with"]:
                    yield self.at(
                        module.path, site,
                        "span(...) must be the context of a 'with' "
                        "statement; a bare call never closes and corrupts "
                        "the span stack",
                        "span",
                    )
