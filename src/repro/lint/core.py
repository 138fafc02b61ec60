"""The invariant checker's core: rules, findings, runner.

The repo's headline guarantee -- bit-identical results and telemetry
across serial, chunked, and multi-process runs -- rests on coding
invariants (seed plumbing, pickle-safe task payloads, catalogued metric
names, clock hygiene, ordered iteration on fingerprint inputs) that
ordinary linters cannot see.  This module provides the machinery those
repo-specific rules plug into:

- :class:`Finding` -- one violation, with a stable ``baseline_key`` so a
  committed baseline file can grandfather accepted findings without
  pinning line numbers;
- :class:`Rule` -- the query contract: every rule reads the linked
  :class:`~repro.lint.graph.Program` and the per-module summaries that
  :func:`~repro.lint.graph.extract_summary` produced, never an AST;
- :class:`Linter` / :func:`run_lint` -- deterministic file walking, one
  cached extraction per changed file, ``# lint: ignore[rule-id]``
  suppression, baseline filtering, and JSON plus human-readable output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.graph import (
    ModuleSource,
    ModuleSummary,
    Program,
    build_program,
    extract_summary,
)
from repro.lint.store import AnalysisStore, content_digest

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "Linter",
    "ModuleSource",
    "Rule",
    "load_baseline",
    "run_lint",
]

JSON_SCHEMA_VERSION = 1


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    column: int
    rule: str
    message: str
    #: A short stable identifier for *what* was flagged (a metric name, a
    #: function name, a call expression) -- the line-independent part of
    #: the baseline key, so unrelated edits don't churn the baseline.
    symbol: str = ""
    #: Extra lines where a suppression pragma also counts -- decorator
    #: lines above a flagged def, or the continuation lines of a
    #: multiline call.  Excluded from ordering, JSON, and the baseline.
    extra_lines: Tuple[int, ...] = field(default=(), compare=False)

    @property
    def baseline_key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.symbol)

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "symbol": self.symbol,
        }

    def to_text(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.rule}: {self.message}"


class Rule:
    """Base class for one lint rule (or one tightly-related family)."""

    #: Stable kebab-case identifier used in output, pragmas, and baselines.
    id: str = ""
    #: One-line description shown by ``--list-rules`` and docs.
    summary: str = ""

    def check(
        self, program: Program, modules: Sequence[ModuleSummary]
    ) -> Iterable[Finding]:
        """Findings for one run.

        ``program`` links every linted module; ``modules`` are the
        summaries of the modules in the checked scope.
        """
        return ()

    def at(
        self, path: str, site: Dict, message: str, symbol: str,
        window: Sequence[int] = (),
    ) -> Finding:
        """The finding for one extracted ``site`` (``line``/``col``)."""
        return Finding(
            path=path, line=site["line"], column=site["col"], rule=self.id,
            message=message, symbol=symbol, extra_lines=tuple(window),
        )


@dataclass
class LintConfig:
    """Knobs for one linter run."""

    #: Only run these rule ids (None = all registered rules).
    select: Optional[Set[str]] = None
    #: Never run these rule ids.
    ignore: Set[str] = field(default_factory=set)
    #: Baseline file; findings whose ``baseline_key`` appears there are
    #: reported in counts but do not fail the run.
    baseline_path: Optional[str] = None
    #: Markdown files holding the metric-name catalog tables.
    catalog_paths: Sequence[str] = ()
    #: Alert-rule files (TOML/JSON) whose metrics must be catalogued.
    alert_rule_paths: Sequence[str] = ()
    #: Whether to report catalog entries no code emits (disable when
    #: linting a partial tree, where "nothing emits X" is vacuous).
    stale_check: bool = True
    #: Per-module analysis cache file (None disables persistence; the
    #: in-memory store is still used within the run).
    cache_path: Optional[str] = None
    #: When set, only these paths plus their reverse-dependency closure
    #: over the import graph are checked (``--changed-only`` mode).
    changed_paths: Optional[Sequence[str]] = None


@dataclass
class LintResult:
    """Everything one run produced."""

    findings: List[Finding]
    baseline_findings: List[Finding]
    pragma_suppressed: int
    files_checked: int
    rules: List[str]
    parse_errors: List[Finding]
    #: Analysis stats: which modules were (re-)extracted (``analyzed``),
    #: served from the cache (``cached``), and actually rule-checked this
    #: run (``checked``).
    analysis: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors

    def to_json(self) -> Dict[str, object]:
        return {
            "version": JSON_SCHEMA_VERSION,
            "tool": "repro.lint",
            "files_checked": self.files_checked,
            "rules": list(self.rules),
            "findings": [f.as_dict() for f in self.findings],
            "parse_errors": [f.as_dict() for f in self.parse_errors],
            "suppressed": {
                "pragma": self.pragma_suppressed,
                "baseline": len(self.baseline_findings),
            },
            "analysis": {
                key: list(value) for key, value in self.analysis.items()
            },
            "ok": self.ok,
        }

    def to_text(self) -> str:
        lines = [f.to_text() for f in self.findings + self.parse_errors]
        total = len(self.findings) + len(self.parse_errors)
        lines.append(
            f"repro.lint: {total} finding(s) in {self.files_checked} file(s)"
            f" ({self.pragma_suppressed} pragma-suppressed,"
            f" {len(self.baseline_findings)} baselined)"
        )
        return "\n".join(lines)


def load_baseline(path: str) -> Set[Tuple[str, str, str]]:
    """The set of grandfathered ``baseline_key``\\ s from a baseline file."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = payload.get("entries", [])
    return {
        (str(e["rule"]), str(e["path"]), str(e.get("symbol", "")))
        for e in entries
    }


def baseline_payload(findings: Sequence[Finding]) -> Dict[str, object]:
    """The JSON payload ``--update-baseline`` writes."""
    keys = sorted({f.baseline_key for f in findings})
    return {
        "version": JSON_SCHEMA_VERSION,
        "entries": [
            {"rule": rule, "path": path, "symbol": symbol}
            for rule, path, symbol in keys
        ],
    }


def walk_python_files(paths: Sequence[str]) -> List[Path]:
    """Every ``.py`` file under ``paths``, deterministically ordered."""
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            out.append(path)
    seen: Set[str] = set()
    unique: List[Path] = []
    for path in out:
        key = path.as_posix()
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


class Linter:
    """Runs a battery of rules over a file tree."""

    def __init__(self, rules: Sequence[Rule], config: Optional[LintConfig] = None):
        self.config = config or LintConfig()
        self.rules = [
            rule
            for rule in rules
            if rule.id not in self.config.ignore
            and (self.config.select is None or rule.id in self.config.select)
        ]

    def run(self, paths: Sequence[str]) -> LintResult:
        parse_errors: List[Finding] = []

        def error(rel: str, line: int, message: str) -> None:
            parse_errors.append(Finding(
                path=rel, line=line, column=0, rule="parse-error",
                message=message, symbol=rel,
            ))

        # ---- extraction: one summary per file, parsed only on a miss.
        store = AnalysisStore(
            Path(self.config.cache_path) if self.config.cache_path else None
        )
        order: List[str] = []
        summaries: List[ModuleSummary] = []
        for file_path in walk_python_files(paths):
            rel = file_path.as_posix()
            try:
                text = file_path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                error(rel, 1, f"cannot read file: {exc}")
                continue
            order.append(rel)
            digest = content_digest(text)
            summary = store.get(rel, digest)
            if summary is None:
                try:
                    module = ModuleSource.parse(rel, text)
                except SyntaxError as exc:
                    error(rel, int(getattr(exc, "lineno", 1) or 1),
                          f"cannot parse file: {exc}")
                    continue
                summary = extract_summary(module, digest)
                store.put(summary)
            summaries.append(summary)
        store.prune(order)
        store.save()
        program = build_program(summaries)

        # ---- scope: everything, or the changed set's dependency closure.
        check_list = order
        if self.config.changed_paths is not None:
            wanted = program.reverse_dependency_closure(
                Path(p).as_posix() for p in self.config.changed_paths
            )
            check_list = [rel for rel in order if rel in wanted]
        checked_set = set(check_list)
        checked = [s for s in summaries if s.path in checked_set]

        # ---- queries: rules see the whole program but only report into
        # the checked scope (non-module paths -- catalogs, alert-rule
        # files -- always report).
        raw: List[Finding] = []
        for rule in self.rules:
            for finding in rule.check(program, checked):
                if finding.path in checked_set or finding.path not in program.by_path:
                    raw.append(finding)

        pragma_suppressed = 0
        survivors: List[Finding] = []
        for finding in sorted(raw):
            summary = program.by_path.get(finding.path)
            if summary is not None and summary.suppresses(finding):
                pragma_suppressed += 1
            else:
                survivors.append(finding)

        baseline_keys: Set[Tuple[str, str, str]] = set()
        if self.config.baseline_path and Path(self.config.baseline_path).exists():
            baseline_keys = load_baseline(self.config.baseline_path)
        baselined = [f for f in survivors if f.baseline_key in baseline_keys]
        fresh = [f for f in survivors if f.baseline_key not in baseline_keys]

        return LintResult(
            findings=fresh,
            baseline_findings=baselined,
            pragma_suppressed=pragma_suppressed,
            files_checked=len(check_list),
            rules=[rule.id for rule in self.rules],
            parse_errors=parse_errors,
            analysis={
                "analyzed": sorted(store.misses),
                "cached": sorted(store.hits),
                "checked": list(check_list),
            },
        )


def run_lint(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> LintResult:
    """Convenience wrapper: build the default battery and run it."""
    if rules is None:
        from repro.lint import default_rules

        rules = default_rules(config or LintConfig())
    return Linter(rules, config).run(paths)
