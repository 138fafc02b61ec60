"""Analyzer self-check against the seeded bad-fixture corpus.

``tests/fixtures/lint_corpus`` contains one deliberately-broken module
per interprocedural rule family, and ``expected.json`` pins the exact
``(rule, file, line)`` triples the analyzer must produce over them.
This runner diffs actual against expected in both directions, so CI
catches the analyzer going blind (a fixture no longer flagged) as well
as going noisy (a finding the corpus does not expect) -- on every
supported python version, since AST shapes shift between releases.

Run as ``python -m repro.lint.selfcheck [corpus_dir]``; exit 0 iff the
corpus findings match exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple

from repro.lint import default_rules
from repro.lint.core import LintConfig, Linter

__all__ = ["main", "run_selfcheck"]

DEFAULT_CORPUS = "tests/fixtures/lint_corpus"

#: The families the corpus seeds violations for.  Site rules outside
#: this set are deliberately not run: the corpus pragmas some of them off
#: to isolate the interprocedural finding (see ``wallclock_feed_bad``).
SELECTED_RULES = {
    "rng-taint",
    "worker-state-mutation",
    "pickle-reachability",
    "wallclock-fingerprint",
    "span-escape",
    "pickle-safety",
}


def run_selfcheck(corpus_dir: str = DEFAULT_CORPUS) -> Tuple[bool, List[str]]:
    """(ok, report_lines) for one corpus run."""
    corpus = Path(corpus_dir)
    expected_path = corpus / "expected.json"
    if not expected_path.exists():
        return False, [f"selfcheck: no {expected_path}"]
    payload = json.loads(expected_path.read_text(encoding="utf-8"))
    expected: Set[Tuple[str, str, int]] = {
        (e["rule"], e["file"], int(e["line"])) for e in payload["findings"]
    }

    config = LintConfig(
        select=set(SELECTED_RULES),
        baseline_path=None,
        stale_check=False,
        cache_path=None,
    )
    result = Linter(default_rules(config), config).run([corpus.as_posix()])
    actual: Set[Tuple[str, str, int]] = {
        (f.rule, Path(f.path).name, f.line) for f in result.findings
    }

    lines: List[str] = []
    for triple in sorted(expected - actual):
        lines.append("selfcheck: MISSING expected finding: "
                     f"{triple[1]}:{triple[2]}: {triple[0]}")
    for triple in sorted(actual - expected):
        lines.append("selfcheck: UNEXPECTED finding: "
                     f"{triple[1]}:{triple[2]}: {triple[0]}")
    for finding in result.parse_errors:
        lines.append(f"selfcheck: parse error: {finding.to_text()}")
    ok = not lines
    lines.append(
        f"selfcheck: {len(actual)}/{len(expected)} expected finding(s) "
        f"matched over {result.files_checked} corpus file(s): "
        + ("OK" if ok else "MISMATCH")
    )
    return ok, lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    corpus_dir = args[0] if args else DEFAULT_CORPUS
    ok, lines = run_selfcheck(corpus_dir)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
