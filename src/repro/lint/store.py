"""Content-hash keyed cache for per-module analysis summaries.

Extraction (:func:`repro.lint.graph.extract_summary`) is a pure
function of a file's text and of the extraction code, so its result can
be reused across runs as long as neither has changed.  The store keeps
one JSON file (``.repro-lint-cache.json`` by default) mapping each
analyzed path to its content digest and serialized
:class:`~repro.lint.graph.ModuleSummary`;
a warm run re-extracts only the modules whose digest moved and loads the
rest straight from disk, which is what keeps ``--changed-only`` and the
CI cache cheap.

The file is keyed by :data:`repro.lint.graph.EXTRACTOR_DIGEST`, a digest
of the extraction code itself: a cache written by any other version of
that code -- including one restored across commits in CI -- is
discarded whole rather than read as current facts.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional

from repro.lint.graph import EXTRACTOR_DIGEST, ModuleSummary, module_name_for

__all__ = ["AnalysisStore", "content_digest"]


def content_digest(text: str) -> str:
    """Stable digest of one module's source text."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


class AnalysisStore:
    """Digest-keyed summary cache with atomic persistence."""

    def __init__(self, path: Optional[Path] = None) -> None:
        self.path = path
        self.entries: Dict[str, Dict] = {}
        #: Paths whose summaries were served from cache this run.
        self.hits: list = []
        #: Paths that had to be (re-)extracted this run.
        self.misses: list = []
        if path is not None and path.exists():
            self._load(path)

    def _load(self, path: Path) -> None:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return
        if not isinstance(payload, dict):
            return
        if payload.get("extractor") != EXTRACTOR_DIGEST:
            return
        entries = payload.get("entries")
        if isinstance(entries, dict):
            self.entries = entries

    def get(self, path: str, digest: str) -> Optional[ModuleSummary]:
        """The cached summary for ``path`` iff its digest still matches.

        The dotted module name is not part of the text: it comes from the
        ``__init__.py`` files around ``path``, so an entry whose name no
        longer matches the package layout is stale too.
        """
        entry = self.entries.get(path)
        if not entry or entry.get("digest") != digest:
            return None
        try:
            summary = ModuleSummary.from_dict(entry["summary"])
        except (KeyError, TypeError, ValueError):
            return None
        if summary.module != module_name_for(Path(path)):
            return None
        self.hits.append(path)
        return summary

    def put(self, summary: ModuleSummary) -> None:
        self.entries[summary.path] = {
            "digest": summary.digest,
            "summary": summary.to_dict(),
        }
        self.misses.append(summary.path)

    def prune(self, keep_paths) -> None:
        """Drop entries for files that no longer exist in the check set."""
        keep = set(keep_paths)
        self.entries = {p: e for p, e in self.entries.items() if p in keep}

    def save(self) -> None:
        """Atomically persist the store (no-op without a backing path)."""
        if self.path is None:
            return
        payload = {"extractor": EXTRACTOR_DIGEST, "entries": self.entries}
        text = json.dumps(payload, sort_keys=True)
        directory = self.path.parent
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(directory), prefix=self.path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, self.path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
