"""Content-addressed memoization of MP evaluations.

Every :class:`~repro.exec.tasks.EvalTask` has a stable fingerprint
(:func:`~repro.exec.hashing.stable_fingerprint`), so an evaluation's
result can be reused whenever the *same logical work* comes up again:
the Procedure 2 optimizer re-probing an overlapping subarea centre, a
sensitivity sweep re-running with one threshold changed, or a benchmark
repeated across processes.

Two layers:

- **in-memory** -- a plain dict, always on;
- **on-disk** (optional) -- one pickle file per entry named by the
  fingerprint, so a ``cache_dir`` shared between runs (or between the
  pool's workers and the parent) turns repeated sweeps into reads.

Writes go through a temp file + :func:`os.replace` so concurrent
writers (pool workers, parallel benches) can never leave a torn entry.
Each file holds the envelope ``(CACHE_SCHEMA_VERSION, key, value)``; a
read trusts it only when the envelope, the embedded key and the value's
type all check out.  Anything else -- a torn or foreign pickle, an entry
copied under another fingerprint, a value of the wrong type -- counts as
``exec.cache.corrupt`` and is a miss: the value is recomputed and
overwritten, never returned.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Any, Optional, Tuple

from repro.obs.logging_setup import get_logger
from repro.obs.registry import get_registry

__all__ = ["MPCache", "CACHE_SCHEMA_VERSION"]

logger = get_logger(__name__)

#: Version of the on-disk envelope; bump when its layout changes.
CACHE_SCHEMA_VERSION = 1


class MPCache:
    """In-memory + optional on-disk store keyed by task fingerprints.

    Parameters
    ----------
    cache_dir:
        Directory for persistent entries (created if missing); ``None``
        keeps the cache purely in-memory.

    Hit/miss counters go to the registry active at call time.
    """

    def __init__(
        self,
        cache_dir: Optional[os.PathLike] = None,
    ) -> None:
        self._memory: dict = {}
        self._dir: Optional[Path] = None
        self._warned_corrupt = False
        if cache_dir is not None:
            self._dir = Path(cache_dir)
            self._dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #

    @property
    def cache_dir(self) -> Optional[Path]:
        """The persistence directory, or ``None`` for memory-only."""
        return self._dir

    def __len__(self) -> int:
        return len(self._memory)

    def _path(self, key: str) -> Path:
        assert self._dir is not None
        return self._dir / f"{key}.pkl"

    # ------------------------------------------------------------------ #

    def get(self, key: str, value_type: type = object) -> Tuple[bool, Any]:
        """``(hit, value)`` for ``key``; counts the outcome in metrics.

        A disk entry is a hit only if it is a valid envelope for ``key``
        holding an instance of ``value_type``.
        """
        if key in self._memory:
            get_registry().inc("exec.cache.hits")
            return True, self._memory[key]
        if self._dir is not None:
            found, value = self._read(key, value_type)
            if found:
                self._memory[key] = value
                get_registry().inc("exec.cache.hits")
                get_registry().inc("exec.cache.disk_hits")
                return True, value
        get_registry().inc("exec.cache.misses")
        return False, None

    def _read(self, key: str, value_type: type) -> Tuple[bool, Any]:
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return False, None  # never persisted: an ordinary miss
        except Exception:  # noqa: BLE001 - a damaged pickle can raise anything
            payload = None
        valid = (
            type(payload) is tuple
            and len(payload) == 3
            and type(payload[0]) is int
            and payload[0] == CACHE_SCHEMA_VERSION
            and type(payload[1]) is str
            and payload[1] == key
            and isinstance(payload[2], value_type)
        )
        if valid:
            return True, payload[2]
        # The entry exists but cannot be trusted: disk rot, a torn write
        # from a crashed process, a stale pickle from an incompatible
        # version, or a file copied under the wrong name.  Still a miss
        # (the value is recomputed and overwritten), but one worth seeing.
        get_registry().inc("exec.cache.corrupt")
        if not self._warned_corrupt:
            self._warned_corrupt = True
            logger.warning(
                "cache_dir=%s entry=%s unreadable; treating as a miss "
                "(further corrupt entries counted in exec.cache.corrupt "
                "without logging)",
                self._dir,
                path.name,
            )
        return False, None

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (memory, plus disk when enabled)."""
        self._memory[key] = value
        get_registry().inc("exec.cache.puts")
        if self._dir is None:
            return
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(
                    (CACHE_SCHEMA_VERSION, key, value),
                    handle,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            os.replace(tmp, path)
        except OSError:
            # Persistence is best-effort; the in-memory entry stands.
            get_registry().inc("exec.cache.write_errors")
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def clear_memory(self) -> None:
        """Drop the in-memory layer (disk entries survive)."""
        self._memory.clear()
