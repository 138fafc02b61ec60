"""Committed output references for the default seed.

``references.json`` maps each workload to the digest and ``max_mp`` of
its first pass at the default seed and size, as the program computed
them when the benchmark was defined.  Any other seed or size has no
reference and relies on the pass-to-pass and fresh-recompute checks.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional

PATH = Path(__file__).with_name("references.json")


def load() -> Dict[str, Dict[str, object]]:
    with open(PATH, encoding="utf-8") as handle:
        return json.load(handle)


def lookup(workload: str, seed: int, size: int) -> Optional[Dict[str, object]]:
    """The reference for this workload, seed and size, if one is committed."""
    ref = load().get(workload)
    if ref is None or ref["seed"] != seed or ref["size"] != size:
        return None
    return ref


def matches(ref: Dict[str, object], first_pass) -> bool:
    """Digest equal, and every scheme's ``max_mp`` bit-equal."""
    return ref["digest"] == first_pass.digest and ref["max_mp"] == first_pass.max_mp


def entry(seed: int, size: int, first_pass) -> Dict[str, object]:
    """The reference record for a first pass."""
    return {
        "seed": seed,
        "size": size,
        "digest": first_pass.digest,
        "max_mp": dict(first_pass.max_mp),
    }
