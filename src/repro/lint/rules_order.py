"""Unordered-iteration hygiene in fingerprint-reachable code.

:mod:`repro.exec.hashing` canonicalises task descriptions into BLAKE2b
digests that serve as cache keys, derived RNG seeds, and the ledger's
workload fingerprint.  Any code on a path into those digests that
iterates a ``set`` (or ``dict.keys()`` of a dict whose insertion order
is not itself deterministic) in construction order injects
process-salted hash ordering into a value that must be stable across
interpreter launches.  Inside modules that touch the hashing API (or
live in ``repro/exec/``), iteration over ``set(...)`` / set literals /
``.keys()`` must go through ``sorted(...)``; extraction records those
iteration sites for exactly these modules.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.core import Finding, Rule

__all__ = ["UnorderedIterRule"]


class UnorderedIterRule(Rule):
    id = "unordered-iter"
    summary = (
        "code reachable from exec/hashing must not iterate sets or "
        ".keys() without sorted(...): hash order is process-salted and "
        "poisons fingerprints"
    )

    def check(self, program, modules) -> Iterable[Finding]:
        for module in modules:
            for site in module.sites("unordered_iters"):
                yield self.at(
                    module.path, site,
                    f"iterating {site['source']} in fingerprint-reachable "
                    "code follows process-salted hash order; wrap the "
                    "iterable in sorted(...)",
                    site["source"],
                )
