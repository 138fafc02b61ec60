"""Wall-clock hygiene rule.

Fingerprinted code paths (task hashing, MP-cache keys, capsule-merged
telemetry) must be pure functions of their inputs: reading the wall
clock bakes "when did this run" into values that are supposed to replay
bit-identically.  ``time.perf_counter`` / ``perf_counter_ns`` stay legal
(durations are telemetry, never inputs); absolute-time reads are banned
everywhere except explicitly pragma'd sites (the run ledger's record
timestamp is the one sanctioned source in this repo).
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.core import Finding, Rule

__all__ = ["WallClockRule"]


class WallClockRule(Rule):
    id = "wall-clock"
    summary = (
        "no time.time()/datetime.now() outside pragma'd sites: absolute "
        "time in a fingerprinted path breaks bit-identical replay"
    )

    def check(self, program, modules) -> Iterable[Finding]:
        for module in modules:
            for site in module.sites("wallclock"):
                yield self.at(
                    module.path, site,
                    f"{site['name']}() reads the wall clock; use "
                    "perf_counter for durations, or pragma this line "
                    "if it is a sanctioned timestamp source",
                    site["name"],
                )
