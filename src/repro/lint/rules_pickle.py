"""Pickle-safety rule for execution-engine payloads.

Every :class:`~repro.exec.tasks.EvalTask` must cross a process boundary
(``ProcessPoolExecutor`` pickles task lists into workers) and land in
the content-addressed MP cache (pickled to disk).  Lambdas, closures
over local state, and locally-defined classes pickle either not at all
or by *reference to a qualname that does not exist in the worker* --
the failure shows up only when ``--workers`` goes above 0, long after
the code merged.  This rule flags those payloads at the call site:
arguments to ``*Task(...)`` constructors and to ``.map(...)`` on a
parallel evaluator / pool / executor.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Set

from repro.lint.core import Finding, Rule

__all__ = ["PickleSafetyRule"]

#: Receiver names whose ``.map(...)`` dispatches across processes (names
#: bound from a pool type join them per module).
_POOL_RECEIVERS = {"evaluator", "pool", "executor"}


def _hazard(candidates: Sequence[Sequence[str]], local_defs: Set[str]) -> Optional[str]:
    """The first unpicklable payload candidate, described; None if none."""
    for kind, name in candidates:
        if kind == "lambda":
            return "a lambda"
        if kind == "partial-lambda":
            return "a functools.partial wrapping a lambda"
        if name in local_defs:
            if kind == "local":
                return f"locally-defined '{name}'"
            return f"a functools.partial wrapping locally-defined '{name}'"
    return None


class PickleSafetyRule(Rule):
    id = "pickle-safety"
    summary = (
        "no lambdas, closures, or locally-defined classes in EvalTask "
        "fields or ParallelEvaluator.map payloads -- they cannot pickle "
        "into pool workers or the MP cache"
    )

    def check(self, program, modules) -> Iterable[Finding]:
        for module in modules:
            pools = _POOL_RECEIVERS.union(module.pool_names)
            local_defs = set(module.local_defs)
            for site in module.sites("payloads"):
                if site["receiver"] is not None and site["receiver"] not in pools:
                    continue
                bad = _hazard(site["candidates"], local_defs)
                if bad is None:
                    continue
                # The pragma may sit anywhere on the enclosing call -- its
                # first line, the flagged argument, or the closing line.
                yield self.at(
                    module.path, site,
                    f"{bad} passed into {site['sink']} will not pickle "
                    "across the process boundary; use a module-level "
                    "function or a frozen dataclass field instead",
                    f"{site['sink']}:{bad}", site["window"],
                )
