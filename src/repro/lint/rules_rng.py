"""RNG discipline rules.

Bit-identical replay (serial vs chunked vs multi-process, warm vs cold
cache) only holds when *every* random draw descends from a plumbed seed:
``np.random.default_rng()`` with no argument seeds from the OS entropy
pool, and the module-level ``np.random.*`` / ``random.*`` APIs share
hidden global state that depends on import order and call interleaving.
Three rules enforce the discipline:

- ``rng-unseeded``: generator constructors called with no seed;
- ``rng-global-state``: any use of the global-state RNG APIs;
- ``rng-missing-param``: world-building functions (``*_world``,
  ``generate_*``, ``sample_*``) that accept neither an ``rng`` nor a
  ``seed`` parameter, so callers *cannot* plumb determinism through.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.core import Finding, Rule
from repro.lint.graph import seedlike

__all__ = ["RngUnseededRule", "RngGlobalStateRule", "RngMissingParamRule"]


class RngUnseededRule(Rule):
    id = "rng-unseeded"
    summary = (
        "RNG constructors must be seeded: `default_rng()` / `Random()` with "
        "no argument draw from OS entropy and break replay"
    )

    def check(self, program, modules) -> Iterable[Finding]:
        for module in modules:
            for site in module.sites("rng_sites"):
                if site["seeded"]:
                    continue
                yield self.at(
                    module.path, site,
                    f"{site['ctor']}() with no seed draws from OS entropy; "
                    "pass a seed derived from the plumbed root seed",
                    site["ctor"], site["window"],
                )


class RngGlobalStateRule(Rule):
    id = "rng-global-state"
    summary = (
        "the module-level np.random.* / random.* APIs share hidden global "
        "state; use a Generator threaded through the call tree"
    )

    def check(self, program, modules) -> Iterable[Finding]:
        for module in modules:
            for site in module.sites("rng_globals"):
                yield self.at(
                    module.path, site,
                    f"{site['api']}() uses the process-global RNG stream; "
                    "draw from an explicitly seeded np.random.Generator "
                    "instead",
                    site["api"], site["window"],
                )


class RngMissingParamRule(Rule):
    id = "rng-missing-param"
    summary = (
        "functions named *_world / generate_* / sample_* must accept an "
        "rng/seed parameter so determinism can be plumbed through"
    )

    def check(self, program, modules) -> Iterable[Finding]:
        # Methods whose instance took the seed at construction time are
        # still flagged (``self`` alone is not evidence of a seed): carry
        # a pragma if the instance genuinely owns a seeded Generator.  A
        # pragma on a decorator line counts too -- the def line is often
        # mid-signature.
        for module in modules:
            for site in module.sites("builders"):
                if any(seedlike(p, taint=False) for p in site["params"]):
                    continue
                yield self.at(
                    module.path, site,
                    f"'{site['name']}' builds or samples random structure "
                    "but has no rng/seed parameter; callers cannot plumb the "
                    "root seed through it",
                    site["name"], site["decorator_lines"],
                )
