"""Interprocedural dataflow rules over the linked call graph.

The site rules read one module's extracted facts at a time; these five
rule families guard the *paths* between functions, using the linked
:class:`repro.lint.graph.Program`:

- ``rng-taint`` -- any RNG constructed on a path reachable from an
  ``EvalTask.run`` override must be seeded from a plumbed seed source
  (a seed-like parameter, a ``derive_seed`` call, or a value derived
  from one), following real reachability: a helper three calls below
  ``run`` that draws from ``default_rng()`` -- or ``default_rng(42)`` --
  breaks replay exactly like one inside the task.
- ``worker-state-mutation`` -- a static race detector for the fork pool:
  nothing reachable from ``_run_task_timed``/``_run_chunk`` may write a
  module-level global or mutate a fork-shared world object, except the
  sanctioned registry sites (``_SHARED``/``_HERMETIC`` in
  ``repro.exec.tasks``) and the telemetry capsule machinery under
  ``repro.obs``.  Such writes are invisible to the parent on fork-exec
  platforms and racy on fork, so results would silently depend on the
  worker schedule.
- ``pickle-reachability`` -- every annotated field of every
  ``EvalTask`` subclass crosses the pool boundary; each must resolve,
  transitively through project dataclasses, to module-level picklable
  definitions.  ``object``/``Any``/``Callable`` annotations and names
  that resolve to nothing are flagged.
- ``wallclock-fingerprint`` / ``span-escape`` -- the hashing API's
  inputs must not depend on the wall clock through *any* call chain,
  and a raw span record returned from a helper must be consumed by a
  ``with`` block at the eventual call site.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.core import Finding, Rule
from repro.lint.graph import Program

__all__ = [
    "PickleReachabilityRule",
    "RngTaintRule",
    "SpanEscapeRule",
    "WallclockFingerprintRule",
    "WorkerStateMutationRule",
]


class RngTaintRule(Rule):
    """Taint-check randomness on every task-reachable path."""

    id = "rng-taint"
    summary = (
        "RNG constructed on an EvalTask.run-reachable path must be seeded "
        "from a plumbed seed (parameter, derive_seed, or derived value)"
    )

    def check(self, program: Program, modules) -> Iterable[Finding]:
        roots: List[str] = []
        for class_id in program.task_classes():
            roots.extend(program.lookup_method(class_id, "run"))
        parents = program.reachable(roots)
        for fn_id in sorted(parents):
            node = program.functions[fn_id]
            for site in node.facts.rng_sites:
                if site.get("suppressed"):
                    continue
                if site["seeded"] and site["tainted"]:
                    continue
                chain = " <- ".join(reversed(program.chain(parents, fn_id)))
                what = (
                    "with no seed argument"
                    if not site["seeded"]
                    else "from a seed not derived from a plumbed seed source"
                )
                ctor = site["ctor"].rsplit(".", 1)[-1]
                yield Finding(
                    path=node.path,
                    line=site["line"],
                    column=site["col"],
                    rule=self.id,
                    message=(
                        f"`{ctor}(...)` constructed {what} on a task-reachable "
                        f"path ({chain}); replay from the task fingerprint "
                        "requires every draw to derive from the task seed"
                    ),
                    symbol=f"{node.display}:{site['ctor']}",
                )


#: Module-global names the worker is *meant* to touch: the fork-shared
#: context registry and the hermetic-scheme toggle.
_SANCTIONED_GLOBALS: Set[Tuple[str, str]] = {
    ("repro.exec.tasks", "_SHARED"),
    ("repro.exec.tasks", "_HERMETIC"),
}


class WorkerStateMutationRule(Rule):
    """Static race detector for the process-pool worker closure."""

    id = "worker-state-mutation"
    summary = (
        "functions reachable from the pool workers must not write module "
        "globals or fork-shared world state outside sanctioned sites"
    )

    _ROOTS = ("_run_task_timed", "_run_chunk")

    def _sanctioned(self, module: str, name: str) -> bool:
        base = name.split(".")[0]
        if (module, base) in _SANCTIONED_GLOBALS:
            return True
        # Writes routed through the telemetry layer (capsule merge,
        # registry emit) are the sanctioned sink for worker-side state.
        if name.startswith("repro.obs.") or base.startswith("repro.obs"):
            return True
        if name.split(".")[0] in {
            dotted.split(".")[0]
            for mod, dotted in _SANCTIONED_GLOBALS
            if mod == module
        }:
            return True
        return False

    def check(self, program: Program, modules) -> Iterable[Finding]:
        roots: List[str] = []
        for name in self._ROOTS:
            roots.extend(program.find_functions(name))
        parents = program.reachable(roots)
        for fn_id in sorted(parents):
            node = program.functions[fn_id]
            if node.module == "repro.obs" or node.module.startswith("repro.obs."):
                continue
            chain = " <- ".join(reversed(program.chain(parents, fn_id)))
            for write in node.facts.global_writes:
                if self._sanctioned(node.module, write["name"]):
                    continue
                yield Finding(
                    path=node.path,
                    line=write["line"],
                    column=write["col"],
                    rule=self.id,
                    message=(
                        f"write to module-level `{write['name']}` on a "
                        f"worker-reachable path ({chain}); worker-side "
                        "global mutations are lost on fork-exec and race "
                        "under fork"
                    ),
                    symbol=f"{node.display}:{write['name']}",
                )
            for write in node.facts.shared_writes:
                yield Finding(
                    path=node.path,
                    line=write["line"],
                    column=write["col"],
                    rule=self.id,
                    message=(
                        f"mutation of fork-shared object `{write['name']}` "
                        f"on a worker-reachable path ({chain}); shared world "
                        "state must stay read-only inside workers"
                    ),
                    symbol=f"{node.display}:{write['name']}",
                )


#: Annotation names that always pickle (builtins, typing containers).
_PICKLABLE_NAMES: Set[str] = {
    "int", "float", "str", "bytes", "bool", "complex", "None",
    "tuple", "list", "dict", "set", "frozenset", "type",
    "Tuple", "List", "Dict", "Set", "FrozenSet", "Optional", "Union",
    "Sequence", "Mapping", "Iterable", "Literal", "ClassVar",
}

#: Annotation names that defeat the static pickle check outright.
_OPAQUE_NAMES: Set[str] = {"object", "Any", "Callable", "callable"}


class PickleReachabilityRule(Rule):
    """Transitive pickle-safety of everything crossing the pool boundary."""

    id = "pickle-reachability"
    summary = (
        "EvalTask field annotations must transitively resolve to "
        "module-level picklable definitions"
    )

    _DEPTH_CAP = 4

    def check(self, program: Program, modules) -> Iterable[Finding]:
        for class_id in program.task_classes():
            module = program.class_module(class_id)
            summary = program.modules[module]
            cfacts = program.classes[class_id]
            for field_name, info in sorted(cfacts.fields.items()):
                for problem in self._vet(
                    program, module, info["types"], set(), 0
                ):
                    yield Finding(
                        path=summary.path,
                        line=info["line"],
                        column=0,
                        rule=self.id,
                        message=(
                            f"field `{cfacts.name}.{field_name}: "
                            f"{info['annotation']}` crosses the pool "
                            f"boundary but {problem}"
                        ),
                        symbol=f"{cfacts.name}.{field_name}",
                    )

    def _vet(
        self,
        program: Program,
        module: str,
        types: List[List],
        seen: Set[str],
        depth: int,
    ) -> List[str]:
        """Problem descriptions for one annotation's type names."""
        problems: List[str] = []
        for name, dotted in types:
            problems.extend(
                self._vet_name(program, module, name, dotted, seen, depth)
            )
        return problems

    def _vet_name(
        self,
        program: Program,
        module: str,
        name: str,
        dotted: Optional[str],
        seen: Set[str],
        depth: int,
    ) -> List[str]:
        if name in _OPAQUE_NAMES:
            return [
                f"`{name}` gives the pool boundary no picklable shape -- "
                "annotate the concrete (module-level) type"
            ]
        if name in _PICKLABLE_NAMES or name == "...":
            return []
        if dotted is not None and (
            dotted.startswith("numpy.") or dotted == "numpy"
        ):
            return []  # numpy scalars/arrays pickle fine
        if dotted is not None and dotted.startswith("typing."):
            tail = dotted.rsplit(".", 1)[-1]
            if tail in _OPAQUE_NAMES:
                return [
                    f"`{tail}` gives the pool boundary no picklable shape"
                ]
            return []
        # A project class?  (Local, imported, or unique by simple name.)
        class_id = None
        if dotted is not None:
            class_id = program.resolve_class_spec(["dotted", dotted], module)
        if class_id is None:
            class_id = program.resolve_class_spec(["local", name], module)
        if class_id is None:
            return [
                f"`{name}` does not resolve to a module-level definition "
                "visible to the analyzer"
            ]
        if class_id in seen or depth >= self._DEPTH_CAP:
            return []
        seen.add(class_id)
        cfacts = program.classes[class_id]
        problems: List[str] = []
        if cfacts.is_dataclass:
            inner_module = program.class_module(class_id)
            for info in cfacts.fields.values():
                problems.extend(
                    self._vet(
                        program, inner_module, info["types"], seen, depth + 1
                    )
                )
        return problems


class WallclockFingerprintRule(Rule):
    """No wall-clock dependence anywhere in a fingerprint's input."""

    id = "wallclock-fingerprint"
    summary = (
        "inputs to derive_seed/stable_fingerprint/canonical_bytes must not "
        "reach a wall-clock read through any call chain"
    )

    def check(self, program: Program, modules) -> Iterable[Finding]:
        for fn_id in sorted(program.functions):
            node = program.functions[fn_id]
            for feed in node.facts.hash_feeds:
                roots: List[str] = []
                for target in feed["targets"]:
                    roots.extend(program.resolve_spec(target, node.module))
                parents = program.reachable(roots)
                finding = self._first_dirty(program, parents, node, feed)
                if finding is not None:
                    yield finding

    def _first_dirty(
        self,
        program: Program,
        parents: Dict[str, Optional[str]],
        node,
        feed: Dict,
    ) -> Optional[Finding]:
        for fn_id in sorted(parents):
            callee = program.functions[fn_id]
            for clock in callee.facts.wallclock:
                if clock.get("suppressed"):
                    continue
                chain = " -> ".join(program.chain(parents, fn_id))
                return Finding(
                    path=node.path,
                    line=feed["line"],
                    column=feed["col"],
                    rule=self.id,
                    message=(
                        f"`{feed['api']}(...)` input calls {chain}, which "
                        f"reads `{clock['name']}` at {callee.path}:"
                        f"{clock['line']}; fingerprints and derived seeds "
                        "must be wall-clock independent"
                    ),
                    symbol=f"{node.display}:{feed['api']}",
                )
        return None


class SpanEscapeRule(Rule):
    """Raw span records returned from helpers must land in a ``with``."""

    id = "span-escape"
    summary = (
        "a call to a helper that returns an open span context must be "
        "consumed by a `with` block at the call site"
    )

    def check(self, program: Program, modules) -> Iterable[Finding]:
        returning = self._span_returning(program)
        for fn_id in sorted(program.functions):
            node = program.functions[fn_id]
            if node.module == "repro.obs" or node.module.startswith("repro.obs."):
                continue
            if fn_id in returning:
                # Wrappers pass the open span through; their callers are
                # the ones on the hook.
                continue
            for call in node.facts.calls:
                if call.in_with:
                    continue
                targets = program.resolve_spec(call.target, node.module)
                if not targets or not all(t in returning for t in targets):
                    continue
                callee = program.functions[targets[0]].display
                yield Finding(
                    path=node.path,
                    line=call.line,
                    column=call.col,
                    rule=self.id,
                    message=(
                        f"`{callee}` returns an open span context but the "
                        "call site does not enter it with `with`; the span "
                        "never closes and telemetry nesting breaks"
                    ),
                    symbol=f"{node.display}:{callee}",
                )

    @staticmethod
    def _span_returning(program: Program) -> Set[str]:
        returning = {
            fn_id
            for fn_id, node in program.functions.items()
            if node.facts.returns_span
        }
        changed = True
        while changed:
            changed = False
            for fn_id, node in program.functions.items():
                if fn_id in returning:
                    continue
                for spec in node.facts.return_targets:
                    resolved = program.resolve_spec(spec, node.module)
                    if resolved and any(t in returning for t in resolved):
                        returning.add(fn_id)
                        changed = True
                        break
        return returning
