"""The invariant checker's one analysis pass, and the project call graph.

Every rule in :mod:`repro.lint` is a query over what this module
extracts; no rule walks an AST.  It provides:

- :func:`extract_summary` distils one parsed module, in one pass over
  its AST, into a JSON-serializable :class:`ModuleSummary`: its
  functions and classes, every call site (with a symbolic target),
  RNG-construction sites with seed-taint verdicts, global-RNG API calls,
  module-global and fork-shared writes, wall-clock reads, span and
  metric-emission sites, pickled payloads, unordered iteration near the
  hashing helpers, world-builder signatures, and the module's pragma
  map.  Module-level code (class bodies, decorators and defaults
  included) is one more scope next to the functions.  Summaries are
  pure functions of the file's text and of this module's source, which
  is what makes them cacheable (:mod:`repro.lint.store`).
- :class:`Program` links summaries into a project: imports (including
  package re-exports) are resolved, methods are bound through parameter
  and attribute type hints plus constructor assignments, calls through a
  base-typed receiver conservatively fan out to every subclass override,
  and receiver-less dynamic dispatch falls back to binding only when the
  method name is unique project-wide.
- :meth:`Program.reachable` answers the closure queries the flow rules
  are built on, keeping parent links so findings can show the call
  chain from the root to the violation.

The symbolic call-target encoding (``["dotted", ...]`` / ``["local",
...]`` / ``["self", ...]`` / ``["attr", ...]`` / ``["dyn", ...]``) keeps
extraction local -- a summary never needs another module -- so a single
changed file re-analyzes alone while the rest of the graph loads from
the store.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field, fields
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "CallFact",
    "ClassFacts",
    "EXTRACTOR_DIGEST",
    "FunctionFacts",
    "ImportMap",
    "ModuleSource",
    "ModuleSummary",
    "Program",
    "build_program",
    "extract_summary",
    "module_name_for",
]

#: Digest of this module's source.  Every cached summary was extracted by
#: the code it names, so an edit here discards the whole cache (see
#: :mod:`repro.lint.store`) instead of linting against stale facts.
EXTRACTOR_DIGEST = hashlib.blake2b(
    Path(__file__).read_bytes(), digest_size=16
).hexdigest()

#: RNG constructors that take the seed as their first argument.  With no
#: argument they seed from OS entropy (``rng-unseeded``); on a task path
#: the seed must derive from a plumbed one (``rng-taint``).
_RNG_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "random.Random",
}

#: ``numpy.random`` attributes that build a generator explicitly.  Every
#: other one-level ``numpy.random.*`` / ``random.*`` call (``random.Random``
#: aside) is the process-global RNG API (``rng-global-state``).
_NUMPY_RNG_TYPES = {
    "default_rng",
    "Generator",
    "RandomState",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

#: The fingerprint/seed-derivation API of ``repro.exec.hashing``.
_HASHING_TAILS = {"derive_seed", "stable_fingerprint", "canonical_bytes"}

#: Absolute-time reads; ``perf_counter`` durations stay legal.
_WALLCLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Canonical paths of the span context manager, and the span-stack
#: internals only ``repro.obs`` itself may call.
_SPAN_FUNCS = {"repro.obs.span", "repro.obs.spans.span"}
_SPAN_INTERNALS = {"record_span", "adopt_span"}

#: Registry methods whose first string argument names a metric.
_EMIT_METHODS = {"counter", "gauge", "histogram", "inc", "observe", "set_gauge"}

#: Calls whose arguments are pickled into pool workers: ``*Task(...)``
#: constructors and ``.map`` on a pool.  A name bound from a pool type is
#: a pool receiver.
_TASK_CTOR = re.compile(r"^[A-Z]\w*Task$")
_POOL_TYPES = {"ParallelEvaluator", "ProcessPoolExecutor", "Pool"}

#: Function-name shapes that build or sample random worlds.
_WORLD_PATTERNS = ("*_world", "generate_*", "sample_*")

#: Spellings of a plumbed seed/generator.
_SEED_NAMES = {"rng", "seed", "seeds", "random_state", "generator"}
_SEED_SUFFIXES = ("_rng", "_seed")
_SEED_PREFIXES = ("rng_", "seed_")
#: Taint sources also accept these suffixes; a world builder's parameter
#: (``rng-missing-param``) must use one of the spellings above.
_TAINT_ONLY_SUFFIXES = ("_seed_root", "_generator")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: ``# lint: ignore`` suppresses every rule on that line;
#: ``# lint: ignore[rule-a,rule-b]`` suppresses only the named rules.
_PRAGMA = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Za-z0-9_,\- ]+)\])?")


def seedlike(name: str, taint: bool = True) -> bool:
    """Whether ``name`` spells a plumbed seed/generator.

    ``taint=False`` is the stricter spelling a world builder's parameter
    must use.
    """
    return (
        name in _SEED_NAMES
        or name.endswith(_SEED_SUFFIXES)
        or name.startswith(_SEED_PREFIXES)
        or (taint and name.endswith(_TAINT_ONLY_SUFFIXES))
    )


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, by climbing ``__init__.py`` chains.

    ``src/repro/exec/tasks.py`` maps to ``repro.exec.tasks`` because
    ``repro/`` and ``repro/exec/`` are packages while ``src/`` is not.
    Files outside any package keep their stem, which is what the
    single-file test fixtures rely on.
    """
    parts: List[str] = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) or path.stem


# --------------------------------------------------------------------- #
# Parsed source
# --------------------------------------------------------------------- #


class ImportMap:
    """Resolves local names to canonical dotted module paths.

    Built from a module's ``import``/``from`` statements (at any nesting
    level), so extraction can ask "is this call
    ``numpy.random.default_rng``?" regardless of aliasing (``import numpy
    as np``, ``from numpy.random import default_rng as mk_rng``, ...).
    """

    def __init__(self, tree: ast.AST) -> None:
        self.names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.names[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds ``a`` to module ``a``.
                        top = alias.name.split(".")[0]
                        self.names[top] = top
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.names[bound] = f"{module}.{alias.name}" if module else alias.name

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of a Name/Attribute chain, or None."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.names.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        return self.resolve(call.func)


class ModuleSource:
    """One parsed python file plus the per-line pragma map."""

    def __init__(self, path: str, text: str, tree: ast.Module) -> None:
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.tree = tree
        self.imports = ImportMap(tree)
        #: line -> None (ignore everything) or the set of ignored rule ids.
        self.ignores: Dict[int, Optional[Set[str]]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _PRAGMA.search(line)
            if match is None:
                continue
            if match.group(1) is None:
                self.ignores[lineno] = None
            else:
                ids = {part.strip() for part in match.group(1).split(",")}
                self.ignores[lineno] = {part for part in ids if part}

    @classmethod
    def parse(cls, path: str, text: str) -> "ModuleSource":
        return cls(path, text, ast.parse(text, filename=path))


# --------------------------------------------------------------------- #
# Summary dataclasses
# --------------------------------------------------------------------- #


@dataclass
class CallFact:
    """One call site with a link-time-resolvable symbolic target."""

    line: int
    col: int
    #: ``["dotted", name]`` / ``["local", name]`` / ``["self", cls, m]``
    #: / ``["attr", typespec, m]`` / ``["dyn", m]``.
    target: List
    in_with: bool = False


@dataclass
class FunctionFacts:
    """What the rules need to know about one scope.

    A scope is a top-level function or method (nested defs included) or,
    for :attr:`ModuleSummary.toplevel`, the module-level code outside
    them.  Every site records its ``line`` and ``col``; ``window`` lists
    the further lines where a pragma covers the site's finding.
    """

    name: str  # qualname within the module ("f" or "Cls.f")
    line: int
    end_line: int
    decorator_lines: List[int] = field(default_factory=list)
    params: List[str] = field(default_factory=list)
    calls: List[CallFact] = field(default_factory=list)
    #: ``{line, col, ctor, seeded, tainted, suppressed, window}`` per
    #: RNG-constructor call.
    rng_sites: List[Dict] = field(default_factory=list)
    #: ``{api, line, col, window}`` per global-state RNG API call.
    rng_globals: List[Dict] = field(default_factory=list)
    #: ``{name, line, col, kind}`` with kind ``global`` | ``module-attr``.
    global_writes: List[Dict] = field(default_factory=list)
    #: ``{name, line, col}`` -- attr/subscript stores on ``get_shared_*``
    #: results (fork-shared world objects).
    shared_writes: List[Dict] = field(default_factory=list)
    #: ``{name, line, col, suppressed}`` wall-clock reads.
    wallclock: List[Dict] = field(default_factory=list)
    #: ``{line, col, api, targets}`` -- hashing-API calls and the
    #: symbolic targets of calls nested in their argument expressions.
    hash_feeds: List[Dict] = field(default_factory=list)
    #: ``{name, line, col, in_with}`` per ``span(...)`` call (name
    #: ``span``) and per ``record_span``/``adopt_span`` call.
    spans: List[Dict] = field(default_factory=list)
    #: ``{glob, display, line, col}`` per metric-name emission; f-string
    #: holes are ``*`` in the glob and ``{...}`` in the display.
    emissions: List[Dict] = field(default_factory=list)
    #: ``{sink, receiver, line, col, window, candidates}`` per argument of
    #: a pickled-payload call that holds a lambda, a bare name or a
    #: ``partial(...)``.  ``candidates`` are ``[kind, name]`` pairs in
    #: source order; a ``*local`` one is a hazard only when ``name`` is in
    #: :attr:`ModuleSummary.local_defs`.  A ``.map`` call whose receiver
    #: is a plain name records it as ``receiver``.
    payloads: List[Dict] = field(default_factory=list)
    #: ``{source, line, col}`` per iteration over a set or ``.keys()``,
    #: recorded only in modules that reach the hashing helpers.
    unordered_iters: List[Dict] = field(default_factory=list)
    #: ``{name, line, col, params, decorator_lines}`` per def shaped like
    #: a world builder; ``params`` omits ``*args``/``**kwargs``.
    builders: List[Dict] = field(default_factory=list)
    #: Returns a raw span record (``return span(...)`` or a variable
    #: holding one).
    returns_span: bool = False
    #: Symbolic targets whose return value this function returns --
    #: span-escape propagates through these.
    return_targets: List[List] = field(default_factory=list)

    def to_dict(self) -> Dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["calls"] = [vars(call) for call in self.calls]
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "FunctionFacts":
        return cls(**{**data, "calls": [CallFact(**c) for c in data["calls"]]})


@dataclass
class ClassFacts:
    """One top-level class: bases, annotated fields, methods."""

    name: str
    line: int
    #: Base-class specs: ``["local", name]`` or ``["dotted", name]``.
    bases: List[List] = field(default_factory=list)
    #: ``{field: {"annotation": source, "line": n, "types": [...]}}``
    #: from class-body ``AnnAssign`` (dataclass fields cross the pool
    #: boundary); ``types`` as :func:`_type_names` returns them.
    fields: Dict[str, Dict] = field(default_factory=dict)
    #: ``{attr: typespec}`` from class-level hints and ``self.x = Ctor()``
    #: constructor assignments -- how ``self.x.m()`` binds.
    attr_types: Dict[str, List] = field(default_factory=dict)
    methods: Dict[str, FunctionFacts] = field(default_factory=dict)
    is_dataclass: bool = False

    def to_dict(self) -> Dict:
        return {
            "name": self.name, "line": self.line, "bases": self.bases,
            "fields": self.fields, "attr_types": self.attr_types,
            "methods": {k: m.to_dict() for k, m in self.methods.items()},
            "is_dataclass": self.is_dataclass,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ClassFacts":
        methods = {k: FunctionFacts.from_dict(m) for k, m in data["methods"].items()}
        return cls(**{**data, "methods": methods})


@dataclass
class ModuleSummary:
    """The cacheable whole-module analysis record."""

    path: str
    module: str
    digest: str
    imports: Dict[str, str] = field(default_factory=dict)
    module_names: List[str] = field(default_factory=list)
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)
    classes: Dict[str, ClassFacts] = field(default_factory=dict)
    #: Module-level code: everything outside the bodies of top-level
    #: functions and methods.  Not linked into the call graph.
    toplevel: FunctionFacts = field(
        default_factory=lambda: FunctionFacts(name="<module>", line=1, end_line=1)
    )
    #: Names of functions/classes defined *inside* functions (pickle
    #: hazards when referenced from task payloads).
    local_defs: List[str] = field(default_factory=list)
    #: Names bound from a pool-type constructor (assignment or ``with``).
    pool_names: List[str] = field(default_factory=list)
    #: Pragma map: line -> None (ignore every rule) or the ignored ids.
    ignores: Dict[int, Optional[List[str]]] = field(default_factory=dict)

    def scopes(self) -> Iterator[FunctionFacts]:
        """Every scope of the module: module-level code, functions, methods."""
        yield self.toplevel
        yield from self.functions.values()
        for cls in self.classes.values():
            yield from cls.methods.values()

    def sites(self, kind: str) -> Iterator[Dict]:
        """Every ``kind`` site (a list field of :class:`FunctionFacts`)."""
        for scope in self.scopes():
            yield from getattr(scope, kind)

    def suppresses(self, finding) -> bool:
        """Whether a pragma on any of the finding's lines covers its rule."""
        for line in (finding.line, *finding.extra_lines):
            rules = self.ignores.get(line, ...)
            if rules is ...:
                continue
            if rules is None or finding.rule in rules:
                return True
        return False

    def to_dict(self) -> Dict:
        return {
            "path": self.path, "module": self.module, "digest": self.digest,
            "imports": self.imports, "module_names": self.module_names,
            "functions": {k: f.to_dict() for k, f in self.functions.items()},
            "classes": {k: c.to_dict() for k, c in self.classes.items()},
            "toplevel": self.toplevel.to_dict(),
            "local_defs": self.local_defs,
            "pool_names": self.pool_names,
            "ignores": {str(line): ids for line, ids in self.ignores.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ModuleSummary":
        return cls(**{
            **data,
            "functions": {
                k: FunctionFacts.from_dict(f) for k, f in data["functions"].items()
            },
            "classes": {
                k: ClassFacts.from_dict(c) for k, c in data["classes"].items()
            },
            "toplevel": FunctionFacts.from_dict(data["toplevel"]),
            "ignores": {int(line): ids for line, ids in data["ignores"].items()},
        })


# --------------------------------------------------------------------- #
# Extraction
# --------------------------------------------------------------------- #


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``["base", "a", "b"]`` for a ``base.a.b`` chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return list(reversed(parts))


def _terminal_name(func: ast.AST) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _window(node: ast.AST, cap: int = 12) -> List[int]:
    """Continuation lines of a multiline node.

    A pragma anywhere inside a multiline call (typically on the
    closing-paren line) covers the finding anchored at the call's first
    line; ``cap`` bounds the window so a pathological expression cannot
    blanket a whole file.
    """
    end = getattr(node, "end_lineno", None) or node.lineno
    return list(range(node.lineno + 1, min(end, node.lineno + cap) + 1))


def _global_rng_api(resolved: str) -> bool:
    """Whether a resolved call name is the process-global RNG API."""
    module, _, tail = resolved.rpartition(".")
    if module == "numpy.random":
        return tail not in _NUMPY_RNG_TYPES
    return module == "random" and tail != "Random"


def _literal_glob(node: ast.AST) -> Optional[Tuple[str, str]]:
    """(glob, display) for a Constant-str or JoinedStr node, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, node.value
    if isinstance(node, ast.JoinedStr):
        glob_parts: List[str] = []
        display_parts: List[str] = []
        for part in node.values:
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                glob_parts.append(part.value)
                display_parts.append(part.value)
            else:
                glob_parts.append("*")
                display_parts.append("{...}")
        return "".join(glob_parts), "".join(display_parts)
    return None


def _unordered_source(node: ast.AST) -> Optional[str]:
    """What unordered collection ``node`` iterates, if any."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return f"{node.func.id}(...)"
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
            return ".keys()"
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    return None


def _payload_candidates(value: ast.AST) -> List[List[str]]:
    """Possible pickle hazards in one payload argument, in source order.

    Lambdas always are; bare names are when they name a local def; a
    ``partial(...)`` pickles whatever it wraps; a list/tuple/set literal
    is a payload of its elements.
    """
    out: List[List[str]] = []
    elements = value.elts if isinstance(value, (ast.List, ast.Tuple, ast.Set)) else [value]
    for node in elements:
        if isinstance(node, ast.Lambda):
            out.append(["lambda", ""])
        elif isinstance(node, ast.Name):
            out.append(["local", node.id])
        elif isinstance(node, ast.Call) and _terminal_name(node.func) == "partial":
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Lambda):
                    out.append(["partial-lambda", ""])
                elif isinstance(arg, ast.Name):
                    out.append(["partial-local", arg.id])
    return out


def _reaches_hashing(module: ModuleSource) -> bool:
    """Whether a module is fingerprint-reachable: under ``exec/`` or
    importing the hashing helpers."""
    if "/exec/" in module.path or module.path.endswith("exec/__init__.py"):
        return True
    return any(
        "repro.exec.hashing" in canonical
        or (
            canonical.startswith("repro.")
            and canonical.rsplit(".", 1)[-1] in _HASHING_TAILS
        )
        for canonical in module.imports.names.values()
    )


def _annotation_spec(
    node: Optional[ast.AST], module: ModuleSource
) -> Optional[List]:
    """A symbolic type spec for an annotation expression, if simple."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # Quoted forward reference: parse the string and recurse.
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        # Optional[T] / "T | None" carry the payload type in the slice;
        # for containers the element type does not drive dispatch.
        value = _attr_chain(node.value)
        if value and value[-1] == "Optional":
            return _annotation_spec(node.slice, module)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            spec = _annotation_spec(side, module)
            if spec is not None:
                return spec
        return None
    if isinstance(node, (ast.Name, ast.Attribute)):
        resolved = module.imports.resolve(node)
        if resolved is not None:
            return ["dotted", resolved]
        if isinstance(node, ast.Name):
            return ["local", node.id]
    return None


def _type_names(node: ast.AST, imports: Dict[str, str]) -> List[List]:
    """``[simple_name, resolved_dotted | None]`` per type an annotation names."""
    out: List[List] = []

    def visit(expr: ast.AST) -> None:
        if isinstance(expr, ast.Subscript):
            visit(expr.value)
            visit(expr.slice)
        elif isinstance(expr, ast.Tuple):
            for element in expr.elts:
                visit(element)
        elif isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
            visit(expr.left)
            visit(expr.right)
        elif isinstance(expr, ast.Constant):
            if isinstance(expr.value, str):
                try:
                    visit(ast.parse(expr.value, mode="eval").body)
                except SyntaxError:
                    pass
        elif isinstance(expr, ast.Attribute):
            chain = _attr_chain(expr)
            if chain is not None:
                base = imports.get(chain[0], chain[0])
                out.append([expr.attr, ".".join([base] + chain[1:])])
        elif isinstance(expr, ast.Name):
            out.append([expr.id, imports.get(expr.id)])

    visit(node)
    return out


class _ModuleState:
    """Module-wide facts every scope's extractor reads or adds to."""

    def __init__(self, module: ModuleSource) -> None:
        self.module = module
        self.names = _module_level_names(module.tree)
        self.reaches_hashing = _reaches_hashing(module)
        self.pool_names: Set[str] = set()
        self.local_defs: Set[str] = set()


class _ScopeExtractor:
    """Distils one scope into :class:`FunctionFacts`.

    ``node`` is the function whose body is the scope, or None for
    module-level code, which arrives in pieces through :meth:`walk`.
    """

    def __init__(
        self,
        state: _ModuleState,
        facts: FunctionFacts,
        node: Optional[ast.AST] = None,
        class_name: Optional[str] = None,
    ) -> None:
        self.state = state
        self.module = state.module
        self.facts = facts
        self.node = node
        self.class_name = class_name
        self.var_types: Dict[str, List] = {}
        self.shared_vars: Set[str] = set()
        self.locals: Set[str] = set(facts.params)
        self.tainted: Set[str] = {p for p in facts.params if seedlike(p)}
        self.globals_declared: Set[str] = set()
        self.returned_names: Set[str] = set()
        #: ids of ``with``-item context expressions, and the name a call
        #: is assigned to (``rec = span(...)``).  ``ast.walk`` is
        #: breadth-first, so both are known before the call is seen.
        self.with_ctx: Set[int] = set()
        self.assigned: Dict[int, str] = {}
        if node is not None:
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs:
                spec = _annotation_spec(a.annotation, self.module)
                if spec is not None:
                    self.var_types[a.arg] = spec
            self._prescan()

    # -- helpers ------------------------------------------------------- #

    def target_spec(self, func: ast.AST) -> List:
        """The symbolic call target for a callee expression."""
        if isinstance(func, ast.Name):
            resolved = self.module.imports.names.get(func.id)
            if resolved is not None:
                return ["dotted", resolved]
            return ["local", func.id]
        if isinstance(func, ast.Attribute):
            resolved = self.module.imports.resolve(func)
            if resolved is not None:
                return ["dotted", resolved]
            base = func.value
            if isinstance(base, ast.Name):
                if base.id == "self" and self.class_name is not None:
                    return ["self", self.class_name, func.attr]
                spec = self.var_types.get(base.id)
                if spec is not None:
                    return ["attr", spec, func.attr]
            return ["dyn", func.attr]
        return ["dyn", ""]

    def _expr_tainted(self, node: ast.AST) -> bool:
        """Whether a seed-ish source appears anywhere in ``node``."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in self.tainted or seedlike(sub.id):
                    return True
            elif isinstance(sub, ast.Attribute) and seedlike(sub.attr):
                return True
            elif isinstance(sub, ast.Call):
                resolved = self.module.imports.resolve_call(sub)
                if (
                    resolved is not None
                    and resolved.rsplit(".", 1)[-1] in _HASHING_TAILS
                ):
                    return True
        return False

    def _suppressed(self, line: int, *rule_ids: str) -> bool:
        rules = self.module.ignores.get(line, ...)
        if rules is ...:
            return False
        return rules is None or any(r in rules for r in rule_ids)

    def _is_store_on_module_name(self, target: ast.AST) -> Optional[Tuple[str, str]]:
        """(name, kind) when ``target`` writes through a module-level name."""
        node = target
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        name = node.id
        if node is target:
            # Plain ``name = ...`` only writes a module global under a
            # ``global`` declaration; otherwise it creates a local.
            if name in self.globals_declared:
                return name, "global"
            return None
        if name in self.shared_vars:
            return None  # reported as a shared write, not a global one
        if name in self.locals and name not in self.globals_declared:
            return None
        if name in self.globals_declared or name in self.state.names:
            return name, "module-attr"
        resolved = self.module.imports.names.get(name)
        if resolved is not None:
            chain = _attr_chain(target if isinstance(target, ast.Attribute) else node)
            dotted = ".".join([resolved] + (chain[1:] if chain else []))
            return dotted, "module-attr"
        return None

    # -- the walk ------------------------------------------------------ #

    def run(self) -> FunctionFacts:
        for stmt in self.node.body:
            self.walk(stmt)
        return self.facts

    def _bound_names(self, target: ast.AST, out: Set[str]) -> None:
        """Names *bound* by an assignment target -- not names merely
        written through (``cache[k] = v`` does not bind ``cache``)."""
        if isinstance(target, ast.Name):
            out.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bound_names(element, out)
        elif isinstance(target, ast.Starred):
            self._bound_names(target.value, out)

    def _prescan(self) -> None:
        """Collect locals, ``global`` decls, and returned names first."""
        for sub in ast.walk(self.node):
            if isinstance(sub, ast.Global):
                self.globals_declared.update(sub.names)
            elif isinstance(sub, ast.Assign):
                for target in sub.targets:
                    self._bound_names(target, self.locals)
            elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(sub.target, ast.Name):
                    self.locals.add(sub.target.id)
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                self._bound_names(sub.target, self.locals)
            elif isinstance(sub, ast.withitem) and sub.optional_vars is not None:
                self._bound_names(sub.optional_vars, self.locals)
            elif isinstance(sub, ast.Return) and isinstance(sub.value, ast.Name):
                self.returned_names.add(sub.value.id)

    def walk(self, root: ast.AST) -> None:
        # One BFS walk per statement handles arbitrarily nested
        # assignments, loops, and comprehensions in near-source order, so
        # taint introduced by an outer node is visible to inner calls.
        # Facts inside nested defs are attributed to this scope: the
        # nested callee is invisible to the linker, and attributing its
        # body here over-approximates reachability (the safe direction).
        for node in ast.walk(root):
            if isinstance(node, ast.Assign):
                self._note_assign(node.targets, node.value)
                self._note_pool(node.targets, node.value)
                if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                    self.assigned[id(node.value)] = node.targets[0].id
            elif isinstance(node, ast.AnnAssign):
                if node.value is not None:
                    self._note_assign([node.target], node.value)
                spec = _annotation_spec(node.annotation, self.module)
                if spec is not None and isinstance(node.target, ast.Name):
                    self.var_types[node.target.id] = spec
            elif isinstance(node, ast.AugAssign):
                self._note_store(node.target)
            elif isinstance(node, ast.Return) and node.value is not None:
                self._note_return(node.value)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._note_loop(node.target, node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                # Taint the comprehension variables when the *outer* node
                # is seen: the element expression would otherwise be
                # visited before its generators.
                for gen in node.generators:
                    self._note_loop(gen.target, gen.iter)
            elif isinstance(node, ast.Call):
                self._note_call(node)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                self.with_ctx.update(id(item.context_expr) for item in node.items)
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                self._note_pool([node.optional_vars], node.context_expr)
            elif isinstance(node, _DEFS + (ast.ClassDef,)):
                self._note_def(node)

    def _note_def(self, node: ast.AST) -> None:
        if self.node is not None:
            self.state.local_defs.add(node.name)
        elif isinstance(node, _DEFS):
            # Module-level code reaches a def only under if/try or in a
            # nested class; whatever that def encloses is local.
            self.state.local_defs.update(
                sub.name
                for sub in ast.walk(node)
                if sub is not node and isinstance(sub, _DEFS + (ast.ClassDef,))
            )
        if isinstance(node, _DEFS):
            self.note_builder(node)

    def note_builder(self, node: ast.AST) -> None:
        if not any(fnmatch(node.name, pattern) for pattern in _WORLD_PATTERNS):
            return
        args = node.args
        self.facts.builders.append({
            "name": node.name, "line": node.lineno, "col": node.col_offset,
            "params": [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs],
            "decorator_lines": [d.lineno for d in node.decorator_list],
        })

    def _note_pool(self, targets: List[ast.AST], value: ast.AST) -> None:
        """Names bound from a pool-type constructor are pool receivers."""
        if isinstance(value, ast.Call) and _terminal_name(value.func) in _POOL_TYPES:
            self.state.pool_names.update(
                t.id for t in targets if isinstance(t, ast.Name)
            )

    def _note_loop(self, target: ast.AST, source: ast.AST) -> None:
        """Unordered iteration near hashing; a tainted source taints the
        loop variables."""
        if self.state.reaches_hashing:
            what = _unordered_source(source)
            if what is not None:
                self.facts.unordered_iters.append({
                    "source": what, "line": source.lineno, "col": source.col_offset,
                })
        if not self._expr_tainted(source):
            return
        for name_node in ast.walk(target):
            if isinstance(name_node, ast.Name):
                self.tainted.add(name_node.id)

    def _note_assign(self, targets: List[ast.AST], value: ast.AST) -> None:
        for target in targets:
            self._note_store(target)
        if not isinstance(value, ast.Call):
            if self._expr_tainted(value):
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.tainted.add(target.id)
            return
        spec = self.target_spec(value.func)
        terminal = spec[-1] if spec and isinstance(spec[-1], str) else ""
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if terminal.rsplit(".", 1)[-1].startswith("get_shared_"):
                self.shared_vars.add(target.id)
            elif spec[0] in ("dotted", "local"):
                # ``v = Ctor(...)`` pins v's type for method binding.
                tail = terminal.rsplit(".", 1)[-1]
                if tail[:1].isupper():
                    self.var_types[target.id] = spec
            if self._expr_tainted(value):
                self.tainted.add(target.id)

    def _note_store(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._note_store(element)
            return
        node = target
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        if isinstance(node, ast.Name) and node.id in self.shared_vars and node is not target:
            self.facts.shared_writes.append({
                "name": node.id, "line": target.lineno, "col": target.col_offset,
            })
            return
        hit = self._is_store_on_module_name(target)
        if hit is not None:
            name, kind = hit
            self.facts.global_writes.append({
                "name": name, "line": target.lineno,
                "col": target.col_offset, "kind": kind,
            })

    def _note_return(self, value: ast.AST) -> None:
        # ``rec = span(...); return rec`` is handled in _note_call.
        if isinstance(value, ast.Call):
            resolved = self.module.imports.resolve_call(value)
            if resolved in _SPAN_FUNCS:
                self.facts.returns_span = True
            else:
                self.facts.return_targets.append(self.target_spec(value.func))

    def _note_call(self, call: ast.Call) -> None:
        func = call.func
        line, col = call.lineno, call.col_offset
        resolved = self.module.imports.resolve_call(call)
        in_with = id(call) in self.with_ctx
        self.facts.calls.append(CallFact(
            line=line, col=col, target=self.target_spec(func), in_with=in_with,
        ))
        if resolved is not None:
            if resolved in _RNG_CONSTRUCTORS:
                seeded = bool(call.args or call.keywords)
                tainted = seeded and any(
                    self._expr_tainted(a)
                    for a in list(call.args) + [k.value for k in call.keywords]
                )
                self.facts.rng_sites.append({
                    "line": line, "col": col,
                    "ctor": resolved, "seeded": seeded, "tainted": tainted,
                    "suppressed": self._suppressed(line, "rng-taint"),
                    "window": _window(call),
                })
            elif _global_rng_api(resolved):
                self.facts.rng_globals.append({
                    "api": resolved, "line": line, "col": col,
                    "window": _window(call),
                })
            if resolved in _WALLCLOCK:
                # Only a `wallclock-fingerprint` pragma blesses hashing
                # chains through this site; a plain `wall-clock` pragma
                # covers the direct read alone.
                self.facts.wallclock.append({
                    "name": resolved, "line": line, "col": col,
                    "suppressed": self._suppressed(line, "wallclock-fingerprint"),
                })
            if (
                resolved.startswith("repro.")
                and resolved.rsplit(".", 1)[-1] in _HASHING_TAILS
            ):
                targets = [
                    self.target_spec(sub.func)
                    for arg in list(call.args) + [k.value for k in call.keywords]
                    for sub in ast.walk(arg)
                    if isinstance(sub, ast.Call)
                ]
                self.facts.hash_feeds.append({
                    "line": line, "col": col,
                    "api": resolved.rsplit(".", 1)[-1], "targets": targets,
                })
            if (
                resolved in _SPAN_FUNCS
                and self.assigned.get(id(call)) in self.returned_names
            ):
                # ``rec = span(...); return rec`` escapes just like a
                # direct ``return span(...)``.
                self.facts.returns_span = True
        # An unimported bare ``span`` is taken to be the span manager too.
        is_span = resolved in _SPAN_FUNCS or (
            resolved is None and isinstance(func, ast.Name) and func.id == "span"
        )
        if is_span or (
            isinstance(func, ast.Attribute) and func.attr in _SPAN_INTERNALS
        ):
            self.facts.spans.append({
                "name": "span" if is_span else func.attr,
                "line": line, "col": col, "in_with": in_with,
            })
        literal = _literal_glob(call.args[0]) if call.args else None
        if literal is not None:
            glob, display = literal
            if isinstance(func, ast.Attribute) and func.attr in _EMIT_METHODS:
                self.facts.emissions.append({
                    "glob": glob, "display": display, "line": line, "col": col,
                })
            elif is_span:
                # A span named N records histogram span.<enclosing>.N.seconds;
                # the enclosing prefix is dynamic, so it is a wildcard hole.
                self.facts.emissions.append({
                    "glob": f"span.*{glob}.seconds",
                    "display": f"span.…{display}.seconds",
                    "line": line, "col": col,
                })
        self._note_payloads(call)

    def _note_payloads(self, call: ast.Call) -> None:
        func = call.func
        name = _terminal_name(func)
        receiver = None
        if _TASK_CTOR.match(name):
            sink = f"{name}(...)"
        elif isinstance(func, ast.Attribute) and name == "map":
            base = func.value
            if isinstance(base, ast.Name):
                sink, receiver = f"{base.id}.map(...)", base.id
            elif (
                isinstance(base, ast.Call)
                and _terminal_name(base.func) in _POOL_TYPES
            ):
                sink = f"{_terminal_name(base.func)}().map(...)"
            else:
                return
        else:
            return
        for value in list(call.args) + [kw.value for kw in call.keywords]:
            candidates = _payload_candidates(value)
            if candidates:
                self.facts.payloads.append({
                    "sink": sink, "receiver": receiver,
                    "line": value.lineno, "col": value.col_offset,
                    "window": [call.lineno] + _window(call),
                    "candidates": candidates,
                })


def _module_level_names(tree: ast.Module) -> Set[str]:
    """Names bound at module scope (without descending into defs)."""
    names: Set[str] = set()

    def visit(body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            names.add(node.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    names.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(stmt, (ast.If, ast.Try)):
                visit(stmt.body)
                for handler in getattr(stmt, "handlers", []):
                    visit(handler.body)
                visit(stmt.orelse)
                visit(getattr(stmt, "finalbody", []))

    visit(tree.body)
    return names


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        chain = _attr_chain(target)
        if chain and chain[-1] == "dataclass":
            return True
    return False


def extract_summary(module: ModuleSource, digest: str = "") -> ModuleSummary:
    """The whole-module analysis record for one parsed file."""
    state = _ModuleState(module)
    summary = ModuleSummary(
        path=module.path,
        module=module_name_for(Path(module.path)),
        digest=digest,
        imports=dict(module.imports.names),
        module_names=sorted(state.names),
        ignores={
            line: None if ids is None else sorted(ids)
            for line, ids in module.ignores.items()
        },
    )
    toplevel = _ScopeExtractor(state, summary.toplevel)

    def extract_function(
        node: ast.AST, qualname: str, class_name: Optional[str]
    ) -> FunctionFacts:
        # The header (decorators, defaults, annotations) runs in the
        # enclosing scope; the body is the function's own scope.
        toplevel.note_builder(node)
        for part in node.decorator_list + [node.args, node.returns]:
            if part is not None:
                toplevel.walk(part)
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        facts = FunctionFacts(
            name=qualname,
            line=node.lineno,
            end_line=getattr(node, "end_lineno", node.lineno) or node.lineno,
            decorator_lines=[d.lineno for d in node.decorator_list],
            params=params,
        )
        return _ScopeExtractor(state, facts, node, class_name).run()

    for stmt in module.tree.body:
        if isinstance(stmt, _DEFS):
            summary.functions[stmt.name] = extract_function(stmt, stmt.name, None)
        elif isinstance(stmt, ast.ClassDef):
            for part in stmt.decorator_list + stmt.bases + stmt.keywords:
                toplevel.walk(part)
            facts = ClassFacts(
                name=stmt.name,
                line=stmt.lineno,
                is_dataclass=_is_dataclass_decorated(stmt),
            )
            for base in stmt.bases:
                resolved = module.imports.resolve(base)
                if resolved is not None:
                    facts.bases.append(["dotted", resolved])
                elif isinstance(base, ast.Name):
                    facts.bases.append(["local", base.id])
            for item in stmt.body:
                if isinstance(item, _DEFS):
                    qual = f"{stmt.name}.{item.name}"
                    facts.methods[item.name] = extract_function(
                        item, qual, stmt.name
                    )
                    if item.name == "__init__":
                        _collect_ctor_attr_types(item, module, facts)
                    continue
                toplevel.walk(item)
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    facts.fields[item.target.id] = {
                        "annotation": ast.unparse(item.annotation),
                        "line": item.lineno,
                        "types": _type_names(item.annotation, module.imports.names),
                    }
                    spec = _annotation_spec(item.annotation, module)
                    if spec is not None:
                        facts.attr_types[item.target.id] = spec
            summary.classes[stmt.name] = facts
        else:
            toplevel.walk(stmt)
    summary.local_defs = sorted(state.local_defs)
    summary.pool_names = sorted(state.pool_names)
    return summary


def _collect_ctor_attr_types(
    init: ast.AST, module: ModuleSource, facts: ClassFacts
) -> None:
    """``self.x = Ctor(...)`` assignments pin ``self.x``'s type."""
    for stmt in ast.walk(init):
        if not isinstance(stmt, ast.Assign) or not isinstance(stmt.value, ast.Call):
            continue
        resolved = module.imports.resolve_call(stmt.value)
        func = stmt.value.func
        spec: Optional[List] = None
        if resolved is not None and resolved.rsplit(".", 1)[-1][:1].isupper():
            spec = ["dotted", resolved]
        elif isinstance(func, ast.Name) and func.id[:1].isupper():
            spec = ["local", func.id]
        if spec is None:
            continue
        for target in stmt.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                facts.attr_types.setdefault(target.attr, spec)


# --------------------------------------------------------------------- #
# Linking
# --------------------------------------------------------------------- #


@dataclass
class FunctionNode:
    """One linked function: its facts plus resolved outgoing edges."""

    id: str  # "module:qualname"
    module: str
    path: str
    facts: FunctionFacts
    edges: List[str] = field(default_factory=list)

    @property
    def display(self) -> str:
        return f"{self.module}:{self.facts.name}"


class Program:
    """Linked whole-program view over a set of module summaries."""

    #: Re-export chasing depth cap (a.b -> a.b.c -> ...).
    _REEXPORT_DEPTH = 6

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
        self.by_path: Dict[str, ModuleSummary] = {
            s.path: s for s in summaries
        }
        self.functions: Dict[str, FunctionNode] = {}
        self.classes: Dict[str, ClassFacts] = {}  # "module:Cls"
        self._class_modules: Dict[str, str] = {}  # "module:Cls" -> module
        self._name_to_classes: Dict[str, List[str]] = {}
        self._name_to_functions: Dict[str, List[str]] = {}
        self._subclasses: Dict[str, List[str]] = {}
        self._link()

    # -- construction -------------------------------------------------- #

    def _link(self) -> None:
        for summary in self.modules.values():
            for fname, facts in summary.functions.items():
                fid = f"{summary.module}:{fname}"
                self.functions[fid] = FunctionNode(
                    id=fid, module=summary.module, path=summary.path, facts=facts
                )
                self._name_to_functions.setdefault(fname, []).append(fid)
            for cname, cfacts in summary.classes.items():
                cid = f"{summary.module}:{cname}"
                self.classes[cid] = cfacts
                self._class_modules[cid] = summary.module
                self._name_to_classes.setdefault(cname, []).append(cid)
                for mname, mfacts in cfacts.methods.items():
                    fid = f"{summary.module}:{cname}.{mname}"
                    self.functions[fid] = FunctionNode(
                        id=fid, module=summary.module, path=summary.path,
                        facts=mfacts,
                    )
                    self._name_to_functions.setdefault(mname, []).append(fid)
        # Subclass map (transitive expansion happens in lookups).
        for cid, cfacts in sorted(self.classes.items()):
            for base in cfacts.bases:
                base_id = self.resolve_class_spec(
                    base, self._class_modules[cid]
                )
                if base_id is not None:
                    self._subclasses.setdefault(base_id, []).append(cid)
        # Resolve every call fact into edges.
        for node in self.functions.values():
            seen: Set[str] = set()
            for call in node.facts.calls:
                for fid in self.resolve_spec(call.target, node.module):
                    if fid not in seen:
                        seen.add(fid)
                        node.edges.append(fid)

    # -- name resolution ----------------------------------------------- #

    def resolve_dotted(self, dotted: str, depth: int = 0) -> List[str]:
        """Function ids a canonical dotted name can denote."""
        if depth > self._REEXPORT_DEPTH:
            return []
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            summary = self.modules.get(module)
            if summary is None:
                continue
            rest = parts[cut:]
            if len(rest) == 1:
                name = rest[0]
                if name in summary.functions:
                    return [f"{module}:{name}"]
                if name in summary.classes:
                    return self._ctor_targets(f"{module}:{name}")
                if name in summary.imports:
                    return self.resolve_dotted(summary.imports[name], depth + 1)
                return []
            if len(rest) == 2:
                cls, method = rest
                if cls in summary.classes:
                    return self.lookup_method(f"{module}:{cls}", method)
                if cls in summary.imports:
                    return self.resolve_dotted(
                        f"{summary.imports[cls]}.{method}", depth + 1
                    )
            # Deeper chains only make sense through re-exports.
            if rest[0] in summary.imports:
                return self.resolve_dotted(
                    ".".join([summary.imports[rest[0]]] + rest[1:]), depth + 1
                )
            return []
        return []

    def resolve_class_spec(
        self, spec: Sequence, module: str
    ) -> Optional[str]:
        """Class id for a ``["dotted", d]`` / ``["local", n]`` type spec."""
        if not spec:
            return None
        kind = spec[0]
        if kind == "local":
            name = spec[1]
            cid = f"{module}:{name}"
            if cid in self.classes:
                return cid
            summary = self.modules.get(module)
            if summary is not None and name in summary.imports:
                return self._dotted_class(summary.imports[name])
            candidates = self._name_to_classes.get(name, [])
            return candidates[0] if len(candidates) == 1 else None
        if kind == "dotted":
            return self._dotted_class(spec[1])
        return None

    def _dotted_class(self, dotted: str, depth: int = 0) -> Optional[str]:
        if depth > self._REEXPORT_DEPTH:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            summary = self.modules.get(module)
            if summary is None:
                continue
            rest = parts[cut:]
            if len(rest) == 1:
                if rest[0] in summary.classes:
                    return f"{module}:{rest[0]}"
                if rest[0] in summary.imports:
                    return self._dotted_class(summary.imports[rest[0]], depth + 1)
            return None
        # Fall back to a unique simple-name match (covers annotations
        # naming a class the module never imports at runtime).
        tail = parts[-1]
        candidates = self._name_to_classes.get(tail, [])
        return candidates[0] if len(candidates) == 1 else None

    def _ctor_targets(self, class_id: str) -> List[str]:
        """Calling a class runs ``__init__`` (its own or inherited)."""
        return self.lookup_method(class_id, "__init__", with_overrides=False)

    def subclasses_of(self, class_id: str) -> List[str]:
        """All transitive subclasses of ``class_id``."""
        out: List[str] = []
        queue = list(self._subclasses.get(class_id, []))
        seen: Set[str] = set()
        while queue:
            cid = queue.pop()
            if cid in seen:
                continue
            seen.add(cid)
            out.append(cid)
            queue.extend(self._subclasses.get(cid, []))
        return sorted(out)

    def lookup_method(
        self, class_id: str, method: str, with_overrides: bool = True
    ) -> List[str]:
        """Function ids ``obj.method()`` can bind to for ``obj: class_id``.

        The defining class (walking bases) contributes one target; with
        ``with_overrides`` every transitive subclass override joins it,
        because a base-typed receiver can hold any subclass instance --
        the conservative direction for reachability.
        """
        out: List[str] = []
        # Walk the class and its bases for the static definition.
        queue = [class_id]
        seen: Set[str] = set()
        while queue:
            cid = queue.pop(0)
            if cid in seen:
                continue
            seen.add(cid)
            cfacts = self.classes.get(cid)
            if cfacts is None:
                continue
            if method in cfacts.methods:
                out.append(f"{self._class_modules[cid]}:{cfacts.name}.{method}")
                break
            module = self._class_modules[cid]
            for base in cfacts.bases:
                base_id = self.resolve_class_spec(base, module)
                if base_id is not None:
                    queue.append(base_id)
        if with_overrides:
            for sub in self.subclasses_of(class_id):
                cfacts = self.classes[sub]
                if method in cfacts.methods:
                    fid = f"{self._class_modules[sub]}:{cfacts.name}.{method}"
                    if fid not in out:
                        out.append(fid)
        return out

    def resolve_spec(self, spec: Sequence, module: str) -> List[str]:
        """Function ids a symbolic call target can reach."""
        if not spec:
            return []
        kind = spec[0]
        if kind == "dotted":
            return self.resolve_dotted(spec[1])
        if kind == "local":
            summary = self.modules.get(module)
            if summary is None:
                return []
            name = spec[1]
            if name in summary.functions:
                return [f"{module}:{name}"]
            if name in summary.classes:
                return self._ctor_targets(f"{module}:{name}")
            return []
        if kind == "self":
            _, cls, method = spec
            return self.lookup_method(f"{module}:{cls}", method)
        if kind == "attr":
            _, typespec, method = spec
            class_id = self.resolve_class_spec(typespec, module)
            if class_id is None:
                return []
            return self.lookup_method(class_id, method)
        if kind == "dyn":
            # Conservative fallback on dynamic dispatch: bind only when
            # the method name is unambiguous project-wide.
            candidates = self._name_to_functions.get(spec[1], [])
            return list(candidates) if len(candidates) == 1 else []
        return []

    # -- queries -------------------------------------------------------- #

    def reachable(
        self, roots: Iterable[str]
    ) -> Dict[str, Optional[str]]:
        """BFS closure over call edges; value = parent id (None at roots)."""
        parents: Dict[str, Optional[str]] = {}
        queue: List[str] = []
        for root in roots:
            if root in self.functions and root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for nxt in self.functions[current].edges:
                if nxt not in parents:
                    parents[nxt] = current
                    queue.append(nxt)
        return parents

    def chain(
        self, parents: Dict[str, Optional[str]], fn_id: str, limit: int = 6
    ) -> List[str]:
        """Display names from a root down to ``fn_id``."""
        out: List[str] = []
        current: Optional[str] = fn_id
        while current is not None and len(out) < limit:
            out.append(self.functions[current].display)
            current = parents.get(current)
        return list(reversed(out))

    def task_classes(self) -> List[str]:
        """Class ids of ``EvalTask`` and every (transitive) subclass."""
        bases = [
            cid for cid, cfacts in sorted(self.classes.items())
            if cfacts.name == "EvalTask"
        ]
        out: List[str] = list(bases)
        for base in bases:
            out.extend(self.subclasses_of(base))
        return sorted(set(out))

    def class_module(self, class_id: str) -> str:
        return self._class_modules[class_id]

    def find_functions(self, name: str) -> List[str]:
        """Every function id whose terminal name is ``name``."""
        return sorted(self._name_to_functions.get(name, []))

    def importers_of(self, module: str) -> List[str]:
        """Modules whose imports resolve into ``module`` (direct only)."""
        out: List[str] = []
        for name, summary in self.modules.items():
            if name == module:
                continue
            for dotted in summary.imports.values():
                if dotted == module or dotted.startswith(module + "."):
                    out.append(name)
                    break
        return sorted(out)

    def reverse_dependency_closure(self, paths: Iterable[str]) -> Set[str]:
        """Paths of the given modules plus everything importing them.

        This is the re-check set for ``--changed-only``: a change in B
        can invalidate any interprocedural fact in a module that imports
        B, transitively.
        """
        wanted: Set[str] = set()
        queue: List[str] = []
        for path in paths:
            summary = self.by_path.get(path)
            if summary is None:
                wanted.add(path)  # unknown files stay in the check set
                continue
            if summary.path not in wanted:
                wanted.add(summary.path)
                queue.append(summary.module)
        seen_modules: Set[str] = set(queue)
        while queue:
            module = queue.pop(0)
            for importer in self.importers_of(module):
                if importer not in seen_modules:
                    seen_modules.add(importer)
                    wanted.add(self.modules[importer].path)
                    queue.append(importer)
        return wanted


def build_program(summaries: Sequence[ModuleSummary]) -> Program:
    """Link ``summaries`` into a queryable :class:`Program`."""
    return Program(summaries)
