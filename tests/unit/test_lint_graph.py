"""repro.lint.graph: summary extraction, linking, and the analysis store.

The whole-program rules are only as good as the graph under them, so
this suite pins the graph layer directly: what one module's summary
records (calls, taint verdicts, writes, clock reads, span facts), that
summaries survive the JSON round-trip the cache depends on, and how the
linker binds names across modules -- imports, package re-exports,
annotation- and constructor-driven method binding, subclass fan-out,
and the unique-name fallback for dynamic dispatch.
"""

import json
import textwrap
from pathlib import Path

from repro.lint import store as store_module
from repro.lint.core import ModuleSource, walk_python_files
from repro.lint.graph import (
    ModuleSummary,
    build_program,
    extract_summary,
    module_name_for,
)
from repro.lint.store import AnalysisStore, content_digest


def write_tree(tmp_path, files):
    for rel, text in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    return tmp_path


def parse_one(tmp_path, source, filename="mod.py"):
    target = tmp_path / filename
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return ModuleSource.parse(target.as_posix(), target.read_text())


def build(tmp_path, files):
    write_tree(tmp_path, files)
    summaries = []
    for path in walk_python_files([str(tmp_path)]):
        module = ModuleSource.parse(path.as_posix(), path.read_text())
        summaries.append(extract_summary(module))
    return build_program(summaries)


def fn(program, name):
    (fid,) = program.find_functions(name)
    return program.functions[fid]


class TestModuleNaming:
    def test_package_climb(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/sub/__init__.py": "",
            "pkg/sub/mod.py": "",
        })
        assert module_name_for(tmp_path / "pkg/sub/mod.py") == "pkg.sub.mod"
        assert module_name_for(tmp_path / "pkg/sub/__init__.py") == "pkg.sub"

    def test_bare_file_keeps_stem(self, tmp_path):
        write_tree(tmp_path, {"loose.py": ""})
        assert module_name_for(tmp_path / "loose.py") == "loose"


class TestExtraction:
    def test_rng_sites_classify_seeding_and_taint(self, tmp_path):
        module = parse_one(tmp_path, """
            import numpy as np

            def unseeded():
                return np.random.default_rng()

            def constant():
                return np.random.default_rng(42)

            def plumbed(seed):
                return np.random.default_rng(seed)
        """)
        summary = extract_summary(module)
        by_fn = {
            name: facts.rng_sites[0]
            for name, facts in summary.functions.items()
        }
        assert not by_fn["unseeded"]["seeded"]
        assert by_fn["constant"]["seeded"] and not by_fn["constant"]["tainted"]
        assert by_fn["plumbed"]["seeded"] and by_fn["plumbed"]["tainted"]

    def test_taint_flows_through_assignment_loop_and_comprehension(self, tmp_path):
        module = parse_one(tmp_path, """
            import numpy as np

            def spawn(rng, count):
                children = rng.bit_generator.seed_seq.spawn(count)
                return [np.random.default_rng(c) for c in children]

            def loop(seed_root):
                derived = seed_root + 1
                out = []
                for item in [derived]:
                    out.append(np.random.default_rng(item))
                return out
        """)
        summary = extract_summary(module)
        for facts in summary.functions.values():
            for site in facts.rng_sites:
                assert site["tainted"], facts.name

    def test_global_and_shared_writes(self, tmp_path):
        module = parse_one(tmp_path, """
            _CACHE = {}
            _FLAG = False

            def get_shared_world(key):
                return _CACHE[key]

            def mutate(key, task):
                global _FLAG
                _FLAG = True
                world = get_shared_world(key)
                world.items[key] = task
                _CACHE[key] = world

            def harmless(key):
                local = {}
                local[key] = 1
                return local
        """)
        summary = extract_summary(module)
        mutate = summary.functions["mutate"]
        global_names = {w["name"] for w in mutate.global_writes}
        assert global_names == {"_FLAG", "_CACHE"}
        assert [w["name"] for w in mutate.shared_writes] == ["world"]
        assert not summary.functions["harmless"].global_writes

    def test_wallclock_suppression_honors_only_interprocedural_pragma(self, tmp_path):
        module = parse_one(tmp_path, """
            import time

            def per_file_blessed():
                return time.time()  # lint: ignore[wall-clock]

            def chain_blessed():
                return time.time()  # lint: ignore[wallclock-fingerprint]
        """)
        summary = extract_summary(module)
        assert not summary.functions["per_file_blessed"].wallclock[0]["suppressed"]
        assert summary.functions["chain_blessed"].wallclock[0]["suppressed"]

    def test_hash_feed_collects_nested_call_targets(self, tmp_path):
        module = parse_one(tmp_path, """
            from repro.exec.hashing import derive_seed

            def now_tag():
                return 0

            def fingerprint(root):
                return derive_seed(root, now_tag())
        """)
        summary = extract_summary(module)
        (feed,) = summary.functions["fingerprint"].hash_feeds
        assert feed["api"] == "derive_seed"
        assert ["local", "now_tag"] in feed["targets"]

    def test_span_return_direct_and_via_name(self, tmp_path):
        module = parse_one(tmp_path, """
            from repro.obs import span

            def direct(name):
                return span(name)

            def via_name(name):
                record = span(name)
                return record

            def unrelated(name):
                return name
        """)
        summary = extract_summary(module)
        assert summary.functions["direct"].returns_span
        assert summary.functions["via_name"].returns_span
        assert not summary.functions["unrelated"].returns_span

    def test_summary_round_trips_through_json(self, tmp_path):
        module = parse_one(tmp_path, """
            import numpy as np
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Probe:
                seed: int

                def run(self):
                    return np.random.default_rng(self.seed)

            def outer():
                def inner():
                    return 1
                return inner()
        """)
        summary = extract_summary(module, digest="abc")
        payload = json.loads(json.dumps(summary.to_dict()))
        restored = ModuleSummary.from_dict(payload)
        assert restored.to_dict() == summary.to_dict()
        assert restored.classes["Probe"].is_dataclass
        assert restored.local_defs == ["inner"]


class TestLinking:
    def test_cross_module_and_reexport_resolution(self, tmp_path):
        program = build(tmp_path, {
            "pkg/__init__.py": "from pkg.inner import helper\n",
            "pkg/inner.py": """
                def helper():
                    return 1
            """,
            "user.py": """
                import pkg
                from pkg.inner import helper

                def direct():
                    return helper()

                def through_package():
                    return pkg.helper()
            """,
        })
        helper_id = program.find_functions("helper")[0]
        assert fn(program, "direct").edges == [helper_id]
        assert fn(program, "through_package").edges == [helper_id]

    def test_annotation_binding_includes_subclass_overrides(self, tmp_path):
        program = build(tmp_path, {
            "shapes.py": """
                class Base:
                    def run(self):
                        return 0

                class Derived(Base):
                    def run(self):
                        return 1

                def drive(task: Base):
                    return task.run()
            """,
        })
        edges = set(fn(program, "drive").edges)
        assert edges == {"shapes:Base.run", "shapes:Derived.run"}

    def test_constructor_assignment_binds_attribute_methods(self, tmp_path):
        program = build(tmp_path, {
            "engine.py": """
                class Worker:
                    def step(self):
                        return 1

                class Engine:
                    def __init__(self):
                        self.worker = Worker()

                    def tick(self):
                        return self.worker.step()
            """,
        })
        assert fn(program, "tick").edges == ["engine:Worker.step"]

    def test_dynamic_dispatch_binds_only_unique_names(self, tmp_path):
        program = build(tmp_path, {
            "a.py": """
                def only_here():
                    return 1

                def twice():
                    return 1
            """,
            "b.py": """
                def twice():
                    return 2

                def caller(x):
                    x.only_here()
                    x.twice()
            """,
        })
        assert fn(program, "caller").edges == ["a:only_here"]

    def test_reachability_keeps_parent_chains(self, tmp_path):
        program = build(tmp_path, {
            "chain.py": """
                def top():
                    return mid()

                def mid():
                    return bottom()

                def bottom():
                    return 1

                def island():
                    return 2
            """,
        })
        parents = program.reachable(["chain:top"])
        assert set(parents) == {"chain:top", "chain:mid", "chain:bottom"}
        assert program.chain(parents, "chain:bottom") == [
            "chain:top", "chain:mid", "chain:bottom",
        ]
        assert "chain:island" not in parents

    def test_task_classes_span_modules(self, tmp_path):
        program = build(tmp_path, {
            "base.py": """
                class EvalTask:
                    def run(self):
                        raise NotImplementedError
            """,
            "derived.py": """
                from base import EvalTask

                class ProbeTask(EvalTask):
                    def run(self):
                        return 1.0
            """,
        })
        assert program.task_classes() == ["base:EvalTask", "derived:ProbeTask"]

    def test_reverse_dependency_closure(self, tmp_path):
        program = build(tmp_path, {
            "core_mod.py": "def f():\n    return 1\n",
            "mid_mod.py": "from core_mod import f\n",
            "top_mod.py": "import mid_mod\n",
            "island_mod.py": "def g():\n    return 2\n",
        })
        core_path = (tmp_path / "core_mod.py").as_posix()
        wanted = program.reverse_dependency_closure([core_path])
        names = {Path(p).name for p in wanted}
        assert names == {"core_mod.py", "mid_mod.py", "top_mod.py"}
        unknown = program.reverse_dependency_closure(["nowhere.py"])
        assert unknown == {"nowhere.py"}


class TestAnalysisStore:
    def test_warm_hit_and_digest_invalidation(self, tmp_path):
        store_path = tmp_path / "cache.json"
        module = parse_one(tmp_path, "def f():\n    return 1\n")
        digest = content_digest(module.text)
        store = AnalysisStore(store_path)
        store.put(extract_summary(module, digest))
        store.save()

        warm = AnalysisStore(store_path)
        assert warm.get(module.path, digest) is not None
        assert warm.hits == [module.path]
        assert warm.get(module.path, "other-digest") is None

    def test_schema_version_mismatch_discards_entries(self, tmp_path):
        store_path = tmp_path / "cache.json"
        store_path.write_text(json.dumps({
            "version": -1,
            "entries": {"mod.py": {"digest": "d", "summary": {}}},
        }))
        assert AnalysisStore(store_path).entries == {}

    def test_changed_extractor_digest_discards_every_entry(self, tmp_path, monkeypatch):
        # A cache written by other extraction code (say, restored across
        # commits in CI) must not serve its facts as current.
        store_path = tmp_path / "cache.json"
        module = parse_one(tmp_path, "def f():\n    return 1\n")
        store = AnalysisStore(store_path)
        store.put(extract_summary(module, content_digest(module.text)))
        store.save()
        assert AnalysisStore(store_path).entries
        monkeypatch.setattr(store_module, "EXTRACTOR_DIGEST", "other-extractor")
        assert AnalysisStore(store_path).entries == {}

    def test_package_layout_change_invalidates_entry(self, tmp_path):
        # Same text, new dotted name: `mod` became `pkg.mod` once the
        # directory turned into a package, so the cached links are stale.
        module = parse_one(tmp_path, "def f():\n    return 1\n", "pkg/mod.py")
        digest = content_digest(module.text)
        store = AnalysisStore(None)
        store.put(extract_summary(module, digest))
        assert store.get(module.path, digest).module == "mod"
        (tmp_path / "pkg" / "__init__.py").write_text("")
        assert store.get(module.path, digest) is None

    def test_corrupt_store_is_ignored(self, tmp_path):
        store_path = tmp_path / "cache.json"
        store_path.write_text("{not json")
        assert AnalysisStore(store_path).entries == {}

    def test_prune_drops_vanished_files(self, tmp_path):
        store_path = tmp_path / "cache.json"
        module = parse_one(tmp_path, "def f():\n    return 1\n")
        store = AnalysisStore(store_path)
        store.put(extract_summary(module, content_digest(module.text)))
        store.prune([])
        assert store.entries == {}
