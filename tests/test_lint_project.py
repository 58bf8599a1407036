"""Whole-program lint: graph, flow rules, incremental cache, suppression.

Each flow-rule fixture splits source, propagation, and sink across
*different modules*, then proves the per-file driver is blind to the
violation while the project driver reports it — the reason RPR008–010
exist at all.
"""

import json
import textwrap

import pytest

from repro.lint import RULES, Rule, lint_project, lint_source, rule
from repro.lint.graph import ProjectGraph, module_name
from repro.lint.project import ProjectContext


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def violations_of(result, rule_id):
    return [v for v in result.violations if v.rule == rule_id]


# ---------------------------------------------------------------------------
# graph


def test_module_name_walks_package_chain(tmp_path):
    write_tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/sim/__init__.py": "",
        "repro/sim/engine.py": "",
        "standalone.py": "",
    })
    assert module_name(tmp_path / "repro/sim/engine.py") == "repro.sim.engine"
    assert module_name(tmp_path / "repro/sim/__init__.py") == "repro.sim"
    assert module_name(tmp_path / "standalone.py") == "standalone"


def test_graph_imports_and_reverse_closure(tmp_path):
    root = write_tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/base.py": "X = 1\n",
        "repro/mid.py": "from repro.base import X\n",
        "repro/top.py": "import repro.mid\n",
        "repro/other.py": "Y = 2\n",
    })
    graph = ProjectGraph.build(
        (p, p.read_text()) for p in sorted(root.rglob("*.py")))
    assert "repro.base" in graph.modules["repro.mid"].imports
    assert graph.importers("repro.base") == {"repro.mid"}
    closure = graph.reverse_closure({"repro.base"})
    assert closure == {"repro.base", "repro.mid", "repro.top"}
    assert "repro.other" not in closure


def test_resolve_symbol_through_reexport(tmp_path):
    root = write_tree(tmp_path, {
        "repro/__init__.py": "from repro.impl import helper\n",
        "repro/impl.py": "def helper():\n    return 1\n",
    })
    graph = ProjectGraph.build(
        (p, p.read_text()) for p in sorted(root.rglob("*.py")))
    resolved = graph.resolve_symbol("repro.helper")
    assert resolved is not None
    assert resolved[0].name == "repro.impl"
    assert resolved[1] == "helper"


# ---------------------------------------------------------------------------
# RPR008 — determinism taint across modules


RPR008_TREE = {
    "repro/__init__.py": "",
    "repro/sim/__init__.py": "",
    "repro/sim/engine.py": """\
        def step(now):
            return now
        """,
    "repro/clockutil.py": """\
        import time


        def stamp():
            return time.time()
        """,
    "repro/driver.py": """\
        from repro.clockutil import stamp
        from repro.sim.engine import step


        def run():
            t = stamp()
            return step(t)
        """,
}


def test_rpr008_cross_module_wall_clock(tmp_path):
    root = write_tree(tmp_path, RPR008_TREE)
    result = lint_project([root], select=["RPR008"], use_cache=False)
    hits = violations_of(result, "RPR008")
    assert len(hits) == 1
    assert hits[0].path.endswith("driver.py")
    # Anchored at the line where taint enters driver.py: the stamp() call.
    assert hits[0].line == 6
    assert "time.time" in hits[0].message or "stamp" in hits[0].message


def test_rpr008_invisible_to_per_file_driver(tmp_path):
    root = write_tree(tmp_path, RPR008_TREE)
    driver = (root / "repro/driver.py").read_text()
    assert lint_source(driver, root / "repro/driver.py",
                       select=["RPR008"]) == []


def test_rpr008_seeded_generator_is_clean(tmp_path):
    root = write_tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/sim/__init__.py": "",
        "repro/sim/engine.py": "def step(value):\n    return value\n",
        "repro/driver.py": """\
            import numpy as np

            from repro.sim.engine import step


            def run(seed):
                rng = np.random.default_rng(seed)
                return step(rng)
            """,
    })
    result = lint_project([root], select=["RPR008"], use_cache=False)
    assert violations_of(result, "RPR008") == []


# ---------------------------------------------------------------------------
# RPR009 — fork-share races across modules


RPR009_TREE = {
    "repro/__init__.py": "",
    "repro/state.py": """\
        CACHE = {}


        def bump(key):
            CACHE[key] = 1
        """,
    "repro/work.py": """\
        from repro.state import bump


        def task(item):
            bump(item)
            return item
        """,
    "repro/runner.py": """\
        from multiprocessing import Pool

        from repro.work import task


        def run(items):
            with Pool() as pool:
                return list(pool.imap(task, items))
        """,
}


def test_rpr009_cross_module_pool_write(tmp_path):
    root = write_tree(tmp_path, RPR009_TREE)
    result = lint_project([root], select=["RPR009"], use_cache=False)
    hits = violations_of(result, "RPR009")
    assert len(hits) == 1
    # Reported where the access happens — two modules away from the pool.
    assert hits[0].path.endswith("state.py")
    assert hits[0].line == 5
    assert "CACHE" in hits[0].message
    assert "scoped-registry" in hits[0].message


def test_rpr009_invisible_to_per_file_driver(tmp_path):
    root = write_tree(tmp_path, RPR009_TREE)
    state = (root / "repro/state.py").read_text()
    assert lint_source(state, root / "repro/state.py",
                       select=["RPR009"]) == []


def test_rpr009_import_time_registry_read_is_clean(tmp_path):
    tree = dict(RPR009_TREE)
    # Reading a registry that is only populated at import time is safe:
    # every process re-imports and sees identical contents.
    tree["repro/state.py"] = textwrap.dedent("""\
        CACHE = {"a": 1}


        def bump(key):
            return CACHE[key]
        """)
    root = write_tree(tmp_path, tree)
    result = lint_project([root], select=["RPR009"], use_cache=False)
    assert violations_of(result, "RPR009") == []


def test_rpr009_partial_wrapped_callable(tmp_path):
    tree = dict(RPR009_TREE)
    tree["repro/runner.py"] = textwrap.dedent("""\
        import functools
        from multiprocessing import Pool

        from repro.work import task


        def run(items):
            bound = functools.partial(task, items[0])
            with Pool() as pool:
                return list(pool.imap(bound, items))
        """)
    root = write_tree(tmp_path, tree)
    result = lint_project([root], select=["RPR009"], use_cache=False)
    assert len(violations_of(result, "RPR009")) == 1


def test_rpr009_process_target_reads_runtime_global(tmp_path):
    tree = dict(RPR009_TREE)
    # A Process target is worker code too: it reads SEEN, which the
    # parent fills at runtime, so the child sees a stale copy.
    tree["repro/state.py"] = textwrap.dedent("""\
        SEEN = []


        def remember(item):
            SEEN.append(item)


        def replay(conn):
            for item in SEEN:
                conn.send(item)
        """)
    tree["repro/runner.py"] = textwrap.dedent("""\
        import multiprocessing

        from repro.state import remember, replay


        def run(items, conn):
            for item in items:
                remember(item)
            ctx = multiprocessing.get_context("fork")
            proc = ctx.Process(target=replay, args=(conn,))
            proc.start()
            return proc
        """)
    root = write_tree(tmp_path, tree)
    result = lint_project([root], select=["RPR009"], use_cache=False)
    hits = violations_of(result, "RPR009")
    assert [(h.path.endswith("state.py"), h.line) for h in hits] == \
        [(True, 9)]
    assert "SEEN" in hits[0].message
    assert "repro.runner.run()" in hits[0].message


def test_rpr009_process_args_payload_is_clean(tmp_path):
    tree = dict(RPR009_TREE)
    # The sim driver's pattern: the state a worker needs goes in the
    # Process args (inherited by fork, never a shared global).
    tree["repro/work.py"] = textwrap.dedent("""\
        def worker(items, conn):
            for index in iter(conn.recv, None):
                conn.send(items[index])
        """)
    tree["repro/runner.py"] = textwrap.dedent("""\
        from multiprocessing import Process, get_context

        from repro.work import worker


        def run(items, conn):
            ctx = get_context("fork")
            procs = [ctx.Process(target=worker, args=(items, conn)),
                     Process(None, worker, None, (items, conn))]
            for proc in procs:
                proc.start()
            return procs
        """)
    root = write_tree(tmp_path, tree)
    result = lint_project([root], select=["RPR009"], use_cache=False)
    assert violations_of(result, "RPR009") == []


def test_rpr009_process_target_reaches_runtime_write(tmp_path):
    tree = dict(RPR009_TREE)
    # Positional target (Process(group, target, ...)) through the same
    # worker chain as the pool fixture: the write in state.py is flagged.
    tree["repro/runner.py"] = textwrap.dedent("""\
        from multiprocessing import Process

        from repro.work import task


        def run(item):
            proc = Process(None, task, None, (item,))
            proc.start()
            return proc
        """)
    root = write_tree(tmp_path, tree)
    result = lint_project([root], select=["RPR009"], use_cache=False)
    hits = violations_of(result, "RPR009")
    assert [(h.path.endswith("state.py"), h.line) for h in hits] == \
        [(True, 5)]


# ---------------------------------------------------------------------------
# RPR010 — iteration order across modules


RPR010_TREE = {
    "repro/__init__.py": "",
    "repro/collect.py": """\
        def uniq(items):
            return list(set(items))
        """,
    "repro/emit.py": """\
        import json

        from repro.collect import uniq


        def dump(items):
            return json.dumps(uniq(items))
        """,
}


def test_rpr010_cross_module_set_to_json(tmp_path):
    root = write_tree(tmp_path, RPR010_TREE)
    result = lint_project([root], select=["RPR010"], use_cache=False)
    hits = violations_of(result, "RPR010")
    assert len(hits) == 1
    assert hits[0].path.endswith("emit.py")
    assert "sorted()" in hits[0].message


def test_rpr010_invisible_to_per_file_driver(tmp_path):
    root = write_tree(tmp_path, RPR010_TREE)
    emit = (root / "repro/emit.py").read_text()
    assert lint_source(emit, root / "repro/emit.py",
                       select=["RPR010"]) == []


def test_rpr010_sorted_sanitizes(tmp_path):
    tree = dict(RPR010_TREE)
    tree["repro/emit.py"] = textwrap.dedent("""\
        import json

        from repro.collect import uniq


        def dump(items):
            return json.dumps(sorted(uniq(items)))
        """)
    root = write_tree(tmp_path, tree)
    result = lint_project([root], select=["RPR010"], use_cache=False)
    assert violations_of(result, "RPR010") == []


def test_rpr010_comprehension_over_sorted_is_clean(tmp_path):
    root = write_tree(tmp_path, {
        "mod.py": """\
            import json


            def dump(paths):
                found = []
                for path in paths.iterdir():
                    found.append(path)
                return json.dumps([str(p) for p in sorted(found)])
            """,
    })
    result = lint_project([root], select=["RPR010"], use_cache=False)
    assert violations_of(result, "RPR010") == []


# ---------------------------------------------------------------------------
# noqa is line-narrow for flow rules


def test_flow_noqa_on_sink_line_does_not_hide_source(tmp_path):
    root = write_tree(tmp_path, {
        "mod.py": """\
            import json


            def dump(xs):
                data = set(xs)
                return json.dumps(data)  # repro: noqa[RPR010]
            """,
    })
    result = lint_project([root], select=["RPR010"], use_cache=False)
    hits = violations_of(result, "RPR010")
    # The violation anchors at the *source* line (set(xs)); the noqa on
    # the sink line suppresses nothing.
    assert len(hits) == 1
    assert hits[0].line == 5


def test_flow_noqa_on_source_line_suppresses(tmp_path):
    root = write_tree(tmp_path, {
        "mod.py": """\
            import json


            def dump(xs):
                data = set(xs)  # repro: noqa[RPR010] order-free payload
                return json.dumps(data)
            """,
    })
    result = lint_project([root], select=["RPR010"], use_cache=False)
    assert violations_of(result, "RPR010") == []


def test_two_sources_need_two_suppressions(tmp_path):
    root = write_tree(tmp_path, {
        "mod.py": """\
            import json


            def dump(xs, ys):
                a = set(xs)  # repro: noqa[RPR010] order-free payload
                b = set(ys)
                return json.dumps([a, b])
            """,
    })
    result = lint_project([root], select=["RPR010"], use_cache=False)
    hits = violations_of(result, "RPR010")
    assert len(hits) == 1
    assert hits[0].line == 6


# ---------------------------------------------------------------------------
# rule registry invariants


def test_rule_ids_unique_and_well_formed():
    import re
    assert len(RULES) == len(set(RULES))
    for rule_id, cls in RULES.items():
        assert re.match(r"^RPR\d{3}$", rule_id)
        assert cls.id == rule_id
        assert cls.summary
    assert {"RPR008", "RPR009", "RPR010"} <= set(RULES)


def test_duplicate_rule_id_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        @rule
        class Duplicate(Rule):  # noqa  (intentionally clashing id)
            id = "RPR008"
            summary = "duplicate registration must fail"


# ---------------------------------------------------------------------------
# incremental cache


CACHE_TREE = {
    "repro/__init__.py": "",
    "repro/base.py": "def origin():\n    return [1, 2]\n",
    "repro/mid.py": textwrap.dedent("""\
        from repro.base import origin


        def carry():
            return origin()
        """),
    "repro/top.py": textwrap.dedent("""\
        import json

        from repro.mid import carry


        def emit():
            return json.dumps(carry())
        """),
    "repro/leaf.py": "Z = 3\n",
}


def test_cache_warm_run_analyzes_zero_files(tmp_path):
    root = write_tree(tmp_path / "proj", CACHE_TREE)
    cache_dir = tmp_path / "cache"
    cold = lint_project([root], cache_dir=cache_dir)
    assert cold.files_analyzed == len(CACHE_TREE)
    assert cold.files_reused == 0
    warm = lint_project([root], cache_dir=cache_dir)
    assert warm.files_analyzed == 0
    assert warm.files_reused == len(CACHE_TREE)
    assert warm.violations == cold.violations


def test_cache_one_edit_reanalyzes_reverse_deps_only(tmp_path):
    root = write_tree(tmp_path / "proj", CACHE_TREE)
    cache_dir = tmp_path / "cache"
    lint_project([root], cache_dir=cache_dir)
    base = root / "repro/base.py"
    base.write_text(base.read_text() + "\n# edited\n")
    incremental = lint_project([root], cache_dir=cache_dir)
    analyzed = {p.rsplit("/", 1)[-1] for p in incremental.analyzed_paths}
    assert analyzed == {"base.py", "mid.py", "top.py"}
    assert incremental.files_reused == 2  # __init__.py and leaf.py


def test_cache_edit_introducing_violation_propagates(tmp_path):
    root = write_tree(tmp_path / "proj", CACHE_TREE)
    cache_dir = tmp_path / "cache"
    clean = lint_project([root], select=["RPR010"], cache_dir=cache_dir)
    assert clean.violations == []
    # base.py now returns unordered data; the sink is two modules away
    # in top.py, which must be re-analyzed purely via the import graph.
    (root / "repro/base.py").write_text(
        "def origin():\n    return list(set([1, 2]))\n")
    dirty = lint_project([root], select=["RPR010"], cache_dir=cache_dir)
    hits = violations_of(dirty, "RPR010")
    assert len(hits) == 1
    assert hits[0].path.endswith("top.py")
    # And the warm rerun reports it again, from cache, analyzing nothing.
    warm = lint_project([root], select=["RPR010"], cache_dir=cache_dir)
    assert warm.files_analyzed == 0
    assert [v.to_dict() for v in warm.violations] \
        == [v.to_dict() for v in dirty.violations]


def test_cache_changed_only_restricts_reporting(tmp_path):
    root = write_tree(tmp_path / "proj", CACHE_TREE)
    cache_dir = tmp_path / "cache"
    lint_project([root], cache_dir=cache_dir)
    leaf = root / "repro/leaf.py"
    leaf.write_text("Z = 4\n")
    result = lint_project([root], cache_dir=cache_dir, changed_only=True)
    assert [p.rsplit("/", 1)[-1] for p in result.analyzed_paths] \
        == ["leaf.py"]
    assert result.files_total == 1


def test_cache_disabled_analyzes_everything(tmp_path):
    root = write_tree(tmp_path / "proj", CACHE_TREE)
    cache_dir = tmp_path / "cache"
    lint_project([root], cache_dir=cache_dir)
    result = lint_project([root], cache_dir=cache_dir, use_cache=False)
    assert result.files_analyzed == len(CACHE_TREE)
    assert result.files_reused == 0


def test_cache_different_selects_do_not_collide(tmp_path):
    root = write_tree(tmp_path / "proj", CACHE_TREE)
    cache_dir = tmp_path / "cache"
    lint_project([root], select=["RPR008"], cache_dir=cache_dir)
    lint_project([root], select=["RPR010"], cache_dir=cache_dir)
    warm = lint_project([root], select=["RPR008"], cache_dir=cache_dir)
    assert warm.files_analyzed == 0
    assert len(list(cache_dir.glob("lint-*.json"))) == 2


def test_cache_file_is_deterministic_json(tmp_path):
    root = write_tree(tmp_path / "proj", CACHE_TREE)
    cache_dir = tmp_path / "cache"
    lint_project([root], cache_dir=cache_dir)
    cache_file = next(cache_dir.glob("lint-*.json"))
    first = cache_file.read_text()
    document = json.loads(first)
    assert document["schema"] == "repro.lint.cache/2"
    lint_project([root], cache_dir=cache_dir)
    assert cache_file.read_text() == first


# ---------------------------------------------------------------------------
# RPR009 cache soundness: its facts flow AGAINST import edges, so plain
# reverse-import invalidation cannot keep per-file verdicts fresh.  The
# driver recomputes the fork-share verdict map globally from cached fact
# summaries and promotes any file whose verdicts changed — warm results
# must always equal a cold --no-cache run.


SUBMITTER_TREE = {
    "repro/__init__.py": "",
    "repro/state.py": "CACHE = {}\n",
    "repro/work.py": textwrap.dedent("""\
        from repro import state


        def task(item):
            state.CACHE[item] = 1
            return item
        """),
    "repro/driver.py": textwrap.dedent("""\
        from repro.work import task


        def run(items):
            return [task(item) for item in items]
        """),
}

SUBMITTER_POOL = textwrap.dedent("""\
    from multiprocessing import Pool

    from repro.work import task


    def run(items):
        with Pool() as pool:
            return list(pool.imap(task, items))
    """)


def test_rpr009_submitter_edit_reverdicts_worker_on_warm_run(tmp_path):
    # The conditions for the violation (the pool submission) live in a
    # module that IMPORTS the worker: editing driver.py must re-verdict
    # work.py even though work.py is not in driver.py's reverse closure.
    root = write_tree(tmp_path / "proj", SUBMITTER_TREE)
    cache_dir = tmp_path / "cache"
    clean = lint_project([root], select=["RPR009"], cache_dir=cache_dir)
    assert clean.violations == []
    (root / "repro/driver.py").write_text(SUBMITTER_POOL)
    warm = lint_project([root], select=["RPR009"], cache_dir=cache_dir)
    cold = lint_project([root], select=["RPR009"], use_cache=False)
    assert [v.to_dict() for v in warm.violations] \
        == [v.to_dict() for v in cold.violations]
    hits = violations_of(warm, "RPR009")
    assert len(hits) == 1
    assert hits[0].path.endswith("work.py")
    # And the next warm run serves the same verdict straight from cache.
    again = lint_project([root], select=["RPR009"], cache_dir=cache_dir)
    assert again.files_analyzed == 0
    assert [v.to_dict() for v in again.violations] \
        == [v.to_dict() for v in warm.violations]


def test_rpr009_submission_removal_clears_stale_verdict(tmp_path):
    tree = dict(SUBMITTER_TREE)
    tree["repro/driver.py"] = SUBMITTER_POOL
    root = write_tree(tmp_path / "proj", tree)
    cache_dir = tmp_path / "cache"
    dirty = lint_project([root], select=["RPR009"], cache_dir=cache_dir)
    assert len(violations_of(dirty, "RPR009")) == 1
    (root / "repro/driver.py").write_text(SUBMITTER_TREE["repro/driver.py"])
    warm = lint_project([root], select=["RPR009"], cache_dir=cache_dir)
    assert warm.violations == []
    assert lint_project([root], select=["RPR009"],
                        use_cache=False).violations == []


def test_rpr009_changed_only_reports_promoted_files(tmp_path):
    # The PR fast path must surface verdict flips in files outside the
    # dirty set, or a cached PR build passes while uncached main fails.
    root = write_tree(tmp_path / "proj", SUBMITTER_TREE)
    cache_dir = tmp_path / "cache"
    lint_project([root], select=["RPR009"], cache_dir=cache_dir)
    (root / "repro/driver.py").write_text(SUBMITTER_POOL)
    warm = lint_project([root], select=["RPR009"], cache_dir=cache_dir,
                        changed_only=True)
    assert [v.path.rsplit("/", 1)[-1]
            for v in violations_of(warm, "RPR009")] == ["work.py"]
    analyzed = {p.rsplit("/", 1)[-1] for p in warm.analyzed_paths}
    assert "work.py" in analyzed


FLIP_TREE = {
    "repro/__init__.py": "",
    "repro/state.py": "CACHE = {}\n",
    "repro/work.py": textwrap.dedent("""\
        from repro import state


        def task(item):
            return state.CACHE[item]
        """),
    "repro/runner.py": textwrap.dedent("""\
        from multiprocessing import Pool

        from repro.work import task


        def run(items):
            with Pool() as pool:
                return list(pool.imap(task, items))
        """),
    "repro/writer.py": textwrap.dedent("""\
        from repro import state


        def poke():
            return None
        """),
}


def test_rpr009_unrelated_writer_flips_read_verdict_on_warm_run(tmp_path):
    # A worker READ of a never-written global is safe.  A module with no
    # import relationship to the worker gaining a runtime write must flip
    # the worker's verdict — even though the worker is neither changed,
    # dirty, nor even re-parsed on the warm run.
    root = write_tree(tmp_path / "proj", FLIP_TREE)
    cache_dir = tmp_path / "cache"
    clean = lint_project([root], select=["RPR009"], cache_dir=cache_dir)
    assert clean.violations == []
    (root / "repro/writer.py").write_text(textwrap.dedent("""\
        from repro import state


        def poke():
            state.CACHE["k"] = 1
        """))
    warm = lint_project([root], select=["RPR009"], cache_dir=cache_dir)
    cold = lint_project([root], select=["RPR009"], use_cache=False)
    assert [v.to_dict() for v in warm.violations] \
        == [v.to_dict() for v in cold.violations]
    paths = {v.path.rsplit("/", 1)[-1]
             for v in violations_of(warm, "RPR009")}
    assert "work.py" in paths
    # Reverting the writer clears the read verdict again.
    (root / "repro/writer.py").write_text(FLIP_TREE["repro/writer.py"])
    reverted = lint_project([root], select=["RPR009"], cache_dir=cache_dir)
    assert violations_of(reverted, "RPR009") == []


def test_rpr009_removed_submitter_clears_verdict(tmp_path):
    tree = dict(SUBMITTER_TREE)
    tree["repro/driver.py"] = SUBMITTER_POOL
    root = write_tree(tmp_path / "proj", tree)
    cache_dir = tmp_path / "cache"
    assert len(violations_of(
        lint_project([root], select=["RPR009"], cache_dir=cache_dir),
        "RPR009")) == 1
    (root / "repro/driver.py").unlink()
    warm = lint_project([root], select=["RPR009"], cache_dir=cache_dir)
    assert warm.violations == []


# ---------------------------------------------------------------------------
# module-name collisions and the cache signature


def test_same_stem_scripts_do_not_collide(tmp_path):
    # Two files resolving to the same dotted module name (same-stem
    # scripts in non-package directories) must keep separate import
    # edges and dirty state.
    write_tree(tmp_path, {
        "a/tool.py": "import json\n\n\ndef dump(xs):\n"
                     "    return json.dumps(list(set(xs)))\n",
        "b/tool.py": "X = 1\n",
    })
    roots = [tmp_path / "a", tmp_path / "b"]
    cache_dir = tmp_path / "cache"
    cold = lint_project(roots, select=["RPR010"], cache_dir=cache_dir)
    assert [v.path.rsplit("/", 2)[-2:] for v in cold.violations] \
        == [["a", "tool.py"]]
    warm = lint_project(roots, select=["RPR010"], cache_dir=cache_dir)
    assert warm.files_analyzed == 0
    assert [v.to_dict() for v in warm.violations] \
        == [v.to_dict() for v in cold.violations]
    # Editing one of them re-analyzes only that file, and the shadowed
    # file's verdicts survive untouched.
    (tmp_path / "b/tool.py").write_text("X = 2\n")
    edited = lint_project(roots, select=["RPR010"], cache_dir=cache_dir)
    assert [p.rsplit("/", 2)[-2:] for p in edited.analyzed_paths] \
        == [["b", "tool.py"]]
    assert [v.to_dict() for v in edited.violations] \
        == [v.to_dict() for v in cold.violations]


def test_cache_signature_tracks_engine_sources(monkeypatch):
    from repro.lint import cache as cache_mod
    baseline = cache_mod.cache_signature(["RPR001"], ["summary"])
    assert cache_mod.cache_signature(["RPR001"], ["summary"]) == baseline
    monkeypatch.setattr(cache_mod, "_ENGINE_DIGEST", "0" * 16)
    assert cache_mod.cache_signature(["RPR001"], ["summary"]) != baseline


# ---------------------------------------------------------------------------
# per-rule timings


def test_project_result_reports_rule_timings(tmp_path):
    root = write_tree(tmp_path / "proj", CACHE_TREE)
    result = lint_project([root], use_cache=False)
    assert set(result.timings) == set(RULES)
    for rule_id in ("RPR008", "RPR009", "RPR010"):
        assert result.timings[rule_id].count > 0


def test_project_context_memo_is_per_run(tmp_path):
    graph = ProjectGraph()
    context = ProjectContext(graph)
    built = []
    first = context.memo("key", lambda: built.append(1) or "value")
    second = context.memo("key", lambda: built.append(2) or "other")
    assert first == second == "value"
    assert built == [1]
