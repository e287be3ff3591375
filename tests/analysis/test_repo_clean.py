"""The linter against the real tree: clean, fast, and still sharp.

The mutation check is the acceptance test for RPR001: textually delete
``__getstate__`` from the real ``PlanCache`` source and assert the rule
fires. If a refactor ever makes the checker blind to the exact bug class
PR 7 fixed by hand, this test goes red — a linter that stays green on its
own motivating bug is worthless.
"""

import ast
import time
from pathlib import Path

import repro
from repro.analysis import lint_paths, lint_sources

SRC = Path(repro.__file__).parent  # .../src/repro
PLAN_CACHE = SRC / "service" / "plan_cache.py"


def _without_method(source: str, class_name: str, method: str) -> str:
    """``source`` with ``class_name.method`` textually removed."""
    tree = ast.parse(source)
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == method:
                    assert item.end_lineno is not None
                    spans.append((item.lineno, item.end_lineno))
    assert spans, f"{class_name}.{method} not found — update this test"
    lines = source.splitlines(keepends=True)
    for start, end in sorted(spans, reverse=True):
        del lines[start - 1 : end]
    return "".join(lines)


def test_repo_lints_clean() -> None:
    result = lint_paths([SRC])
    assert result.ok, "\n" + result.render_text()
    # The one sanctioned suppression: worker __del__ cleanup.
    assert len(result.suppressed) == 1
    assert result.suppressed[0].rule == "RPR006"
    assert result.files > 90


def test_lint_is_fast_enough_for_ci() -> None:
    start = time.perf_counter()
    lint_paths([SRC])
    elapsed = time.perf_counter() - start
    # ~0.4 s locally; 5 s leaves room for cold caches and slow CI runners.
    assert elapsed < 5.0, f"lint took {elapsed:.2f}s over {SRC}"


def test_mutated_plan_cache_without_getstate_fires_rpr001() -> None:
    source = PLAN_CACHE.read_text(encoding="utf-8")
    mutated = _without_method(source, "PlanCache", "__getstate__")
    result = lint_sources({str(PLAN_CACHE): mutated})
    fired = result.rules_fired()
    assert fired.get("RPR001", 0) >= 1, (
        "deleting PlanCache.__getstate__ must trip RPR001; got: "
        + result.render_text()
    )
    assert any(
        f.rule == "RPR001" and "PlanCache" in f.message and f.path == str(PLAN_CACHE)
        for f in result.findings
    )


def test_unmutated_plan_cache_is_silent() -> None:
    source = PLAN_CACHE.read_text(encoding="utf-8")
    result = lint_sources({str(PLAN_CACHE): source})
    assert result.ok, result.render_text()


def test_shard_module_is_in_the_worker_spawn_closure() -> None:
    """Spawned workers import the shard command table, so an import-time
    lock in ``repro.cluster.shard`` must trip RPR004's project half."""
    shard = SRC / "cluster" / "shard.py"
    sources = {str(path): path.read_text(encoding="utf-8") for path in SRC.rglob("*.py")}
    sources[str(shard)] += "\nimport threading\n\n_LOCK = threading.Lock()\n"
    result = lint_sources(sources)
    assert any(
        f.rule == "RPR004" and f.path == str(shard) for f in result.findings
    ), result.render_text()
