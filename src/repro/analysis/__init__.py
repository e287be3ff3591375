"""repro.analysis — AST-based invariant linting for the serving stack.

Zero-dependency static analysis enforcing the concurrency/determinism
invariants this project learned the hard way (see README, "Static analysis
& invariants"):

========  ============================================================
RPR001    lock-bearing classes must define pickle state hooks
RPR002    ``__slots__`` + guarded ``__setattr__`` needs explicit hooks
RPR003    multi-lock acquisition only via blessed id-ordered helpers
RPR004    spawn-context multiprocessing; import-clean worker deps
RPR005    no unseeded RNG / wall-clock logic in determinism hot paths
RPR006    no bare ``except`` / swallowed errors in worker hot loops
========  ============================================================

Run it as ``repro lint [paths]`` or programmatically::

    from repro.analysis import lint_paths
    result = lint_paths(["src"])
    assert result.ok, result.render_text()

Suppress a single line with ``# repro-lint: disable=RPR005`` (or
``disable=all``); suppressed findings stay counted in the output.
"""

from __future__ import annotations

from repro.analysis.base import Checker, Finding, ModuleInfo, ProjectInfo
from repro.analysis.checkers import REGISTRY, rule_titles
from repro.analysis.checkers.pickle_locks import LOCK_CONSTRUCTORS, lock_fields
from repro.analysis.config import ALL_RULES, LintConfig, load_pyproject_config
from repro.analysis.engine import (
    LintResult,
    lint_paths,
    lint_sources,
    module_name_for,
    rule_listing,
)

__all__ = [
    "ALL_RULES",
    "Checker",
    "Finding",
    "LOCK_CONSTRUCTORS",
    "LintConfig",
    "LintResult",
    "ModuleInfo",
    "ProjectInfo",
    "REGISTRY",
    "lint_paths",
    "lint_sources",
    "lock_fields",
    "load_pyproject_config",
    "module_name_for",
    "rule_listing",
    "rule_titles",
]
