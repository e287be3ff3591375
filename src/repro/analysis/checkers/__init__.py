"""Checker registry: rule id -> checker class.

Adding a rule is one entry here plus one module; the engine, CLI
``--select/--ignore`` filters, suppression pragmas and JSON output all pick
it up from the registry.
"""

from __future__ import annotations

from repro.analysis.base import Checker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.exceptions import ExceptionHygieneChecker
from repro.analysis.checkers.lock_order import LockOrderChecker
from repro.analysis.checkers.pickle_locks import PickleLockChecker
from repro.analysis.checkers.slots_pickle import SlotsPickleChecker
from repro.analysis.checkers.spawn_safety import SpawnSafetyChecker

__all__ = ["REGISTRY", "checker_classes", "rule_titles"]

REGISTRY: dict[str, type[Checker]] = {
    PickleLockChecker.rule: PickleLockChecker,
    SlotsPickleChecker.rule: SlotsPickleChecker,
    LockOrderChecker.rule: LockOrderChecker,
    SpawnSafetyChecker.rule: SpawnSafetyChecker,
    DeterminismChecker.rule: DeterminismChecker,
    ExceptionHygieneChecker.rule: ExceptionHygieneChecker,
}


def checker_classes(rules: tuple[str, ...]) -> list[type[Checker]]:
    return [REGISTRY[rule] for rule in rules if rule in REGISTRY]


def rule_titles() -> dict[str, str]:
    return {rule: cls.title for rule, cls in REGISTRY.items()}
