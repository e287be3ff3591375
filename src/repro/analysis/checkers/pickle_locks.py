"""RPR001 — lock-bearing classes must control their pickle protocol.

The PR-7 bug class: ``PlanCache``, the stream sources and the metrics cells
all held a ``threading.Lock`` and crossed process boundaries inside
``Migration``/telemetry payloads; default pickling walks ``__dict__``
and dies on the lock (``TypeError: cannot pickle '_thread.lock' object``)
— at *send* time, deep inside a worker pipe, long after the class was
written. The invariant: any class that stores a lock (directly or via a
field assigned in any of its methods) must say what pickling means for it
by defining ``__getstate__`` (with ``__setstate__`` to rebuild the lock) or
``__reduce__``/``__reduce_ex__``. Deliberately process-local classes
satisfy the rule with a ``__getstate__`` that raises a clear ``TypeError``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Checker, Finding, ModuleInfo

__all__ = ["PickleLockChecker", "lock_fields", "LOCK_CONSTRUCTORS"]

# Fully-qualified constructors whose instances do not pickle. Condition and
# friends wrap a lock, so they are just as lethal to default pickling.
LOCK_CONSTRUCTORS: frozenset[str] = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Event",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
    }
)

_PICKLE_HOOKS = ("__getstate__", "__reduce__", "__reduce_ex__")


def _method_defs(cls: ast.ClassDef) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def lock_fields(cls: ast.ClassDef, module: ModuleInfo) -> dict[str, int]:
    """``self.<field> = <lock constructor>()`` assignments in ``cls``.

    Returns field name -> line of the first assigning statement. Only
    direct construction counts; a field assigned from a parameter could be
    anything, and flagging it would drown the rule in false positives.
    """
    fields: dict[str, int] = {}
    for method in _method_defs(cls):
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            target_path = module.imports.resolve(node.value.func)
            if target_path not in LOCK_CONSTRUCTORS:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    fields.setdefault(target.attr, node.lineno)
    return fields


def has_pickle_hook(cls: ast.ClassDef) -> bool:
    names = {method.name for method in _method_defs(cls)}
    return any(hook in names for hook in _PICKLE_HOOKS)


class PickleLockChecker(Checker):
    rule = "RPR001"
    title = "lock-bearing class without pickle state hooks"

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            if has_pickle_hook(node):  # cheap check first; skips the walk
                continue
            fields = lock_fields(node, module)
            if not fields:
                continue
            names = ", ".join(sorted(fields))
            yield module.finding(
                self.rule,
                node,
                f"class {node.name} stores a lock in self.{{{names}}} but "
                "defines no __getstate__/__setstate__ (or __reduce__); "
                "default pickling will fail at send time — drop and "
                "recreate the lock, or raise TypeError explicitly for "
                "process-local classes",
            )
