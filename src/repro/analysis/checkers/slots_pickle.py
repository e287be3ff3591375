"""RPR002 — ``__slots__`` + guarded ``__setattr__`` needs explicit pickle state.

The PR-7 crash: ``AndNode``/``OrNode`` declare ``__slots__`` and freeze
themselves with a raising ``__setattr__``. Default unpickling of a slotted
class restores state via ``setattr`` — which the guard rejects — so the
first migration payload carrying a query tree across a process boundary
blew up with the class's own "is immutable" error. Any class combining an
explicit ``__slots__`` with a custom ``__setattr__`` must define *both*
``__getstate__`` and ``__setstate__`` (rebuilding state through
``object.__setattr__``), or ``__reduce__``.

Frozen/slotted *dataclasses* are exempt: the decorator generates working
pickle hooks itself.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Checker, Finding, ModuleInfo

__all__ = ["SlotsPickleChecker"]


def _class_member_names(cls: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _is_dataclass_decorated(cls: ast.ClassDef, module: ModuleInfo) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        resolved = module.imports.resolve(target)
        if resolved in ("dataclasses.dataclass",):
            return True
    return False


class SlotsPickleChecker(Checker):
    rule = "RPR002"
    title = "__slots__ class with guarded __setattr__ lacks pickle hooks"

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            members = _class_member_names(node)
            if "__slots__" not in members or "__setattr__" not in members:
                continue
            if _is_dataclass_decorated(node, module):
                continue
            if "__reduce__" in members or "__reduce_ex__" in members:
                continue
            if "__getstate__" in members and "__setstate__" in members:
                continue
            yield module.finding(
                self.rule,
                node,
                f"class {node.name} declares __slots__ and a custom "
                "__setattr__ but not both __getstate__ and __setstate__; "
                "default unpickling restores slots via setattr and will hit "
                "the guard — rebuild state through object.__setattr__ in "
                "explicit pickle hooks",
            )
