"""Checker framework for :mod:`repro.analysis`.

The linter is a thin orchestration layer over small, single-invariant
*checkers*. Each checker owns one rule id (``RPR001`` .. ``RPR006``), walks
pre-parsed module ASTs and yields :class:`Finding` records; the engine
handles discovery, suppression pragmas and rendering.

Two levels of context are provided:

* :class:`ModuleInfo` — one parsed file: its path, dotted module name,
  source lines and AST. Most checkers are purely per-module.
* :class:`ProjectInfo` — every module of one lint run plus the internal
  import graph, for whole-program invariants (RPR004's "no import-time side
  effects in anything the cluster worker imports" needs reachability).

The shared AST helpers here (:class:`ImportMap`, :func:`dotted_name`,
:func:`resolve_call`) answer the one question almost every rule asks:
*which fully-qualified name does this expression refer to?* — so individual
checkers can match on ``"threading.Lock"`` or ``"numpy.random.rand"``
regardless of how the module spelled its imports.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

__all__ = [
    "Finding",
    "Checker",
    "ModuleInfo",
    "ProjectInfo",
    "ImportMap",
    "dotted_name",
    "resolve_call",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """The canonical ``file:line:col: RPRxxx message`` text form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    This is purely syntactic: ``self._lock`` becomes ``"self._lock"``,
    ``np.random.rand`` becomes ``"np.random.rand"``. Call/subscript chains
    (``get_context().Pool``) yield ``None`` — checkers treat those as
    unresolvable rather than guessing.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class ImportMap:
    """Alias table for one module: local name -> fully-qualified module path.

    Collects every ``import``/``from .. import`` in the module (at any
    depth — function-local imports are common in this codebase to break
    cycles) and resolves expression heads through it::

        import numpy as np          ->  np        => numpy
        from threading import Lock  ->  Lock      => threading.Lock
        from . import worker        ->  worker    => <package>.worker

    Relative imports are resolved against the module's own dotted name.
    """

    def __init__(self, nodes: Sequence[ast.AST], module_name: str = "") -> None:
        self._aliases: dict[str, str] = {}
        self._module_name = module_name
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    self._aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{base}.{alias.name}" if base else alias.name

    def _resolve_from(self, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module or ""
        # Relative: strip `level` trailing components off this module's
        # package path. A module name of "" (unknown) cannot anchor one.
        if not self._module_name:
            return None
        parts = self._module_name.split(".")
        # `from . import x` inside package module a.b.c means package a.b;
        # inside a package __init__ the module name *is* the package.
        if len(parts) < node.level:
            return None
        base_parts = parts[: len(parts) - node.level]
        base = ".".join(base_parts)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base

    def resolve(self, expr: ast.expr) -> str | None:
        """Fully-qualified dotted path for ``expr``, or ``None``.

        ``self.x`` style chains resolve to ``None`` (heads bound to local
        objects, not imports).
        """
        name = dotted_name(expr)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        target = self._aliases.get(head)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target

    def imported_modules(self) -> set[str]:
        """Every module path this module imports (best effort, absolute)."""
        return set(self._aliases.values())


def resolve_call(node: ast.Call, imports: ImportMap) -> str | None:
    """Fully-qualified name of a call's target, or ``None`` if unresolvable."""
    return imports.resolve(node.func)


@dataclass
class ModuleInfo:
    """One parsed source file presented to the checkers."""

    path: str
    name: str  # dotted module name, "" when underivable
    source: str
    tree: ast.Module
    # One flat pre-order walk, shared by every checker: walking the AST once
    # instead of once per rule is what keeps a full-tree lint under ~200 ms.
    nodes: list[ast.AST] = field(init=False)
    imports: ImportMap = field(init=False)

    def __post_init__(self) -> None:
        self.nodes = list(ast.walk(self.tree))
        self.imports = ImportMap(self.nodes, self.name)

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )

    def in_scope(self, prefixes: Sequence[str]) -> bool:
        """True when this module's dotted name falls under any prefix.

        An empty prefix tuple means "everything is in scope" — fixture
        tests use that to point a scoped rule at bare top-level modules.
        """
        if not prefixes:
            return True
        return any(
            self.name == prefix or self.name.startswith(prefix + ".")
            for prefix in prefixes
        )


class ProjectInfo:
    """All modules of one lint run, plus the internal import graph."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules = list(modules)
        self.by_name: Mapping[str, ModuleInfo] = {
            m.name: m for m in self.modules if m.name
        }

    def reachable_from(self, root: str) -> set[str]:
        """Module names transitively imported by ``root`` (inclusive).

        Only edges between modules *in this lint run* are followed; imports
        of the stdlib or third-party packages terminate. ``from pkg import
        name`` resolves to ``pkg.name`` when that is a known module, else to
        ``pkg`` when known (importing a name from a package still executes
        the package and everything its ``__init__`` pulls in).
        """
        if root not in self.by_name:
            return set()
        seen: set[str] = set()
        stack = [root]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            module = self.by_name.get(current)
            if module is None:
                continue
            for target in module.imports.imported_modules():
                for candidate in self._known_prefixes(target):
                    if candidate not in seen:
                        stack.append(candidate)
        return seen

    def _known_prefixes(self, target: str) -> Iterator[str]:
        """Known modules a raw import target maps onto (longest first).

        Importing ``a.b.c`` executes ``a``, ``a.b`` and ``a.b.c``; package
        ``__init__`` modules in between run their import-time code too, so
        every known prefix is an edge.
        """
        parts = target.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.by_name:
                yield candidate


class Checker:
    """Base class for one lint rule.

    Subclasses set ``rule``/``title`` and override :meth:`check_module`;
    whole-program rules may also override :meth:`check_project`, which runs
    once per lint pass after every module has been parsed.
    """

    rule: str = "RPR000"
    title: str = ""

    def __init__(self, config: "LintConfig") -> None:  # noqa: F821 - forward ref
        self.config = config

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: ProjectInfo) -> Iterator[Finding]:
        return iter(())
