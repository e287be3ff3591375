"""Configuration for the invariant linter.

Defaults encode this repository's conventions (blessed multi-lock helpers,
the cluster worker as the spawn-safety root, which packages are determinism
hot paths). Projects — and the fixture tests — override them either
programmatically or through a ``[tool.repro-lint]`` table in
``pyproject.toml``::

    [tool.repro-lint]
    ignore = ["RPR005"]
    blessed-multilock = ["merge", "absorb"]

Unknown keys and unknown rule ids raise :class:`~repro.errors.AnalysisError`
so a typo in CI config fails loudly instead of silently disabling a rule.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import AnalysisError

__all__ = ["LintConfig", "load_pyproject_config", "ALL_RULES"]

ALL_RULES: tuple[str, ...] = (
    "RPR001",
    "RPR002",
    "RPR003",
    "RPR004",
    "RPR005",
    "RPR006",
)

# pyproject key (kebab-case) -> LintConfig field.
_PYPROJECT_KEYS: dict[str, str] = {
    "select": "select",
    "ignore": "ignore",
    "blessed-multilock": "blessed_multilock",
    "worker-root": "worker_root",
    "determinism-scope": "determinism_scope",
    "except-scope": "except_scope",
}


@dataclass(frozen=True)
class LintConfig:
    """Knobs for one lint run.

    Parameters
    ----------
    select:
        Rule ids to run; empty means all registered rules.
    ignore:
        Rule ids to skip (applied after ``select``).
    blessed_multilock:
        Function names allowed to hold two locks at once because they use
        the id-ordered acquisition idiom (RPR003).
    worker_root:
        Dotted module whose transitive imports must be free of import-time
        thread/lock/pool creation (RPR004). Skipped when the module is not
        part of the linted tree.
    determinism_scope:
        Dotted-module prefixes treated as determinism hot paths (RPR005).
        Empty means every linted module.
    except_scope:
        Dotted-module prefixes where a swallowed ``except Exception: pass``
        is an error (RPR006). Bare ``except:`` is flagged everywhere
        regardless. Empty means every linted module.
    """

    select: tuple[str, ...] = ()
    ignore: tuple[str, ...] = ()
    blessed_multilock: tuple[str, ...] = ("merge", "absorb", "merge_from")
    worker_root: str = "repro.cluster.worker"
    determinism_scope: tuple[str, ...] = (
        "repro.adaptive",
        "repro.cluster",
        "repro.core",
        "repro.engine",
        "repro.service",
        "repro.streams",
    )
    except_scope: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for rule in (*self.select, *self.ignore):
            if rule not in ALL_RULES:
                raise AnalysisError(
                    f"unknown rule {rule!r}; expected one of {', '.join(ALL_RULES)}"
                )

    def enabled_rules(self) -> tuple[str, ...]:
        chosen = self.select or ALL_RULES
        return tuple(rule for rule in chosen if rule not in self.ignore)

    def with_overrides(self, overrides: Mapping[str, object]) -> "LintConfig":
        """A copy with ``overrides`` (LintConfig field name -> value) applied."""
        known = {f.name for f in fields(self)}
        cleaned: dict[str, Any] = {}
        for key, value in overrides.items():
            if key not in known:
                raise AnalysisError(f"unknown lint config key {key!r}")
            if isinstance(value, list):
                value = tuple(value)
            cleaned[key] = value
        return replace(self, **cleaned)


def _coerce(key: str, value: object) -> object:
    if key in ("worker_root",):
        if not isinstance(value, str):
            raise AnalysisError(f"lint config {key!r} must be a string")
        return value
    if isinstance(value, str):
        return (value,)
    if isinstance(value, Iterable):
        items = tuple(value)
        if not all(isinstance(item, str) for item in items):
            raise AnalysisError(f"lint config {key!r} must be a list of strings")
        return items
    raise AnalysisError(f"lint config {key!r} must be a string or list of strings")


def load_pyproject_config(
    start: str | Path | None = None, base: LintConfig | None = None
) -> LintConfig:
    """``base`` updated from the nearest ``pyproject.toml``'s ``[tool.repro-lint]``.

    Searches ``start`` (a file or directory; default: the current working
    directory) and its ancestors. Missing file, missing table, or a Python
    without :mod:`tomllib` (< 3.11) all return ``base`` unchanged — the
    linter stays zero-dependency and zero-config by default.
    """
    config = base if base is not None else LintConfig()
    if sys.version_info < (3, 11):  # pragma: no cover - tomllib is 3.11+
        return config
    import tomllib

    path = Path(start) if start is not None else Path.cwd()
    if path.is_file():
        path = path.parent
    for directory in (path, *path.parents):
        candidate = directory / "pyproject.toml"
        if not candidate.is_file():
            continue
        try:
            data = tomllib.loads(candidate.read_text(encoding="utf-8"))
        except tomllib.TOMLDecodeError as exc:
            raise AnalysisError(f"cannot parse {candidate}: {exc}") from None
        table = data.get("tool", {}).get("repro-lint")
        if table is None:
            return config
        overrides: dict[str, object] = {}
        for key, value in table.items():
            field_name = _PYPROJECT_KEYS.get(key)
            if field_name is None:
                raise AnalysisError(
                    f"unknown [tool.repro-lint] key {key!r} in {candidate}; "
                    f"expected one of {', '.join(sorted(_PYPROJECT_KEYS))}"
                )
            overrides[field_name] = _coerce(field_name, value)
        return config.with_overrides(overrides)
    return config
