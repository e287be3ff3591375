"""Reflection-driven pickle audit of every lock-bearing class in the tree.

The linter's RPR001 proves each lock-bearing class *defines* pickle hooks;
this test proves the hooks *work*. It discovers the classes the same way
the checker does (AST scan over ``src/repro``), then demands that every
one appears in exactly one of two maps:

* ``FACTORIES`` — picklable classes: build an instance, round-trip it,
  assert the lock fields come back as fresh, unshared locks.
* ``UNPICKLABLE_BY_DESIGN`` — process-local classes whose ``__getstate__``
  raises a deliberate ``TypeError`` instead of emitting a corpse that
  fails at load time.

Adding a new lock-bearing class without extending one of the maps fails
the coverage assertion — the audit can never silently go stale.
"""

from __future__ import annotations

import ast
import importlib
import pickle
import threading
from pathlib import Path

import pytest

import repro
from repro.analysis import ModuleInfo, lock_fields, module_name_for
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, Tracer
from repro.service import PlanCache
from repro.streams import (
    DriftingSource,
    DriftSchedule,
    DropoutSource,
    FailingSource,
    StepDrift,
    UniformSource,
)

SRC = Path(repro.__file__).parent


def discover_lock_bearing_classes() -> dict[str, tuple[type, tuple[str, ...]]]:
    """``"module.Class" -> (class object, lock field names)`` for src/repro."""
    found: dict[str, tuple[type, tuple[str, ...]]] = {}
    for file in sorted(SRC.rglob("*.py")):
        name = module_name_for(file)
        source = file.read_text(encoding="utf-8")
        info = ModuleInfo(path=str(file), name=name, source=source, tree=ast.parse(source))
        for node in info.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            fields = lock_fields(node, info)
            if not fields:
                continue
            cls = getattr(importlib.import_module(name), node.name)
            found[f"{name}.{node.name}"] = (cls, tuple(sorted(fields)))
    return found


def _uniform() -> UniformSource:
    return UniformSource(seed=11)


def _drifting() -> DriftingSource:
    schedule = DriftSchedule([0.3], [StepDrift(at=8, targets={0: 0.9})])
    return DriftingSource(schedule, seed=13)


# Picklable lock holders: a factory building a *warmed* representative
# instance (an instance of the class or of a concrete subclass).
FACTORIES = {
    "repro.obs.metrics.Counter": lambda: Counter(),
    "repro.obs.metrics.Gauge": lambda: Gauge(),
    "repro.obs.metrics.Histogram": lambda: Histogram(),
    "repro.obs.metrics.MetricsRegistry": lambda: MetricsRegistry(),
    "repro.service.plan_cache.PlanCache": lambda: PlanCache(capacity=8),
    "repro.streams.sources._SequentialSource": _uniform,
    "repro.streams.drift.DriftingSource": _drifting,
    "repro.streams.failures.FailingSource": lambda: FailingSource(
        UniformSource(seed=5), 0.5, seed=33
    ),
    "repro.streams.failures.DropoutSource": lambda: DropoutSource(
        UniformSource(seed=5), 0.4, seed=21
    ),
}

# Process-local by contract: __getstate__ raises a clear TypeError. Their
# constructors spawn processes or wire live registries, so the contract is
# checked on a bare instance — __getstate__ raises before reading state.
UNPICKLABLE_BY_DESIGN = {
    "repro.obs.trace.Tracer",
    "repro.service.server.QueryServer",
    "repro.cluster.cluster.ClusterServer",
    "repro.cluster.worker.WorkerTransport",
}

_LOCKY = (
    type(threading.Lock()),
    type(threading.RLock()),
    threading.Condition,
    threading.Semaphore,
    threading.Event,
)

DISCOVERED = discover_lock_bearing_classes()


def _attr_names(obj: object) -> set[str]:
    """Instance attribute names for both ``__dict__`` and ``__slots__`` classes."""
    if hasattr(obj, "__dict__"):
        return set(obj.__dict__)
    names: set[str] = set()
    for klass in type(obj).__mro__:
        names.update(getattr(klass, "__slots__", ()))
    return {name for name in names if hasattr(obj, name)}


def test_every_lock_bearing_class_is_audited() -> None:
    assert set(DISCOVERED) == set(FACTORIES) | UNPICKLABLE_BY_DESIGN, (
        "lock-bearing classes changed; extend FACTORIES or "
        "UNPICKLABLE_BY_DESIGN to keep the pickle audit exhaustive"
    )
    assert not set(FACTORIES) & UNPICKLABLE_BY_DESIGN


@pytest.mark.parametrize("qualname", sorted(FACTORIES))
def test_round_trip_recreates_fresh_locks(qualname: str) -> None:
    cls, fields = DISCOVERED[qualname]
    donor = FACTORIES[qualname]()
    assert isinstance(donor, cls)
    copy = pickle.loads(pickle.dumps(donor))
    assert isinstance(copy, type(donor))
    assert _attr_names(copy) == _attr_names(donor)
    for field_name in fields:
        donor_lock = getattr(donor, field_name)
        copy_lock = getattr(copy, field_name)
        assert isinstance(copy_lock, _LOCKY), (qualname, field_name)
        assert copy_lock is not donor_lock, (
            f"{qualname}.{field_name} was shared across the pickle boundary"
        )


@pytest.mark.parametrize("qualname", sorted(UNPICKLABLE_BY_DESIGN))
def test_process_local_classes_refuse_to_pickle(qualname: str) -> None:
    cls, _ = DISCOVERED[qualname]
    instance = object.__new__(cls)
    with pytest.raises(TypeError, match="pickle|process-local"):
        pickle.dumps(instance)


def test_warmed_plan_cache_round_trip_preserves_entries() -> None:
    """One end-to-end behavioral check on the motivating PR-7 class."""
    cache = PlanCache(capacity=8)
    copy = pickle.loads(pickle.dumps(cache))
    assert copy.capacity == cache.capacity
    assert type(copy._lock) is type(cache._lock)
