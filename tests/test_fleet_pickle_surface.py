"""The fleet's spawn/pickle surface, checked at runtime.

A ``--workers N`` sweep crosses a spawn-process boundary: arms travel as
names and are resolved in the worker, replica specs and prefix studies
travel as pickles. Three things must hold for that to work, and each is
checked here on the live objects rather than on the source text:

* every registered arm is a module-level function a worker can find by
  ``__module__`` plus ``__qualname__`` (no lambdas, nested defs,
  ``functools.partial`` objects or call results);
* every ``ReplicaSpec`` a manifest expands to survives a pickle round
  trip unchanged;
* every ``repro`` type reachable from a restored ``Study`` (or a merged
  ``FleetResult``) resolves by name, and defines both or neither of
  ``__getstate__`` and ``__setstate__``. A class that customizes one
  half of the pickle protocol without the other pickles today and
  silently drops or mis-restores state when either half changes.

Pool submissions need no extra case: a lambda or nested function passed
to ``pool.submit`` raises ``PicklingError`` in the ``--workers 2`` and
``--workers 4`` runs of ``tests/test_fleet_runner.py``
(``TestWorkerCountInvariance``, ``TestInterruptedSweep``).
"""

from __future__ import annotations

import gc
import importlib
import pickle
import types

import pytest

from repro.core import Study
from repro.core.config import StudyConfig
from repro.fleet import (
    ARMS,
    PREFIXES,
    ArmSpec,
    FleetRunner,
    ReplicaSpec,
    SweepManifest,
    advance_prefix,
    build_prefix,
    expand_manifest,
    restore_study,
    snapshot_study,
)

#: objects whose referents are code and module state, not study data:
#: following them would walk the whole interpreter
_OPAQUE = (type, types.ModuleType, types.BuiltinFunctionType, types.CodeType)


def _resolve(module: str, qualname: str) -> object:
    target: object = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


def _repro_types(*roots: object) -> set[type]:
    """Every ``repro.*`` type among the objects reachable from ``roots``."""
    seen = {id(root) for root in roots}
    stack = list(roots)
    found: set[type] = set()
    while stack:
        obj = stack.pop()
        cls = type(obj)
        if cls.__module__.startswith("repro."):
            found.add(cls)
        if isinstance(obj, _OPAQUE):
            continue
        if isinstance(obj, types.FunctionType):
            # what a function carries with it, never its module globals
            referents = [obj.__defaults__, obj.__kwdefaults__, obj.__closure__]
        else:
            referents = gc.get_referents(obj)
        for referent in referents:
            if id(referent) not in seen:
                seen.add(id(referent))
                stack.append(referent)
    return found


def _defines(cls: type, hook: str) -> bool:
    return any(hook in vars(klass) for klass in cls.__mro__ if klass is not object)


def _unpaired_state_hooks(classes: set[type]) -> list[str]:
    return sorted(
        f"{cls.__module__}.{cls.__qualname__}"
        for cls in classes
        if _defines(cls, "__getstate__") != _defines(cls, "__setstate__")
    )


def _unresolvable(classes: set[type]) -> list[str]:
    bad = []
    for cls in classes:
        try:
            resolved = _resolve(cls.__module__, cls.__qualname__)
        except (ImportError, AttributeError):
            resolved = None
        if resolved is not cls:
            bad.append(f"{cls.__module__}.{cls.__qualname__}")
    return sorted(bad)


@pytest.mark.parametrize("name", sorted(ARMS))
def test_arm_resolves_by_module_and_qualname(name: str) -> None:
    fn = ARMS[name]
    assert isinstance(fn, types.FunctionType), f"arm {name!r} is not a plain function"
    assert "<" not in fn.__qualname__, f"arm {name!r} is a lambda or nested def"
    assert _resolve(fn.__module__, fn.__qualname__) is fn


@pytest.mark.parametrize("prefix", PREFIXES)
def test_expanded_replica_specs_survive_a_pickle_round_trip(prefix: str) -> None:
    manifest = SweepManifest(
        name="pickle-surface",
        prefix=prefix,
        seeds=(5, 6),
        measurement_days=(1, 2),
        arms=tuple(ArmSpec(arm=name) for name in sorted(ARMS))
        + (ArmSpec(arm="narrow", name="grid", grid=(("narrow_days", (1, 2)),)),),
    )
    specs = expand_manifest(manifest)
    assert {spec.arm for spec in specs} == set(ARMS)
    for spec in specs:
        thawed = pickle.loads(pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL))
        assert thawed == spec
        assert thawed.prefix == prefix


@pytest.fixture(scope="module")
def restored_types() -> dict[str, set[type]]:
    """The ``repro`` types under a tiny study restored at each prefix."""
    config = StudyConfig.tiny(seed=11)
    study = build_prefix(config, PREFIXES[0])
    found: dict[str, set[type]] = {}
    for prefix in PREFIXES:
        if prefix != PREFIXES[0]:
            advance_prefix(study, prefix)
        restored = restore_study(snapshot_study(study, prefix))
        assert isinstance(restored, Study)
        found[prefix] = _repro_types(restored)
    return found


@pytest.mark.parametrize("prefix", PREFIXES)
def test_restored_study_types_resolve_and_pair_their_state_hooks(
    restored_types, prefix: str
) -> None:
    classes = restored_types[prefix]
    assert Study in classes
    assert _unresolvable(classes) == []
    assert _unpaired_state_hooks(classes) == []


def test_fleet_result_types_resolve_and_pair_their_state_hooks() -> None:
    config = StudyConfig.tiny(seed=11)
    specs = [
        ReplicaSpec(name=f"r{days}", config=config, arm_options=(("measurement_days", days),))
        for days in (1, 2)
    ]
    result = FleetRunner(workers=1).run(specs)
    classes = _repro_types(result)
    assert {type(result), type(result.replicas[0])} <= classes
    assert _unresolvable(classes) == []
    assert _unpaired_state_hooks(classes) == []


def test_the_walk_sees_the_follower_graph_state_hooks(restored_types) -> None:
    """Guard the guard: the walk reaches a class that pairs its hooks."""
    paired = {
        cls
        for cls in restored_types[PREFIXES[-1]]
        if _defines(cls, "__getstate__") and _defines(cls, "__setstate__")
    }
    assert "FollowerGraph" in {cls.__name__ for cls in paired}
