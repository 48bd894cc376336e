"""Declarative sweep manifests.

``python -m repro sweep manifest.json`` turns a small JSON grid spec
into a full replica fleet. A manifest names a preset and the axes to
sweep — seeds, population sizes, honeypot-phase lengths, measurement
windows, service mixes — plus the arm variants to run at every grid
point (each arm may carry its own option grid, e.g. a threshold axis).
Expansion is a pure function of the manifest (plus an optional
explicit base config), so the same file always yields the same specs
in the same order, and the fleet merge contract takes it from there.

Expansion order is fixed: ``seed → population → honeypot_days →
measurement_days → service_mix → arm variant``, depth-first. Replica
names encode the grid point (axes the manifest doesn't sweep are
omitted)::

    seed-42/pop260/hp3/md5/mix-paid-only/narrow-narrow_days7

The orchestration payoff: every axis *after* the seed/population axes
shares reuse-tree ancestry (see :mod:`repro.fleet.tree`) — all
``honeypot_days`` variants of one seeded world fork from the same
world-build node, every ``measurement_days`` variant shares the
*entire* prefix chain (the window length is post-prefix), and every
arm variant of one grid point forks from the same signatures node.

``seed_sweep`` (the historical helper in :mod:`repro.fleet.spec`) is a
thin wrapper over :func:`expand_manifest`, so there is exactly one
sweep entry point.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.config import PRESETS, StudyConfig
from repro.fleet.spec import PREFIX_SIGNATURES, PREFIXES, ReplicaSpec

#: bumped whenever the manifest JSON shape changes incompatibly
MANIFEST_SCHEMA_VERSION = 1

#: named service mixes: mix name → plan fields *disabled* (set to None).
#: Hublaagram and Followersgratis are the paper's free collusion-style
#: services; Instalex/Instazood/Boostgram are the paid automation tier.
SERVICE_MIXES: Dict[str, Tuple[str, ...]] = {
    "all": (),
    "no-hublaagram": ("hublaagram",),
    "no-followersgratis": ("followersgratis",),
    "paid-only": ("hublaagram", "followersgratis"),
    "free-only": ("instalex", "instazood", "boostgram"),
}

#: JSON option values an arm may carry
_OPTION_TYPES = (int, float, str, bool, type(None))


class ManifestError(ValueError):
    """A sweep manifest failed schema or semantic validation."""


@dataclass(frozen=True)
class ArmSpec:
    """One arm variant family: an arm name, fixed options, an option grid.

    ``grid`` sweeps option values: each combination becomes its own
    replica, labelled ``<name>-<key><value>...`` in grid-key order.
    """

    arm: str
    name: Optional[str] = None
    options: Tuple[Tuple[str, object], ...] = ()
    grid: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()

    @property
    def label(self) -> str:
        return self.name if self.name else self.arm

    def variants(self) -> List[Tuple[str, Tuple[Tuple[str, object], ...]]]:
        """``(label, merged option tuple)`` per grid combination."""
        if not self.grid:
            return [(self.label, self.options)]
        keys = [key for key, _ in self.grid]
        out: List[Tuple[str, Tuple[Tuple[str, object], ...]]] = []
        for combo in itertools.product(*(values for _, values in self.grid)):
            merged = dict(self.options)
            merged.update(zip(keys, combo))
            suffix = "-".join(f"{key}{value}" for key, value in zip(keys, combo))
            out.append((f"{self.label}-{suffix}", tuple(merged.items())))
        return out


@dataclass(frozen=True)
class SweepManifest:
    """A declarative sweep: preset, axes, and arm variants."""

    name: str
    preset: str = "tiny"
    prefix: str = PREFIX_SIGNATURES
    seeds: Tuple[int, ...] = (42,)
    populations: Tuple[int, ...] = ()
    honeypot_days: Tuple[int, ...] = ()
    measurement_days: Tuple[int, ...] = ()
    service_mixes: Tuple[str, ...] = ()
    arms: Tuple[ArmSpec, ...] = (ArmSpec(arm="standard"),)

    def replica_count(self) -> int:
        per_point = sum(len(arm.variants()) for arm in self.arms)
        return (
            len(self.seeds)
            * max(1, len(self.populations))
            * max(1, len(self.honeypot_days))
            * max(1, len(self.measurement_days))
            * max(1, len(self.service_mixes))
            * per_point
        )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ManifestError(message)


def _int_axis(data: dict, key: str, minimum: int) -> Tuple[int, ...]:
    values = data.get(key, [])
    _require(isinstance(values, list), f"{key!r} must be a list of integers")
    out: List[int] = []
    for value in values:
        _require(
            isinstance(value, int) and not isinstance(value, bool) and value >= minimum,
            f"{key!r} entries must be integers >= {minimum}, got {value!r}",
        )
        out.append(value)
    _require(len(set(out)) == len(out), f"{key!r} must not repeat values")
    return tuple(out)


def _parse_options(raw: object, where: str) -> Tuple[Tuple[str, object], ...]:
    _require(isinstance(raw, dict), f"{where}: 'options' must be an object")
    assert isinstance(raw, dict)
    for key, value in raw.items():
        _require(isinstance(key, str) and key, f"{where}: option keys must be strings")
        _require(
            isinstance(value, _OPTION_TYPES),
            f"{where}: option {key!r} must be a JSON scalar, got {value!r}",
        )
    return tuple(raw.items())


def _parse_arm(raw: object, position: int) -> ArmSpec:
    where = f"arms[{position}]"
    _require(isinstance(raw, dict), f"{where} must be an object")
    assert isinstance(raw, dict)
    unknown = set(raw) - {"arm", "name", "options", "grid"}
    _require(not unknown, f"{where}: unknown keys {sorted(unknown)}")
    arm = raw.get("arm")
    _require(isinstance(arm, str) and bool(arm), f"{where}: 'arm' must be a non-empty string")
    assert isinstance(arm, str)
    from repro.fleet.arms import ARMS

    _require(arm in ARMS, f"{where}: unknown arm {arm!r} (known: {sorted(ARMS)})")
    name = raw.get("name")
    if name is not None:
        _require(isinstance(name, str) and bool(name), f"{where}: 'name' must be a non-empty string")
    options = _parse_options(raw.get("options", {}), where)
    grid_raw = raw.get("grid", {})
    _require(isinstance(grid_raw, dict), f"{where}: 'grid' must be an object of value lists")
    grid: List[Tuple[str, Tuple[object, ...]]] = []
    for key, values in grid_raw.items():
        _require(isinstance(key, str) and bool(key), f"{where}: grid keys must be strings")
        _require(
            isinstance(values, list) and len(values) > 0,
            f"{where}: grid {key!r} must be a non-empty list",
        )
        for value in values:
            _require(
                isinstance(value, _OPTION_TYPES),
                f"{where}: grid {key!r} values must be JSON scalars, got {value!r}",
            )
        _require(len(set(values)) == len(values), f"{where}: grid {key!r} repeats values")
        grid.append((key, tuple(values)))
    return ArmSpec(arm=arm, name=name, options=options, grid=tuple(grid))


def parse_manifest(data: object) -> SweepManifest:
    """Validate a decoded manifest document into a :class:`SweepManifest`."""
    _require(isinstance(data, dict), "manifest must be a JSON object")
    assert isinstance(data, dict)
    known = {
        "schema_version",
        "name",
        "preset",
        "prefix",
        "seeds",
        "populations",
        "honeypot_days",
        "measurement_days",
        "service_mixes",
        "arms",
    }
    unknown = set(data) - known
    _require(not unknown, f"unknown manifest keys {sorted(unknown)}")
    version = data.get("schema_version", MANIFEST_SCHEMA_VERSION)
    _require(
        version == MANIFEST_SCHEMA_VERSION,
        f"manifest schema_version {version!r} != supported {MANIFEST_SCHEMA_VERSION}",
    )
    name = data.get("name")
    _require(isinstance(name, str) and bool(name), "'name' must be a non-empty string")
    assert isinstance(name, str)
    preset = data.get("preset", "tiny")
    _require(
        preset in PRESETS,
        f"unknown preset {preset!r} (known: {sorted(PRESETS)})",
    )
    prefix = data.get("prefix", PREFIX_SIGNATURES)
    _require(prefix in PREFIXES, f"unknown prefix {prefix!r} (known: {PREFIXES})")
    seeds = _int_axis(data, "seeds", minimum=0)
    _require(len(seeds) > 0, "'seeds' must name at least one seed")
    populations = _int_axis(data, "populations", minimum=1)
    honeypot_days = _int_axis(data, "honeypot_days", minimum=1)
    measurement_days = _int_axis(data, "measurement_days", minimum=1)
    mixes_raw = data.get("service_mixes", [])
    _require(isinstance(mixes_raw, list), "'service_mixes' must be a list of mix names")
    for mix in mixes_raw:
        _require(
            isinstance(mix, str) and mix in SERVICE_MIXES,
            f"unknown service mix {mix!r} (known: {sorted(SERVICE_MIXES)})",
        )
    _require(len(set(mixes_raw)) == len(mixes_raw), "'service_mixes' must not repeat")
    arms_raw = data.get("arms", [{"arm": "standard"}])
    _require(
        isinstance(arms_raw, list) and len(arms_raw) > 0,
        "'arms' must be a non-empty list",
    )
    arms = tuple(_parse_arm(raw, i) for i, raw in enumerate(arms_raw))
    labels = [label for arm in arms for label, _ in arm.variants()]
    _require(
        len(set(labels)) == len(labels),
        f"arm variant labels must be unique, got {sorted(labels)}",
    )
    return SweepManifest(
        name=name,
        preset=str(preset),
        prefix=str(prefix),
        seeds=seeds,
        populations=populations,
        honeypot_days=honeypot_days,
        measurement_days=measurement_days,
        service_mixes=tuple(mixes_raw),
        arms=arms,
    )


def load_manifest(path: str) -> SweepManifest:
    """Read and validate a manifest JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ManifestError(f"manifest {path!r} is not valid JSON: {exc}") from exc
    return parse_manifest(data)


def _apply_mix(config: StudyConfig, mix: str) -> StudyConfig:
    disabled = SERVICE_MIXES[mix]
    if not disabled:
        return config
    plans = replace(config.plans, **{field: None for field in disabled})
    return replace(config, plans=plans)


def expand_manifest(
    manifest: SweepManifest, base_config: Optional[StudyConfig] = None
) -> List[ReplicaSpec]:
    """Expand a manifest into its ordered replica specs.

    ``base_config`` overrides the preset lookup (used by
    :func:`repro.fleet.spec.seed_sweep` and by tests pinning a custom
    config); axes then apply on top of it exactly as they would on the
    preset.
    """
    base = base_config if base_config is not None else PRESETS[manifest.preset]()
    specs: List[ReplicaSpec] = []
    for seed in manifest.seeds:
        seeded = replace(base, seed=seed)
        for population in manifest.populations or (None,):
            pop_config = (
                seeded
                if population is None
                else replace(seeded, population=replace(seeded.population, size=population))
            )
            for days in manifest.honeypot_days or (None,):
                days_config = (
                    pop_config if days is None else replace(pop_config, honeypot_days=days)
                )
                for window in manifest.measurement_days or (None,):
                    window_config = (
                        days_config
                        if window is None
                        else replace(days_config, measurement_days=window)
                    )
                    for mix in manifest.service_mixes or (None,):
                        config = (
                            window_config if mix is None else _apply_mix(window_config, mix)
                        )
                        parts = [f"seed-{seed}"]
                        if population is not None:
                            parts.append(f"pop{population}")
                        if days is not None:
                            parts.append(f"hp{days}")
                        if window is not None:
                            parts.append(f"md{window}")
                        if mix is not None:
                            parts.append(f"mix-{mix}")
                        for arm in manifest.arms:
                            for label, options in arm.variants():
                                specs.append(
                                    ReplicaSpec(
                                        name="/".join(parts + [label]),
                                        config=config,
                                        arm=arm.arm,
                                        prefix=manifest.prefix,
                                        arm_options=options,
                                    )
                                )
    return specs


__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "SERVICE_MIXES",
    "ArmSpec",
    "ManifestError",
    "SweepManifest",
    "expand_manifest",
    "load_manifest",
    "parse_manifest",
]
