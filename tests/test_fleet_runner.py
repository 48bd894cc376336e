"""Fleet determinism: worker count must never touch the bytes.

The runner's contract (DESIGN.md §10): the merged payload and merged
trace are a pure function of the spec list — identical for ``workers``
1, 2, and 4 — and prefix reuse changes wall-clock only, never replica
payloads: every replica equals the no-reuse reference in
``tests/oracles/fleet.py``. The expensive fleets are built once per
module and shared across the assertions.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import signal
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.config import StudyConfig
from repro.fleet import (
    FLEET_SCHEMA_VERSION,
    PREFIX_BUILD_WORLD,
    FleetResult,
    FleetRunner,
    ReplicaResult,
    ReplicaSpec,
    SnapshotError,
    SnapshotStore,
    SweepManifest,
    expand_manifest,
    load_manifest,
    materialize_tree,
    plan_tree,
    remove_store_root,
    resolve_arm,
    restore_study,
    seed_sweep,
    temporary_store_root,
)
from repro.fleet import arms as arms_module
from repro.fleet import runner as runner_module
from repro.fleet.store import STORE_SCHEMA_VERSION
from repro.obs import split_segments
from repro.obs.schema import validate_trace
from tests.childenv import child_pythonpath
from tests.oracles.fleet import flat_phase_builds, run_without_reuse

SEEDS = (21, 22)
WORKER_COUNTS = (1, 2, 4)


def _specs() -> list[ReplicaSpec]:
    """Two seeds x two arms; each seed's arms share one prefix group."""
    specs = []
    for seed in SEEDS:
        config = StudyConfig.tiny(seed=seed)
        specs.append(
            ReplicaSpec(
                name=f"seed-{seed}/standard",
                config=config,
                arm="standard",
                arm_options=(("measurement_days", 1),),
            )
        )
        specs.append(
            ReplicaSpec(
                name=f"seed-{seed}/narrow",
                config=config,
                arm="narrow",
                arm_options=(
                    ("measurement_days", 0),
                    ("narrow_days", 1),
                    ("calibration_days", 1),
                ),
            )
        )
    return specs


@pytest.fixture(scope="module")
def fleets() -> dict[int, FleetResult]:
    return {workers: FleetRunner(workers=workers).run(_specs()) for workers in WORKER_COUNTS}


@pytest.fixture(scope="module")
def serial_no_reuse() -> list[ReplicaResult]:
    return run_without_reuse(_specs())


class TestWorkerCountInvariance:
    def test_merged_payload_bytes_identical_across_worker_counts(self, fleets) -> None:
        texts = {workers: fleet.merged_payload_text() for workers, fleet in fleets.items()}
        assert texts[2] == texts[1]
        assert texts[4] == texts[1]

    def test_merged_trace_bytes_identical_across_worker_counts(self, fleets) -> None:
        dumps = {
            workers: json.dumps(fleet.merged_trace_lines(), sort_keys=True)
            for workers, fleet in fleets.items()
        }
        assert dumps[2] == dumps[1]
        assert dumps[4] == dumps[1]


class TestMergeContract:
    def test_replicas_come_back_in_spec_order(self, fleets) -> None:
        expected = [spec.name for spec in _specs()]
        for fleet in fleets.values():
            assert [replica.name for replica in fleet.replicas] == expected

    def test_prefix_sharing_stats(self, fleets) -> None:
        # two seeds, nothing shared between them: each grows a full
        # world → honeypot → signatures chain (3 node builds), and the
        # two arms of a seed share that chain's leaf
        for fleet in fleets.values():
            assert fleet.merged_payload()["snapshot"]["strategy"] == "tree"
            assert fleet.prefix_groups == len(SEEDS)
            assert fleet.prefix_builds == 3 * len(SEEDS)
            # restores: every non-root node restores its parent blob
            # (2 per seed), then every replica restores its leaf
            assert fleet.prefix_restores == 2 * len(SEEDS) + len(fleet.replicas)
            assert fleet.phase_units == sum(spec.depth for spec in _specs())
            assert fleet.phase_builds == fleet.prefix_builds
            assert fleet.build_cost_avoided_frac == 0.5
            assert fleet.tree_stats is not None
            assert fleet.tree_stats["depth"] == 3
            assert fleet.tree_stats["nodes"] == 3 * len(SEEDS)

    def test_first_replica_of_each_group_pays_the_build(self, fleets) -> None:
        for fleet in fleets.values():
            by_arm = {replica.arm: replica.prefix_reused for replica in fleet.replicas}
            assert by_arm == {"standard": False, "narrow": True}

    def test_merged_trace_validates_with_one_segment_per_replica(self, fleets) -> None:
        lines = fleets[1].merged_trace_lines()
        assert validate_trace(lines) == []
        segments = split_segments(lines)
        assert len(segments) == len(fleets[1].replicas)
        assert all("replica" in line for line in lines)
        labels = [segment[0]["replica"] for segment in segments]
        assert labels == [spec.name for spec in _specs()]


class TestPrefixReuseEquivalence:
    def test_reuse_changes_wall_clock_only_never_payloads(self, fleets, serial_no_reuse) -> None:
        reused = fleets[1]
        assert len(serial_no_reuse) == len(reused.replicas)
        # spans are identical too, once the only legitimate delta — the
        # prefix_reused header flag — is ignored
        def strip(lines):
            stripped = []
            for line in lines:
                line = dict(line)
                meta = line.get("meta")
                if isinstance(meta, dict):
                    line["meta"] = {k: v for k, v in meta.items() if k != "prefix_reused"}
                stripped.append(line)
            return stripped

        for with_reuse, without_reuse in zip(reused.replicas, serial_no_reuse):
            assert with_reuse.payload == without_reuse.payload
            assert with_reuse.trace is not None
            assert strip(with_reuse.trace) == strip(without_reuse.trace)


class TestStrategyEquivalence:
    """Cold, warm-store and corrupt-store runs differ in scheduling only."""

    def test_warm_store_run_builds_nothing(self, fleets) -> None:
        root = temporary_store_root()
        try:
            materialize_tree(_specs(), SnapshotStore(root))
            warm = FleetRunner(workers=1, store=SnapshotStore(root)).run(_specs())
            assert warm.prefix_builds == 0
            assert warm.build_cost_avoided_frac == 1.0
            assert all(replica.prefix_reused for replica in warm.replicas)
            assert warm.store_stats is not None
            assert warm.store_stats["hits"] == warm.tree_stats["nodes"]
            assert [r.payload for r in warm.replicas] == [
                r.payload for r in fleets[1].replicas
            ]
        finally:
            remove_store_root(root)

    def test_corrupt_store_node_degrades_to_rebuild(self, fleets) -> None:
        import os

        root = temporary_store_root()
        try:
            plan = materialize_tree(_specs(), SnapshotStore(root))
            victim = plan.levels[-1][0]
            path = os.path.join(root, "envelopes", victim + ".snap")
            with open(path, "rb") as handle:
                data = handle.read()
            with open(path, "wb") as handle:
                handle.write(data[: len(data) // 3])
            store = SnapshotStore(root)
            result = FleetRunner(workers=1, store=store).run(_specs())
            assert store.corruptions == 1
            assert result.prefix_builds == 1  # only the truncated node
            assert [r.payload for r in result.replicas] == [
                r.payload for r in fleets[1].replicas
            ]
        finally:
            remove_store_root(root)


class TestObservabilityOff:
    def test_obs_off_replicas_match_obs_on_payloads(self, fleets) -> None:
        """Switching telemetry off changes no replica payload.

        The golden-digest suite pins this for one study; here it holds
        through the fleet layer, for one ``standard`` and one ``narrow``
        replica. Library code that read a counter or a metrics snapshot
        back into control flow would make the two runs diverge.
        """
        lit = fleets[1].replicas[:2]
        dark = FleetRunner(workers=1).run(
            [
                replace(spec, config=replace(spec.config, observability=False))
                for spec in _specs()[:2]
            ]
        )
        assert [r.arm for r in dark.replicas] == ["standard", "narrow"]
        assert [r.payload for r in dark.replicas] == [r.payload for r in lit]
        assert all(r.trace is None for r in dark.replicas)
        assert all(r.trace is not None for r in lit)


#: the CI ``sweep-smoke`` shape: a 3-level tree, two seeds, four replicas
_SMOKE_MANIFEST = {
    "schema_version": 1,
    "name": "interrupted",
    "preset": "tiny",
    "seeds": [5, 6],
    "honeypot_days": [2],
    "measurement_days": [1, 2],
    "arms": [{"arm": "standard"}],
}


def _sweep_command(manifest: Path, store: Path, output: Path, workers: int) -> list[str]:
    return [
        sys.executable, "-m", "repro", "sweep", str(manifest),
        "--workers", str(workers), "--store", str(store), "--output", str(output),
    ]


def _child_env() -> dict[str, str]:
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": child_pythonpath()}


class TestInterruptedSweep:
    def test_rerun_after_sigkill_builds_only_missing_nodes(self, tmp_path) -> None:
        """A sweep killed mid-tree leaves complete envelopes only; the
        rerun restores exactly those and builds the rest, and its
        replica payloads equal a cold uninterrupted run. These are
        invariants, so they hold wherever the kill lands."""
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(_SMOKE_MANIFEST), encoding="utf-8")
        store = tmp_path / "S"
        envelopes = store / "envelopes"
        # its own session, so the kill reaches the pool workers too
        child = subprocess.Popen(
            _sweep_command(manifest, store, tmp_path / "killed.json", workers=2),
            env=_child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            for _poll in range(24_000):  # 5 ms each, two minutes at most
                if envelopes.is_dir() and any(envelopes.glob("*.snap")):
                    break
                try:
                    child.wait(timeout=0.005)
                except subprocess.TimeoutExpired:
                    continue
                # the sweep ended on its own; it must have written one
                assert envelopes.is_dir() and any(envelopes.glob("*.snap")), (
                    child.stderr.read() if child.stderr else ""
                )
                break
            else:
                pytest.fail("no envelope written")
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
            if child.stderr is not None:
                child.stderr.close()

        specs = expand_manifest(load_manifest(str(manifest)))
        missing = [
            key for key in plan_tree(specs).nodes if not (envelopes / f"{key}.snap").exists()
        ]
        present = sorted(envelopes.glob("*.snap"))
        assert present
        # a put killed between its write and its os.replace leaves a
        # complete temp file; plant one under a missing node's key, with
        # a header that verifies, whether or not the kill left one
        if missing:
            _header, blob = present[0].read_bytes().split(b"\n", 1)
            header = json.dumps(
                {
                    "store_schema": STORE_SCHEMA_VERSION,
                    "key": missing[0],
                    "payload_bytes": len(blob),
                    "payload_digest": hashlib.blake2b(blob, digest_size=16).hexdigest(),
                },
                sort_keys=True,
            ).encode("ascii")
            (envelopes / f"{missing[0]}.snap.1.tmp").write_bytes(header + b"\n" + blob)

        rerun = subprocess.run(
            _sweep_command(manifest, store, tmp_path / "rerun.json", workers=1),
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert rerun.returncode == 0, rerun.stderr
        payload = json.loads((tmp_path / "rerun.json").read_text(encoding="utf-8"))
        tree = payload["snapshot"]["tree"]
        levels = tree["levels"]
        from_store = sum(level["from_store"] for level in levels)
        assert from_store == len(present)
        assert sum(level["built"] for level in levels) == tree["nodes"] - from_store
        assert sum(level["from_memory"] for level in levels) == 0

        cold = FleetRunner(workers=1).run(specs).merged_payload()
        assert json.dumps(payload["replicas"], sort_keys=True) == json.dumps(
            cold["replicas"], sort_keys=True
        )


class TestTreeVersusFlatLedger:
    """The tree's advantage over whole-config grouping is an exact
    phase-build count.

    One seed, two honeypot spans and two measurement windows: four
    replicas of depth 3, so 12 phase units. Grouping on the whole config
    (``flat_phase_builds``) rebuilds world, honeypot and signatures for
    every replica (12 builds). The tree builds one world, forks the two
    honeypot spans off it and lets both windows share each chain (5).
    """

    def test_tree_builds_5_of_12_units_where_flat_builds_12(self) -> None:
        manifest = SweepManifest(
            name="tree-vs-flat",
            preset="tiny",
            seeds=(21,),
            honeypot_days=(2, 3),
            measurement_days=(1, 2),
        )
        specs = expand_manifest(manifest)
        tree = FleetRunner(workers=1).run(specs)
        assert tree.phase_units == 12
        assert flat_phase_builds(specs) == 12
        assert tree.phase_builds == 5
        assert [r.payload for r in tree.replicas] == [
            r.payload for r in run_without_reuse(specs)
        ]


class TestReplicaCollection:
    """Each replica's study is dropped and collected at the replica
    boundary, and restores run with the collector paused."""

    @staticmethod
    def _spec(i: int) -> ReplicaSpec:
        return ReplicaSpec(
            name=f"r{i}", config=StudyConfig.tiny(seed=21), prefix=PREFIX_BUILD_WORLD
        )

    def test_previous_study_is_unreachable_when_the_next_restore_starts(
        self, monkeypatch
    ) -> None:
        studies: list[weakref.ref] = []
        restore = runner_module.restore_study

        def tracked_restore(blob: bytes):
            assert all(ref() is None for ref in studies)
            study = restore(blob)
            studies.append(weakref.ref(study))
            return study

        monkeypatch.setattr(runner_module, "restore_study", tracked_restore)
        # a trivial arm: nothing it allocates can trigger a collection
        monkeypatch.setattr(
            arms_module, "resolve_arm", lambda name: lambda study, options: {}
        )
        specs = [self._spec(i) for i in range(3)]
        blob = runner_module._build_node_blob(specs[0].config, PREFIX_BUILD_WORLD, None)
        results = runner_module._run_leaf_group(
            [(i, spec, i == 0) for i, spec in enumerate(specs)], blob
        )
        assert [index for index, _ in results] == [0, 1, 2]
        assert len(studies) == 3
        assert studies[-1]() is None

    @pytest.mark.parametrize("enabled", [True, False])
    def test_failed_restore_leaves_the_collector_as_it_was(self, enabled) -> None:
        was_enabled = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(SnapshotError, match="unreadable"):
                with runner_module._collector_paused():
                    assert not gc.isenabled()
                    restore_study(b"not a pickle")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()


class TestRunnerValidation:
    def test_duplicate_replica_names_rejected(self) -> None:
        spec = ReplicaSpec(name="twin", config=StudyConfig.tiny(seed=21))
        with pytest.raises(ValueError, match="unique"):
            FleetRunner().run([spec, spec])

    def test_zero_workers_rejected(self) -> None:
        with pytest.raises(ValueError, match="workers"):
            FleetRunner(workers=0)

    def test_only_the_tree_strategy_is_accepted(self) -> None:
        assert FleetRunner(strategy="tree").workers == 1
        with pytest.raises(ValueError, match="unknown strategy"):
            FleetRunner(strategy="flat")

    def test_unknown_arm_rejected(self) -> None:
        with pytest.raises(ValueError, match="unknown arm"):
            resolve_arm("tertiary")

    def test_unknown_prefix_rejected(self) -> None:
        with pytest.raises(ValueError, match="unknown prefix"):
            ReplicaSpec(name="x", config=StudyConfig.tiny(), prefix="after-lunch")

    def test_empty_name_rejected(self) -> None:
        with pytest.raises(ValueError, match="non-empty"):
            ReplicaSpec(name="", config=StudyConfig.tiny())


class TestSpecHelpers:
    def test_seed_sweep_names_and_reseeds(self) -> None:
        base = StudyConfig.tiny(seed=1)
        specs = seed_sweep(base, [7, 8, 9], arm="report")
        assert [spec.name for spec in specs] == [
            "seed-7/report",
            "seed-8/report",
            "seed-9/report",
        ]
        assert [spec.seed for spec in specs] == [7, 8, 9]
        assert all(spec.config.population == base.population for spec in specs)

    def test_merged_payload_shape_is_worker_independent(self) -> None:
        replicas = [
            ReplicaResult(
                name=f"r{i}", arm="standard", seed=i, prefix="signatures",
                payload={"n": i}, trace=None, prefix_reused=bool(i),
            )
            for i in range(3)
        ]
        result = FleetResult(
            replicas=replicas,
            prefix_builds=1,
            prefix_restores=3,
            prefix_groups=1,
            phase_units=3,
            phase_builds=1,
        )
        merged = result.merged_payload()
        assert merged["schema_version"] == FLEET_SCHEMA_VERSION
        assert merged["replica_count"] == 3
        assert [entry["name"] for entry in merged["replicas"]] == ["r0", "r1", "r2"]
        assert "workers" not in json.dumps(merged)
        assert result.build_cost_avoided_frac == pytest.approx(2 / 3)
        assert result.merged_trace_lines() == []
