"""Unit tests for the InterventionController lifecycle."""

import pytest

from repro.aas.base import ServiceType
from repro.detection.classifier import AASClassifier
from repro.detection.signals import ServiceSignature
from repro.interventions.bins import BinAssignment
from repro.interventions.experiment import (
    BroadInterventionPlan,
    InterventionController,
    NarrowInterventionPlan,
)
from repro.interventions.thresholds import CountSubject
from repro.platform import InstagramPlatform


@pytest.fixture
def controller_world(endpoint):
    platform = InstagramPlatform()
    actor = platform.create_account("abuser", "pw")
    target = platform.create_account("victim", "pw")
    session = platform.login("abuser", "pw", endpoint)
    signature = ServiceSignature(
        "Svc", ServiceType.RECIPROCITY_ABUSE, frozenset({endpoint.asn}), frozenset({"android"})
    )
    # generate calibration traffic: 20 follows+unfollows over 2 days
    for _ in range(20):
        platform.follow(session, target.account_id, endpoint)
        platform.unfollow(session, target.account_id, endpoint)
        platform.clock.advance(2)
    classifier = AASClassifier(
        [
            ServiceSignature(
                "Svc",
                ServiceType.RECIPROCITY_ABUSE,
                frozenset({endpoint.asn}),
                frozenset({"stock"}),
            )
        ],
        platform.log,
    )
    controller = InterventionController(platform, classifier)
    return platform, controller, endpoint


class TestLifecycle:
    def test_start_before_calibrate_rejected(self, controller_world):
        platform, controller, endpoint = controller_world
        with pytest.raises(RuntimeError):
            controller.start(BinAssignment.narrow())

    def test_calibrate_then_start_installs_policy(self, controller_world):
        platform, controller, endpoint = controller_world
        controller.calibrate(0, platform.clock.now, {endpoint.asn: CountSubject.ACTOR})
        policy = controller.start(BinAssignment.narrow())
        assert policy in platform.countermeasures._policies
        controller.stop()
        assert policy not in platform.countermeasures._policies

    def test_double_start_rejected(self, controller_world):
        platform, controller, endpoint = controller_world
        controller.calibrate(0, platform.clock.now, {endpoint.asn: CountSubject.ACTOR})
        controller.start(BinAssignment.narrow())
        with pytest.raises(RuntimeError):
            controller.start(BinAssignment.narrow())

    def test_stop_without_start_is_noop(self, controller_world):
        platform, controller, endpoint = controller_world
        controller.stop()  # no error

    def test_narrow_sets_end_day(self, controller_world):
        platform, controller, endpoint = controller_world
        controller.calibrate(0, platform.clock.now, {endpoint.asn: CountSubject.ACTOR})
        controller.start_narrow(NarrowInterventionPlan(duration_days=10))
        assert controller.end_day == platform.clock.day + 10

    def test_broad_switches_assignment_at_schedule(self, controller_world):
        platform, controller, endpoint = controller_world
        controller.calibrate(0, platform.clock.now, {endpoint.asn: CountSubject.ACTOR})
        policy = controller.start_broad(BroadInterventionPlan(delay_days=2, block_days=2))
        assert policy.assignment.delay_bins  # delay phase first
        platform.clock.advance(2 * 24 + 1)
        assert policy.assignment.block_bins  # switched to blocking
        assert not policy.assignment.delay_bins

    def test_broad_switch_ignored_after_stop_and_restart(self, controller_world):
        """A stale scheduled switch must not mutate a later experiment."""
        platform, controller, endpoint = controller_world
        controller.calibrate(0, platform.clock.now, {endpoint.asn: CountSubject.ACTOR})
        controller.start_broad(BroadInterventionPlan(delay_days=3, block_days=3))
        controller.stop()
        fresh = controller.start(BinAssignment.narrow())
        platform.clock.advance(4 * 24)
        assert fresh.assignment == BinAssignment.narrow()  # untouched
