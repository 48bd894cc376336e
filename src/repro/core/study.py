"""The end-to-end study orchestrator."""

from __future__ import annotations

from dataclasses import dataclass

from repro.aas.base import AccountAutomationService, ServiceType
from repro.aas.clientele import ClienteleDriver
from repro.aas.collusion_service import CollusionNetworkService
from repro.aas.services import (
    make_boostgram,
    make_followersgratis,
    make_hublaagram,
    make_instalex,
    make_instazood,
)
from repro.aas.adaptation import MigrationPolicy
from repro.aas.targeting import CuratedPool
from repro.behavior.calibration import calibrate_reciprocity_params, mean_propensity
from repro.behavior.organic import OrganicActivityDriver
from repro.behavior.population import OrganicPopulation
from repro.behavior.reciprocity import ReciprocityModel
from repro.core.config import StudyConfig
from repro.core.scheduling import TimingWheel
from repro.detection.classifier import AASClassifier, AttributedActivity
from repro.detection.customers import CustomerBaseAnalytics
from repro.detection.signals import ServiceSignature, learn_signature
from repro.honeypot.experiments import ReciprocationExperiment, ReciprocationResult
from repro.honeypot.framework import HoneypotAccount, HoneypotFramework
from repro.interventions.bins import BinAssignment
from repro.interventions.experiment import (
    BroadInterventionPlan,
    InterventionController,
    NarrowInterventionPlan,
)
from repro.interventions.thresholds import CountSubject, ThresholdTable
from repro.netsim.asn import ASNRegistry
from repro.netsim.fabric import NetworkFabric
from repro.netsim.geo import GeoIP
from repro.obs import Observability
from repro.platform.clock import SimClock
from repro.platform.errors import PlatformError
from repro.platform.instagram import InstagramPlatform
from repro.platform.models import AccountId, ActionType
from repro.util.rng import SeedSequenceFactory
from repro.util.timeutils import days

#: Long-term definitions (Section 5.1): reciprocity customers must be
#: active strictly longer than the (7-day) trial; Hublaagram customers
#: longer than four days of service. Thresholds are expressed in
#: *calendar* days: a 7x24h trial started mid-day touches 8 calendar
#: days, so the streak must exceed 8 (resp. 5) to prove paid usage.
LONG_TERM_DAYS_RECIPROCITY = 8
LONG_TERM_DAYS_COLLUSION = 5

#: The combined Insta* label (franchises are indistinguishable, Section 5).
INSTA_STAR = "Insta*"


@dataclass
class MeasurementDataset:
    """Everything the Section 5 analyses consume."""

    start_tick: int
    end_tick: int
    attributed: dict[str, AttributedActivity]
    analytics: dict[str, CustomerBaseAnalytics]
    service_asns: dict[str, set[int]]

    @property
    def window_days(self) -> int:
        return (self.end_tick - self.start_tick) // 24

    @property
    def start_day(self) -> int:
        return self.start_tick // 24

    @property
    def end_day(self) -> int:
        return self.end_tick // 24


@dataclass
class InterventionOutcome:
    """One intervention experiment's frozen inputs and observed activity."""

    name: str
    start_day: int
    end_day: int
    switch_day: int | None
    assignment: BinAssignment
    thresholds: ThresholdTable
    attributed: dict[str, AttributedActivity]


class Study:
    """Builds the world and runs the paper's pipeline phases in order."""

    def __init__(self, config: StudyConfig, obs: Observability | None = None):
        self.config = config
        #: telemetry handle; callers may pass a pre-built one (the CLI
        #: does, to attach reporters/wall-clock timing before the world
        #: is built) — otherwise one is created per the config switch
        self.obs = obs if obs is not None else Observability(enabled=config.observability)
        self.seeds = SeedSequenceFactory(config.seed, obs=self.obs)
        self.clock = SimClock()
        self.obs.bind_tick_source(lambda: self.clock.now)
        with self.obs.span("build-world", seed=config.seed, population=config.population.size):
            self.platform = InstagramPlatform(self.clock, obs=self.obs)
            self.registry = ASNRegistry()
            self.fabric = NetworkFabric(self.registry, self.seeds.get("fabric"))
            self.geoip = GeoIP(self.registry)
            self.population = OrganicPopulation.generate(
                self.platform, self.fabric, self.seeds.get("population"), config.population
            )
            self._build_services()
            self._assign_vpn_users()
            self._build_behaviour()
            self._seed_clientele()
            self.honeypots = HoneypotFramework(
                self.platform, self.fabric, self.seeds.get("honeypots")
            )
            self.reciprocation = ReciprocationExperiment(
                self.honeypots, self.seeds.get("hp-experiment"), self._high_profile_pool()
            )
            self._collusion_honeypots: list[tuple[CollusionNetworkService, HoneypotAccount]] = []
            self.classifier: AASClassifier | None = None
            self.reciprocation_results: list[ReciprocationResult] = []
            self.measurement_start: int | None = None
            self.measurement_end: int | None = None
            self._wheel = self._build_wheel()

    # ------------------------------------------------------------------
    # Snapshot support (repro.fleet prefix reuse)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """A Study serializes wholesale; only live wiring is rebuilt.

        Everything that determines future behaviour — the platform log,
        every driver's RNG position, the agent loop's registrations, the
        telemetry collected so far — is plain state and pickles as-is
        (the tracer drops its clock closure and listeners itself, see
        ``Tracer.__getstate__``). ``__setstate__`` re-binds the one
        piece of wiring a fresh process needs: the obs tick source.
        """
        return dict(self.__dict__)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.obs.bind_tick_source(lambda: self.clock.now)

    # ------------------------------------------------------------------
    # World construction
    # ------------------------------------------------------------------

    def _migration_policy(self, label: str, use_proxies: bool = False) -> MigrationPolicy | None:
        if not self.config.enable_migration:
            return None
        from repro.util.timeutils import days as _days

        return MigrationPolicy(
            self.fabric,
            self.seeds.get(f"migration-{label}"),
            patience_ticks=_days(self.config.migration_patience_days),
            use_proxy_network=use_proxies,
        )

    def _build_services(self) -> None:
        plans = self.config.plans
        candidates = list(self.population.account_ids)
        self.services: dict[str, AccountAutomationService] = {}
        curated = self._instalex_curated_pool()
        scale = self.config.budget_scale
        if plans.instalex is not None:
            # the paper's epilogue: one service adopted "an extensive
            # proxy network to drastically increase IP diversity"
            self.services["Instalex"] = make_instalex(
                self.platform, self.fabric, self.seeds.get("svc-instalex"), candidates,
                curated=curated, budget_scale=scale,
                migration=self._migration_policy("instalex", use_proxies=True),
            )
        if plans.instazood is not None:
            self.services["Instazood"] = make_instazood(
                self.platform, self.fabric, self.seeds.get("svc-instazood"), candidates,
                budget_scale=scale, migration=self._migration_policy("instazood"),
            )
        if plans.boostgram is not None:
            self.services["Boostgram"] = make_boostgram(
                self.platform, self.fabric, self.seeds.get("svc-boostgram"), candidates,
                budget_scale=scale, migration=self._migration_policy("boostgram"),
            )
        if plans.hublaagram is not None:
            self.services["Hublaagram"] = make_hublaagram(
                self.platform,
                self.fabric,
                self.seeds.get("svc-hublaagram"),
                quantity_scale=self.config.quantity_scale,
                migration=self._migration_policy("hublaagram"),
            )
        if plans.followersgratis is not None:
            self.services["Followersgratis"] = make_followersgratis(
                self.platform,
                self.fabric,
                self.seeds.get("svc-followersgratis"),
                quantity_scale=self.config.quantity_scale,
            )

    def _instalex_curated_pool(self) -> CuratedPool | None:
        """Instalex's curated recipient list (Section 4.3's anomaly).

        The real list was built by the service from response history we
        cannot observe; we model its *effect*: a pool concentrated in
        users carrying the hidden follow-on-like trait, diluted with
        ordinary users (the paper found no observable feature separating
        the pool from other targets).
        """
        rng = self.seeds.get("curated-pool")
        strong = [
            account
            for account, profile in self.population.profiles.items()
            if profile.follow_on_like_affinity > 1.0
        ]
        if not strong:
            return None
        # The curated list is concentrated in responders with a little
        # dilution — enough that no observable account feature separates
        # it from ordinary target pools (Section 4.3's failed search for
        # an explanation). Entries are weighted by reciprocation
        # propensity: the service discovered these users by their
        # responses, and responders skew high-out-degree/low-in-degree
        # like every other reciprocity target (Section 5.3).
        import numpy as np

        weights = np.array(
            [self.population.profiles[a].propensity for a in strong], dtype=float
        )
        weights = weights**2  # curation concentrates on the best responders
        weights = weights / weights.sum()
        entries = rng.choice(len(strong), size=max(40, 4 * len(strong)), p=weights)
        pool = [strong[int(i)] for i in entries]
        ordinary = self.population.sample_accounts(rng, max(1, len(strong) // 5))
        pool.extend(ordinary)
        return CuratedPool(accounts=pool, mix_fraction=self.config.curated_mix_fraction)

    def _assign_vpn_users(self) -> None:
        """Blend a benign slice of the population into service exit ASNs.

        These are VPN/datacenter users: their home endpoint sits inside
        an AAS ASN, producing the mixed-ASN traffic Section 6.2's 99th
        percentile thresholds are designed around. Per the paper, only
        *some* ASNs are mixed — here the collusion networks' exits
        (large generic hosting providers), while the reciprocity
        services' exits stay pure-AAS and get the 25th-percentile
        treatment.
        """
        if self.config.vpn_fraction <= 0 or not self.services:
            return
        rng = self.seeds.get("vpn-users")
        service_asns = sorted(
            {
                asn
                for s in self.services.values()
                if s.descriptor.service_type is ServiceType.COLLUSION_NETWORK
                for asn in s.current_asns()
            }
        )
        if not service_asns:
            return
        count = int(len(self.population) * self.config.vpn_fraction)
        for account_id in self.population.sample_accounts(rng, count):
            profile = self.population.profiles[account_id]
            asn = service_asns[int(rng.integers(0, len(service_asns)))]
            address = self.registry.allocate_address(asn)
            profile.endpoint = type(profile.endpoint)(
                address=address, asn=asn, fingerprint=profile.endpoint.fingerprint
            )

    def _build_behaviour(self) -> None:
        params = self._calibrated_reciprocity_params()
        self.reciprocity_model = ReciprocityModel(params, self.seeds.get("reciprocity"))
        self.organic = OrganicActivityDriver(
            self.platform,
            self.population,
            self.reciprocity_model,
            self.seeds.get("organic-driver"),
        )

    def _calibrated_reciprocity_params(self):
        """Anchor Table 5 rates on the pool the AASs actually target."""
        rng = self.seeds.get("calibration")
        reciprocity_services = [
            s for s in self.services.values() if s.descriptor.service_type is ServiceType.RECIPROCITY_ABUSE
        ]
        if not reciprocity_services:
            return self.config.reciprocity
        targeting = reciprocity_services[0].targeting  # type: ignore[attr-defined]
        sample = targeting.select(min(300, len(self.population) // 2), exclude=set())
        if not sample:
            return self.config.reciprocity
        pool_mean = mean_propensity(
            self.population.profiles[a].propensity for a in sample if a in self.population.profiles
        )
        return calibrate_reciprocity_params(self.config.reciprocity, pool_mean)

    def _seed_clientele(self) -> None:
        plans = self.config.plans
        self.clientele: dict[str, ClienteleDriver] = {}
        plan_map = {
            "Instalex": plans.instalex,
            "Instazood": plans.instazood,
            "Boostgram": plans.boostgram,
            "Hublaagram": plans.hublaagram,
            "Followersgratis": plans.followersgratis,
        }
        for name, service in self.services.items():
            params = plan_map[name]
            if params is None:
                continue
            driver = ClienteleDriver(
                service, self.population, self.seeds.get(f"clientele-{name.lower()}"), params
            )
            driver.seed_initial()
            self.clientele[name] = driver

    def _high_profile_pool(self) -> list[AccountId]:
        """Top-in-degree accounts, the lived-in honeypots' follow targets."""
        ranked = sorted(
            self.population.account_ids,
            key=lambda a: self.platform.follower_count(a),
            reverse=True,
        )
        return ranked[: max(10, len(ranked) // 50)]

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------

    def _build_wheel(self) -> TimingWheel:
        """Register every per-tick agent, in the world's visit order.

        Registration order is the run order within a tick: the clientele
        drivers, the collusion-honeypot driver, the services, then
        organic traffic. Changing it changes seeded results.
        """
        wheel = TimingWheel(self.platform.action_batch, obs=self.obs)
        for name, driver in self.clientele.items():
            wheel.add(f"clientele:{name}", driver.tick)
        wheel.add("collusion-honeypots", self._drive_collusion_honeypots)
        for name, service in self.services.items():
            wheel.add(f"service:{name}", service.tick)
        wheel.add("organic", self.organic.tick)
        return wheel

    def run_hours(self, hours: int) -> None:
        if hours > 0:
            self._wheel.run_window(
                self.clock.now, hours, lambda: self.clock.advance(1)
            )

    def run_days(self, days_: int) -> None:
        self.run_hours(days_ * 24)

    # ------------------------------------------------------------------
    # Phase 1: honeypots
    # ------------------------------------------------------------------

    def register_honeypots(self) -> None:
        """Register honeypot batches with every service (Section 4.1.2)."""
        config = self.config
        for _ in range(config.inactive_honeypots):
            self.honeypots.create_inactive()
        for service in self.services.values():
            if service.descriptor.service_type is ServiceType.RECIPROCITY_ABUSE:
                for action_type in (ActionType.LIKE, ActionType.FOLLOW):
                    self.reciprocation.register_batch(
                        service,
                        action_type,
                        empty=config.honeypots_empty_per_batch,
                        lived_in=config.honeypots_lived_in_per_batch,
                    )
            else:
                self._register_collusion_honeypots(service)

    def _register_collusion_honeypots(self, service: AccountAutomationService) -> None:
        assert isinstance(service, CollusionNetworkService)
        total = self.config.honeypots_empty_per_batch + self.config.honeypots_lived_in_per_batch
        for index in range(total):
            campaign = f"{service.name.lower()}-collusion"
            if index == total - 1:
                honeypot = self.honeypots.create_lived_in(
                    campaign=campaign, high_profile_pool=self._high_profile_pool()
                )
            else:
                honeypot = self.honeypots.create_empty(campaign=campaign)
            service.register_customer(
                honeypot.username,
                honeypot.password,
                frozenset({ActionType.LIKE, ActionType.FOLLOW}) & service.descriptor.offered_actions,
                trial_ticks=days(self.config.honeypot_days + 1),
            )
            self._collusion_honeypots.append((service, honeypot))

    def _drive_collusion_honeypots(self) -> None:
        """Honeypots enrolled in collusion networks request free actions
        for as long as their enrollment window is open."""
        now = self.clock.now
        for service, honeypot in self._collusion_honeypots:
            if honeypot.deleted:
                continue
            record = service.customers.get(honeypot.account_id)
            if record is None or not record.service_active(now):
                continue
            free_types = [
                t
                for t in (ActionType.LIKE, ActionType.FOLLOW)
                if t in service.descriptor.offered_actions and t in service.config.free_action_types
            ]
            if not free_types:
                continue
            action = free_types[self.clock.now % len(free_types)]
            try:
                service.request_free_service(honeypot.account_id, action)
            except (PlatformError, KeyError, ValueError):
                continue

    def run_honeypot_phase(self) -> list[ReciprocationResult]:
        """Register honeypots, run the phase, measure reciprocation."""
        with self.obs.span("honeypot-phase", days=self.config.honeypot_days):
            with self.obs.span("register-honeypots"):
                self.register_honeypots()
            self.run_days(self.config.honeypot_days)
            self.reciprocation_results = self.reciprocation.results()
        return self.reciprocation_results

    # ------------------------------------------------------------------
    # Phase 2: signature learning
    # ------------------------------------------------------------------

    def learn_signatures(self) -> AASClassifier:
        """Build the classifier from honeypot ground truth."""
        with self.obs.span("learn-signatures"):
            return self._learn_signatures()

    def _learn_signatures(self) -> AASClassifier:
        signatures: list[ServiceSignature] = []
        insta_records = []
        for registration in self.reciprocation.registrations():
            records = self.honeypots.outbound_actions(
                registration.honeypot, since=registration.registered_at
            )
            service_name = registration.service.name
            if service_name in ("Instalex", "Instazood"):
                insta_records.extend(records)
            else:
                signatures = _accumulate(signatures, service_name, ServiceType.RECIPROCITY_ABUSE, records)
        if insta_records:
            signatures = _accumulate(
                signatures, INSTA_STAR, ServiceType.RECIPROCITY_ABUSE, insta_records
            )
        collusion_records: dict[str, list] = {}
        for service, honeypot in self._collusion_honeypots:
            # A collusion network drives the honeypot as an action *source*,
            # so its post-enrollment outbound is pure service traffic and
            # identifies the exit infrastructure that also delivers every
            # inbound action. (Inbound is contaminated by organic responses
            # to the collusion actions, so it is not used for learning.)
            collusion_records.setdefault(service.name, []).extend(
                self.honeypots.outbound_actions(honeypot, since=honeypot.created_at)
            )
        for service_name, records in collusion_records.items():
            if records:
                signatures = _accumulate(
                    signatures, service_name, ServiceType.COLLUSION_NETWORK, records
                )
        self._set_classifier(AASClassifier(signatures, self.platform.log, obs=self.obs))
        assert self.classifier is not None
        return self.classifier

    def _set_classifier(self, classifier: AASClassifier) -> None:
        """Install a classifier bound to the platform log.

        The classifier observes every log append, so repeated sweeps
        (interventions, the epilogue) are slices of its streams instead
        of rescans of the full log; replacing the classifier (signature
        relearning) detaches the old one's observer.
        """
        if self.classifier is not None:
            self.classifier.detach()
        self.classifier = classifier

    def verify_signal_stability(self, probe_days: int = 1) -> dict[str, bool]:
        """Re-register fresh trial honeypots and re-check the signatures.

        Section 5: "We also periodically register additional trial
        honeypot accounts in each AAS as another method for observing
        the tracked account signals; these signals are consistent with
        our original honeypot accounts ... (we delete these accounts
        immediately after the AAS starts generating activity on them)."

        Returns, per reported service, whether every automation action
        observed on the probe accounts still matches the learned
        signature.
        """
        if self.classifier is None:
            raise RuntimeError("learn_signatures() must run first")
        with self.obs.span("stability-probe", probe_days=probe_days):
            return self._verify_signal_stability(probe_days)

    def _verify_signal_stability(self, probe_days: int) -> dict[str, bool]:
        assert self.classifier is not None
        probes: list[tuple[str, HoneypotAccount]] = []
        for name, service in self.services.items():
            label = INSTA_STAR if name in ("Instalex", "Instazood") else name
            honeypot = self.honeypots.create_empty(campaign=f"probe-{name.lower()}")
            requested = (
                frozenset({ActionType.LIKE, ActionType.FOLLOW})
                & service.descriptor.offered_actions
            )
            service.register_customer(
                honeypot.username, honeypot.password, requested, trial_ticks=days(probe_days + 1)
            )
            if isinstance(service, CollusionNetworkService):
                self._collusion_honeypots.append((service, honeypot))
            probes.append((label, honeypot))
        self.run_days(probe_days)
        consistent: dict[str, bool] = {}
        for label, honeypot in probes:
            records = self.honeypots.outbound_actions(honeypot, since=honeypot.created_at)
            records += self.honeypots.inbound_actions(honeypot, since=honeypot.created_at)
            automation = [
                r for r in records if r.endpoint.fingerprint.variant.startswith("aas-")
            ]
            verdict = bool(automation) and all(
                self.classifier.attribute(r) == label for r in automation
            )
            consistent[label] = consistent.get(label, True) and verdict
            self.honeypots.delete(honeypot)
        self._collusion_honeypots = [
            (service, h) for service, h in self._collusion_honeypots if not h.deleted
        ]
        return consistent

    # ------------------------------------------------------------------
    # Phase 3: the measurement window
    # ------------------------------------------------------------------

    def run_measurement(self, days_: int | None = None) -> MeasurementDataset:
        """Run the measurement window and sweep the classifier over it."""
        if self.classifier is None:
            raise RuntimeError("learn_signatures() must run before the measurement window")
        window = days_ if days_ is not None else self.config.measurement_days
        with self.obs.span("measurement-window", days=window):
            self.measurement_start = self.clock.now
            self.run_days(window)
            self.measurement_end = self.clock.now
            return self.build_dataset(self.measurement_start, self.measurement_end)

    def build_dataset(self, start_tick: int, end_tick: int) -> MeasurementDataset:
        """Sweep + analytics over an arbitrary window."""
        assert self.classifier is not None
        with self.obs.span("sweep", start_tick=start_tick, end_tick=end_tick):
            attributed = self.classifier.sweep(start_tick, end_tick)
        analytics: dict[str, CustomerBaseAnalytics] = {}
        for name, activity in attributed.items():
            if name == "Followersgratis":
                continue  # excluded: pre-policed, negligible impact (Section 5)
            long_term = (
                LONG_TERM_DAYS_COLLUSION
                if activity.service_type is ServiceType.COLLUSION_NETWORK
                else LONG_TERM_DAYS_RECIPROCITY
            )
            analytics[name] = CustomerBaseAnalytics(activity, long_term_days=long_term)
        service_asns = {name: activity.observed_asns for name, activity in attributed.items()}
        return MeasurementDataset(
            start_tick=start_tick,
            end_tick=end_tick,
            attributed=attributed,
            analytics=analytics,
            service_asns=service_asns,
        )

    def run_standard(self) -> MeasurementDataset:
        """The whole pipeline: honeypots -> signatures -> measurement."""
        self.run_honeypot_phase()
        self.learn_signatures()
        return self.run_measurement()

    # ------------------------------------------------------------------
    # Phase 4: interventions
    # ------------------------------------------------------------------

    def _subject_by_asn(self) -> dict[int, CountSubject]:
        subjects: dict[int, CountSubject] = {}
        for service in self.services.values():
            subject = (
                CountSubject.TARGET
                if service.descriptor.service_type is ServiceType.COLLUSION_NETWORK
                else CountSubject.ACTOR
            )
            for asn in service.current_asns():
                subjects[asn] = subject
        return subjects

    def _run_intervention(
        self,
        name: str,
        start,
        duration_days: int,
        calibration_days: int,
    ) -> InterventionOutcome:
        if self.classifier is None:
            raise RuntimeError("learn_signatures() must run before interventions")
        with self.obs.span("intervention", plan=name, days=duration_days):
            controller = InterventionController(self.platform, self.classifier)
            calibration_start = max(0, self.clock.now - days(calibration_days))
            with self.obs.span("calibrate", days=calibration_days):
                controller.calibrate(calibration_start, self.clock.now, self._subject_by_asn())
            policy = start(controller)
            start_tick = self.clock.now
            self.run_days(duration_days)
            end_tick = self.clock.now
            controller.stop()
            with self.obs.span("sweep", start_tick=start_tick, end_tick=end_tick):
                attributed = self.classifier.sweep(start_tick, end_tick)
            assert controller.thresholds is not None
        return InterventionOutcome(
            name=name,
            start_day=start_tick // 24,
            end_day=end_tick // 24,
            switch_day=controller.switch_day,
            assignment=policy.assignment,
            thresholds=controller.thresholds,
            attributed=attributed,
        )

    def run_narrow_intervention(
        self, plan: NarrowInterventionPlan | None = None, calibration_days: int = 5
    ) -> InterventionOutcome:
        """Section 6.3: six weeks, one block/one delay/one control bin."""
        plan = plan if plan is not None else NarrowInterventionPlan()
        outcome = self._run_intervention(
            "narrow",
            lambda controller: controller.start_narrow(plan),
            plan.duration_days,
            calibration_days,
        )
        # the narrow design's assignment never changes mid-run
        return outcome

    def run_broad_intervention(
        self, plan: BroadInterventionPlan | None = None, calibration_days: int = 5
    ) -> InterventionOutcome:
        """Section 6.4: delay for 90% one week, then block one week."""
        plan = plan if plan is not None else BroadInterventionPlan()
        return self._run_intervention(
            "broad",
            lambda controller: controller.start_broad(plan),
            plan.duration_days,
            calibration_days,
        )

    def _relearn_from_current_infrastructure(self) -> None:
        """Fold each service's current exit ASNs into its signature.

        Ground truth for this comes from re-registered probe honeypots
        (see verify_signal_stability); folding the observed ASNs in
        directly is equivalent and avoids paying for probes every cycle.
        """
        assert self.classifier is not None
        with self.obs.span("relearn-signatures"):
            self._relearn_signatures()

    def _relearn_signatures(self) -> None:
        assert self.classifier is not None
        merged: dict[str, ServiceSignature] = {s.service: s for s in self.classifier.signatures}
        for name, service in self.services.items():
            label = INSTA_STAR if name in ("Instalex", "Instazood") else name
            existing = merged.get(label)
            if existing is None:
                continue
            merged[label] = ServiceSignature(
                service=label,
                service_type=existing.service_type,
                asns=existing.asns | frozenset(service.current_asns()),
                client_variants=existing.client_variants
                | frozenset({service.fingerprint.variant}),
            )
        self._set_classifier(
            AASClassifier(list(merged.values()), self.platform.log, obs=self.obs)
        )

    def run_epilogue(
        self,
        days_: int = 40,
        calibration_days: int = 5,
        defender_relearn_days: int | None = None,
    ) -> "EpilogueOutcome":
        """The Section 6.4 epilogue: the broad regime stays active,
        "continuing to block likes and delay follows above the activity
        threshold for additional months".

        Requires ``enable_migration=True`` in the config to observe the
        services' infrastructure moves. Returns what the paper reports:
        which services relocated (and how), whether Hublaagram suspended
        sales ("out of stock"), and how much post-migration traffic the
        original signatures still catch — the blocked actions having
        moved "out of reach of the blocking countermeasure we employed".
        """
        if self.classifier is None:
            raise RuntimeError("learn_signatures() must run before the epilogue")
        from repro.interventions.policy import ThresholdBinPolicy
        from repro.platform.countermeasures import CountermeasureDecision

        controller = InterventionController(self.platform, self.classifier)
        calibration_start = max(0, self.clock.now - days(calibration_days))
        thresholds = controller.calibrate(
            calibration_start, self.clock.now, self._subject_by_asn()
        )
        policy = ThresholdBinPolicy(
            thresholds=thresholds,
            assignment=BinAssignment.broad_block(),
            per_action_treatments={
                ActionType.LIKE: CountermeasureDecision.BLOCK,
                ActionType.FOLLOW: CountermeasureDecision.DELAY_REMOVE,
            },
        )
        self.platform.countermeasures.add_policy(policy)
        asns_before = {name: set(s.current_asns()) for name, s in self.services.items()}
        start_tick = self.clock.now
        with self.obs.span("epilogue", days=days_):
            if defender_relearn_days is None:
                self.run_days(days_)
            else:
                # the defender keeps probing with fresh trial honeypots and
                # folds newly-observed exit infrastructure back into the
                # signatures and threshold table (Section 5's periodic
                # re-registration, continued through the epilogue)
                remaining = days_
                while remaining > 0:
                    segment = min(defender_relearn_days, remaining)
                    self.run_days(segment)
                    remaining -= segment
                    if remaining > 0:
                        self._relearn_from_current_infrastructure()
                        controller.classifier = self.classifier
                        policy.thresholds = controller.calibrate(
                            max(0, self.clock.now - days(calibration_days)),
                            self.clock.now,
                            self._subject_by_asn(),
                        )
        self.platform.countermeasures.remove_policy(policy)
        migrations = {
            name: list(service.migration.migrations)
            for name, service in self.services.items()
            if service.migration is not None
        }
        hub = self.services.get("Hublaagram")
        suspended = bool(getattr(hub, "sales_suspended", False))
        # how much of the services' post-epilogue traffic the original
        # (pre-migration) signatures still catch
        window = self.platform.log.records_between(start_tick, None)
        automation = [r for r in window if r.endpoint.fingerprint.variant.startswith("aas-")]
        caught = sum(1 for r in automation if self.classifier.attribute(r) is not None)
        coverage = caught / len(automation) if automation else 1.0
        return EpilogueOutcome(
            start_day=start_tick // 24,
            end_day=self.clock.now // 24,
            asns_before=asns_before,
            asns_after={name: set(s.current_asns()) for name, s in self.services.items()},
            migrations=migrations,
            hublaagram_sales_suspended=suspended,
            signature_coverage=coverage,
        )


@dataclass
class EpilogueOutcome:
    """What the prolonged post-experiment regime produced (Section 6.4)."""

    start_day: int
    end_day: int
    asns_before: dict[str, set[int]]
    asns_after: dict[str, set[int]]
    migrations: dict[str, list[tuple[int, str]]]
    hublaagram_sales_suspended: bool
    signature_coverage: float


def _accumulate(signatures, service_name, service_type, records):
    """Add or merge a learned signature into the list."""
    new = learn_signature(service_name, service_type, records)
    out = []
    merged = False
    for signature in signatures:
        if signature.service == service_name:
            out.append(signature.merged_with(new))
            merged = True
        else:
            out.append(signature)
    if not merged:
        out.append(new)
    return out
