"""The blanket ASN-blocking policy, a second countermeasure for the twin worlds.

:class:`BlanketAsnPolicy` refuses every action of the chosen types from
the given ASNs. The twin-world suites register it beside
:class:`repro.interventions.policy.ThresholdBinPolicy` so the
platform's policy loop sees two policies whose verdicts differ.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.platform.countermeasures import ActionContext, CountermeasureDecision
from repro.platform.models import ActionType


@dataclass
class BlanketAsnPolicy:
    """Network-level blocking: refuse *everything* from the given ASNs.

    The blunt instrument of prior work (the paper cites Farooqi et al.'s
    "large-scale network-level blocking" and positions its account-level
    thresholds as the finer-grained alternative). Blocking a whole ASN
    kills the abuse instantly — and every benign VPN/datacenter user in
    it, which is exactly what the threshold design avoids.
    """

    asns: frozenset[int]
    action_types: frozenset[ActionType] = frozenset(
        {ActionType.LIKE, ActionType.FOLLOW, ActionType.COMMENT, ActionType.UNFOLLOW, ActionType.POST}
    )
    decisions_applied: int = 0

    def decide(self, context: ActionContext) -> CountermeasureDecision:
        if context.endpoint.asn in self.asns and context.action_type in self.action_types:
            self.decisions_applied += 1
            return CountermeasureDecision.BLOCK
        return CountermeasureDecision.ALLOW
