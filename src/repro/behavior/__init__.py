"""Organic-user behaviour models.

Reciprocity-abuse AASs "fundamentally rely upon natural social behavior
in online networks" (Section 4.3). This package is the synthetic stand-in
for Instagram's organic population:

* :mod:`repro.behavior.degree` — heavy-tailed in/out-degree sampling for
  the pre-existing follower graph (the Figures 3/4 baselines).
* :mod:`repro.behavior.population` — builds organic accounts on the
  platform, wires the initial graph, assigns countries/endpoints.
* :mod:`repro.behavior.reciprocity` — the calibrated probability model
  for responding to inbound likes/follows (paper Table 5).
* :mod:`repro.behavior.organic` — the per-tick driver that makes organic
  users check notifications, reciprocate, and generate benign background
  traffic (the legitimate activity blended into mixed ASNs).
* :mod:`repro.behavior.calibration` — fits base response rates so that a
  *targeted* pool reproduces the paper's measured reciprocation table.

Calibration constants cite the paper value they encode; see DESIGN.md
Section 4 for the substitution rationale.
"""

from repro.behavior.degree import DegreeDistribution
from repro.behavior.population import OrganicPopulation, PopulationConfig
from repro.behavior.profiles import OrganicProfile, account_attractiveness
from repro.behavior.reciprocity import ReciprocityModel, ReciprocityParams
from repro.behavior.organic import OrganicActivityDriver, OrganicActivityParams
from repro.behavior.calibration import calibrate_reciprocity_params, propensity_multiplier

__all__ = [
    "DegreeDistribution",
    "OrganicPopulation",
    "PopulationConfig",
    "OrganicProfile",
    "account_attractiveness",
    "ReciprocityModel",
    "ReciprocityParams",
    "OrganicActivityDriver",
    "OrganicActivityParams",
    "calibrate_reciprocity_params",
    "propensity_multiplier",
]
