"""Analytical models from the paper (§IV).

Four model families:

* :mod:`~repro.analysis.delivery` — delivery rate of the opportunistic onion
  path (Eq. 4–7), built on :mod:`~repro.analysis.hypoexponential`.
* :mod:`~repro.analysis.cost` — message transmission cost bounds (§IV-C).
* :mod:`~repro.analysis.traceable` — expected traceable rate via run lengths
  of the compromised-bit string (Eq. 1, 8–12).
* :mod:`~repro.analysis.anonymity` — entropy-based path anonymity
  (Eq. 13–20).
* :mod:`~repro.analysis.robustness` — degradation models under node churn
  and dropping relays, matching the fault processes in :mod:`repro.faults`.
"""

from repro.analysis.anonymity import (
    expected_compromised_on_path,
    expected_exposed_groups_multicopy,
    max_entropy,
    path_anonymity,
    path_anonymity_exact,
    path_anonymity_multicopy,
    path_entropy,
)
from repro.analysis.delay import (
    copies_for_deadline,
    deadline_for_target,
    delay_moments,
    delay_quantile,
)
from repro.analysis.cost import (
    multi_copy_cost_bound,
    non_anonymous_cost,
    single_copy_cost,
)
from repro.analysis.delivery import (
    delivery_rate,
    delivery_rate_multicopy,
    onion_path_rates,
)
from repro.analysis.hypoexponential import Hypoexponential
from repro.analysis.robustness import (
    churned_delivery_rate,
    greyhole_delivery_rate,
    greyhole_survival_probability,
)
from repro.analysis.traceable import (
    segment_lengths,
    traceable_rate_empirical,
    traceable_rate_model,
    traceable_rate_paper_series,
)

__all__ = [
    "Hypoexponential",
    "onion_path_rates",
    "delivery_rate",
    "delivery_rate_multicopy",
    "churned_delivery_rate",
    "greyhole_delivery_rate",
    "greyhole_survival_probability",
    "single_copy_cost",
    "delay_moments",
    "delay_quantile",
    "deadline_for_target",
    "copies_for_deadline",
    "multi_copy_cost_bound",
    "non_anonymous_cost",
    "traceable_rate_empirical",
    "traceable_rate_model",
    "traceable_rate_paper_series",
    "segment_lengths",
    "max_entropy",
    "path_entropy",
    "path_anonymity",
    "path_anonymity_exact",
    "path_anonymity_multicopy",
    "expected_compromised_on_path",
    "expected_exposed_groups_multicopy",
]
