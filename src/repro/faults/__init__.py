"""Deterministic fault injection (unplanned crashes and link outages).

See :mod:`repro.faults.trace` for the fault model and
:mod:`repro.faults.model` for the seeded MTBF/MTTR generator;
``docs/FAULTS.md`` documents the semantics end to end.
"""

from repro.faults.model import (
    FaultClassParams,
    FaultGroup,
    exponential_fault_trace,
    fault_horizon,
    parse_fault_groups,
)
from repro.faults.trace import (
    DOMAIN_CLOUD,
    DOMAIN_EDGE,
    DOMAIN_LINK,
    FaultRates,
    FaultTrace,
    FaultTransition,
    RenewalRates,
)

__all__ = [
    "DOMAIN_CLOUD",
    "DOMAIN_EDGE",
    "DOMAIN_LINK",
    "FaultClassParams",
    "FaultGroup",
    "FaultRates",
    "FaultTrace",
    "FaultTransition",
    "RenewalRates",
    "exponential_fault_trace",
    "fault_horizon",
    "parse_fault_groups",
]
