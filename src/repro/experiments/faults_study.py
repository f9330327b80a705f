"""Fault-degradation study: max-stretch vs resource reliability.

Sweeps the mean time between failures (MTBF) of every resource class
and measures how gracefully each heuristic degrades as crashes and link
outages force re-executions — the robustness companion to the paper's
fault-free comparison (the paper's model already prices re-execution
via its attempt counter; here the attempts are forced by the platform
instead of chosen by the scheduler).

Every sweep point shares the instance distribution and differs only in
the fault model: failures arrive as a seeded renewal process
(:func:`repro.faults.model.exponential_fault_trace`) whose horizon
covers the whole run, with a fixed mean time to repair, so smaller MTBF
means strictly more downtime.  Instance, availability, and fault
streams are drawn in a fixed order from the cell's generator, so the
x-axis varies reliability and nothing else.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.instance import Instance
from repro.experiments.config import ExperimentSpec, SchedulerSpec, SweepPoint
from repro.faults.model import (
    FaultClassParams,
    exponential_fault_trace,
    fault_horizon,
    parse_fault_groups,
)
from repro.faults.trace import FaultTrace
from repro.sim.checkpoint import CheckpointPolicy
from repro.workloads.random_uniform import (
    RandomInstanceConfig,
    generate_random_instance,
    paper_random_platform,
)

#: Fraction of an outage spent repairing: MTTR = MTTR_FRACTION * MTBF.
MTTR_FRACTION = 0.1


def _make_faults(mtbf: float, group_size: int = 1, groups=None):
    def factory(instance: Instance, rng) -> FaultTrace:
        params = FaultClassParams(mtbf=mtbf, mttr=MTTR_FRACTION * mtbf)
        return exponential_fault_trace(
            n_edge=instance.platform.n_edge,
            n_cloud=instance.platform.n_cloud,
            horizon=fault_horizon(instance),
            seed=rng,
            edge=params,
            cloud=params,
            link=params,
            group_size=group_size,
            groups=groups,
        )

    return factory


def degradation_mtbf(
    *,
    mtbf_values: Sequence[float] = (25.0, 50.0, 100.0, 200.0, 400.0),
    n_jobs: int = 100,
    n_reps: int = 10,
    ccr: float = 1.0,
    load: float = 0.5,
    seed: int = 20210601,
    failure_aware: bool = False,
    correlation: int = 1,
    fault_groups: str | None = None,
    checkpoint_interval: float | str | None = None,
    checkpoint_cost: float = 0.0,
    retry_budget: int | None = None,
) -> ExperimentSpec:
    """Max-stretch degradation as resources get less reliable.

    x is the per-resource MTBF in time units (smaller = failures more
    frequent); MTTR is pinned at :data:`MTTR_FRACTION` of the MTBF so
    the long-run unavailable fraction is constant and the x-axis
    isolates failure *frequency* (how often work is lost) rather than
    capacity.

    ``failure_aware`` adds the ``ssf-edf-fa``, ``srpt-fa`` and
    ``fcfs-fa`` variants
    to the roster (all schedule from the run's shared *discounted*
    capacity outlook, see :mod:`repro.capacity`) for a fault-oblivious
    vs failure-aware comparison on identical fault realizations.  ``correlation`` is the
    correlated-failure group size: consecutive resources in groups of
    that size share their fault windows (1 = independent);
    ``fault_groups`` instead takes a topology-driven group spec
    (``"edge:0-4;link:0-4"``, see
    :func:`repro.faults.model.parse_fault_groups`).  Adding a roster
    entry does not perturb the shared instance/fault streams, so the
    baseline columns are unchanged.

    ``checkpoint_interval`` / ``checkpoint_cost`` / ``retry_budget``
    enable the checkpoint/restart variant: two extra roster entries —
    ``ssf-edf-fa+ckpt`` and the rework-pricing ``ssf-edf-fa-rework+ckpt``
    — run with a periodic :class:`~repro.sim.checkpoint.CheckpointPolicy`
    on the *same* cells, so checkpointed and from-scratch execution are
    compared on identical fault realizations.  The literal
    ``checkpoint_interval="auto"`` defers the interval to each cell: the
    engine derives the Young/Daly optimum
    :func:`~repro.sim.checkpoint.young_daly_interval` from the cell's
    own fault rates, so every sweep point commits at *its* MTBF's
    optimal cadence rather than one hand-picked constant.
    """
    groups = parse_fault_groups(fault_groups) if fault_groups is not None else None
    points = tuple(
        SweepPoint(
            x=mtbf,
            make_instance=(
                lambda rng: generate_random_instance(
                    RandomInstanceConfig(n_jobs=n_jobs, ccr=ccr, load=load),
                    platform=paper_random_platform(),
                    seed=rng,
                )
            ),
            make_faults=_make_faults(mtbf, correlation, groups),
            # Lower MTBF means more fault-killed attempts re-executed,
            # so a cell's work grows as its MTBF shrinks; the hint only
            # orders dispatch (docs/HARNESS.md), it never affects rows.
            cost_hint=1.0 / mtbf,
        )
        for mtbf in mtbf_values
    )
    schedulers = [
        SchedulerSpec.named("fcfs"),
        SchedulerSpec.named("greedy"),
        SchedulerSpec.named("ssf-edf"),
    ]
    if failure_aware:
        schedulers.append(SchedulerSpec.named("ssf-edf-fa"))
        schedulers.append(SchedulerSpec.named("srpt-fa"))
        schedulers.append(SchedulerSpec.named("fcfs-fa"))
    if checkpoint_interval is not None or retry_budget is not None:
        auto = checkpoint_interval == "auto"
        policy = CheckpointPolicy(
            interval=None if auto else checkpoint_interval,
            commit_cost=checkpoint_cost,
            retry_budget=retry_budget,
            auto_interval=auto,
        )
        schedulers.append(
            SchedulerSpec.named("ssf-edf-fa", label="ssf-edf-fa+ckpt", checkpoint=policy)
        )
        schedulers.append(
            SchedulerSpec.named(
                "ssf-edf-fa-rework", label="ssf-edf-fa-rework+ckpt", checkpoint=policy
            )
        )
    return ExperimentSpec(
        name="degradation_mtbf",
        x_label="MTBF",
        points=points,
        schedulers=tuple(schedulers),
        n_reps=n_reps,
        seed=seed,
        description="max-stretch degradation vs mean time between failures",
    )
