"""The engine's clock stays a Python ``float``.

The kernel's durations are NumPy scalars (``rem / rate`` over float64
state arrays).  If one of them became the step's ``dt``, ``state.now``
would turn into ``numpy.float64``: the schedule is unchanged, but every
later time computation — the engine's and each scheduler's — runs on
NumPy scalars, several times slower.  These tests pin the type at every
decision and at every advance, on decisions on both sides of the
engine's vectorized/scalar ``_apply`` threshold, under availability
windows, a fault trace and a periodic checkpoint policy.
"""

from __future__ import annotations

import pytest

from repro.faults.model import FaultClassParams, exponential_fault_trace
from repro.schedulers.registry import make_scheduler
from repro.sim import engine as engine_mod
from repro.sim.availability import periodic_unavailability
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.engine import simulate
from repro.sim.hooks import EngineHooks
from repro.sim.kernel import ActivityKernel
from repro.workloads.random_uniform import (
    RandomInstanceConfig,
    generate_random_instance,
    paper_random_platform,
)


class _ClockProbe:
    """Delegating scheduler that records the clock type and decision size."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.now_types: set[type] = set()
        self.sizes: list[int] = []

    def start(self, view):
        self.inner.start(view)

    def decide(self, view, events):
        self.now_types.add(type(view.now))
        decision = self.inner.decide(view, events)
        self.sizes.append(len(decision.jobs_array()))
        return decision


class _StepTimes(EngineHooks):
    """Records the type of both ends of every time advance."""

    def __init__(self):
        self.types: set[type] = set()

    def on_step(self, t0, t1, active):
        self.types.add(type(t0))
        self.types.add(type(t1))


@pytest.fixture
def dt_types(monkeypatch):
    """The type of every ``dt`` the engine hands to the kernel's advance."""
    seen: set[type] = set()

    class RecordingKernel(ActivityKernel):
        __slots__ = ()

        def advance(self, jobs, acts, rates, dt):
            seen.add(type(dt))
            return super().advance(jobs, acts, rates, dt)

    monkeypatch.setattr(engine_mod, "ActivityKernel", RecordingKernel)
    return seen


def _environment():
    inst = generate_random_instance(
        RandomInstanceConfig(n_jobs=80, ccr=1.0, load=1.0),
        platform=paper_random_platform(),
        seed=31,
    )
    params = FaultClassParams(mtbf=40.0, mttr=4.0)
    faults = exponential_fault_trace(
        n_edge=inst.platform.n_edge,
        n_cloud=inst.platform.n_cloud,
        horizon=float(inst.release.max() + inst.min_time.sum()),
        seed=17,
        edge=params,
        cloud=params,
        link=params,
    )
    windows = periodic_unavailability(
        inst.platform.n_cloud, period=8.0, busy_fraction=0.25, horizon=300.0
    )
    return inst, windows, faults


@pytest.mark.parametrize("policy", ["ssf-edf-fa", "fcfs"])
def test_clock_is_python_float(policy, dt_types):
    inst, windows, faults = _environment()
    probe = _ClockProbe(make_scheduler(policy))
    steps = _StepTimes()
    result = simulate(
        inst,
        probe,
        availability=windows,
        faults=faults,
        checkpoint=CheckpointPolicy(interval=1.0, commit_cost=0.05),
        record_trace=False,
        hooks=[steps],
    )
    assert result.n_decisions == len(probe.sizes)
    # Both _apply paths ran: scalar sweep and vectorized assign_many.
    assert min(probe.sizes) <= engine_mod._SCALAR_APPLY_MAX < max(probe.sizes)
    assert probe.now_types == {float}
    assert dt_types == {float}
    assert steps.types == {float}
