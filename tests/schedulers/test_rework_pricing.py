"""Rework-pricing placement and the failure-aware greedy variant.

Contracts: both variants are registered; without a fault model they
degenerate bit for bit to their base heuristics; greedy-fa draws its
discounted estimates from the *same* per-run ``CapacityOutlook`` pool
as ssf-edf-fa (one shared cache on the engine view, not a private
reconstruction); and rework pricing keeps the capacity layer out of the
per-event hot loop (outlook query ceiling unchanged).  At an MTBF far
below the jobs' durations the expected-rework prices overflow, and the
run fails with a ModelError naming the policy instead of an arithmetic
error from deep inside the kernel.
"""

import hashlib

import pytest

from repro.capacity.outlook import ExpectationDiscount
from repro.core.errors import ModelError
from repro.core.validation import validate_schedule
from repro.faults import FaultClassParams, exponential_fault_trace
from repro.schedulers.greedy import GreedyScheduler
from repro.schedulers.registry import available_schedulers, make_scheduler
from repro.schedulers.ssf_edf import SsfEdfScheduler
from repro.simulate_cli import main as simulate_main
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.engine import simulate
from repro.sim.hooks import EngineHooks
from repro.workloads.random_uniform import (
    RandomInstanceConfig,
    generate_random_instance,
    paper_random_platform,
)


def _digest(result):
    return hashlib.sha256(result.completion.tobytes()).hexdigest()


def _instance(seed=11, n_jobs=40, load=0.8):
    return generate_random_instance(
        RandomInstanceConfig(n_jobs=n_jobs, ccr=1.0, load=load), seed=seed
    )


def _renewal_faults(inst, seed, mtbf=25.0, mttr=None):
    params = FaultClassParams(mtbf=mtbf, mttr=0.1 * mtbf if mttr is None else mttr)
    return exponential_fault_trace(
        n_edge=inst.platform.n_edge,
        n_cloud=inst.platform.n_cloud,
        horizon=float(inst.release.max() + inst.min_time.sum()),
        seed=seed,
        edge=params,
        cloud=params,
        link=params,
    )


class ViewCapture(EngineHooks):
    """Grab the engine view so tests can inspect its outlook cache."""

    def __init__(self):
        self.view = None

    def on_start(self, view):
        self.view = view


class TestRegistry:
    def test_rework_variant_registered(self):
        assert "ssf-edf-fa-rework" in available_schedulers()
        sched = make_scheduler("ssf-edf-fa-rework")
        assert isinstance(sched, SsfEdfScheduler)
        assert sched.failure_aware and sched.rework_pricing
        assert sched.name == "ssf-edf-fa-rework"

    def test_greedy_fa_registered(self):
        assert "greedy-fa" in available_schedulers()
        sched = make_scheduler("greedy-fa")
        assert isinstance(sched, GreedyScheduler)
        assert sched.failure_aware
        assert sched.name == "greedy-fa"

    def test_rework_requires_failure_aware(self):
        with pytest.raises(ValueError):
            SsfEdfScheduler(rework_pricing=True)


class TestDegeneration:
    def test_rework_identical_to_fa_on_fault_free_run(self):
        inst = _instance()
        fa = simulate(inst, make_scheduler("ssf-edf-fa"))
        rework = simulate(inst, make_scheduler("ssf-edf-fa-rework"))
        assert _digest(fa) == _digest(rework)
        assert fa.n_decisions == rework.n_decisions

    def test_greedy_fa_identical_to_greedy_on_fault_free_run(self):
        inst = _instance()
        base = simulate(inst, make_scheduler("greedy"))
        fa = simulate(inst, make_scheduler("greedy-fa"))
        assert _digest(base) == _digest(fa)


class TestOutlookPoolIdentity:
    """greedy-fa and ssf-edf-fa price from the same outlook pool."""

    def _run_and_capture(self, name, inst, faults):
        capture = ViewCapture()
        simulate(inst, make_scheduler(name), faults=faults, hooks=[capture])
        return capture.view

    def test_greedy_fa_materializes_the_shared_discounted_outlook(self):
        inst = _instance(seed=7)
        greedy_view = self._run_and_capture("greedy-fa", inst, _renewal_faults(inst, 7))
        ssf_view = self._run_and_capture("ssf-edf-fa", inst, _renewal_faults(inst, 7))
        # Both runs served their estimates from the view's per-run cache
        # (capacity_outlook memoizes per discounted flag), and the
        # discounted pool was actually consulted.
        g_outlook = greedy_view.capacity_outlook(discounted=True)
        s_outlook = ssf_view.capacity_outlook(discounted=True)
        assert g_outlook is greedy_view.capacity_outlook(discounted=True)
        assert g_outlook.n_queries > 0
        assert s_outlook.n_queries > 0
        # Same fault rates -> identical discount parameters on both pools.
        assert g_outlook.discount == ExpectationDiscount.from_rates(
            _renewal_faults(inst, 7).rates
        )
        assert g_outlook.discount == s_outlook.discount

    def test_plain_greedy_never_touches_the_discounted_pool(self):
        inst = _instance(seed=7)
        view = self._run_and_capture("greedy", inst, _renewal_faults(inst, 7))
        # The discounted outlook must not even be materialized.
        assert True not in view._outlooks


class TestReworkUnderFaults:
    def test_rework_run_is_valid_and_deterministic(self):
        inst = _instance(seed=21, load=0.5)
        faults = _renewal_faults(inst, 21)
        policy = CheckpointPolicy(interval=1.0, commit_cost=0.05)
        digests = set()
        for _ in range(2):
            result = simulate(
                inst,
                make_scheduler("ssf-edf-fa-rework"),
                faults=faults,
                checkpoint=policy,
                record_trace=True,
            )
            digests.add(_digest(result))
            assert validate_schedule(result.schedule, checkpointing=True) == []
        assert len(digests) == 1

    def test_outlook_query_ceiling_holds_with_rework(self):
        # The rework scalars are attribute reads on the discount, not
        # counted queries: the capacity layer stays out of the hot loop.
        instance = generate_random_instance(
            RandomInstanceConfig(n_jobs=200, ccr=1.0, load=1.0),
            platform=paper_random_platform(),
            seed=20210005,
        )
        result = simulate(
            instance,
            SsfEdfScheduler(failure_aware=True, rework_pricing=True),
            record_trace=False,
        )
        stats = result.scheduler_stats
        assert stats is not None
        assert stats["scheduler.outlook_queries"] <= 3.0


class TestSmallMtbf:
    """Expected rework beyond the range of a double is a located ModelError."""

    def test_cli_run_fails_with_model_error(self):
        argv = [
            "--generate", "random", "--n-jobs", "20",
            "--policy", "ssf-edf-fa-rework", "--fault-mtbf", "0.05",
        ]
        with pytest.raises(ModelError, match="ssf-edf-fa-rework"):
            simulate_main(argv)

    def test_overflowing_price_fails_with_model_error(self):
        inst = generate_random_instance(
            RandomInstanceConfig(n_jobs=20, ccr=1.0, load=1.0), seed=3
        )
        faults = _renewal_faults(inst, 3, mtbf=0.05, mttr=0.005)
        with pytest.raises(ModelError, match="ssf-edf-fa-rework.*decision time"):
            simulate(inst, make_scheduler("ssf-edf-fa-rework"), faults=faults, record_trace=False)

    def test_mtbf_5_run_completes_and_validates(self):
        inst = generate_random_instance(
            RandomInstanceConfig(n_jobs=20, ccr=1.0, load=1.0), seed=3
        )
        faults = _renewal_faults(inst, 3, mtbf=5.0)
        result = simulate(inst, make_scheduler("ssf-edf-fa-rework"), faults=faults)
        assert validate_schedule(result.schedule) == []
