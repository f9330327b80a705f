"""Tests for the exact brute-force solvers."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ModelError
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.offline.bruteforce import edge_cloud_bruteforce, mmsh_optimal
from repro.offline.spt import completions_of_order, spt_order

works_lists = st.lists(
    st.floats(min_value=0.2, max_value=20.0, allow_nan=False), min_size=1, max_size=7
)


def mmsh_value_of_assignment(works, assignment, n_machines):
    """Max-stretch of a partition, SPT order per machine."""
    worst = 0.0
    for m in range(n_machines):
        machine_works = [w for w, a in zip(works, assignment) if a == m]
        if not machine_works:
            continue
        order = spt_order(machine_works)
        comp = completions_of_order(machine_works, order)
        worst = max(worst, max(c / w for c, w in zip(comp, machine_works)))
    return worst


class TestMmshOptimal:
    def test_single_machine_is_spt(self):
        # SPT completions 1, 3, 6 -> stretches 1, 1.5, 2.
        sol = mmsh_optimal([1.0, 2.0, 3.0], 1)
        assert sol.max_stretch == pytest.approx(2.0)

    def test_more_machines_than_jobs(self):
        sol = mmsh_optimal([5.0, 7.0], 4)
        assert sol.max_stretch == pytest.approx(1.0)

    def test_two_machines_balanced(self):
        sol = mmsh_optimal([1.0, 1.0, 1.0, 1.0], 2)
        # Two jobs per machine: second job has stretch 2.
        assert sol.max_stretch == pytest.approx(2.0)

    def test_assignment_witnesses_value(self):
        works = [3.0, 1.0, 4.0, 1.0, 5.0]
        sol = mmsh_optimal(works, 2)
        value = mmsh_value_of_assignment(works, sol.assignment, 2)
        assert value == pytest.approx(sol.max_stretch)

    def test_empty(self):
        assert mmsh_optimal([], 3).max_stretch == 0.0

    def test_bad_machine_count(self):
        with pytest.raises(ModelError):
            mmsh_optimal([1.0], 0)

    @given(works=works_lists, n_machines=st.integers(min_value=1, max_value=3))
    @settings(deadline=None, max_examples=40)
    def test_optimal_over_exhaustive_assignments(self, works, n_machines):
        if len(works) > 5:
            works = works[:5]
        sol = mmsh_optimal(works, n_machines)
        best = min(
            mmsh_value_of_assignment(works, assignment, n_machines)
            for assignment in itertools.product(range(n_machines), repeat=len(works))
        )
        assert sol.max_stretch == pytest.approx(best)


class TestEdgeCloudBruteforce:
    def test_single_job_picks_best_resource(self):
        platform = Platform.create([0.1], n_cloud=1)
        inst = Instance.create(platform, [Job(origin=0, work=5.0, up=1.0, dn=1.0)])
        sol = edge_cloud_bruteforce(inst)
        assert sol.max_stretch == pytest.approx(1.0)
        assert sol.allocation[0].is_cloud

    def test_figure1_optimum(self, figure1_optimum):
        sol = figure1_optimum
        assert sol.max_stretch == pytest.approx(1.25, rel=1e-9)

    def test_too_many_jobs_rejected(self):
        platform = Platform.create([1.0], n_cloud=0)
        inst = Instance.create(platform, [Job(origin=0, work=1.0)] * 9)
        with pytest.raises(ModelError, match="exponential"):
            edge_cloud_bruteforce(inst)

    def test_empty_instance(self):
        platform = Platform.create([1.0], n_cloud=0)
        inst = Instance.create(platform, [])
        assert edge_cloud_bruteforce(inst).max_stretch == 0.0

    def test_lower_bounds_heuristics(self):
        # The brute-force fixed-policy optimum is at most any heuristic's
        # value on the same instance.
        from repro.schedulers.registry import make_scheduler
        from repro.sim.engine import simulate

        platform = Platform.create([0.5], n_cloud=1)
        jobs = [
            Job(origin=0, work=2.0, release=0.0, up=1.0, dn=1.0),
            Job(origin=0, work=1.0, release=1.0, up=2.0, dn=0.5),
            Job(origin=0, work=3.0, release=2.0, up=0.5, dn=0.5),
        ]
        inst = Instance.create(platform, jobs)
        sol = edge_cloud_bruteforce(inst)
        for name in ("greedy", "srpt", "ssf-edf", "fcfs"):
            result = simulate(inst, make_scheduler(name))
            assert sol.max_stretch <= result.max_stretch + 1e-9
