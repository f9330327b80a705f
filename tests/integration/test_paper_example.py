"""Integration: the paper's worked example (Section III-C, Figure 1).

The schedule of Figure 1, replayed through the engine as a fixed
policy, must reproduce every number the paper states:

* interval layout (J1 edge 0-3; J2 up 0-2, exec 2-6, dn 6-8; ...),
* per-job stretches (1, 1, 6/5, 5/4, 6/5, 1),
* optimal max-stretch 5/4 (checked against the brute force),
* the t=6 snapshot: edge computes, cloud computes, one uplink and one
  downlink are all simultaneously in flight.
"""

import pytest

from repro.core.resources import cloud, edge
from repro.core.validation import validate_schedule
from repro.offline.list_scheduler import FixedPolicyScheduler
from repro.sim.engine import simulate

ALLOCATION = [edge(0), cloud(0), cloud(0), edge(0), cloud(0), edge(0)]
PRIORITY = [0, 5, 1, 2, 4, 3]


@pytest.fixture
def paper_run(figure1_instance):
    return simulate(figure1_instance, FixedPolicyScheduler(ALLOCATION, PRIORITY))


class TestFigure1:
    def test_schedule_is_valid(self, paper_run):
        assert validate_schedule(paper_run.schedule) == []

    def test_per_job_stretches(self, paper_run):
        assert paper_run.stretches().tolist() == pytest.approx(
            [1.0, 1.0, 6 / 5, 5 / 4, 6 / 5, 1.0]
        )

    def test_max_stretch_is_five_fourths(self, paper_run):
        assert paper_run.max_stretch == pytest.approx(1.25)

    def test_interval_layout_matches_figure(self, paper_run):
        s = paper_run.schedule

        def exec_spans(i):
            return [(iv.start, iv.end) for iv in s.job_schedules[i].final_attempt.execution]

        def up_spans(i):
            return [(iv.start, iv.end) for iv in s.job_schedules[i].final_attempt.uplink]

        assert exec_spans(0) == [(0.0, 3.0)]
        assert up_spans(1) == [(0.0, 2.0)]
        assert exec_spans(1) == [(2.0, 6.0)]
        assert up_spans(2) == [(3.0, 5.0)]
        assert exec_spans(2) == [(6.0, 8.0)]
        # J4 preempted by J6 at t=6, resumes at 7.
        assert exec_spans(3) == [(5.0, 6.0), (7.0, 10.0)]
        assert exec_spans(5) == [(6.0, 7.0)]
        assert up_spans(4) == [(5.0, 7.0)]
        assert exec_spans(4) == [(8.0, 10.0)]

    def test_time_six_snapshot(self, paper_run):
        """At t=6: edge computes (J6), cloud computes (J3), J5 uploads,
        J2 downloads — all four activity kinds in parallel."""
        s = paper_run.schedule
        t = 6.5  # inside (6, 7)
        active_exec = [
            i
            for i in range(6)
            for iv in s.job_schedules[i].final_attempt.execution
            if iv.contains_time(t)
        ]
        active_up = [
            i
            for i in range(6)
            for iv in s.job_schedules[i].final_attempt.uplink
            if iv.contains_time(t)
        ]
        active_dn = [
            i
            for i in range(6)
            for iv in s.job_schedules[i].final_attempt.downlink
            if iv.contains_time(t)
        ]
        assert set(active_exec) == {5, 2}  # J6 on edge, J3 on cloud
        assert active_up == [4]  # J5 uploading
        assert active_dn == [1]  # J2 downloading

    def test_fixed_policy_class_attains_optimum(self, figure1_optimum, paper_run):
        best = figure1_optimum
        assert best.max_stretch == pytest.approx(paper_run.max_stretch)

    def test_preemption_without_reexecution(self, paper_run):
        # J6 preempts J4 on the edge; J4 resumes — same resource, no
        # attempt reset.
        assert paper_run.n_reexecutions == 0
        assert len(paper_run.schedule.job_schedules[3].attempts) == 1


class TestHeuristicsOnFigure1:
    """The online heuristics on the paper's example."""

    def test_ssf_edf_matches_offline_optimum(self, figure1_instance):
        from repro.schedulers.ssf_edf import SsfEdfScheduler

        result = simulate(figure1_instance, SsfEdfScheduler())
        assert result.max_stretch == pytest.approx(1.25, rel=1e-6)

    def test_all_heuristics_valid_and_above_optimum(self, figure1_instance):
        from repro.schedulers.registry import available_schedulers, make_scheduler

        for name in available_schedulers():
            scheduler = (
                make_scheduler(name, seed=0) if name == "random" else make_scheduler(name)
            )
            result = simulate(figure1_instance, scheduler)
            assert validate_schedule(result.schedule) == [], name
            assert result.max_stretch >= 1.25 - 1e-9, name
