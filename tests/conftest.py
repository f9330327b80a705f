"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform


@pytest.fixture
def single_pair_platform() -> Platform:
    """One edge unit at speed 1/3 and one cloud processor (Figure 1's)."""
    return Platform.create(edge_speeds=[1 / 3], n_cloud=1)


def _figure1_instance(platform: Platform) -> Instance:
    jobs = [
        Job(origin=0, work=1, release=0, up=5, dn=5),
        Job(origin=0, work=4, release=0, up=2, dn=2),
        Job(origin=0, work=2, release=3, up=2, dn=1),
        Job(origin=0, work=4 / 3, release=5, up=5, dn=5),
        Job(origin=0, work=2, release=5, up=2, dn=1),
        Job(origin=0, work=1 / 3, release=6, up=5, dn=5),
    ]
    return Instance.create(platform, jobs)


@pytest.fixture
def figure1_instance(single_pair_platform: Platform) -> Instance:
    """The worked example of Section III-C (J3/J5 carry up=2, dn=1;
    the HAL scan's 'up=dn=1' contradicts the prose, see DESIGN.md)."""
    return _figure1_instance(single_pair_platform)


@pytest.fixture(scope="session")
def figure1_optimum():
    """``edge_cloud_bruteforce`` on Figure 1, computed once per test run.

    The exhaustive search takes tens of seconds; every test asserting
    on the Figure-1 optimum shares this one result.
    """
    from repro.offline.bruteforce import edge_cloud_bruteforce

    platform = Platform.create(edge_speeds=[1 / 3], n_cloud=1)
    return edge_cloud_bruteforce(_figure1_instance(platform))


@pytest.fixture
def two_tier_platform() -> Platform:
    """Two heterogeneous edge units, two cloud processors."""
    return Platform.create(edge_speeds=[0.5, 0.1], n_cloud=2)


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

#: Positive, well-conditioned time quantities.
time_amounts = st.floats(
    min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False
)

#: Non-negative communication times (zero allowed: the Kang dn=0 case).
comm_amounts = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False),
)

#: Release dates.
release_dates = st.floats(
    min_value=0.0, max_value=200.0, allow_nan=False, allow_infinity=False
)

#: Edge speeds in (0, 1] as the paper requires.
edge_speeds = st.floats(
    min_value=0.05, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def platforms(draw, max_edge: int = 3, max_cloud: int = 3, min_cloud: int = 0):
    """Random small platforms."""
    n_edge = draw(st.integers(min_value=1, max_value=max_edge))
    n_cloud = draw(st.integers(min_value=min_cloud, max_value=max_cloud))
    speeds = draw(
        st.lists(edge_speeds, min_size=n_edge, max_size=n_edge)
    )
    return Platform.create(speeds, n_cloud)


@st.composite
def jobs_for(draw, platform: Platform):
    """A random job valid on ``platform``."""
    return Job(
        origin=draw(st.integers(min_value=0, max_value=platform.n_edge - 1)),
        work=draw(time_amounts),
        release=draw(release_dates),
        up=draw(comm_amounts),
        dn=draw(comm_amounts),
    )


@st.composite
def instances(draw, max_jobs: int = 8, max_edge: int = 3, max_cloud: int = 3, min_cloud: int = 0):
    """Random small instances (platform + jobs)."""
    platform = draw(platforms(max_edge=max_edge, max_cloud=max_cloud, min_cloud=min_cloud))
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    job_list = [draw(jobs_for(platform)) for _ in range(n)]
    return Instance.create(platform, job_list)
