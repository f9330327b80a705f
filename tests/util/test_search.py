"""Tests for repro.util.search.binary_search_min."""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ModelError
from repro.core.instance import Instance
from repro.schedulers.placement import EdfPlacementKernel
from repro.schedulers.registry import make_scheduler
from repro.sim.engine import simulate
from repro.util.search import binary_search_min
from repro.workloads.random_uniform import RandomInstanceConfig, generate_random_instance


class TestBasics:
    def test_threshold_found(self):
        result = binary_search_min(lambda x: x >= 3.7, 0.0, 10.0, eps=1e-9)
        assert math.isclose(result, 3.7, rel_tol=1e-6)

    def test_result_is_feasible(self):
        result = binary_search_min(lambda x: x >= 3.7, 0.0, 10.0, eps=1e-3)
        assert result >= 3.7

    def test_lo_already_feasible(self):
        assert binary_search_min(lambda x: True, 2.0, 10.0) == 2.0

    def test_grows_hi_when_needed(self):
        result = binary_search_min(lambda x: x >= 1000.0, 0.0, 1.0, eps=1e-6)
        assert result >= 1000.0
        assert math.isclose(result, 1000.0, rel_tol=1e-4)

    def test_infeasible_everywhere_raises(self):
        with pytest.raises(RuntimeError):
            binary_search_min(lambda x: False, 0.0, 1.0, max_grow=10)


class TestHint:
    @staticmethod
    def _counted(calls, threshold):
        def feasible(x):
            calls.append(x)
            return x >= threshold

        return feasible

    def test_good_hint_reduces_predicate_calls(self):
        # Without a hint the bracket must be grown geometrically from
        # 1.0 to past 900; a caller seeding hi from a nearby previous
        # solve skips the whole growth phase.
        base_calls, hint_calls = [], []
        base = binary_search_min(self._counted(base_calls, 900.0), 0.0, 1.0, eps=1e-6)
        hinted = binary_search_min(
            self._counted(hint_calls, 900.0), 0.0, 1.0, eps=1e-6, hint=1000.0
        )
        assert base >= 900.0 and hinted >= 900.0
        assert len(hint_calls) < len(base_calls)

    def test_underestimating_hint_still_correct(self):
        result = binary_search_min(lambda x: x >= 50.0, 0.0, 1.0, eps=1e-6, hint=2.0)
        assert result >= 50.0
        assert math.isclose(result, 50.0, rel_tol=1e-4)

    def test_hint_not_above_lo_is_ignored(self):
        assert binary_search_min(lambda x: True, 2.0, 10.0, hint=1.0) == 2.0


class TestValidation:
    def test_negative_lo_rejected(self):
        with pytest.raises(ValueError):
            binary_search_min(lambda x: True, -1.0, 1.0)

    def test_inverted_bracket_rejected(self):
        with pytest.raises(ValueError):
            binary_search_min(lambda x: True, 5.0, 1.0)

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            binary_search_min(lambda x: True, 0.0, 1.0, eps=0.0)


class TestNonFiniteBracket:
    """A bracket end of ``inf`` would make every probe "feasible"."""

    @staticmethod
    def _only_at_inf(calls):
        def feasible(x):
            calls.append(x)
            return math.isinf(x)

        return feasible

    def test_hint_near_max_double_overflows(self):
        calls = []
        with pytest.raises(RuntimeError, match="overflows"):
            binary_search_min(self._only_at_inf(calls), 0.0, 1.0, hint=1e308, max_grow=10)
        assert calls == [0.0, 1e308]

    def test_growth_overflow_refused(self):
        calls = []
        with pytest.raises(RuntimeError, match="overflows"):
            binary_search_min(self._only_at_inf(calls), 0.0, 1.0, max_grow=5000)
        assert all(math.isfinite(x) for x in calls)

    @pytest.mark.parametrize("end", [math.inf, math.nan])
    def test_non_finite_hi_refused(self, end):
        calls = []
        with pytest.raises(RuntimeError, match="non-finite"):
            binary_search_min(self._only_at_inf(calls), 0.0, end)
        assert calls == []

    def test_infinite_hint_refused(self):
        calls = []
        with pytest.raises(RuntimeError, match="non-finite"):
            binary_search_min(self._only_at_inf(calls), 0.0, 1.0, hint=math.inf)
        assert calls == []

    @pytest.mark.parametrize(
        "scale, overflow",
        [
            # min_time > 1: ``release + stretch * min_time`` overflows
            # before the stretch itself does.
            (1.0, "overflows the deadlines"),
            # min_time < 0.5: the bracket growth overflows first.
            (1e-4, "growing the bracket overflows"),
        ],
    )
    def test_ratchet_overflow_is_a_model_error_through_ssf_edf(
        self, monkeypatch, scale, overflow
    ):
        # Probes meet their deadlines only from a stretch that climbs by
        # 1e50 per release search, then only at ``inf``: SSF-EDF's
        # warm-started search ratchets its target up to ~1e300, and the
        # next search overflows.  That must be the policy's ModelError,
        # not deadlines of ``inf`` that every placement "meets".
        place = EdfPlacementKernel.place
        searches: dict[float, float] = {}

        def ratcheting_place(self, view, live, deadlines, **kw):
            res = place(self, view, live, deadlines, **kw)
            if not kw.get("short_circuit"):
                return res
            if view.now not in searches:
                k = len(searches) + 1
                searches[view.now] = 10.0 ** (50 * k) if k <= 6 else math.inf
            inst = view.instance
            stretch = (deadlines - inst.release[live]) / inst.min_time[live]
            return dataclasses.replace(
                res, feasible=bool(stretch.min() >= searches[view.now])
            )

        monkeypatch.setattr(EdfPlacementKernel, "place", ratcheting_place)
        base = generate_random_instance(RandomInstanceConfig(n_jobs=12, load=1.0), seed=3)
        inst = Instance(
            base.platform,
            tuple(
                dataclasses.replace(
                    j, work=j.work * scale, release=j.release * scale,
                    up=j.up * scale, dn=j.dn * scale,
                )
                for j in base.jobs
            ),
        )
        assert (inst.min_time.max() < 0.5) == (scale < 1.0)
        with pytest.raises(ModelError, match="ssf-edf: no feasible stretch target") as info:
            simulate(inst, make_scheduler("ssf-edf"), record_trace=False)
        assert overflow in str(info.value.__cause__)
        assert len(searches) == 7


class TestProperties:
    @given(
        threshold=st.floats(min_value=0.01, max_value=1e6, allow_nan=False),
        eps=st.floats(min_value=1e-9, max_value=1e-2, allow_nan=False),
    )
    def test_always_feasible_and_close(self, threshold, eps):
        result = binary_search_min(lambda x: x >= threshold, 0.0, 1.0, eps=eps)
        assert result >= threshold
        # Bracket width guarantee: within eps * max(1, result) of the optimum.
        assert result - threshold <= eps * max(1.0, result) + 1e-12

    @given(threshold=st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
    def test_counts_calls_logarithmically(self, threshold):
        calls = []

        def feasible(x):
            calls.append(x)
            return x >= threshold

        binary_search_min(feasible, 0.0, 200.0, eps=1e-6)
        # log2(200 / (1e-6 * 200)) ~ 20 plus constant slack.
        assert len(calls) < 60
