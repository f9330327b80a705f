"""Tests of the benchmark itself: checks, statistics, spans, manifest.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_layers
import bench_speed
import bench_trace
import bench_workloads as bw
from bench_manifest import MANIFEST_FIELDS, finish_manifest, start_manifest
from bench_metrics import END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS
from bench_stats import tail
from bench_trace import Patches, SpanRecorder
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


# -- a perturbed result counts as a failure ------------------------------------


@pytest.fixture
def small_single(monkeypatch):
    monkeypatch.setattr(bw.SingleRun, "N_JOBS", 15)
    monkeypatch.setattr(bw.SingleRun, "N_INSTANCES", 2)
    workload = bw.SingleRun("fa-faulted", failure_aware=True)
    workload.setup(3)
    return workload


def test_single_run_passes_its_own_check(small_single):
    check = small_single.check(None)
    assert check.outcome.failed == 0 and check.validation_errors == 0
    p = small_single.run_pass()
    assert p.outcome.attempted == 2 and p.outcome.failed == 0
    # An op is one decide() call; the check pass recorded how many.
    assert len(p.op_ms) == len(p.op_spans) == sum(d["n_decisions"] for d in small_single.expected)


def test_perturbed_single_result_fails_its_op(small_single):
    small_single.check(None)
    first = small_single.expected[0]
    small_single.expected = [{**first, "n_events": first["n_events"] + 1},
                             small_single.expected[1]]
    p = small_single.run_pass()
    assert (p.outcome.attempted, p.outcome.failed) == (2, 1)
    assert "mismatch" in p.outcome.notes[0]


def test_reference_mismatch_fails_the_check(small_single):
    small_single.check(None)
    pinned = {"results": [{**d, "max_stretch": (1.5).hex()} for d in small_single.expected]}
    check = small_single.check(pinned)
    assert check.outcome.failed == 2
    assert small_single.run_pass().outcome.failed == 2


def _three_jobs() -> Instance:
    platform = Platform.create(edge_speeds=[1 / 3], n_cloud=1)
    jobs = [
        Job(origin=0, work=1, release=0, up=5, dn=5),
        Job(origin=0, work=4, release=0, up=2, dn=2),
        Job(origin=0, work=2, release=3, up=2, dn=1),
    ]
    return Instance.create(platform, jobs)


def test_perturbed_oracle_optimum_fails_the_pass():
    workload = bw.Oracle()
    workload.instance = _three_jobs()
    assert workload.check(None).outcome.failed == 0
    assert workload.run_pass().outcome.failed == 0
    workload.expected = (float.fromhex(workload.expected) * 1.0000001).hex()
    p = workload.run_pass()
    assert p.outcome.attempted == 48  # 2**3 allocations x 3! priorities
    assert p.outcome.failed == p.outcome.attempted


def test_oracle_above_a_heuristic_fails_the_pass():
    workload = bw.Oracle()
    workload.instance = _three_jobs()
    workload.check(None)
    workload.best_heuristic = 0.5
    assert workload.run_pass().outcome.failed == 48


def test_small_sweep_pooled_matches_serial(monkeypatch, tmp_path):
    monkeypatch.setattr(bw.Sweep, "N_JOBS", 4)
    monkeypatch.setattr(bw.Sweep, "N_REPS", 1)
    workload = bw.Sweep(str(tmp_path))
    workload.setup(7)
    check = workload.check(None)
    assert (check.outcome.attempted, check.outcome.failed) == (5, 0)
    assert check.validation_errors == 0
    p = workload.run_pass()
    assert (p.outcome.attempted, p.outcome.failed) == (5, 0)
    assert len(p.op_ms) == 5
    assert list(tmp_path.iterdir()) == []  # the pass removes its checkpoint


def test_perturbed_sweep_cell_fails():
    workload = bw.Sweep("unused")
    workload.reference = None

    class Row:
        def __init__(self, rep, max_stretch):
            self.x, self.rep, self.telemetry, self.trace = 25.0, rep, None, None
            self.max_stretch = max_stretch

        def as_dict(self):
            return {"x": self.x, "rep": self.rep, "max_stretch": self.max_stretch}

    rows = [Row(0, 1.0), Row(1, 1.0)]
    workload.expected_cells = bw.cell_digests(rows)
    out = bw.Outcome(attempted=2)
    workload._compare(rows, [], out)
    assert out.failed == 0
    out = bw.Outcome(attempted=2)
    workload._compare([Row(0, 1.0), Row(1, 1.25)], [], out)
    assert out.failed == 1
    out = bw.Outcome(attempted=2)
    workload._compare(rows, ["quarantined cell"], out)
    assert out.failed == 1


def test_pooled_sweep_pass_under_a_probe_logs_worker_probes(monkeypatch, tmp_path):
    monkeypatch.setattr(bw.Sweep, "N_JOBS", 4)
    monkeypatch.setattr(bw.Sweep, "N_REPS", 1)
    workload = bw.Sweep(str(tmp_path))
    workload.setup(7)
    workload.check(None)
    with bench_speed.SpeedProbe():
        p = workload.run_pass(workers=2)
    assert p.outcome.failed == 0
    assert len(p.op_spans) == 5 and len(p.log.durations) >= 5
    assert all(t0 < t1 for t0, t1, _ in p.op_spans)
    assert p.log.slowdown(p.start, p.start + p.wall_s) > 0
    assert list(tmp_path.iterdir()) == []  # probe logs and checkpoint removed


# -- host-speed normalization ----------------------------------------------------


def test_slowdown_is_the_harmonic_mean_over_the_reference():
    ref = bench_speed.REFERENCE_S
    log = bench_speed.ProbeLog([1.0, 2.0, 3.0, 4.0], [ref, 3 * ref, ref, 3 * ref])
    # Half the time at full speed, half at a third: mean speed 2/3.
    assert log.slowdown(0.5, 4.5) == pytest.approx(1.5)
    assert log.slowdown(0.5, 2.5) == pytest.approx(1.5)
    # A preempted probe (over 4x the median) is left out.
    log = bench_speed.ProbeLog([1.0, 2.0, 3.0], [ref, ref, 100 * ref])
    assert log.slowdown(0.0, 4.0) == pytest.approx(1.0)


def test_short_intervals_widen_then_borrow_the_nearest_probes():
    ref = bench_speed.REFERENCE_S
    stamps = [1.0, 1.2, 2.0, 3.0, 4.0]
    log = bench_speed.ProbeLog(stamps, [ref, 3 * ref, 2 * ref, 2 * ref, 8 * ref])
    # Widened to 0.75 .. 1.25, which holds the first two probes.
    assert log.slowdown(0.99, 1.01) == pytest.approx(1.5)
    assert log.slowdown(2.4, 2.6) == pytest.approx(2.0)
    assert log.slowdown(9.0, 9.5) == pytest.approx(2 / (1 / 2 + 1 / 8))


def test_normalized_subtracts_probes_and_divides_by_the_slowdown():
    ref = bench_speed.REFERENCE_S
    log = bench_speed.ProbeLog([1.0, 2.0], [2 * ref, 2 * ref])
    assert bench_speed.normalized(log, 0.0, 3.0, 1.0) == pytest.approx(1.0)
    assert bench_speed.normalized(None, 0.0, 3.0, 1.0) == 3.0


def test_repeated_ops_take_each_ops_fastest_time_over_passes():
    import run

    ref = bench_speed.REFERENCE_S
    log = bench_speed.ProbeLog([i * 0.01 for i in range(1, 500)], [ref] * 499)

    def one_pass(start, stalled):
        spans, t = [], start
        for i in range(40):
            d = 0.05 if i in stalled else 0.001
            spans.append((t, t + d, 0.0))
            t += d
        return bw.Pass(t - start, t - start, [], bw.Outcome(), start=start, op_spans=spans)

    # Host stalls hit eleven ops of the first two passes, different ones.
    passes = [one_pass(0.0, range(0, 11)), one_pass(1.0, range(20, 31)), one_pass(2.0, ())]

    class Ops:
        ops_repeat = True

        def wall_counts(self):
            return {}

    ops = Ops()
    m = run.end_to_end(ops, passes, 0.1, log, [], {})
    assert m["norm_op_p50_ms"] == pytest.approx(1.0)
    assert m["norm_op_tail_ms"] == pytest.approx(1.0)
    ops.ops_repeat = False  # per-pass tails keep the stalls
    assert run.end_to_end(ops, passes, 0.1, log, [], {})["norm_op_tail_ms"] == pytest.approx(50.0)


def test_probe_runs_while_entered_and_pauses(monkeypatch):
    import signal
    import time

    monkeypatch.setattr(bench_speed, "PERIOD_S", 0.005)
    before = signal.getsignal(signal.SIGALRM)
    with bench_speed.SpeedProbe() as probe:
        assert bench_speed.ACTIVE is probe
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        taken = len(probe.durations)
        assert taken >= 5 and bench_speed.spent() == probe.spent > 0
        with probe.paused():
            time.sleep(0.05)
        assert len(probe.durations) <= taken + 1
    assert bench_speed.ACTIVE is None and bench_speed.spent() == 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- the tail-percentile rule ------------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 21))  # 20 samples
    value, pct, n, met = tail(values)
    assert met and n == 20
    assert value == 10 and pct == 50.0
    assert sum(v > value for v in values) == 10


def test_tail_is_the_highest_such_percentile():
    values = [float(v) for v in range(1000)]
    value, pct, _, met = tail(values)
    assert met and value == 989.0 and pct == pytest.approx(99.0)
    assert sum(v > value for v in values) == 10


def test_tail_without_enough_samples_is_the_flagged_maximum():
    value, pct, n, met = tail([3.0, 1.0, 2.0])
    assert (value, pct, n, met) == (3.0, 100.0, 3, False)
    assert tail(list(range(20)))[3] is True
    # With 12 samples the rule would give p16.7, below the median.
    assert tail(list(range(12)))[:2] == (11, 100.0)
    assert tail(list(range(19)))[3] is False


# -- spans and self time -------------------------------------------------------------


def test_self_time_subtracts_direct_children(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 4.75, 5.0, 10.0])
    monkeypatch.setattr(bench_trace.time, "perf_counter", lambda: next(ticks))
    rec = SpanRecorder(op_name="outer")

    leaf = rec.wrap(lambda: None, "leaf")
    inner = rec.wrap(lambda nest: leaf() if nest else None, "inner")

    def body():
        inner(False)  # 1 -> 3
        inner(True)  # 4 -> 5, with a leaf 4.5 -> 4.75

    rec.wrap(body, "outer")()
    own = rec.self_times()
    assert own["outer"] == pytest.approx(10.0 - 2.0 - 1.0)
    assert own["inner"] == pytest.approx(2.0 + 1.0 - 0.25)
    assert own["leaf"] == pytest.approx(0.25)
    total, calls = rec.totals()
    assert total["inner"] == pytest.approx(3.0) and calls["inner"] == 2
    assert list(rec.parent) == [-1, 0, 0, 2]
    assert list(rec.op) == [0, 0, 0, 0]


def test_spans_record_ops_and_write_out(tmp_path):
    rec = SpanRecorder(op_name="op")
    op = rec.wrap(lambda: None, "op")
    op()
    op()
    assert list(rec.op) == [0, 1]
    rec.write(tmp_path / "spans.jsonl.gz", {"workload": "t"})
    import gzip

    lines = gzip.open(tmp_path / "spans.jsonl.gz", "rt").read().splitlines()
    assert json.loads(lines[0])["span_fields"] == ["name", "start_s", "end_s", "parent", "op"]
    assert [json.loads(x)[0] for x in lines[1:]] == ["op", "op"]


def test_patches_reach_aliases_and_undo():
    import repro.offline.bruteforce as bruteforce
    import repro.sim.engine as engine

    original = engine.simulate
    rec = SpanRecorder()
    with Patches() as patches:
        wrapper = patches.wrap_function(rec, engine, "simulate", "sim.simulate")
        assert engine.simulate is wrapper and bruteforce.simulate is wrapper
    assert engine.simulate is original and bruteforce.simulate is original


def test_exact_counts_must_repeat():
    rounds = [{"sim.events": 10, "sim.kernel_s": 1.0}, {"sim.events": 11, "sim.kernel_s": 3.0},
              {"sim.events": 10, "sim.kernel_s": 2.0}]
    merged, defects = bench_layers.merge_rounds(rounds, ("sim.events",))
    assert merged == {"sim.events": 10, "sim.kernel_s": 2.0}
    assert len(defects) == 1 and "sim.events" in defects[0]
    _, defects = bench_layers.merge_rounds(rounds[::2], ("sim.events",))
    assert defects == []


# -- manifest and catalogue -------------------------------------------------------------


def test_manifest_fields_are_present():
    manifest = finish_manifest(start_manifest(ROOT, (0.5, 0.25, 0.125)))
    assert set(MANIFEST_FIELDS) <= set(manifest)
    assert manifest["nproc"] >= 1 and manifest["python"] and manifest["numpy"]
    assert manifest["loadavg_start"] == [0.5, 0.25, 0.125]
    assert len(manifest["loadavg_end"]) == 3
    assert manifest["git_dirty"] in (True, False, None)


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m[:3]) for m in PER_LAYER
    ]
    assert set(EXACT_COUNTS) <= {m[0] for m in PER_LAYER}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-fig1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
