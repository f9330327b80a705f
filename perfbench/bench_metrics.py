"""The benchmark's metric catalogue: name, unit, direction and bound.

``END_TO_END`` metrics run with tracing off; ``PER_LAYER`` metrics come
from the traced run.  Each per-layer entry names the end-to-end metric
and workload it should move, written down before any change is measured.
``BENCHMARK.json`` lists the same metrics (a test keeps the two equal).
"""

from __future__ import annotations

WORKLOADS = {
    "ssf-edf-online": "SSF-EDF simulate() on eight load-1.0 random 250-job instances, no faults: "
    "binary search, placement kernel and replay cache dominate",
    "fa-faulted": "ssf-edf-fa on the same kind of instances under MTBF 100 / MTTR 10 faults: "
    "discounted-outlook kernel, replay off, so a replay change moves only ssf-edf-online",
    "sweep-mtbf": "degradation_mtbf, 8 jobs x 16 reps, on 2 pool workers with telemetry hooks "
    "and a cell checkpoint: harness, hooks and fault queries work, the kernel idles",
    "oracle-fig1": "edge_cloud_bruteforce on the Figure-1 5-job prefix: 3840 tiny simulate() "
    "calls stress engine set-up and small-step mode, with no kernel, faults or harness",
}

# (name, unit, better, bound)
# Times are normalized seconds: net of the host-speed probes and divided
# by the host slowdown they measured (bench_speed.py).
END_TO_END = [
    ("norm_wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("norm_cpu_s", "s", "lower", 0.25),
    ("norm_op_p50_ms", "ms", "lower", 0.25),
    ("norm_op_tail_ms", "ms", "lower", 0.25),
]

_SINGLE = "norm_wall_s on ssf-edf-online and fa-faulted"

# (name, unit, better, what it should move)
PER_LAYER = [
    ("sim.self_s", "s", "lower", "norm_wall_s on oracle-fig1 most, then sweep-mtbf"),
    ("sim.init_s", "s", "lower", "norm_op_p50_ms on oracle-fig1"),
    ("sim.runs", "count", "lower", "norm_op_p50_ms on oracle-fig1 (exact count)"),
    ("sim.kernel_s", "s", "lower", "norm_wall_s on every workload"),
    ("sim.check_s", "s", "lower", "norm_wall_s on oracle-fig1"),
    ("sim.events", "count", "lower", "norm_wall_s on every workload (exact count)"),
    ("sim.decisions", "count", "lower", "norm_wall_s on every workload (exact count)"),
    ("sim.reexecutions", "count", "lower",
     "norm_wall_s on fa-faulted and sweep-mtbf (exact count)"),
    ("sched.self_s", "s", "lower", _SINGLE),
    ("sched.decide_s", "s", "lower", _SINGLE + " and their norm_op_p50_ms"),
    ("sched.decide_calls", "count", "lower", _SINGLE + " (exact count)"),
    ("sched.decide_p50_us", "us", "lower", "norm_op_p50_ms on ssf-edf-online and fa-faulted"),
    ("sched.decide_p99_us", "us", "lower", "norm_op_tail_ms on ssf-edf-online and fa-faulted"),
    ("sched.search_s", "s", "lower", _SINGLE),
    ("sched.probes", "count", "lower", _SINGLE + " (exact count)"),
    ("sched.probe_short_circuits", "count", "higher", _SINGLE + " (exact count)"),
    ("sched.probe_reuses", "count", "higher", _SINGLE + " (exact count)"),
    ("sched.pass_reuses", "count", "higher", _SINGLE + " (exact count)"),
    ("sched.rebuilds", "count", "lower", _SINGLE + " (exact count)"),
    ("sched.replays", "count", "higher", "norm_wall_s on ssf-edf-online (exact count)"),
    ("sched.replay_hit_ratio", "1", "higher",
     "norm_wall_s on ssf-edf-online; base replays+rebuilds"),
    ("sched.short_circuit_ratio", "1", "higher", _SINGLE + "; base probes"),
    ("placement.self_s", "s", "lower", _SINGLE),
    ("placement.place_s", "s", "lower", _SINGLE + "; near 0 on oracle-fig1"),
    ("placement.place_calls", "count", "lower", _SINGLE + " (exact count)"),
    ("placement.replay_build_s", "s", "lower", "norm_wall_s on ssf-edf-online; 0 on fa-faulted"),
    ("placement.replay_builds", "count", "lower", "norm_wall_s on ssf-edf-online; 0 on fa-faulted"),
    ("placement.reset_s", "s", "lower", "norm_wall_s on fa-faulted"),
    ("capacity.query_s", "s", "lower", "norm_wall_s on fa-faulted and sweep-mtbf"),
    ("capacity.query_calls", "count", "lower",
     "norm_wall_s on fa-faulted and sweep-mtbf (exact count)"),
    ("capacity.outlook_queries", "count", "lower",
     "norm_wall_s on fa-faulted and sweep-mtbf (exact count)"),
    ("capacity.delta_updates", "count", "lower", "norm_wall_s on fa-faulted (exact count)"),
    ("capacity.partial_rebuilds", "count", "lower", "norm_wall_s on fa-faulted (exact count)"),
    ("faults.down_at_s", "s", "lower", "norm_wall_s on sweep-mtbf and fa-faulted; 0 elsewhere"),
    ("faults.down_at_calls", "count", "lower",
     "norm_wall_s on sweep-mtbf and fa-faulted (exact count)"),
    ("faults.next_boundary_s", "s", "lower",
     "norm_wall_s on sweep-mtbf and fa-faulted; 0 elsewhere"),
    ("faults.boundaries", "count", "lower",
     "norm_wall_s on sweep-mtbf and fa-faulted (exact count)"),
    ("obs.hook_s", "s", "lower", "norm_wall_s and norm_op_tail_ms on sweep-mtbf; 0 elsewhere"),
    ("obs.hook_calls", "count", "lower",
     "norm_wall_s and norm_op_tail_ms on sweep-mtbf (exact count)"),
    ("harness.cell_s", "s", "lower", "norm_wall_s, norm_cpu_s and norm_op_tail_ms on sweep-mtbf"),
    ("harness.busy_ratio", "1", "higher", "norm_wall_s on sweep-mtbf; base elapsed x workers"),
    ("harness.straggler_ratio", "1", "lower",
     "norm_op_tail_ms and norm_wall_s on sweep-mtbf; base median cell"),
    ("harness.pickle_bytes", "B", "lower",
     "norm_wall_s and norm_cpu_s on sweep-mtbf (not exact: packed rows carry wall clocks)"),
    ("harness.instance_builds", "count", "lower", "norm_cpu_s on sweep-mtbf (exact count)"),
    ("harness.spec_builds", "count", "lower", "norm_cpu_s on sweep-mtbf (exact count)"),
    ("harness.pool_rebuilds", "count", "lower", "norm_wall_s on sweep-mtbf (exact count)"),
    ("harness.unpack_s", "s", "lower", "norm_wall_s and norm_cpu_s on sweep-mtbf"),
    ("harness.checkpoint_s", "s", "lower", "norm_wall_s and norm_op_tail_ms on sweep-mtbf"),
    ("offline.policies", "count", "lower", "norm_wall_s on oracle-fig1 (exact count)"),
    ("offline.self_s", "s", "lower", "norm_wall_s on oracle-fig1"),
    ("workloads.instance_s", "s", "lower", "setup_s on every workload"),
    ("workloads.faults_s", "s", "lower", "setup_s on fa-faulted and sweep-mtbf"),
    ("validation.s", "s", "lower", "run length only (untimed check pass)"),
    ("validation.errors", "count", "lower", "correct / failed on every workload"),
    ("trace.overhead_ratio", "1", "lower", "none; traced wall over untraced wall of one pass"),
]

#: Per-layer metrics that are exact counts and must repeat run to run.
EXACT_COUNTS = tuple(name for name, unit, _, _ in PER_LAYER if unit == "count")

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
