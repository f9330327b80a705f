"""Where each layer is entered, and the per-layer metrics computed from it.

Layers take their names from the modules of ``repro``.  Every span is
recorded around a public entry point of the layer (see
:class:`bench_trace.Patches`); counts the program already reports
(``SimulationResult`` fields, ``scheduler_stats``, ``HarnessStats``) are
summed alongside.
"""

from __future__ import annotations

import inspect
from statistics import median

from bench_stats import percentile
from bench_trace import Patches, SpanRecorder

#: ``SimulationResult.scheduler_stats`` key -> per-layer count name.
SCHEDULER_COUNTS = {
    "scheduler.probes": "sched.probes",
    "scheduler.probe_short_circuits": "sched.probe_short_circuits",
    "scheduler.probe_reuses": "sched.probe_reuses",
    "scheduler.pass_reuses": "sched.pass_reuses",
    "scheduler.rebuilds": "sched.rebuilds",
    "scheduler.replays": "sched.replays",
    "scheduler.outlook_queries": "capacity.outlook_queries",
    "scheduler.outlook_delta_updates": "capacity.delta_updates",
    "scheduler.partial_rebuilds": "capacity.partial_rebuilds",
}

class ResultSink:
    """Sums the counts of every ``SimulationResult`` seen by a span."""

    def __init__(self):
        self.events = 0
        self.decisions = 0
        self.reexecutions = 0
        self.stats: dict[str, float] = {}

    def add(self, result) -> None:
        self.events += result.n_events
        self.decisions += result.n_decisions
        self.reexecutions += result.n_reexecutions
        for key, value in (result.scheduler_stats or {}).items():
            self.stats[key] = self.stats.get(key, 0) + value


def _own_functions(cls, public_only: bool = False, prefix: str = ""):
    for attr, value in list(cls.__dict__.items()):
        if not inspect.isfunction(value) or not attr.startswith(prefix):
            continue
        if public_only and attr.startswith("_"):
            continue
        yield attr


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install_setup_layers(patches: Patches, rec: SpanRecorder) -> None:
    """Input generation (``repro.workloads``, ``repro.faults.model``)."""
    import repro.faults.model as fault_model
    import repro.workloads.random_uniform as random_uniform

    patches.wrap_function(rec, random_uniform, "generate_random_instance", "workloads.instance")
    patches.wrap_function(rec, fault_model, "exponential_fault_trace", "workloads.faults")


def install_program_layers(patches: Patches, rec: SpanRecorder, sink: ResultSink) -> None:
    """Every layer a ``simulate()`` call runs through, plus the oracle."""
    import repro.capacity.outlook as outlook
    import repro.faults.trace as fault_trace
    import repro.obs.monitors as monitors
    import repro.offline.bruteforce as bruteforce
    import repro.offline.list_scheduler  # noqa: F401  (registers FixedPolicyScheduler)
    import repro.schedulers  # noqa: F401  (loads every scheduler class)
    import repro.schedulers.placement as placement
    import repro.sim.decision as decision
    import repro.sim.engine as engine
    import repro.sim.kernel as kernel
    import repro.util.search as search
    from repro.schedulers.base import BaseScheduler
    from repro.sim.hooks import EngineHooks

    install_setup_layers(patches, rec)
    # sim
    patches.wrap_function(rec, engine, "simulate", "sim.simulate", on_result=sink.add)
    patches.wrap_method(rec, engine.Engine, "__init__", "sim.init")
    for attr in ("request_kinds", "time_to_completion", "advance"):
        patches.wrap_method(rec, kernel.ActivityKernel, attr, "sim.kernel")
    patches.wrap_method(rec, decision.Decision, "check_well_formed", "sim.check")
    # sched
    for cls in _subclasses(BaseScheduler):
        if "decide" in cls.__dict__:
            patches.wrap_method(rec, cls, "decide", "sched.decide")
    patches.wrap_function(rec, search, "binary_search_min", "sched.search")
    # placement
    patches.wrap_method(rec, placement.EdfPlacementKernel, "place", "placement.place")
    patches.wrap_method(rec, placement.EdfPlacementKernel, "reset", "placement.reset")
    patches.wrap_method(rec, placement.ReplayCache, "__init__", "placement.replay_build")
    # capacity
    for attr in _own_functions(outlook.CapacityOutlook, public_only=True):
        patches.wrap_method(rec, outlook.CapacityOutlook, attr, "capacity.query")
    # faults
    patches.wrap_method(rec, fault_trace.FaultTrace, "down_at", "faults.down_at")
    patches.wrap_method(rec, fault_trace.FaultTrace, "next_boundary", "faults.next_boundary")
    patches.wrap_method(rec, fault_trace.FaultTrace, "transitions_at", "faults.boundary")
    # obs: the telemetry monitors (the engine's own event counter is sim)
    for cls in _subclasses(EngineHooks):
        if cls.__module__ == monitors.__name__:
            for attr in _own_functions(cls, prefix="on_"):
                patches.wrap_method(rec, cls, attr, "obs.hook")
    # offline
    patches.wrap_function(rec, bruteforce, "edge_cloud_bruteforce", "offline.bruteforce")


def install_harness_layers(patches: Patches, rec: SpanRecorder) -> None:
    """Parent-side harness work of a pooled sweep."""
    import repro.experiments.checkpoint as checkpoint
    import repro.experiments.wire as wire

    patches.wrap_function(rec, wire, "unpack_rows", "harness.unpack")
    patches.wrap_method(rec, checkpoint.CheckpointStore, "append", "harness.checkpoint")
    patches.wrap_method(rec, checkpoint.CheckpointStore, "commit", "harness.checkpoint")


def program_metrics(rec: SpanRecorder, sink: ResultSink) -> dict[str, float]:
    """Per-layer metrics of one traced pass through the program layers."""
    own = rec.self_times()
    total, calls = rec.totals()
    stats = sink.stats

    def t(name):
        return total.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    decide_us = [d * 1e6 for d in rec.durations("sched.decide")]
    m: dict[str, float] = {
        "sim.self_s": own.get("sim.simulate", 0.0) + own.get("sim.init", 0.0),
        "sim.init_s": t("sim.init"),
        "sim.runs": c("sim.simulate"),
        "sim.kernel_s": t("sim.kernel"),
        "sim.check_s": t("sim.check"),
        "sim.events": sink.events,
        "sim.decisions": sink.decisions,
        "sim.reexecutions": sink.reexecutions,
        "sched.self_s": own.get("sched.decide", 0.0) + own.get("sched.search", 0.0),
        "sched.decide_s": t("sched.decide"),
        "sched.decide_calls": c("sched.decide"),
        "sched.decide_p50_us": percentile(decide_us, 50) if decide_us else 0.0,
        "sched.decide_p99_us": percentile(decide_us, 99) if decide_us else 0.0,
        "sched.search_s": t("sched.search"),
        "placement.self_s": sum(
            own.get(n, 0.0)
            for n in ("placement.place", "placement.reset", "placement.replay_build")
        ),
        "placement.place_s": t("placement.place"),
        "placement.place_calls": c("placement.place"),
        "placement.replay_build_s": t("placement.replay_build"),
        "placement.replay_builds": c("placement.replay_build"),
        "placement.reset_s": t("placement.reset"),
        "capacity.query_s": t("capacity.query"),
        "capacity.query_calls": c("capacity.query"),
        "faults.down_at_s": t("faults.down_at"),
        "faults.down_at_calls": c("faults.down_at"),
        "faults.next_boundary_s": t("faults.next_boundary"),
        "faults.boundaries": c("faults.boundary"),
        "obs.hook_s": t("obs.hook"),
        "obs.hook_calls": c("obs.hook"),
        "offline.policies": _children_of(rec, "offline.bruteforce", "sim.simulate"),
        "offline.self_s": own.get("offline.bruteforce", 0.0),
    }
    for key, name in SCHEDULER_COUNTS.items():
        m[name] = int(stats.get(key, 0))
    replays, rebuilds = m["sched.replays"], m["sched.rebuilds"]
    m["sched.replay_hit_ratio"] = replays / (replays + rebuilds) if replays + rebuilds else 0.0
    probes = m["sched.probes"]
    m["sched.short_circuit_ratio"] = m["sched.probe_short_circuits"] / probes if probes else 0.0
    return m


def merge_rounds(rounds: list[dict], exact: tuple) -> tuple[dict, list[str]]:
    """Combine the per-layer metrics of several traced passes.

    Times are reported as their median.  An exact count must read the
    same in every pass: a difference is a determinism defect, listed in
    the second return value and never averaged away.
    """
    merged: dict = {}
    defects: list[str] = []
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        if name in exact:
            if len(set(values)) > 1:
                defects.append(f"determinism defect: {name} read {values}")
            merged[name] = values[0]
        else:
            merged[name] = median(values)
    return merged, defects


def _children_of(rec: SpanRecorder, parent_name: str, child_name: str) -> int:
    names = rec.names
    if parent_name not in names or child_name not in names:
        return 0
    pid, cid = names.index(parent_name), names.index(child_name)
    return sum(
        1 for i, n in enumerate(rec.name) if n == cid and rec.parent[i] >= 0
        and rec.name[rec.parent[i]] == pid
    )


def layer_self_times(rec: SpanRecorder) -> dict[str, float]:
    """Self time summed per layer: the span-name prefix is the layer."""
    out: dict[str, float] = {}
    for name, value in rec.self_times().items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + value
    return out


def harness_metrics(stats, rec: SpanRecorder) -> dict[str, float]:
    """``HarnessStats`` of a pooled sweep plus parent-side span totals."""
    total, _ = rec.totals()
    cell_s = sum(stats.cell_walls)
    busy = cell_s / (stats.elapsed_s * stats.n_workers) if stats.elapsed_s > 0 else 0.0
    return {
        "harness.cell_s": cell_s,
        "harness.busy_ratio": busy,
        "harness.straggler_ratio": stats.straggler_ratio() or 0.0,
        "harness.pickle_bytes": stats.pickle_bytes,
        "harness.instance_builds": stats.instance_builds,
        "harness.spec_builds": stats.spec_builds,
        "harness.pool_rebuilds": stats.pool_rebuilds,
        "harness.unpack_s": total.get("harness.unpack", 0.0),
        "harness.checkpoint_s": total.get("harness.checkpoint", 0.0),
    }
