"""The four pinned workloads: inputs from the seed, timed passes, checks.

Load model: a closed loop with one client.  The benchmark makes the next
call only after the previous one returns, from a single process; only
``sweep-mtbf`` fans out, to at most two pool workers (never more than
the CPUs this process may run on).

Each workload builds its inputs from ``--seed`` and hands the library
only the generated instances and fault traces (the sweep's spec gets the
seed as its root seed, which is how the library derives cell inputs).
Every op is checked: at the default seed against the pinned reference in
``reference.json``, at any seed against the validator, the workload's own
untimed reference pass and the invariants listed per workload.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import glob
import hashlib
import json
import multiprocessing
import os
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

import repro.experiments.parallel as parallel
import repro.experiments.runner as runner
import repro.offline.bruteforce as bruteforce
from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Platform
from repro.core.validation import validate_schedule
from repro.experiments.cli import build_spec
from repro.experiments.parallel import run_named_experiment_resilient
from repro.experiments.runner import aggregate
from repro.faults.model import FaultClassParams, exponential_fault_trace
from repro.obs.harness import HarnessStats
from repro.obs.monitors import DEFAULT_TELEMETRY_HOOKS
from repro.offline.bruteforce import edge_cloud_bruteforce
from repro.offline.list_scheduler import FixedPolicyScheduler
from repro.schedulers import PAPER_SCHEDULERS, make_scheduler
from repro.schedulers.ssf_edf import SsfEdfScheduler
from repro.sim.engine import simulate
from repro.util.float_cmp import fle
from repro.util.rng import spawn_generator
from repro.workloads.random_uniform import (
    RandomInstanceConfig,
    generate_random_instance,
    paper_random_platform,
)

import bench_layers
import bench_speed
from bench_trace import Patches, SpanRecorder

#: The seed whose results are pinned in ``reference.json``.
DEFAULT_SEED = 20210005


@dataclass
class Outcome:
    """Ops attempted and failed by one pass or check, with why."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, n: int, note: str) -> None:
        self.failed += n
        self.notes.append(note)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes)


@dataclass
class Pass:
    """One timed pass: host seconds, CPU seconds, per-op latencies.

    Times are as the clock read them, host-speed probes included.  To
    normalize them the pass keeps its ``start``, the probe seconds that
    lengthened its wall (``probe_s``) and that its CPU time includes
    (``probe_cpu_s``), ``(start, end, probe_s)`` per op, and the probes
    taken in other processes (``log``; None: this process's probe).
    """

    wall_s: float
    cpu_s: float
    op_ms: list[float]
    outcome: Outcome
    start: float = 0.0
    probe_s: float = 0.0
    probe_cpu_s: float = 0.0
    op_spans: list | None = None
    log: bench_speed.ProbeLog | None = None


@dataclass
class Check:
    """The untimed check phase: validator time and error count."""

    outcome: Outcome
    validation_s: float = 0.0
    validation_errors: int = 0


def cpu_seconds() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait until every child process (pool workers) has ended."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers did not exit")
        time.sleep(0.005)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class Validator:
    """Runs ``validate_schedule`` and keeps its time and error count."""

    def __init__(self):
        self.seconds = 0.0
        self.errors = 0

    def __call__(self, schedule, **kwargs) -> list[str]:
        t0 = time.perf_counter()
        errors = validate_schedule(schedule, **kwargs)
        self.seconds += time.perf_counter() - t0
        self.errors += len(errors)
        return errors


class Workload:
    """Base: ``setup`` may run several times; ``check`` before the passes."""

    name = ""
    #: The span that starts one op in a traced pass.
    op_span = "sim.simulate"
    #: Every pass makes the same ops in the same order.
    ops_repeat = True

    def config(self) -> dict:
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def check(self, reference: dict | None) -> Check:
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def wall_counts(self) -> dict:
        """Exact counts of the work one pass does, printed beside wall_s."""
        raise NotImplementedError

    def trace_round(self):
        """One untraced and one traced pass.

        Returns ``(untraced, traced, per-layer metrics, recorder)``; the
        traced pass is checked like any other.
        """
        untraced = self.run_pass()
        rec, sink = SpanRecorder(self.op_span), bench_layers.ResultSink()
        with Patches() as patches:
            bench_layers.install_program_layers(patches, rec, sink)
            traced = self.run_pass()
        return untraced, traced, bench_layers.program_metrics(rec, sink), rec


def _timed_pass(fn, outcome: Outcome, op_spans: list) -> tuple:
    """Run ``fn`` as one pass; returns its value and the ``Pass``."""
    cpu0, probe0, t0 = cpu_seconds(), bench_speed.spent(), time.perf_counter()
    value = fn()
    t1 = time.perf_counter()
    probe_s = bench_speed.spent() - probe0
    p = Pass(t1 - t0, cpu_seconds() - cpu0, [(e - s) * 1e3 for s, e, _ in op_spans],
             outcome, start=t0, probe_s=probe_s, probe_cpu_s=probe_s, op_spans=op_spans)
    return value, p


def _timed_calls(fn, spans: list):
    """``fn``, recording ``(start, end, probe_s)`` per call in ``spans``."""
    clock, spent = time.perf_counter, bench_speed.spent

    def timed(*args, **kwargs):
        probe0, t0 = spent(), clock()
        result = fn(*args, **kwargs)
        spans.append((t0, clock(), spent() - probe0))
        return result

    return timed


# -- single simulate() runs ----------------------------------------------------


def _result_digest(result) -> dict:
    return {
        "max_stretch": float(result.max_stretch).hex(),
        "n_events": int(result.n_events),
        "n_decisions": int(result.n_decisions),
        "n_reexecutions": int(result.n_reexecutions),
    }


class SingleRun(Workload):
    """``simulate()`` on several load-1.0 random instances per pass; an op
    is one scheduling decision (a ``decide()`` call), the latency an
    online scheduler adds at each event.  Every ``simulate()`` result is
    checked.

    How congested one random instance gets at load 1.0 (and under faults,
    how hard they hit it) varies from seed to seed; several instances per
    pass average that out, so runs on different seeds stay comparable.
    Thousands of decisions per pass keep the latency percentiles steady
    too, where the times of a dozen different instances would not be.
    """

    N_INSTANCES = 8
    N_JOBS = 250
    MTBF = 100.0
    MTTR = 10.0

    def __init__(self, name: str, failure_aware: bool):
        self.name = name
        self.failure_aware = failure_aware
        self.expected: list | None = None

    def config(self) -> dict:
        cfg = {"instances": self.N_INSTANCES, "n_jobs": self.N_JOBS, "ccr": 1.0, "load": 1.0,
               "scheduler": "ssf-edf-fa" if self.failure_aware else "ssf-edf"}
        if self.failure_aware:
            cfg.update(mtbf=self.MTBF, mttr=self.MTTR)
        return cfg

    def setup(self, seed: int) -> None:
        self.inputs = []
        for index in range(self.N_INSTANCES):
            rng = spawn_generator(seed, index)
            instance = generate_random_instance(
                RandomInstanceConfig(n_jobs=self.N_JOBS, ccr=1.0, load=1.0),
                platform=paper_random_platform(),
                seed=rng,
            )
            faults = None
            if self.failure_aware:
                params = FaultClassParams(mtbf=self.MTBF, mttr=self.MTTR)
                faults = exponential_fault_trace(
                    n_edge=instance.platform.n_edge,
                    n_cloud=instance.platform.n_cloud,
                    horizon=float(instance.release.max() + instance.min_time.sum()),
                    seed=rng,
                    edge=params,
                    cloud=params,
                    link=params,
                )
            self.inputs.append((instance, faults))

    def _simulate(self, instance, faults, record_trace: bool, decisions: list | None = None):
        scheduler = SsfEdfScheduler(failure_aware=self.failure_aware)
        if decisions is not None:
            scheduler.decide = _timed_calls(scheduler.decide, decisions)
        return simulate(instance, scheduler, faults=faults, record_trace=record_trace)

    def check(self, reference: dict | None) -> Check:
        out = Outcome(attempted=self.N_INSTANCES)
        validator = Validator()
        digests = []
        for index, (instance, faults) in enumerate(self.inputs):
            result = self._simulate(instance, faults, record_trace=True)
            errors = validator(result.schedule)
            if errors:
                out.fail(1, f"validator on instance {index}: {len(errors)} errors, "
                         f"first: {errors[0]}")
            digests.append(_result_digest(result))
        if reference is not None:
            for index, (got, pinned) in enumerate(zip(digests, reference["results"])):
                if got != pinned:
                    out.fail(1, f"instance {index}: reference mismatch: {got} != {pinned}")
        self.expected = reference["results"] if reference is not None else digests
        return Check(out, validator.seconds, validator.errors)

    def run_pass(self) -> Pass:
        decisions: list = []
        out = Outcome(attempted=self.N_INSTANCES)

        def simulate_all():
            return [self._simulate(instance, faults, record_trace=False, decisions=decisions)
                    for instance, faults in self.inputs]

        results, p = _timed_pass(simulate_all, out, decisions)
        for index, (result, expected) in enumerate(zip(results, self.expected)):
            digest = _result_digest(result)
            if digest != expected:
                out.fail(1, f"instance {index}: result mismatch: {digest} != {expected}")
        return p

    def wall_counts(self) -> dict:
        return {key: sum(d[key] for d in self.expected)
                for key in ("n_events", "n_decisions", "n_reexecutions")}

    def pinned(self) -> dict:
        return {"results": self.expected}


# -- the offline oracle ----------------------------------------------------------


def figure1_prefix() -> Instance:
    """The first five jobs of the Section III-C worked example."""
    platform = Platform.create(edge_speeds=[1 / 3], n_cloud=1)
    jobs = [
        Job(origin=0, work=1, release=0, up=5, dn=5),
        Job(origin=0, work=4, release=0, up=2, dn=2),
        Job(origin=0, work=2, release=3, up=2, dn=1),
        Job(origin=0, work=4 / 3, release=5, up=5, dn=5),
        Job(origin=0, work=2, release=5, up=2, dn=1),
    ]
    return Instance.create(platform, jobs)


def figure1_like(seed: int) -> Instance:
    """Five random jobs on the Figure-1 platform, amounts in its ranges."""
    rng = np.random.default_rng(seed)
    platform = Platform.create(edge_speeds=[1 / 3], n_cloud=1)
    jobs = [
        Job(
            origin=0,
            work=float(rng.uniform(1 / 3, 4)),
            release=float(rng.uniform(0, 6)),
            up=float(rng.uniform(1, 5)),
            dn=float(rng.uniform(1, 5)),
        )
        for _ in range(5)
    ]
    return Instance.create(platform, jobs)


class Oracle(Workload):
    """``edge_cloud_bruteforce`` per pass; an op is one ``simulate()``."""

    name = "oracle-fig1"

    def __init__(self):
        self.expected: str | None = None
        self.best_heuristic = float("inf")

    def config(self) -> dict:
        return {"instance": "Figure-1 5-job prefix", "policies": 3840}

    def setup(self, seed: int) -> None:
        self.instance = figure1_prefix() if seed == DEFAULT_SEED else figure1_like(seed)

    def check(self, reference: dict | None) -> Check:
        validator = Validator()
        out = Outcome()
        for name in PAPER_SCHEDULERS:
            result = simulate(self.instance, make_scheduler(name), record_trace=True)
            out.attempted += 1
            errors = validator(result.schedule)
            if errors:
                out.fail(1, f"validator on {name}: {errors[0]}")
            self.best_heuristic = min(self.best_heuristic, result.max_stretch)
        solution = edge_cloud_bruteforce(self.instance)
        best = simulate(
            self.instance,
            FixedPolicyScheduler(solution.allocation, solution.priority),
            record_trace=True,
        )
        out.attempted += 1
        errors = validator(best.schedule)
        if errors:
            out.fail(1, f"validator on the optimal policy: {errors[0]}")
        if best.max_stretch != solution.max_stretch:
            out.fail(1, f"optimal policy replays to {best.max_stretch}, not {solution.max_stretch}")
        optimum = float(solution.max_stretch).hex()
        if reference is not None and optimum != reference["optimum"]:
            out.fail(1, f"optimum {optimum} != pinned {reference['optimum']}")
        self.expected = reference["optimum"] if reference is not None else optimum
        return Check(out, validator.seconds, validator.errors)

    def run_pass(self) -> Pass:
        op_spans: list = []
        inner = bruteforce.simulate
        out = Outcome()
        bruteforce.simulate = _timed_calls(inner, op_spans)
        try:
            solution, p = _timed_pass(lambda: edge_cloud_bruteforce(self.instance), out,
                                      op_spans)
        finally:
            bruteforce.simulate = inner
        self.policies = out.attempted = len(op_spans)
        optimum = float(solution.max_stretch).hex()
        if optimum != self.expected:
            out.fail(len(op_spans), f"optimum {optimum} != expected {self.expected}")
        # A heuristic that reaches the optimal schedule may round differently.
        elif not fle(solution.max_stretch, self.best_heuristic):
            out.fail(len(op_spans), f"optimum {solution.max_stretch} above a heuristic's "
                     f"{self.best_heuristic}")
        return p

    def wall_counts(self) -> dict:
        return {"policies": self.policies}

    def pinned(self) -> dict:
        return {"optimum": self.expected}


# -- the MTBF sweep ---------------------------------------------------------------


def _canonical(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _row_payload(row) -> dict:
    # The fingerprint definition of benchmarks/sweep_harness_bench.py:
    # every row field including telemetry and trace, wall clock nulled.
    return {**row.as_dict(), "wall_time": None, "telemetry": row.telemetry, "trace": row.trace}


def fingerprint_rows(rows) -> str:
    return _canonical([_row_payload(r) for r in rows])


def fingerprint_aggregates(rows) -> str:
    return _canonical(
        [{**dataclasses.asdict(a), "wall_time_mean": None} for a in aggregate(rows)]
    )


def cell_digests(rows) -> dict:
    cells: dict = {}
    for row in rows:
        cells.setdefault((row.x, row.rep), []).append(_row_payload(row))
    return {key: _canonical(payload) for key, payload in cells.items()}


def probed_cells(inner, prefix: str):
    """``inner`` (the pool's cell entry point) run under a host-speed probe
    in forked pool workers.

    Each worker appends to ``<prefix>-<pid>.txt`` one ``cell start end
    probe_s`` line per cell and one ``stamp duration`` line per probe.
    ``functools.wraps`` keeps the qualified name, so the pool pickles the
    wrapper by reference and a forked worker finds it in its module copy.
    """
    parent = os.getpid()

    @functools.wraps(inner)
    def run(args):
        if os.getpid() == parent:
            return inner(args)
        bench_speed.ACTIVE = None  # the parent's, copied by fork without its timer
        with bench_speed.SpeedProbe() as probe:
            spent0, t0 = probe.spent, time.perf_counter()
            payload = inner(args)
            t1, spent1 = time.perf_counter(), probe.spent
        lines = [f"cell {t0!r} {t1!r} {spent1 - spent0!r}\n"]
        lines += [f"{t!r} {d!r}\n" for t, d in zip(probe.stamps, probe.durations)]
        with open(f"{prefix}-{os.getpid()}.txt", "a") as fh:
            fh.writelines(lines)
        return payload

    return run


def read_probe_logs(prefix: str):
    """Read and remove the logs of ``probed_cells``.

    Returns the workers' probes as one ``ProbeLog``, the cells as
    ``(start, end, probe_s)`` and the workers' total probe seconds.
    """
    samples, cells = [], []
    for name in glob.glob(f"{glob.escape(prefix)}-*.txt"):
        with open(name) as fh:
            for line in fh:
                fields = line.split()
                if fields[0] == "cell":
                    cells.append(tuple(float(x) for x in fields[1:]))
                else:
                    samples.append((float(fields[0]), float(fields[1])))
        os.remove(name)
    samples.sort()
    log = bench_speed.ProbeLog([t for t, _ in samples], [d for _, d in samples])
    return log, cells, sum(d for _, d in samples)


class Sweep(Workload):
    """``degradation_mtbf`` through the resilient pooled harness."""

    name = "sweep-mtbf"
    op_span = "harness.cell"
    ops_repeat = False  # cells finish in any order
    EXPERIMENT = "degradation_mtbf"
    N_JOBS = 8
    #: Cell costs differ a lot from seed to seed; 80 cells (16 reps of 5
    #: MTBF points) keep their median and tail steadier than 60 did.
    N_REPS = 16

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.workers = min(2, usable_cpus())
        self.expected_cells: dict | None = None
        self.reference: dict | None = None
        self.last_stats: HarnessStats | None = None

    def config(self) -> dict:
        return {"experiment": self.EXPERIMENT, "n_jobs": self.N_JOBS, "n_reps": self.N_REPS,
                "hooks": list(DEFAULT_TELEMETRY_HOOKS)}

    def _kwargs(self) -> dict:
        return dict(n_reps=self.N_REPS, n_jobs=self.N_JOBS, seed=self.seed,
                    instrument=DEFAULT_TELEMETRY_HOOKS, on_error="skip")

    def setup(self, seed: int) -> None:
        self.seed = seed
        spec = build_spec(self.EXPERIMENT, n_reps=self.N_REPS, n_jobs=self.N_JOBS, seed=seed)
        self.n_cells = len(spec.points) * spec.n_reps
        for index in range(self.n_cells):
            point = spec.points[index // spec.n_reps]
            rng = spawn_generator(spec.seed, index)
            point.make_faults(point.make_instance(rng), rng)
        # Pool start-up, with the executor type and size the harness uses.
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            list(pool.map(abs, range(self.workers)))
        reap_children()

    def check(self, reference: dict | None) -> Check:
        """A serial pass that records and validates every schedule."""
        validator = Validator()
        bad_cells: set = set()
        current: list = [None]
        run_cell, sim = parallel.run_cell, runner.simulate

        def tracked_cell(spec, point_index, rep, **kwargs):
            current[0] = (float(spec.points[point_index].x), rep)
            return run_cell(spec, point_index, rep, **kwargs)

        def validated_simulate(instance, scheduler, **kwargs):
            kwargs["record_trace"] = True
            result = sim(instance, scheduler, **kwargs)
            checkpointing = kwargs.get("checkpoint") is not None
            if validator(result.schedule, checkpointing=checkpointing):
                bad_cells.add(current[0])
            return result

        with Patches() as patches:
            patches.set(parallel, "run_cell", tracked_cell)
            patches.set(runner, "simulate", validated_simulate)
            outcome = run_named_experiment_resilient(self.EXPERIMENT, n_workers=1, **self._kwargs())
        out = Outcome(attempted=self.n_cells)
        if bad_cells:
            out.fail(len(bad_cells), f"validator errors in cells {sorted(bad_cells)}")
        if outcome.quarantined:
            out.fail(len(outcome.quarantined), f"quarantined: {outcome.quarantined}")
        self.expected_cells = cell_digests(outcome.rows)
        self.reference = reference
        fingerprints = {"rows": fingerprint_rows(outcome.rows),
                        "aggregates": fingerprint_aggregates(outcome.rows)}
        if reference is not None and fingerprints != reference["fingerprints"]:
            out.fail(self.n_cells, f"serial fingerprints {fingerprints} != pinned")
        self.serial_fingerprints = fingerprints
        return Check(out, validator.seconds, validator.errors)

    def _compare(self, rows, quarantined, out: Outcome) -> None:
        if quarantined:
            out.fail(len(quarantined), f"quarantined: {quarantined}")
        got = cell_digests(rows)
        wrong = [k for k, v in self.expected_cells.items() if k in got and got[k] != v]
        if wrong:
            out.fail(len(wrong), f"cells differ from the serial pass: {sorted(wrong)}")
        if self.reference is not None and not out.failed:
            fingerprints = {"rows": fingerprint_rows(rows),
                            "aggregates": fingerprint_aggregates(rows)}
            if fingerprints != self.reference["fingerprints"]:
                out.fail(out.attempted, "pooled fingerprints differ from the pinned ones")

    def run_pass(self, workers: int | None = None) -> Pass:
        workers = self.workers if workers is None else workers
        path = os.path.join(self.out_dir, f"cells-{os.getpid()}.jsonl")
        if os.path.exists(path):
            os.remove(path)
        probe = bench_speed.ACTIVE
        probes = os.path.join(self.out_dir, f"probes-{os.getpid()}")
        stats = HarnessStats()
        with contextlib.ExitStack() as stack:
            if probe is not None and workers > 1:
                # The workers probe their own cores; this process waits.
                stack.enter_context(probe.paused())
                patches = stack.enter_context(Patches())
                patches.set(parallel, "_run_cell_payload",
                            probed_cells(parallel._run_cell_payload, probes))
            cpu0, probe0, t0 = cpu_seconds(), bench_speed.spent(), time.perf_counter()
            outcome = run_named_experiment_resilient(
                self.EXPERIMENT, n_workers=workers, checkpoint_path=path, stats=stats,
                **self._kwargs(),
            )
            wall = time.perf_counter() - t0
            probe_s = bench_speed.spent() - probe0
            reap_children()
            cpu = cpu_seconds() - cpu0
        os.remove(path)
        out = Outcome(attempted=self.n_cells)
        self._compare(outcome.rows, outcome.quarantined, out)
        self.last_stats = stats
        p = Pass(wall, cpu, [w * 1e3 for w in stats.cell_walls], out,
                 start=t0, probe_s=probe_s, probe_cpu_s=probe_s)
        if probe is not None and workers > 1:
            p.log, p.op_spans, worker_probe_s = read_probe_logs(probes)
            p.probe_s, p.probe_cpu_s = worker_probe_s / workers, worker_probe_s
        return p

    def trace_round(self):
        """Worker-side layers from an in-process serial pass; harness
        metrics from a pooled pass's ``HarnessStats`` and parent spans."""
        untraced = self.run_pass(workers=1)
        rec, sink = SpanRecorder(self.op_span), bench_layers.ResultSink()
        with Patches() as patches:
            bench_layers.install_program_layers(patches, rec, sink)
            patches.wrap_function(rec, runner, "run_cell", "harness.cell")
            traced = self.run_pass(workers=1)
        metrics = bench_layers.program_metrics(rec, sink)
        harness_rec = SpanRecorder()
        with Patches() as patches:
            bench_layers.install_harness_layers(patches, harness_rec)
            pooled = self.run_pass()
        metrics.update(bench_layers.harness_metrics(self.last_stats, harness_rec))
        traced.outcome.add(pooled.outcome)
        return untraced, traced, metrics, rec

    def wall_counts(self) -> dict:
        return {"cells": self.n_cells, "workers": self.workers}

    def pinned(self) -> dict:
        return {"fingerprints": self.serial_fingerprints}


def make_workload(name: str, out_dir: str) -> Workload:
    if name == "ssf-edf-online":
        return SingleRun(name, failure_aware=False)
    if name == "fa-faulted":
        return SingleRun(name, failure_aware=True)
    if name == "sweep-mtbf":
        return Sweep(out_dir)
    if name == "oracle-fig1":
        return Oracle()
    raise KeyError(name)
