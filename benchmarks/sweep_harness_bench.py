"""Interleaved A/B benchmark of the sweep harness (BENCH_sweep_harness.json).

Not a pytest-benchmark module: this script is run once per measurement
by an external driver that alternates two checkouts of the repo (old
harness vs new) against the *same* pinned sweep, so only interleaved
pairs are compared (the host's throughput drifts tens of percent over
minutes).  It prints exactly one JSON line per invocation.

The sweep is a degradation_mtbf-style heterogeneous grid pinned here
(not taken from the library) so both checkouts build the identical
spec: 5 MTBF points x N_REPS replications, 3 schedulers per cell, with
low-MTBF cells several times costlier than high-MTBF ones.

Modes
-----
* ``serial``    — the serial reference: `run_experiment`, fingerprints.
* ``clean``     — the production pooled path: resilient sweep, 4
                  workers, full telemetry, checkpointed.
* ``pressure``  — the same sweep under deterministic *transient cell
                  failure*: one fixed digest-selected cell of
                  the heaviest point (lowest MTBF — the regime where
                  transient resource exhaustion actually bites) fails
                  its first three attempts during instance generation,
                  mimicking a cell hitting transient machine pressure;
                  run with ``on_error="retry"`` and an exponential
                  backoff.
                  This is the scenario the dispatch overhaul targets
                  twice over: cost-aware LPT dispatch starts the heavy
                  (risky) cells first, so their failures surface while
                  plenty of work remains, and the per-cell deferred
                  backoff overlaps those pauses with that work — where
                  the old harness serializes every pause behind a
                  round barrier with the pool torn down (nothing runs
                  while it sleeps).  Requires
                  SWEEP_BENCH_PRESSURE_DIR to point at a FRESH
                  directory (attempt markers accumulate there).
* ``resume``    — resume a killed ``clean`` run from its checkpoint
                  and fingerprint the completed rows.

Fingerprints hash every row field including telemetry, with only the
nondeterministic wall clocks dropped, so equal fingerprints mean
byte-identical results.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

from repro.experiments import cli
from repro.experiments.config import ExperimentSpec, SchedulerSpec, SweepPoint
from repro.experiments.parallel import run_named_experiment_resilient
from repro.experiments.runner import aggregate, run_experiment
from repro.faults.model import FaultClassParams, exponential_fault_trace, fault_horizon
from repro.obs.monitors import DEFAULT_TELEMETRY_HOOKS
from repro.workloads.random_uniform import (
    RandomInstanceConfig,
    generate_random_instance,
    paper_random_platform,
)

MTBFS = (25.0, 50.0, 100.0, 200.0, 400.0)
N_JOBS = 12
N_REPS = 9
SEED = 20210608
MTTR_FRACTION = 0.1

PRESSURE_ENV = "SWEEP_BENCH_PRESSURE_DIR"
#: A transient cell fails this many attempts before succeeding.
FAIL_ATTEMPTS = 3
#: Heavy-point cells whose digest falls in this residue class are
#: transient.  At the pinned seed this selects exactly one of the
#: heaviest point's nine replications — one that cost-aware dispatch
#: starts right at t=0, so its whole retry chain can overlap work.
FAIL_EVERY = 7


def _cell_digest(rng) -> str:
    """A deterministic id for the cell owning ``rng``.

    The cell's generator state is a pure function of (root seed, point,
    rep), so hashing it identifies the cell without the factory having
    to know its own coordinates — identically in both checkouts and
    under any execution order.
    """
    return hashlib.sha256(str(rng.bit_generator.state).encode()).hexdigest()


def _maybe_transient_failure(rng) -> None:
    pressure_dir = os.environ.get(PRESSURE_ENV)
    if not pressure_dir:
        return
    digest = _cell_digest(rng)
    if int(digest[:8], 16) % FAIL_EVERY != 0:
        return
    marker = os.path.join(pressure_dir, digest[:16])
    attempts = 0
    if os.path.exists(marker):
        with open(marker) as fh:
            attempts = len(fh.readlines())
    with open(marker, "a") as fh:
        fh.write("x\n")
    if attempts < FAIL_ATTEMPTS:
        raise RuntimeError(
            f"transient pressure (attempt {attempts + 1}/{FAIL_ATTEMPTS})"
        )


def _make_instance_factory(transient: bool):
    def make_instance(rng):
        if transient:
            _maybe_transient_failure(rng)
        return generate_random_instance(
            RandomInstanceConfig(n_jobs=N_JOBS, ccr=1.0, load=0.5),
            platform=paper_random_platform(),
            seed=rng,
        )

    return make_instance


def _make_faults(mtbf):
    def factory(instance, rng):
        params = FaultClassParams(mtbf=mtbf, mttr=MTTR_FRACTION * mtbf)
        return exponential_fault_trace(
            n_edge=instance.platform.n_edge,
            n_cloud=instance.platform.n_cloud,
            horizon=fault_horizon(instance),
            seed=rng,
            edge=params,
            cloud=params,
            link=params,
        )

    return factory


def _point(mtbf: float) -> SweepPoint:
    kwargs = {}
    # cost_hint exists only in the new checkout; the old one ignores
    # dispatch order anyway (static chunks).
    if any(f.name == "cost_hint" for f in dataclasses.fields(SweepPoint)):
        kwargs["cost_hint"] = 1.0 / mtbf
    return SweepPoint(
        x=mtbf,
        # Only the heaviest point is subject to transient pressure
        # (and only when the pressure dir is set).
        make_instance=_make_instance_factory(transient=mtbf == min(MTBFS)),
        make_faults=_make_faults(mtbf),
        **kwargs,
    )


def _bench_spec(n_reps: int = N_REPS, seed: int = SEED) -> ExperimentSpec:
    return ExperimentSpec(
        name="bench_sweep_harness",
        description="pinned heterogeneous degradation-style grid",
        x_label="MTBF",
        points=tuple(_point(m) for m in MTBFS),
        schedulers=(
            SchedulerSpec.named("fcfs"),
            SchedulerSpec.named("greedy"),
            SchedulerSpec.named("ssf-edf"),
        ),
        n_reps=n_reps,
        seed=seed,
    )


cli._BUILDERS.setdefault("bench_sweep_harness", _bench_spec)


def _fingerprint_rows(rows) -> str:
    payload = [
        {**r.as_dict(), "wall_time": None, "telemetry": r.telemetry, "trace": r.trace}
        for r in rows
    ]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _fingerprint_aggregates(rows) -> str:
    payload = [
        {**dataclasses.asdict(a), "wall_time_mean": None} for a in aggregate(rows)
    ]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("serial", "clean", "pressure", "resume"))
    parser.add_argument("--label", default="run", help="checkout label echoed back")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--reps", type=int, default=N_REPS)
    parser.add_argument("--checkpoint", default=None, help="cells JSONL path")
    parser.add_argument(
        "--backoff", type=float, default=1.25, help="retry backoff base (pressure)"
    )
    args = parser.parse_args(argv)

    stats = None
    extra = {}
    try:
        from repro.obs.harness import HarnessStats

        stats = HarnessStats()
    except ImportError:
        pass  # old checkout: no harness telemetry

    kw = dict(n_reps=args.reps, instrument=DEFAULT_TELEMETRY_HOOKS)
    if stats is not None:
        kw["stats"] = stats

    t0 = time.perf_counter()
    if args.mode == "serial":
        rows = run_experiment(_bench_spec(args.reps), instrument=DEFAULT_TELEMETRY_HOOKS)
    elif args.mode == "resume":
        outcome = run_named_experiment_resilient(
            "bench_sweep_harness",
            n_workers=args.workers,
            checkpoint_path=args.checkpoint,
            resume=True,
            **kw,
        )
        rows = outcome.rows
        extra = {
            "n_from_checkpoint": outcome.n_from_checkpoint,
            "n_executed": outcome.n_executed,
        }
    else:
        if args.mode == "pressure":
            pressure_dir = os.environ.get(PRESSURE_ENV)
            if not pressure_dir or os.listdir(pressure_dir):
                print(
                    f"pressure mode needs {PRESSURE_ENV} set to a fresh, "
                    "empty directory",
                    file=sys.stderr,
                )
                return 2
            kw.update(on_error="retry", max_retries=3, retry_backoff=args.backoff)
        outcome = run_named_experiment_resilient(
            "bench_sweep_harness",
            n_workers=args.workers,
            checkpoint_path=args.checkpoint,
            **kw,
        )
        rows = outcome.rows
        extra = {"n_executed": outcome.n_executed, "quarantined": len(outcome.quarantined)}
    wall = time.perf_counter() - t0

    result = {
        "label": args.label,
        "mode": args.mode,
        "wall_s": round(wall, 3),
        "n_rows": len(rows),
        "fingerprint": _fingerprint_rows(rows),
        "agg_fingerprint": _fingerprint_aggregates(rows),
        **extra,
    }
    if stats is not None and stats.cells:
        result["harness"] = {
            "cells": stats.cells,
            "window": stats.window,
            "pool_rebuilds": stats.pool_rebuilds,
            "spec_builds": stats.spec_builds,
            "instance_builds": stats.instance_builds,
            "pickle_bytes": stats.pickle_bytes,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
