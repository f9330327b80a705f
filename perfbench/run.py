"""One benchmark for the simulator: four pinned workloads, checked results.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ssf-edf-online --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no layer
instrumentation, in normalized seconds: net of the host-speed probe and
divided by the host slowdown it measured (``bench_speed.py``);
``--trace 1`` alternates untraced passes with passes whose layer entry
points are wrapped in spans, and reports the per-layer metrics.  The
report lines come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Spans, the
host manifest and every raw sample go to ``perfbench/out/``.

The metrics and the workloads are listed in ``bench_metrics.py``.  With
``--pin`` at the default seed the run's results become the pinned
reference in ``reference.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import bench_layers
import bench_speed
from bench_manifest import finish_manifest, start_manifest
from bench_metrics import END_TO_END, EXACT_COUNTS, PER_LAYER, UNITS
from bench_speed import normalized
from bench_stats import tail
from bench_trace import Patches, SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

#: Set-ups per run; ``setup_s`` is their median plus the median import time.
SETUP_REPEATS = 3
#: Timed passes per untraced run, at least.
MIN_PASSES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ssf-edf-online", "fa-faulted", "sweep-mtbf", "oracle-fig1"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the pinned reference seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="write this run's results as the reference (default seed only)")
    return parser.parse_args(argv)


def load_reference(name: str, config: dict) -> dict | None:
    if not REFERENCE.exists():
        return None
    entry = json.loads(REFERENCE.read_text()).get(name)
    if entry is None or entry.get("config") != config:
        return None
    return entry


def pin_reference(name: str, entry: dict) -> None:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data[name] = entry
    REFERENCE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def import_seconds(normalize: bool) -> float:
    """Seconds a fresh interpreter takes to import the benchmarked code.

    Imports happen once per process, so each repeat is a new process,
    which times itself (under its own host-speed probe when ``normalize``).
    """
    paths = [str(ROOT / "src"), str(HERE)]
    code = (f"import contextlib, sys, time; sys.path[:0] = {paths!r}\n"
            "import bench_speed\n"
            f"probe = bench_speed.SpeedProbe() if {normalize} else None\n"
            "with probe or contextlib.nullcontext():\n"
            "    t0 = time.perf_counter()\n"
            "    import bench_workloads\n"
            "    t1 = time.perf_counter()\n"
            "print(bench_speed.normalized(probe, t0, t1, probe.spent if probe else 0.0))\n")
    done = subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                          capture_output=True, text=True)
    return float(done.stdout.split()[-1])


def peak_rss_mib() -> float:
    """Largest resident set of this process or any reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def end_to_end(workload, passes, setup_s, probe, report, detail) -> dict:
    """The untraced metrics: medians over the timed passes, in normalized
    seconds (net of probes, at the reference host speed)."""
    # The sweep's pooled passes carry the probes their workers took.
    logs = [p.log or probe for p in passes]
    slow = [log.slowdown(p.start, p.start + p.wall_s) for p, log in zip(passes, logs)]
    walls = [normalized(log, p.start, p.start + p.wall_s, p.probe_s)
             for p, log in zip(passes, logs)]
    cpus = [(p.cpu_s - p.probe_cpu_s) / s for p, s in zip(passes, slow)]
    ops = [[normalized(log, t0, t1, q) * 1e3 for t0, t1, q in p.op_spans]
           for p, log in zip(passes, logs)]
    if workload.ops_repeat:
        # Every pass makes the same ops in the same order: each op's
        # fastest time over the passes drops a host stall that hit one
        # pass (a stall covers dozens of short ops, enough to own the
        # tail), and the percentiles are taken over those times.
        samples = [[min(times) for times in zip(*ops)]]
        over = f"each op's fastest of {len(passes)} passes"
    else:
        # The tail is taken per pass, over a sample count that does not
        # depend on how many passes fit in the run, then its median.
        samples = ops
        over = "each pass, median over passes"
    tails = [tail(x) for x in samples]
    _, tail_pct, n_ops, rule_met = tails[0]
    counts = workload.wall_counts()
    report.append(f"passes: {len(passes)}, host walls_s: {[round(p.wall_s, 4) for p in passes]}")
    report.append(f"host slowdown per pass: {[round(s, 3) for s in slow]}")
    report.append(f"normalized walls_s: {[round(w, 4) for w in walls]}")
    report.append(f"counts beside norm_wall_s: {counts}")
    report.append(f"norm_op_tail_ms is p{tail_pct:.2f} of {n_ops} op samples, in {over}"
                  + ("" if rule_met else " (fewer than 20 samples: the maximum)"))
    detail.update(host_walls_s=[p.wall_s for p in passes], host_cpu_s=[p.cpu_s for p in passes],
                  host_op_ms=[x for p in passes for x in p.op_ms], slowdown=slow,
                  probes=sum(len(log.durations) for log in logs), walls_s=walls, cpu_s=cpus,
                  op_ms=[x for o in ops for x in o],
                  tail={"percentile": tail_pct, "samples": n_ops, "rule_met": rule_met},
                  counts=counts)
    return {
        "norm_wall_s": median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mib(),
        "norm_cpu_s": median(cpus),
        "norm_op_p50_ms": median(x for o in samples for x in o),
        "norm_op_tail_ms": median(t[0] for t in tails),
    }


def per_layer(workload, rounds, setup_rec, check, outcome, report, detail) -> dict:
    """The traced metrics: medians over rounds; exact counts must repeat."""
    untraced_walls = [r[0].wall_s for r in rounds]
    traced_walls = [r[1].wall_s for r in rounds]
    layers = [{name: r[2].get(name, 0) for name, *_ in PER_LAYER} for r in rounds]
    m, defects = bench_layers.merge_rounds(layers, EXACT_COUNTS)
    for defect in defects:
        outcome.attempted += 1
        outcome.fail(1, defect)
    total, _ = setup_rec.totals()
    setups = len(detail["setup_samples_s"])
    m["workloads.instance_s"] = total.get("workloads.instance", 0.0) / setups
    m["workloads.faults_s"] = total.get("workloads.faults", 0.0) / setups
    if workload.name == "oracle-fig1":
        # The oracle's inputs are built here, not by repro.workloads.
        m["workloads.instance_s"] = median(detail["setup_samples_s"])
    m["validation.s"] = check.validation_s
    m["validation.errors"] = check.validation_errors
    m["trace.overhead_ratio"] = median(traced_walls) / median(untraced_walls)
    self_times = bench_layers.layer_self_times(rounds[-1][3])
    report.append(f"rounds: {len(rounds)}, untraced walls_s: "
                  f"{[round(w, 4) for w in untraced_walls]}, traced walls_s: "
                  f"{[round(w, 4) for w in traced_walls]}")
    report.append(f"sched.replay_hit_ratio base: replays={m['sched.replays']} "
                  f"+ rebuilds={m['sched.rebuilds']}")
    report.append(f"sched.short_circuit_ratio base: probes={m['sched.probes']}")
    report.append(f"trace.overhead_ratio base: untraced wall {median(untraced_walls):.4f} s")
    report.append("layer self times of the last traced pass (s): "
                  + ", ".join(f"{k}={v:.4f}" for k, v in sorted(self_times.items())))
    detail.update(untraced_walls_s=untraced_walls, traced_walls_s=traced_walls,
                  layer_self_s=self_times, spans=len(rounds[-1][3]))
    return m


def measure(args, bw, workload, seed, probe):
    """Set-ups, the check phase and the timed passes (or traced rounds).

    Returns None when the first pass fails.  Set-ups are returned as
    ``(start, end, probe seconds)``; imports as seconds.
    """
    setup_rec = SpanRecorder()
    setups = []
    with Patches() as patches:
        if args.trace:
            bench_layers.install_setup_layers(patches, setup_rec)
        for _ in range(SETUP_REPEATS):
            probe0, t0 = bench_speed.spent(), time.perf_counter()
            workload.setup(seed)
            setups.append((t0, time.perf_counter(), bench_speed.spent() - probe0))
    imports = [import_seconds(normalize=probe is not None) for _ in range(SETUP_REPEATS)]

    reference = None
    if seed == bw.DEFAULT_SEED and not args.pin:
        reference = load_reference(args.workload, workload.config())
    outcome = bw.Outcome()
    if seed == bw.DEFAULT_SEED and reference is None and not args.pin:
        outcome.fail(1, "no pinned reference for this workload configuration")
        outcome.attempted += 1
    check = bw.Check(bw.Outcome())
    try:
        check = workload.check(reference)
    except Exception:  # a crashing program is a failed op, reported
        traceback.print_exc()
        check.outcome.attempted += 1
        check.outcome.fail(1, "check phase raised")
    outcome.add(check.outcome)

    passes, rounds = [], []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        try:
            if args.trace:
                rounds.append(workload.trace_round())
                outcome.add(rounds[-1][0].outcome)
                outcome.add(rounds[-1][1].outcome)
            else:
                p = workload.run_pass()
                passes.append(p)
                outcome.add(p.outcome)
        except Exception:
            traceback.print_exc()
            outcome.attempted += 1
            outcome.fail(1, "a pass raised")
            if not (passes or rounds):
                print("perfbench: the first pass failed; no result", file=sys.stderr)
                return None
            break
        now = time.perf_counter()
        done = len(rounds) if args.trace else len(passes)
        need = 1 if args.trace else MIN_PASSES
        if done >= need and now - t_start + (now - t_round) > args.seconds:
            break
    return setup_rec, setups, imports, check, outcome, passes, rounds


def main(argv=None) -> int:
    loadavg_start = os.getloadavg()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench_workloads as bw  # imports NumPy and every layer of repro

    OUT.mkdir(exist_ok=True)
    manifest = start_manifest(ROOT, loadavg_start)
    seed = bw.DEFAULT_SEED if args.seed is None else args.seed
    workload = bw.make_workload(args.workload, str(OUT))
    tag = f"{args.workload}-seed{seed}-trace{args.trace}"

    probe = None if args.trace else bench_speed.SpeedProbe()
    with probe or contextlib.nullcontext():
        measured = measure(args, bw, workload, seed, probe)
    if measured is None:
        return 1
    setup_rec, setup_spans, imports, check, outcome, passes, rounds = measured
    setups = [normalized(probe, *span) for span in setup_spans]
    setup_s = median(imports) + median(setups)

    report: list[str] = []
    detail: dict = {"setup_samples_s": setups, "import_samples_s": imports}
    if args.trace:
        metrics = per_layer(workload, rounds, setup_rec, check, outcome, report, detail)
        rounds[-1][3].write(OUT / f"spans-{tag}.jsonl.gz",
                            {"workload": args.workload, "seed": seed, "manifest": manifest})
        catalogue = PER_LAYER
    else:
        metrics = end_to_end(workload, passes, setup_s, probe, report, detail)
        catalogue = END_TO_END

    fail_ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    manifest = finish_manifest(manifest)
    report.append(f"fail_ratio = {fail_ratio:.6g} 1 ({outcome.failed} of "
                  f"{outcome.attempted} ops failed)")
    for note in outcome.notes:
        report.append(f"FAILURE: {note}")
    report.append(f"manifest: {json.dumps(manifest, sort_keys=True)}")
    for name, unit, *rest in catalogue:
        extra = f"   (moves {rest[1]})" if args.trace else ""
        report.append(f"{args.workload} {name} = {metrics[name]:.6g} {unit}{extra}")

    if args.pin and seed == bw.DEFAULT_SEED and not outcome.failed:
        pin_reference(args.workload, {"config": workload.config(), **workload.pinned()})
        report.append(f"pinned the reference for {args.workload}")

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]}
                    for name, *_ in catalogue},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "config": workload.config(), "manifest": manifest,
        "fail_ratio": fail_ratio, "notes": outcome.notes, "detail": detail, **result,
    }, indent=1, sort_keys=True))
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
