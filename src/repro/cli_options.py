"""The fault, checkpoint and telemetry flags both CLIs share.

``repro-simulate`` and ``repro-experiments`` take the same fault-model,
checkpoint-policy and instrumentation options; they are defined, typed
and cross-checked here once.  Each CLI applies them its own way (one
generated fault trace vs a sweep's ``degradation_mtbf`` roster), so the
help text says what a flag means, and each CLI rejects a flag it cannot
honour.
"""

from __future__ import annotations

import argparse


def interval_arg(text: str):
    """``--checkpoint-interval`` value: work units, or ``auto`` (Young/Daly)."""
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of work units or 'auto', got {text!r}"
        ) from None


def add_run_options(parser: argparse.ArgumentParser) -> None:
    """Add the shared fault, checkpoint and telemetry flags to ``parser``."""
    parser.add_argument(
        "--fault-correlation",
        type=int,
        default=1,
        metavar="G",
        help="correlated-failure group size: consecutive resources in "
        "groups of G share their fault windows (default 1 = independent; "
        "mutually exclusive with --fault-groups)",
    )
    parser.add_argument(
        "--fault-groups",
        type=str,
        default=None,
        metavar="SPEC",
        help="topology-driven correlated fault groups, e.g. "
        "'edge:0-4;link:0-4;cloud:0,1' — each listed group shares one "
        "failure renewal sequence; memberships may overlap",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=interval_arg,
        default=None,
        metavar="WORK|auto",
        help="checkpoint/restart: commit compute progress every WORK work "
        "units, so an aborted attempt resumes from the last commit; 'auto' "
        "derives the Young/Daly interval sqrt(2*MTBF*cost) from the fault "
        "rates (needs a positive --checkpoint-cost)",
    )
    parser.add_argument(
        "--checkpoint-cost",
        type=float,
        default=0.0,
        metavar="WORK",
        help="extra work burned per checkpoint commit (with "
        "--checkpoint-interval; default 0)",
    )
    parser.add_argument(
        "--retry-budget",
        type=int,
        default=None,
        metavar="K",
        help="graceful degradation: abandon a job after K fault-aborted "
        "attempts instead of retrying forever",
    )
    parser.add_argument(
        "--instrument",
        action="append",
        default=None,
        metavar="HOOK",
        help="attach a registered engine hook to every run (repeatable); "
        "telemetry monitors: util, queue, jobstats, reexec, faults, scheduler",
    )
    parser.add_argument(
        "--telemetry-out",
        type=str,
        default=None,
        metavar="PATH",
        help="write the telemetry as JSONL (instruments with the default "
        "telemetry hooks when no --instrument is given; summarize with "
        "`python -m repro.obs.report PATH`)",
    )


def check_run_options(
    parser: argparse.ArgumentParser, args: argparse.Namespace, *, trace: bool
) -> tuple[str, ...] | None:
    """Reject conflicting shared flags; return the hook names to attach.

    ``--telemetry-out`` without ``--instrument`` attaches the default
    telemetry hooks, and ``trace`` (the CLI was asked for a trace) adds
    ``tracing``.  None means no hook at all.
    """
    if args.fault_groups is not None and args.fault_correlation != 1:
        parser.error("--fault-groups and --fault-correlation are mutually exclusive")
    if args.checkpoint_cost != 0.0 and args.checkpoint_interval is None:
        parser.error("--checkpoint-cost requires --checkpoint-interval")
    instrument = tuple(args.instrument) if args.instrument else None
    if args.telemetry_out and instrument is None:
        from repro.obs.monitors import DEFAULT_TELEMETRY_HOOKS

        instrument = DEFAULT_TELEMETRY_HOOKS
    if trace and (instrument is None or "tracing" not in instrument):
        instrument = (instrument or ()) + ("tracing",)
    return instrument
