"""The flags both CLIs share, and the conflicts each CLI rejects."""

import pytest

from repro import simulate_cli
from repro.experiments import cli as experiments_cli

_GEN = ["--generate", "random", "--n-jobs", "4"]


@pytest.mark.parametrize(
    "main, argv, message",
    [
        pytest.param(
            simulate_cli.main,
            _GEN + ["--fault-mtbf", "40", "--fault-groups", "edge:0", "--fault-correlation", "2"],
            "--fault-groups and --fault-correlation are mutually exclusive",
            id="simulate-groups-vs-correlation",
        ),
        pytest.param(
            experiments_cli.main,
            ["degradation_mtbf", "--fault-groups", "edge:0", "--fault-correlation", "2"],
            "--fault-groups and --fault-correlation are mutually exclusive",
            id="experiments-groups-vs-correlation",
        ),
        pytest.param(
            simulate_cli.main,
            _GEN + ["--checkpoint-cost", "0.5"],
            "--checkpoint-cost requires --checkpoint-interval",
            id="simulate-cost-without-interval",
        ),
        pytest.param(
            experiments_cli.main,
            ["degradation_mtbf", "--checkpoint-cost", "0.5"],
            "--checkpoint-cost requires --checkpoint-interval",
            id="experiments-cost-without-interval",
        ),
        pytest.param(
            simulate_cli.main,
            _GEN + ["--checkpoint-interval", "auto", "--checkpoint-cost", "0.5"],
            "--checkpoint-interval auto requires --fault-mtbf",
            id="simulate-auto-without-mtbf",
        ),
        pytest.param(
            experiments_cli.main,
            ["ablation_alpha", "--failure-aware"],
            "does not take the fault/checkpoint options",
            id="experiments-failure-aware-on-non-fault-experiment",
        ),
        pytest.param(
            experiments_cli.main,
            ["ablation_alpha", "--retry-budget", "2"],
            "does not take the fault/checkpoint options",
            id="experiments-retry-budget-on-non-fault-experiment",
        ),
        pytest.param(
            experiments_cli.main,
            ["all", "--fault-correlation", "2"],
            "does not take the fault/checkpoint options",
            id="experiments-fault-flag-on-all",
        ),
        pytest.param(
            simulate_cli.main,
            _GEN + ["--policy", "random", "--failure-aware"],
            "--failure-aware has no variant for policy 'random'",
            id="simulate-failure-aware-random",
        ),
        pytest.param(
            simulate_cli.main,
            _GEN + ["--policy", "edge-only", "--failure-aware"],
            "--failure-aware has no variant for policy 'edge-only'",
            id="simulate-failure-aware-edge-only",
        ),
    ],
)
def test_conflicting_flags_rejected(main, argv, message, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "policy, resolved",
    [
        ("ssf-edf", "ssf-edf-fa"),
        ("greedy", "greedy-fa"),
        ("srpt", "srpt-fa"),
        ("fcfs", "fcfs-fa"),
        ("ssf-edf-fa", "ssf-edf-fa"),
        ("ssf-edf-fa-rework", "ssf-edf-fa-rework"),
        ("greedy-fa", "greedy-fa"),
        ("srpt-fa", "srpt-fa"),
        ("fcfs-fa", "fcfs-fa"),
    ],
)
def test_failure_aware_resolves_through_the_registry(policy, resolved, capsys):
    assert simulate_cli.main(_GEN + ["--policy", policy, "--failure-aware"]) == 0
    assert f"policy:       {resolved}\n" in capsys.readouterr().out


def test_checkpoint_interval_type():
    parser = simulate_cli.build_parser()
    assert parser.parse_args(["--checkpoint-interval", "auto"]).checkpoint_interval == "auto"
    assert parser.parse_args(["--checkpoint-interval", "2.5"]).checkpoint_interval == 2.5
    with pytest.raises(SystemExit):
        parser.parse_args(["--checkpoint-interval", "soon"])
