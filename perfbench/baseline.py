"""Record the traced run of every workload as ``perfbench/baseline.json``.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py [--seconds 20]

Runs ``run.py --trace 1`` at the default seed for each workload and keeps
its per-layer metrics, the self time of each layer in the last traced
pass, ``trace.overhead_ratio`` and the host manifest, next to the
catalogue of what each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bench_metrics import PER_LAYER, WORKLOADS  # noqa: E402
from bench_workloads import DEFAULT_SEED  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", default="20")
    args = parser.parse_args(argv)
    runs = {}
    for name in WORKLOADS:
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seconds", args.seconds, "--trace", "1"],
            check=True, stdout=subprocess.DEVNULL, timeout=600,
        )
        result = json.loads(
            (HERE / "out" / f"result-{name}-seed{DEFAULT_SEED}-trace1.json").read_text()
        )
        runs[name] = {
            "seed": result["seed"],
            "correct": result["correct"],
            "fail_ratio": result["fail_ratio"],
            "manifest": result["manifest"],
            "layer_self_s": result["detail"]["layer_self_s"],
            "untraced_walls_s": result["detail"]["untraced_walls_s"],
            "traced_walls_s": result["detail"]["traced_walls_s"],
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
        }
    baseline = {
        "what": "per-layer metrics of the traced run at the default seed",
        "moves": {name: moves for name, _, _, moves in PER_LAYER},
        "workloads": runs,
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
