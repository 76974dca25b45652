"""Record one full run of every workload, untraced and traced, as a baseline.

Usage, from the root of a git checkout:

    python3 bench/baseline.py --seed 1 --seconds 45 --out bench/baseline.json

The record holds the Python version, the CPU count, the git commit, the
input digests, every end-to-end and per-layer metric, and the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import run
import workloads


def git_sha(root: Path) -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--out", type=Path, default=run.BENCH_DIR / "baseline.json")
    args = parser.parse_args()

    root = run.BENCH_DIR.parent
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(root),
        "seed": args.seed,
        "seconds": args.seconds,
        "load": "closed loop, one client, one child interpreter, no threads",
        "workloads": {},
    }
    correct = True
    for name in workloads.BUILDERS:
        entry = record["workloads"][name] = {}
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            report = run.run_workload(root, name, args.seed, args.seconds, trace)
            entry["inputs_sha256"] = report.info.pop("inputs_sha256")
            entry[kind] = {metric: {"value": value, "unit": unit} for metric, (value, unit) in report.metrics.items()}
            entry[f"{kind}_run"] = {"attempted": report.attempted, "failed": report.failed, **report.info}
            correct = correct and report.correct
            print(f"{name} {kind}: error_rate {report.info['error_rate']}", flush=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
