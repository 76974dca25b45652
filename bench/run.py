"""loadcomp benchmark: end-to-end and per-layer metrics on seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload long_series --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload

The parent process generates the inputs from the seed, times ``import
loadcomp.cli`` in fresh interpreters, and starts one child interpreter
(child.py) that runs the passes. It then checks every payload with the
independent oracle and prints one line per metric, then the result as one
JSON object on the last line. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics from a traced run. The exit code is 0
only when every invocation succeeded and every payload was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPS = 9
CHILD_TIMEOUT_S = 150
MAX_FAILURES_SHOWN = 10
WINDOW = 8  # neighbours on each side whose mean gives an invocation's local host speed

SETUP_CODE = (
    "import time; began = time.perf_counter(); import loadcomp.cli; "
    "print(repr(time.perf_counter() - began))"
)

# Per-layer metric: (kind, span names). "self" sums each span's time minus the
# time of its child spans, "calls" counts spans, "count" sums what the span's
# result measured (rows, samples, cells). Self times add up to the root span.
LAYER_METRICS = {
    "catalog.load_s": ("self", ("catalog.load_catalog",)),
    "catalog.rows": ("count", ("catalog.load_catalog", "catalog.builtin_catalog")),
    "catalog.validate_s": ("self", ("catalog.validate_spec",)),
    "catalog.validate_calls": ("calls", ("catalog.validate_spec",)),
    "catalog.builtin_s": ("self", ("catalog.builtin_catalog",)),
    "composition.table_s": ("self", ("composition.seasonal_table",)),
    "composition.shares_s": ("self", ("composition.composition_shares",)),
    "composition.render_s": ("self", ("composition.table_csv", "composition.table_json", "composition.pie_data")),
    "profile.load_s": ("self", ("profile.load_profile",)),
    "profile.samples": ("count", ("profile.load_profile",)),
    "profile.normalize_s": ("self", ("profile.normalize",)),
    "profile.split_s": ("self", ("profile.seasonal_split",)),
    "profile.stats_s": ("self", ("profile.peak_average_ratio", "profile.daily_extrema")),
    "synth.day_s": ("self", ("synth.synth_household_day",)),
    "synth.shape_s": ("self", ("synth.shape_for",)),
    "synth.shape_calls": ("calls", ("synth.shape_for",)),
    "synth.occupancy_s": ("self", ("synth.default_occupancy", "synth.load_occupancy")),
    "reconcile.disaggregate_s": ("self", ("reconcile.disaggregate",)),
    "reconcile.cells": ("count", ("reconcile.disaggregate",)),
    "reconcile.scale_s": ("self", ("reconcile.scale_to_measured",)),
    "reconcile.shares_s": ("self", ("reconcile.composition_from_attribution",)),
    "cli.argparse_s": ("self", ("cli.build_parser",)),
    "cli.self_s": ("self", ("cli.main",)),
}


@dataclass
class Report:
    workload: str
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    return env


def measure_setup(src: Path) -> list[float]:
    """``import loadcomp.cli`` in fresh interpreters; the first run only writes bytecode."""
    command = [sys.executable, "-c", SETUP_CODE]
    env = child_env(src)
    subprocess.run(command, env=env, check=True, capture_output=True, timeout=60)
    return [float(subprocess.run(command, env=env, check=True, capture_output=True, text=True,
                                 timeout=60).stdout) for _ in range(SETUP_REPS)]


def digests(directory: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(directory.iterdir())}


def layer_metrics(spans: list[list], passes: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each the median over the traced passes."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[int, dict[tuple[str, str], float]] = defaultdict(lambda: defaultdict(float))
    for index, (name, start, end, _, pass_index, _, count) in enumerate(spans):
        bucket = totals[pass_index]
        bucket["self", name] += end - start - covered[index]
        bucket["calls", name] += 1
        bucket["count", name] += count
        if name == "cli.main":
            bucket["root", name] += end - start

    traced = [i for i, p in enumerate(passes) if p["traced"]]
    metrics = {}
    for metric, (kind, names) in LAYER_METRICS.items():
        value = statistics.median(sum(totals[i][kind, name] for name in names) for i in traced)
        metrics[metric] = (value, "s") if kind == "self" else (round(value), "count")
    metrics["cli.payload_bytes"] = (round(statistics.median(passes[i]["payload_bytes"] for i in traced)), "bytes")
    untraced = sum(fast_latencies_ms([p for p in passes[1:] if not p["traced"]]))
    traced_wall = sum(fast_latencies_ms([passes[i] for i in traced]))
    metrics["trace.overhead_pct"] = (100 * (traced_wall / untraced - 1), "%")
    # the root span must account for the traced pass, or the layers miss work
    metrics["trace.root_coverage_pct"] = (
        min(100 * totals[i]["root", "cli.main"] / passes[i]["wall_s"] for i in traced), "%")
    return metrics


def fast_latencies_ms(passes: list[dict]) -> list[float]:
    """Each invocation's latency at the fastest host speed seen in the passes.

    The shared host switches between speeds about 2x apart every 50 to 500
    ms, and the share of a run it spends fast changes from run to run. Two
    estimates of an invocation's time at the fast speed are taken, and the
    lower one is kept:

    - its own fastest repeat, which needs one repeat that ran wholly in a
      fast spell; long invocations get that from their many passes;
    - its median cost relative to the mean time of its neighbourhood in the
      same pass (up to ``WINDOW`` on each side), which cancels the host's
      speed, times the fastest neighbourhood mean of all the passes. A mean,
      not a median, so that the reference does not jump from one invocation
      to another of a short pass as the host's speed changes under it.
      Short invocations, with few passes, need only one fast spell of a
      neighbourhood in the run for this. It assumes every neighbourhood
      holds the same mix of work: true when a pass has at most
      ``2 * WINDOW + 1`` invocations, so that the neighbourhood is the whole
      pass, or when every invocation does the same work, as in
      ``daily_reconcile``.
    """
    levels, ratios = [], []
    for pass_ in passes:
        times = pass_["latencies_ms"]
        local = [statistics.fmean(times[max(0, i - WINDOW):i + WINDOW + 1]) for i in range(len(times))]
        levels.append(min(local))
        ratios.append([time_ / level for time_, level in zip(times, local)])
    fastest_level = min(levels)
    repeats = zip(*(pass_["latencies_ms"] for pass_ in passes))
    return [min(min(times), fastest_level * statistics.median(relative))
            for times, relative in zip(repeats, zip(*ratios))]


def end_to_end_metrics(passes: list[dict], units: int, setup: list[float], maxrss_kib: int):
    latencies = fast_latencies_ms(passes[1:])  # the first pass is the warm-up
    wall = sum(latencies) / 1000
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "throughput_per_s": (units / wall, "units/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_p95_ms": (statistics.quantiles(latencies, n=100, method="inclusive")[94], "ms"),
        "peak_rss_mb": (maxrss_kib / 1024, "MiB"),
    }, {"passes": len(passes) - 1, "invocations_per_pass": len(latencies)}


def run_workload(root: Path, name: str, seed: int, seconds: int, trace: bool) -> Report:
    src = root / "src"
    work = root / ".bench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    began = time.perf_counter()
    workload = workloads.build(name, seed, work / "inputs")
    report = Report(name)
    report.info["generate_s"] = round(time.perf_counter() - began, 3)
    report.info["inputs_sha256"] = digests(work / "inputs")
    setup = [] if trace else measure_setup(src)
    began = time.perf_counter()

    plan = {"src": str(src), "out": str(work), "seconds": seconds, "trace": trace,
            "invocations": [inv.argv for inv in workload.invocations]}
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    child = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(work / "plan.json")],
                           cwd=root, env=child_env(src), capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0:
        raise RuntimeError(f"benchmark child failed ({child.returncode}):\n{child.stderr}")
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    passes = result["passes"]
    report.info["child_s"] = round(time.perf_counter() - began, 3)
    began = time.perf_counter()

    rejected = {}
    for number, invocation in enumerate(workload.invocations):
        text = (work / "payloads" / f"{number}.out").read_text(encoding="utf-8")
        problem = oracle.verify(invocation.check, text)
        if problem is not None:
            rejected[number] = f"oracle: {problem}"
    report.info["oracle_s"] = round(time.perf_counter() - began, 3)
    flagged = {(f["pass"], f["invocation"]): f["reason"] for f in result["failures"]}
    for pass_index in range(len(passes)):
        for number, invocation in enumerate(workload.invocations):
            reason = flagged.get((pass_index, number)) or rejected.get(number)
            report.attempted += 1
            if reason is not None:
                report.failed += 1
                report.failures.append(f"pass {pass_index} {invocation.argv[0]} #{number}: {reason}")

    if trace:
        spans = json.loads((work / "spans.json").read_text(encoding="utf-8"))
        report.metrics = layer_metrics(spans, passes)
        report.info["traced_passes"] = sum(p["traced"] for p in passes)
    else:
        report.metrics, info = end_to_end_metrics(passes, workload.units_per_pass, setup, result["maxrss_kib"])
        report.info.update(info)
    report.info["error_rate"] = report.failed / report.attempted
    return report


def print_report(report: Report, prefix: str = "") -> None:
    print(f"{prefix}inputs_sha256 {json.dumps(report.info.pop('inputs_sha256'), sort_keys=True)}")
    for line in report.failures[:MAX_FAILURES_SHOWN]:
        print(f"{prefix}FAILED {line}")
    for key, value in report.info.items():
        print(f"{prefix}{key} {value}")
    for metric, (value, unit) in report.metrics.items():
        print(f"{prefix}{metric} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.BUILDERS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45, help="measuring time of one workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = BENCH_DIR.parent
    if not (root / "src" / "loadcomp" / "cli.py").is_file():
        print(f"bench: no loadcomp sources under {root / 'src'}", file=sys.stderr)
        return 2
    names = tuple(workloads.BUILDERS) if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        try:
            reports.append(run_workload(root, name, args.seed, args.seconds, bool(args.trace)))
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        print_report(reports[-1], prefix=f"{name} " if len(names) > 1 else "")

    metrics = {}
    for report in reports:
        for metric, (value, unit) in report.metrics.items():
            key = metric if len(reports) == 1 else f"{report.workload}/{metric}"
            metrics[key] = {"value": value, "unit": unit}
    correct = all(report.correct for report in reports)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r.attempted for r in reports),
                      "failed": sum(r.failed for r in reports),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
