"""Run the passes of one workload inside a fresh interpreter.

Usage: python3 child.py PLAN_JSON

The plan gives the source tree, the argument lists of one pass, the seconds
to measure and whether to trace. One client drives ``loadcomp.cli.main``
in-process in a closed loop: each invocation starts when the previous one
returns. The first pass is a warm-up whose payloads are written out for the
oracle; every later pass must reproduce them byte for byte.

With tracing on, untraced and traced passes alternate. A traced pass wraps
each layer's public functions under the name its caller looks up, records
one span per call in memory, and restores the originals afterwards.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

MIN_PASSES = 2  # of each kind, untraced and traced, whatever the time budget

# (module where the caller looks the name up, attribute, span name, count of the result)
TRACED = (
    ("loadcomp.cli", "main", "cli.main", None),
    ("loadcomp.cli", "build_parser", "cli.build_parser", None),
    ("loadcomp.cli", "load_catalog", "catalog.load_catalog", len),
    ("loadcomp.cli", "builtin_catalog", "catalog.builtin_catalog", len),
    ("loadcomp.catalog", "validate_spec", "catalog.validate_spec", None),
    ("loadcomp.cli", "seasonal_table", "composition.seasonal_table", None),
    ("loadcomp.cli", "composition_shares", "composition.composition_shares", None),
    ("loadcomp.cli", "table_csv", "composition.table_csv", None),
    ("loadcomp.cli", "table_json", "composition.table_json", None),
    ("loadcomp.cli", "pie_data", "composition.pie_data", None),
    ("loadcomp.cli", "load_profile", "profile.load_profile", len),
    ("loadcomp.cli", "normalize", "profile.normalize", None),
    ("loadcomp.cli", "seasonal_split", "profile.seasonal_split", None),
    ("loadcomp.cli", "peak_average_ratio", "profile.peak_average_ratio", None),
    ("loadcomp.cli", "daily_extrema", "profile.daily_extrema", None),
    ("loadcomp.cli", "synth_household_day", "synth.synth_household_day", None),
    ("loadcomp.reconcile", "synth_household_day", "synth.synth_household_day", None),
    ("loadcomp.synth", "shape_for", "synth.shape_for", None),
    ("loadcomp.cli", "default_occupancy", "synth.default_occupancy", None),
    ("loadcomp.cli", "load_occupancy", "synth.load_occupancy", None),
    ("loadcomp.cli", "disaggregate", "reconcile.disaggregate",
     lambda attribution: len(attribution.by_activity) * len(attribution.measured)),
    ("loadcomp.cli", "scale_to_measured", "reconcile.scale_to_measured", None),
    ("loadcomp.cli", "composition_from_attribution", "reconcile.composition_from_attribution", None),
)


class Tracer:
    """In-memory spans: [name, start, end, parent index, pass, invocation, count]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_index = -1
        self._invocation = -1

    def wrap(self, name, function, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not stack:
                self._invocation += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_index, self._invocation, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[6] = count(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attribute, name, count in TRACED:
                module = sys.modules[module_name]
                original = getattr(module, attribute)
                saved.append((module, attribute, original))
                setattr(module, attribute, self.wrap(name, original, count))
            yield
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)


def run_pass(cli, argvs: list[list[str]]):
    """One closed-loop pass; returns its wall time and one record per invocation."""
    records = []
    start = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        crash = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            began = time.perf_counter()
            try:
                code = cli.main(argv)
            except (Exception, SystemExit):
                code, crash = None, traceback.format_exc()
            ended = time.perf_counter()
        records.append((ended - began, code, out.getvalue(), err.getvalue(), crash))
    return time.perf_counter() - start, records


def defect(code, stderr: str, crash: str | None) -> str | None:
    if crash is not None:
        return "uncaught exception: " + crash.strip().splitlines()[-1]
    if code != 0:
        return f"exit code {code}"
    for marker in ("Traceback", "loadcomp: error:"):
        if marker in stderr:
            return f"{marker!r} on stderr"
    return None


def peak_rss_kib() -> int:
    """High-water resident set of this process's own address space.

    ``ru_maxrss`` is not used: Linux carries it over from the parent across
    fork and exec, so it would report the parent's peak.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    out_dir = Path(plan["out"])
    argvs = plan["invocations"]
    sys.path.insert(0, plan["src"])
    import loadcomp.cli as cli

    failures = []
    passes = []
    tracer = Tracer()

    def record(index: int, traced: bool, wall: float, records) -> None:
        passes.append({"traced": traced, "wall_s": wall,
                       "latencies_ms": [1000 * r[0] for r in records],
                       "payload_bytes": sum(len(r[2].encode("utf-8")) for r in records)})
        for number, (_, code, stdout, stderr, crash) in enumerate(records):
            problem = defect(code, stderr, crash)
            if problem is None and hashlib.sha256(stdout.encode("utf-8")).hexdigest() != reference[number]:
                problem = "payload differs from the warm-up pass"
            if problem is not None:
                failures.append({"pass": index, "invocation": number, "reason": problem})

    wall, records = run_pass(cli, argvs)
    payload_dir = out_dir / "payloads"
    payload_dir.mkdir(parents=True, exist_ok=True)
    reference = []
    for number, (_, _, stdout, _, _) in enumerate(records):
        (payload_dir / f"{number}.out").write_text(stdout, encoding="utf-8")
        reference.append(hashlib.sha256(stdout.encode("utf-8")).hexdigest())
    record(0, False, wall, records)
    del records

    kinds = (False, True) if plan["trace"] else (False,)
    last_wall = dict.fromkeys(kinds, wall)
    done = dict.fromkeys(kinds, 0)
    start = time.perf_counter()
    while True:
        traced = kinds[len(passes[1:]) % len(kinds)]
        enough = min(done.values()) >= MIN_PASSES
        if enough and time.perf_counter() - start + last_wall[traced] > plan["seconds"]:
            break
        if traced:
            tracer.pass_index = len(passes)
            with tracer.installed():
                wall, records = run_pass(cli, argvs)
        else:
            wall, records = run_pass(cli, argvs)
        record(len(passes), traced, wall, records)
        del records
        last_wall[traced] = wall
        done[traced] += 1

    maxrss_kib = peak_rss_kib()
    if plan["trace"]:
        (out_dir / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    result = {"passes": passes, "failures": failures, "maxrss_kib": maxrss_kib}
    (out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
