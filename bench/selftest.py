"""Self-test of the oracle: it must accept real payloads and reject corrupted ones.

Usage, from the root of a checkout: python3 bench/selftest.py

It runs a few invocations of each workload (seed 1) through loadcomp.cli
in-process, checks that the oracle accepts each payload, then feeds the
oracle copies with one defect each: a NaN, a conservation error of 1e-6
relative, or a dropped CSV row. It exits 1 if the oracle accepts any of
them or rejects a real payload.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent


def with_nan(key: str):
    def corrupt(text: str) -> str:
        changed, found = re.subn(rf'("{key}": )[^,\n]+', r"\1NaN", text, count=1)
        assert found, key
        return changed
    return corrupt


def dropped_row(text: str) -> str:
    lines = text.splitlines(keepends=True)
    del lines[len(lines) // 2]
    return "".join(lines)


def scaled_attribution(text: str) -> str:
    """One attributed cell grows by 1e-6 of the hour's measured kW."""
    payload = json.loads(text)
    hour = payload["attribution"][5]["kw"]
    first = next(iter(hour))
    hour[first] += 1e-6 * sum(hour.values())
    return json.dumps(payload, indent=2) + "\n"


def scaled_share(text: str) -> str:
    """One composition share grows by 1e-6 of the 100% total."""
    payload = json.loads(text)
    payload["seasons"]["summer"]["rows"][0]["share_pct"] += 1e-6 * 100
    return json.dumps(payload, indent=2) + "\n"


# (workload, invocation index, corruptions by name)
CASES = (
    ("daily_reconcile", 0, {"NaN scale_factor": with_nan("scale_factor"),
                            "attribution +1e-6": scaled_attribution}),
    ("daily_reconcile", 200, {"NaN measured_kwh_month": with_nan("measured_kwh_month")}),
    ("long_series", 2, {"NaN peak_kw": with_nan("peak_kw")}),
    ("wide_catalog", 1, {"share +1e-6": scaled_share}),
    ("wide_catalog", 4, {"dropped synth row": dropped_row}),
    ("wide_catalog", 6, {"dropped reconcile row": dropped_row}),
)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import loadcomp.cli as cli

    problems = 0
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        built = {name: workloads.build(name, 1, Path(tmp) / name) for name in {case[0] for case in CASES}}
        for name, index, corruptions in CASES:
            invocation = built[name].invocations[index]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(invocation.argv)
            label = f"{name} #{index} {invocation.argv[0]}"
            problem = oracle.verify(invocation.check, out.getvalue()) if code == 0 else f"exit code {code}"
            print(f"{'PASS' if problem is None else 'FAIL'} accepts real payload: {label}"
                  + (f" ({problem})" if problem else ""))
            problems += problem is not None
            for what, corrupt in corruptions.items():
                problem = oracle.verify(invocation.check, corrupt(out.getvalue()))
                print(f"{'PASS' if problem else 'FAIL'} rejects {what}: {label}" + (f" ({problem})" if problem else ""))
                problems += problem is None
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
