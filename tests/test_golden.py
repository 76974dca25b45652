"""Golden payloads: every subcommand and format, byte for byte.

Each case runs ``loadcomp.cli.main`` with ``tests/golden/inputs`` as the
working directory. Its stdout must equal ``tests/golden/payloads/<case>.out``
and its exit code and stderr must equal the case's entry in
``tests/golden/status.json``.

After a deliberate change of output, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from loadcomp.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
PAYLOADS = GOLDEN / "payloads"
STATUS = GOLDEN / "status.json"


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}

    def add(name: str, *argv: str, formats=("json", "csv")) -> None:
        for fmt in formats:
            cases[f"{name}-{fmt}"] = [*argv, "--format", fmt]

    builtin = ("--builtin-paper",)
    csvcat = ("--catalog", "catalog.csv")
    jsoncat = ("--catalog", "catalog.json")
    add("composition-builtin-both", "composition", *builtin)
    add("synth-builtin-winter", "synth", *builtin, "--season", "winter", formats=("json",))
    add("reconcile-builtin-winter-day", "reconcile", *builtin, "--profile", "winter_day.csv", formats=("json",))
    for source, flags in (("csvcat", csvcat), ("jsoncat", jsoncat)):
        for season in ("both", "winter", "summer"):
            add(f"composition-{source}-{season}", "composition", *flags, "--season", season)
        for season in ("winter", "summer"):
            add(f"synth-{source}-{season}", "synth", *flags, "--season", season)
    for source, flags in (("builtin", builtin), ("csvcat", csvcat), ("jsoncat", jsoncat)):
        cases[f"validate-{source}"] = ["validate", *flags]
    add("reconcile-csvcat-winter-day", "reconcile", *csvcat, "--profile", "winter_day.csv")
    add("reconcile-jsoncat-summer-day", "reconcile", *jsoncat, "--profile", "summer_day.csv")

    add("composition-csvcat-dpm28", "composition", *csvcat, "--days-per-month", "28")
    add("composition-jsoncat-integer-dpm31", "composition", *jsoncat, "--integer-shares", "--days-per-month", "31")
    add("composition-builtin-integer", "composition", *builtin, "--season", "summer", "--integer-shares",
        formats=("json",))
    add("synth-csvcat-occupancy", "synth", *csvcat, "--season", "summer", "--occupancy", "occupancy.csv")
    add("reconcile-csvcat-dpm28", "reconcile", *csvcat, "--profile", "winter_day.csv", "--days-per-month", "28",
        formats=("json",))
    add("reconcile-jsoncat-occupancy-dpm31", "reconcile", *jsoncat, "--profile", "summer_day.csv",
        "--occupancy", "occupancy.csv", "--days-per-month", "31")
    add("reconcile-csvcat-season-override", "reconcile", *csvcat, "--profile", "summer_day.csv",
        "--season", "winter", formats=("json",))

    add("profile-stats-winter-day", "profile-stats", "--profile", "winter_day.csv")
    add("profile-stats-summer-day", "profile-stats", "--profile", "summer_day.csv", formats=("json",))
    add("profile-stats-monthly36", "profile-stats", "--profile", "monthly36.csv")
    add("profile-stats-monthly36-peak", "profile-stats", "--profile", "monthly36.csv",
        "--granularity", "monthly-peak", formats=("json",))
    add("profile-stats-monthly36-hourly", "profile-stats", "--profile", "monthly36.csv",
        "--granularity", "hourly", formats=("json",))

    # activity names that JSON must escape: quotes, backslash, control and non-ASCII characters
    escaping = ("--catalog", "escaping.json")
    add("composition-escaping", "composition", *escaping, formats=("json",))
    add("synth-escaping-winter", "synth", *escaping, "--season", "winter", formats=("json",))
    add("reconcile-escaping-winter-day", "reconcile", *escaping, "--profile", "winter_day.csv", formats=("json",))

    # error paths: one "loadcomp: error:" line (or a JSON verdict) and exit 1
    add("composition-duplicate", "composition", "--catalog", "duplicate.csv", formats=("json",))
    add("synth-duplicate", "synth", "--catalog", "duplicate.csv", "--season", "winter", formats=("csv",))
    add("reconcile-duplicate", "reconcile", "--catalog", "duplicate.csv", "--profile", "winter_day.csv",
        formats=("json",))
    add("reconcile-monthly-profile", "reconcile", *builtin, "--profile", "monthly36.csv")
    add("composition-missing-catalog", "composition", "--catalog", "missing.csv", formats=("json",))
    add("profile-stats-missing-profile", "profile-stats", "--profile", "missing.csv", formats=("json",))
    cases["validate-duplicate"] = ["validate", "--catalog", "duplicate.csv"]
    cases["validate-missing-catalog"] = ["validate", "--catalog", "missing.csv"]
    add("validate-builtin-format", "validate", *builtin)
    return cases


CASES = _cases()


def run_case(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def status():
    return json.loads(STATUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_payload(name, status, monkeypatch):
    monkeypatch.chdir(INPUTS)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage messages to the terminal width
    code, out, err = run_case(CASES[name])
    assert out.encode("utf-8") == (PAYLOADS / f"{name}.out").read_bytes()
    assert {"exit": code, "stderr": err} == status[name]


def test_every_golden_file_has_a_case(status):
    assert sorted(status) == sorted(CASES)
    assert sorted(p.stem for p in PAYLOADS.glob("*.out")) == sorted(CASES)


def regenerate() -> None:
    os.chdir(INPUTS)
    os.environ["COLUMNS"] = "80"
    PAYLOADS.mkdir(exist_ok=True)
    for stale in PAYLOADS.glob("*.out"):
        stale.unlink()
    status = {}
    for name in sorted(CASES):
        code, out, err = run_case(CASES[name])
        (PAYLOADS / f"{name}.out").write_bytes(out.encode("utf-8"))
        status[name] = {"exit": code, "stderr": err}
    STATUS.write_text(json.dumps(status, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
