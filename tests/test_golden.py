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

import codecs
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
    # 72 hours across the February-March season change: 0.001 kW readings that repeat, with 0.0 and -0.0
    add("profile-stats-season-change72", "profile-stats", "--profile", "season_change72.csv")
    # aware stamps in five forms: T and space separators, fractional seconds, a compact stamp and Z
    add("profile-stats-aware-mixed", "profile-stats", "--profile", "aware_mixed.csv")

    # activity names that JSON must escape: quotes, backslash, control and non-ASCII characters
    escaping = ("--catalog", "escaping.json")
    # in the CSV payloads the name that holds a quote is written in quotes
    add("composition-escaping", "composition", *escaping)
    add("synth-escaping-winter", "synth", *escaping, "--season", "winter")
    add("reconcile-escaping-winter-day", "reconcile", *escaping, "--profile", "winter_day.csv")

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
    # a valid row, then a row with one fault (two in the *_and_* files): the verdict names the first one read
    for path in sorted((INPUTS / "faults").iterdir()):
        cases[f"validate-fault-{path.stem}-{path.suffix[1:]}"] = ["validate", "--catalog", f"faults/{path.name}"]
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


def test_one_process_gives_every_case_its_golden_bytes(status, monkeypatch):
    """One process runs every case in sorted and then in reverse order: no call changes the bytes of a later one."""
    monkeypatch.chdir(INPUTS)
    monkeypatch.setenv("COLUMNS", "80")
    for name in sorted(CASES) + sorted(CASES, reverse=True):
        code, out, err = run_case(CASES[name])
        assert out.encode("utf-8") == (PAYLOADS / f"{name}.out").read_bytes(), name
        assert {"exit": code, "stderr": err} == status[name], name


PROFILES = ("aware_mixed.csv", "monthly36.csv", "season_change72.csv", "summer_day.csv", "winter_day.csv")
COPIES = {  # two ways to write each profile that csv reads as the plain file
    "quoted": lambda text: "".join(",".join(f'"{cell}"' for cell in line.split(",")) + "\n" for line in text.splitlines()),
    "crlf": lambda text: text.replace("\n", "\r\n"),
}


@pytest.mark.parametrize("copy", sorted(COPIES))
def test_quoted_and_crlf_profiles_give_the_golden_bytes(copy, status, monkeypatch, tmp_path):
    """Each ``profile-stats`` and ``reconcile`` case that reads a profile gives its golden bytes from a copy of it."""
    for profile in PROFILES:  # same stem, so the same label
        (tmp_path / profile).write_text(COPIES[copy]((INPUTS / profile).read_text()), newline="")
    monkeypatch.chdir(INPUTS)
    monkeypatch.setenv("COLUMNS", "80")
    assert len(assert_golden_bytes_from_copies(PROFILES, tmp_path, status)) == 25


def test_files_that_start_with_a_byte_order_mark_give_the_golden_bytes(status, monkeypatch, tmp_path):
    """A spreadsheet's "CSV UTF-8" export starts with U+FEFF: each kind of input file gives its bytes with that mark."""
    files = (*PROFILES, "catalog.csv", "catalog.json", "occupancy.csv")
    for name in files:
        (tmp_path / name).write_bytes(codecs.BOM_UTF8 + (INPUTS / name).read_bytes())
    monkeypatch.chdir(INPUTS)
    monkeypatch.setenv("COLUMNS", "80")
    names = assert_golden_bytes_from_copies(files, tmp_path, status)
    assert {"composition-csvcat-both-csv", "composition-jsoncat-both-json", "synth-csvcat-occupancy-json"} <= set(names)


def assert_golden_bytes_from_copies(files, folder: Path, status) -> list[str]:
    """Each case that reads one of ``files`` gives its golden bytes with the copies in ``folder`` read instead."""
    names = [name for name, argv in CASES.items() if set(argv) & set(files)]
    for name in names:
        code, out, err = run_case([str(folder / arg) if arg in files else arg for arg in CASES[name]])
        assert out.encode("utf-8") == (PAYLOADS / f"{name}.out").read_bytes(), name
        assert {"exit": code, "stderr": err} == status[name], name
    return names


USAGE_ERROR = ["composition", "--format", "csv"]  # neither --catalog nor --builtin-paper


def test_usage_message_wraps_to_the_columns_of_each_call(monkeypatch):
    """Each usage message is formatted at the ``COLUMNS`` in force, whichever width the call before it had."""
    expected = {}
    for columns in ("200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        expected[columns] = run_case(USAGE_ERROR)
    assert expected["200"] != expected["40"]
    for columns in ("200", "40"):  # the call before each is at the other width
        monkeypatch.setenv("COLUMNS", columns)
        assert run_case(USAGE_ERROR) == expected[columns], columns


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
