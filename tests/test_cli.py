"""End-to-end CLI behavior: payloads, exit codes, determinism."""

import contextlib
import csv
import gc
import io
import json
import math
import re
import shlex
import shutil
import tempfile
import weakref
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loadcomp import Season, builtin_catalog, cli, composition_shares, profile, reconcile, seasonal_table
from loadcomp._sourceio import render_value
from loadcomp.catalog import ApplianceSpec, Catalog, OperationClass, load_catalog
from loadcomp.cli import main, pie_data
from loadcomp.synth import default_occupancy, household_total, synth_household_day
from conftest import DAY_CURVE_KW, MONTHLY_AVG_KW, catalogs, csv_table, serialize_catalog


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def day_csv(powers, day="2016-06-01"):
    lines = ["timestamp,power_kw"]
    lines += [f"{day}T{h:02d}:00,{p!r}" for h, p in enumerate(powers)]
    return "\n".join(lines) + "\n"


def write_day_csv(path, powers, day="2016-06-01"):
    path.write_text(day_csv(powers, day))
    return path


def write_monthly_csv(path, month_to_kw=MONTHLY_AVG_KW, year=2016):
    lines = ["timestamp,power_kw"]
    lines += [f"{year}-{m:02d}-01T00:00,{month_to_kw[m]}" for m in sorted(month_to_kw)]
    path.write_text("\n".join(lines) + "\n")
    return path


def synth_day_kw(season=Season.SUMMER):
    total = household_total(synth_household_day(seasonal_table(builtin_catalog(), season), default_occupancy()))
    return [wh / 1000.0 for wh in total]


def test_calls_leave_no_cyclic_garbage(capsys, tmp_path):
    """Each JSON subcommand frees what it builds by reference counting, so no call waits on the cyclic collector."""
    day = str(write_day_csv(tmp_path / "day.csv", DAY_CURVE_KW))
    months = str(write_monthly_csv(tmp_path / "months.csv"))
    argvs = [
        ["composition", "--builtin-paper"],
        ["profile-stats", "--profile", day],
        ["profile-stats", "--profile", months],
        ["reconcile", "--builtin-paper", "--profile", day],
        ["synth", "--builtin-paper", "--season", "winter"],
        ["validate", "--builtin-paper"],
    ]
    codes = [main(argv) for argv in argvs]  # the first calls fill the built-in catalog and the model memo
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        codes += [main(argv) for _ in range(3) for argv in argvs]
        gc.collect()
        garbage = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert codes == [0] * len(codes)
    assert not garbage


class TestComposition:
    def test_builtin_both_seasons_json(self, capsys):
        code, out, _ = run(capsys, "composition", "--builtin-paper", "--season", "both")
        assert code == 0
        payload = json.loads(out)
        winter = payload["seasons"]["winter"]
        summer = payload["seasons"]["summer"]
        assert winter["monthly_total_kwh"] == pytest.approx(1895.55, abs=0.01)
        assert summer["monthly_total_kwh"] == pytest.approx(2714.69, abs=0.01)
        ac = next(r for r in summer["rows"] if r["activity"] == "Air conditioning")
        assert float(render_value(ac["share_pct"])) == 61.9

    def test_csv_has_one_row_per_activity_per_season(self, capsys):
        code, out, _ = run(capsys, "composition", "--builtin-paper", "--season", "both", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 30
        assert {r["season"] for r in rows} == {"winter", "summer"}

    def test_missing_catalog_exits_1_and_names_path(self, capsys):
        code, _, err = run(capsys, "composition", "--catalog", "/no/such/catalog.csv")
        assert code == 1
        assert "/no/such/catalog.csv" in err

    def test_invalid_catalog_exits_1_with_rule(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "activity,tou_winter,tou_summer,units_winter,units_summer,"
            "run_watts,idle_watts,operation,run_fraction,idle_fraction\n"
            "TV,5,5,1,1,120,13,Manual,0.6,0.5\n"
        )
        code, _, err = run(capsys, "composition", "--catalog", str(bad))
        assert code == 1
        assert "sum to 1" in err

    def test_custom_catalog_file(self, capsys, tmp_path):
        
        path = tmp_path / "catalog.csv"
        path.write_text(serialize_catalog(builtin_catalog()))
        code, out, _ = run(capsys, "composition", "--catalog", str(path), "--season", "summer")
        assert code == 0
        assert json.loads(out)["seasons"]["summer"]["daily_total_wh"] == pytest.approx(90489.7, abs=1e-6)

    def test_integer_shares_option(self, capsys):
        code, out, _ = run(capsys, "composition", "--builtin-paper", "--season", "summer", "--integer-shares")
        pie = json.loads(out)["seasons"]["summer"]["pie"]
        ac = next(p for p in pie if p["label"] == "Air conditioning")
        assert code == 0 and ac["percent"] == 62

    @given(catalogs(max_size=20), st.sampled_from(Season))
    def test_the_integer_pie_sums_to_100_and_each_cell_is_within_1_of_its_share(self, catalog, season):
        table = seasonal_table(catalog, season)
        assume(table.daily_total_wh > 0)
        shares = composition_shares(table)
        percents = pie_data(shares, integer_percent=True)["percent"]
        assert sum(percents) == 100 and all(type(percent) is int for percent in percents)
        assert all(abs(percent - share) < 1 for percent, share in zip(percents, shares.values(), strict=True))

    def test_the_integer_pie_gives_a_tied_remainder_to_the_earlier_activity(self):
        assert pie_data({"b": 20.5, "a": 20.5, "c": 59.0}, integer_percent=True)["percent"] == [21, 20, 59]

    def test_out_writes_payload_and_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "composition", "--builtin-paper", "--out", str(out_path))
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["days_per_month"] == 30
        sidecar = json.loads((tmp_path / "report.json.meta.json").read_text())
        assert sidecar["tool"] == "loadcomp" and "created_utc" in sidecar

    def test_a_header_cell_with_a_line_break_gives_one_error_line(self, capsys, tmp_path):
        catalog = tmp_path / "catalog.csv"
        header, _, rows = serialize_catalog(builtin_catalog()).partition("\n")
        catalog.write_text(header + ',"x\nloadcomp: error: fake"\n' + rows)
        code, out, err = run(capsys, "composition", "--catalog", str(catalog))
        assert (code, out) == (1, "")
        assert err == "loadcomp: error: unexpected column(s): 'x\\nloadcomp: error: fake'\n"

    def test_sidecar_command_splits_back_to_the_argv(self, capsys, tmp_path):
        catalog = tmp_path / "my catalog.csv"
        catalog.write_text(serialize_catalog(builtin_catalog()))
        argv = ["composition", "--catalog", str(catalog), "--out", str(tmp_path / "report.json")]
        assert run(capsys, *argv)[0] == 0
        sidecar = json.loads((tmp_path / "report.json.meta.json").read_text())
        assert shlex.split(sidecar["command"]) == argv

    def test_sidecar_command_is_that_of_sys_argv_when_main_has_no_argv(self, capsys, tmp_path, monkeypatch):
        argv = ["composition", "--builtin-paper", "--out", str(tmp_path / "a b.json")]
        monkeypatch.setattr("sys.argv", ["loadcomp", *argv])
        assert main() == 0
        assert json.loads((tmp_path / "a b.json.meta.json").read_text())["command"] == shlex.join(argv)

    def test_no_command_text_is_built_without_out(self, capsys, monkeypatch):
        def refuse(argv):
            raise AssertionError("the command text is built for a sidecar only")

        monkeypatch.setattr(shlex, "join", refuse)
        assert run(capsys, "composition", "--builtin-paper")[0] == 0

    def test_payload_bytes_are_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "composition", "--builtin-paper", "--out", str(a))
        run(capsys, "composition", "--builtin-paper", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_out_exits_2(self, capsys):
        code, _, err = run(
            capsys, "composition", "--builtin-paper", "--out", "/no/such/dir/report.json"
        )
        assert code == 2
        assert "I/O error" in err


# fixed offsets within a day either way, with seconds and microseconds
OFFSETS = st.timedeltas(min_value=timedelta(hours=-24) + timedelta.resolution,
                        max_value=timedelta(hours=24) - timedelta.resolution)


@st.composite
def iso_cells(draw):
    """Timestamp cells of one valid profile: all naive or all with an offset, in the forms ``isoformat`` writes."""
    naive = draw(st.lists(st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30)),
                          min_size=1, max_size=30))
    aware = draw(st.booleans())
    parsed = {}  # the first cell of each instant, in the order of the instants
    for ts in naive:
        if aware:
            ts = ts.replace(tzinfo=timezone(draw(OFFSETS)))
        cell = ts.isoformat(sep=draw(st.sampled_from("T ")),
                            timespec=draw(st.sampled_from(["auto", "minutes", "seconds", "microseconds"])))
        parsed.setdefault(datetime.fromisoformat(cell), cell)
    return [parsed[ts] for ts in sorted(parsed)]


class TestProfileStats:
    def test_annual_fixture_reports_feb_to_jun_growth(self, capsys, tmp_path):
        path = write_monthly_csv(tmp_path / "annual.csv")
        code, out, _ = run(capsys, "profile-stats", "--profile", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["granularity"] == "monthly-average"
        growth = {(g["from"], g["to"]): g["pct"] for g in payload["monthly_growth_pct"]}
        assert growth[("2016-02", "2016-06")] == 130.0
        assert payload["seasonal_split"]["winter"]["samples"] == 5
        assert payload["seasonal_split"]["summer"]["samples"] == 7

    def test_growth_months_before_year_1000_are_labelled_yyyy_mm(self, capsys, tmp_path):
        path = write_monthly_csv(tmp_path / "annual.csv", {1: 1.0, 2: 2.0}, year="0999")
        code, out, _ = run(capsys, "profile-stats", "--profile", str(path))
        assert code == 0
        assert json.loads(out)["monthly_growth_pct"] == [{"from": "0999-01", "to": "0999-02", "pct": 100.0}]

    def test_growth_from_the_power_floor_to_the_bound_is_finite(self, capsys, tmp_path):
        """The largest ratio of two valid powers, 1e9 kW over the floor, gives a finite percentage."""
        path = write_monthly_csv(tmp_path / "annual.csv", {1: 1e-6, 2: 1e9})
        code, out, _ = run(capsys, "profile-stats", "--profile", str(path))
        assert code == 0
        pct = 100.0 * (1e9 - 1e-6) / 1e-6
        assert json.loads(out)["monthly_growth_pct"] == [{"from": "2016-01", "to": "2016-02", "pct": pct}]

    def test_day_fixture_reports_extrema(self, capsys, tmp_path):
        path = write_day_csv(tmp_path / "day.csv", DAY_CURVE_KW)
        code, out, _ = run(capsys, "profile-stats", "--profile", str(path))
        payload = json.loads(out)
        assert code == 0
        assert payload["daily_extrema"] == {"peak_hour": 15, "trough_hour": 6}
        assert max(s["fraction"] for s in payload["normalized"]) == 1.0

    def test_flat_profile_ratio_is_one(self, capsys, tmp_path):
        path = write_day_csv(tmp_path / "flat.csv", [5.0] * 24)
        code, out, _ = run(capsys, "profile-stats", "--profile", str(path))
        assert code == 0
        assert json.loads(out)["peak_average_ratio"] == 1.0

    def test_zero_profile_exits_1(self, capsys, tmp_path):
        path = write_day_csv(tmp_path / "zero.csv", [0.0] * 24)
        code, _, err = run(capsys, "profile-stats", "--profile", str(path))
        assert code == 1 and "zero peak" in err

    def test_csv_format_emits_normalized_series(self, capsys, tmp_path):
        path = write_day_csv(tmp_path / "day.csv", DAY_CURVE_KW)
        code, out, _ = run(capsys, "profile-stats", "--profile", str(path), "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and len(rows) == 24
        assert max(float(r["fraction"]) for r in rows) == 1.0

    def test_granularity_override(self, capsys, tmp_path):
        path = write_monthly_csv(tmp_path / "peaks.csv")
        code, out, _ = run(
            capsys, "profile-stats", "--profile", str(path), "--granularity", "monthly-peak"
        )
        assert code == 0
        assert json.loads(out)["granularity"] == "monthly-peak"

    @settings(max_examples=60, deadline=None)
    @given(cells=iso_cells(), fmt=st.sampled_from(["json", "csv"]))
    def test_normalized_timestamps_are_the_isoformat_of_each_cell(self, cells, fmt):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "profile.csv"
            path.write_text("timestamp,power_kw\n" + "".join(f"{cell},1.0\n" for cell in cells))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["profile-stats", "--profile", str(path), "--format", fmt]) == 0
        text = out.getvalue()
        rows = json.loads(text)["normalized"] if fmt == "json" else csv.DictReader(io.StringIO(text))
        assert [row["timestamp"] for row in rows] == [datetime.fromisoformat(cell).isoformat() for cell in cells]


class TestLocalCalendar:
    """An aware day is read in its own offset: 2016-10-01 hours 0-23 at +09:00, in UTC 30 September hours 15-14.

    October is winter and September summer, so reading the stamps in UTC would change the season, the hours and
    the date count of every command below.
    """

    @pytest.fixture
    def tokyo_day(self, tmp_path):
        path = tmp_path / "tokyo.csv"
        path.write_text("timestamp,power_kw\n" + "".join(f"2016-10-01T{h:02d}:00+09:00,{h + 1}.0\n" for h in range(24)))
        return str(path)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_reconcile_takes_the_local_date_and_its_season(self, capsys, tokyo_day, fmt):
        code, out, _ = run(capsys, "reconcile", "--builtin-paper", "--profile", tokyo_day, "--format", fmt)
        assert code == 0
        assert out == run(capsys, "reconcile", "--builtin-paper", "--profile", tokyo_day, "--format", fmt,
                          "--season", "winter")[1]
        if fmt == "json":
            assert json.loads(out)["season"] == "winter"
        else:
            assert [*dict.fromkeys(row["hour"] for row in csv.DictReader(io.StringIO(out)))] == [*map(str, range(24))]

    def test_profile_stats_takes_the_local_hours_and_season(self, capsys, tokyo_day):
        code, out, _ = run(capsys, "profile-stats", "--profile", tokyo_day)
        payload = json.loads(out)
        assert code == 0
        assert payload["daily_extrema"] == {"peak_hour": 23, "trough_hour": 0}
        assert payload["seasonal_split"]["winter"]["samples"] == 24
        assert payload["seasonal_split"]["summer"]["samples"] == 0


class TestOneEnergyPass:
    """Each command evaluates each activity's daily energy once per season, in one seasonal table.

    ``reconcile`` runs against an empty model memo, so that its first call builds the season's model.
    """

    @pytest.mark.parametrize(
        "argv, seasons",
        [
            (["reconcile", "--builtin-paper", "--format", "csv"], 1),
            (["reconcile", "--builtin-paper"], 1),
            (["composition", "--builtin-paper", "--season", "both"], 2),
            (["synth", "--builtin-paper", "--season", "winter"], 1),
        ],
        ids=["reconcile-csv", "reconcile-json", "composition-both", "synth"],
    )
    def test_each_activity_energy_is_computed_once_per_season(self, capsys, tmp_path, monkeypatch, argv, seasons):
        if argv[0] == "reconcile":
            argv = [*argv, "--profile", str(write_day_csv(tmp_path / "day.csv", synth_day_kw()))]
        activities = [spec.activity for spec in builtin_catalog()]  # built, and its rules checked, before counting
        tables, tou_reads = [], []
        original_table, original_tou = cli.seasonal_table, ApplianceSpec.tou

        def counting_table(*args, **kwargs):
            tables.append(args[1])
            return original_table(*args, **kwargs)

        def counting_tou(spec, season):
            tou_reads.append(spec.activity)
            return original_tou(spec, season)

        monkeypatch.setattr(cli, "seasonal_table", counting_table)
        monkeypatch.setattr(reconcile, "seasonal_table", counting_table)
        monkeypatch.setattr(reconcile, "_MODELS", weakref.WeakKeyDictionary())
        monkeypatch.setattr(ApplianceSpec, "tou", counting_tou)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(tables) == seasons
        assert Counter(tou_reads) == dict.fromkeys(activities, seasons)
        if argv[0] == "reconcile":  # a second call on the same catalog and season reuses the model
            tables.clear()
            tou_reads.clear()
            assert run(capsys, *argv)[0] == 0
            assert (tables, tou_reads) == ([], [])


class TestOneDayCheck:
    """``reconcile`` checks that the measured profile is one hourly day once per call, in ``disaggregate``."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_the_measured_day_is_checked_once(self, capsys, tmp_path, monkeypatch, fmt):
        checked = []
        original = reconcile._check_one_hourly_day

        def counting_check(measured):
            checked.append(measured)
            return original(measured)

        monkeypatch.setattr(reconcile, "_check_one_hourly_day", counting_check)
        path = write_day_csv(tmp_path / "day.csv", synth_day_kw())
        code, _, _ = run(capsys, "reconcile", "--builtin-paper", "--profile", str(path), "--format", fmt)
        assert code == 0
        assert len(checked) == 1


# Two spellings of one curve, a curve with no presence at 05:00, and that curve with -0 there: 0 == -0,
# but a -0 weight attributes -0.0.
_OCCUPANCY_FILES = {
    "rising.txt": ",".join(str(hour + 1) for hour in range(24)),
    "rising-again.txt": ",".join(f"{hour + 1}.0" for hour in range(24)),
    "gap.txt": ",".join("0" if hour == 5 else "1" for hour in range(24)),
    "gap-negative-zero.txt": ",".join("-0" if hour == 5 else "1" for hour in range(24)),
}
_MANUAL = Catalog(specs=[ApplianceSpec(name, 2.0, 3.0, 1, 2, watts, 0.0, OperationClass.MANUAL, 1.0, 0.0)
                         for name, watts in (("Lighting", 60.0), ("TV", 120.0))])
_GAP_CALL = ("manual.csv", "2016-06-01", (1.0,) * 24, None, 30, "gap.txt", "json")

reconcile_calls = st.tuples(
    st.sampled_from(["builtin", "manual.csv"]),
    st.sampled_from(["2016-01-15", "2016-06-01"]),  # winter and summer, when the season is inferred
    st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.5]), min_size=24, max_size=24).map(tuple),
    st.sampled_from([None, "winter", "summer"]),
    st.sampled_from([0, 1, 30, 31]),  # 0 is out of range
    st.sampled_from([None, *_OCCUPANCY_FILES]),
    st.sampled_from(["csv", "json"]),
)


class TestModelMemo:
    """``reconcile`` reuses each catalog's seasonal model; a call that does gives the bytes of one that does not."""

    @settings(max_examples=40, deadline=None)
    @given(calls=st.lists(reconcile_calls, min_size=1, max_size=12))
    @example(calls=[_GAP_CALL, _GAP_CALL])  # unattributable at hour 5, on a miss and then on a hit
    @example(calls=[_GAP_CALL[:2] + ((1.0,) * 5 + (0.0,) + (1.0,) * 18,) + _GAP_CALL[3:5] + (name, "csv")
                    for name in ("gap.txt", "gap-negative-zero.txt", "gap.txt")])  # 0.0, then -0.0, at hour 5
    def test_a_reused_model_gives_the_output_of_a_new_one(self, calls):
        with tempfile.TemporaryDirectory() as directory:
            folder = Path(directory)
            for name, text in _OCCUPANCY_FILES.items():
                (folder / name).write_text(text + "\n")
            (folder / "manual.csv").write_text(serialize_catalog(_MANUAL))
            catalogs = {}  # each file read once, as a long-running caller keeps its catalog, so that its models hit

            def load_once(path):
                return catalogs[path] if path in catalogs else catalogs.setdefault(path, load_catalog(path))

            with mock.patch.object(cli, "load_catalog", load_once):
                for catalog, day, powers, season, days_per_month, occupancy, fmt in calls:
                    profile = write_day_csv(folder / "day.csv", powers, day)
                    argv = ["reconcile", "--profile", str(profile), "--days-per-month", str(days_per_month),
                            "--format", fmt]
                    argv += ["--builtin-paper"] if catalog == "builtin" else ["--catalog", str(folder / catalog)]
                    argv += ["--season", season] if season else []
                    argv += ["--occupancy", str(folder / occupancy)] if occupancy else []
                    with mock.patch.object(reconcile, "_MODELS", weakref.WeakKeyDictionary()):
                        fresh = self.call(argv)
                    assert self.call(argv) == fresh, argv

    @staticmethod
    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    def test_a_changed_attribution_reaches_no_later_call(self, capsys, tmp_path, monkeypatch):
        argv = ["reconcile", "--builtin-paper", "--profile", str(write_day_csv(tmp_path / "day.csv", DAY_CURVE_KW))]
        expected = run(capsys, *argv)
        original = cli.composition_from_attribution

        def changing(attribution):
            shares = original(attribution)
            for activity in attribution.by_activity:
                attribution.by_activity[activity] = (0.0,) * 24
            return shares

        with monkeypatch.context() as patched:
            patched.setattr(cli, "composition_from_attribution", changing)
            assert run(capsys, *argv) != expected
        assert run(capsys, *argv) == expected


class TestReconcile:
    def test_fixed_point_scale_factor_is_one(self, capsys, tmp_path):
        path = write_day_csv(tmp_path / "measured.csv", synth_day_kw())
        code, out, err = run(capsys, "reconcile", "--builtin-paper", "--profile", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["season"] == "summer"  # inferred from June timestamps
        assert payload["scale_factor"] == pytest.approx(1.0, rel=1e-9)
        assert "scale_factor=" in err
        expected = composition_shares(seasonal_table(builtin_catalog(), Season.SUMMER))
        for activity, share in payload["attributed_shares_pct"].items():
            assert share == pytest.approx(expected[activity], abs=0.01)

    def test_ten_percent_overshoot_scales(self, capsys, tmp_path):
        powers = [p * 1.1 for p in synth_day_kw()]
        path = write_day_csv(tmp_path / "measured.csv", powers)
        code, out, _ = run(capsys, "reconcile", "--builtin-paper", "--profile", str(path))
        assert code == 0
        assert json.loads(out)["scale_factor"] == pytest.approx(1.1, rel=1e-9)

    def test_zero_measured_day_exits_1_zero_measured_energy(self, capsys, tmp_path):
        """``scale_to_measured`` decides that an all-zero day cannot be reconciled; the CLI keeps no rule of its own."""
        path = write_day_csv(tmp_path / "zero.csv", [0.0] * 24)
        code, out, err = run(capsys, "reconcile", "--builtin-paper", "--profile", str(path))
        assert (code, out, err) == (1, "", "loadcomp: error: zero measured energy\n")

    def test_the_stderr_summary_writes_tiny_values_as_the_payload_does(self, capsys, tmp_path):
        path = write_day_csv(tmp_path / "tiny.csv", [1e-6] * 24, day="2016-01-15")  # each hour at the power floor
        code, out, err = run(capsys, "reconcile", "--builtin-paper", "--profile", str(path))
        payload = json.loads(out)
        assert code == 0
        scale_factor, relative_gap = payload["scale_factor"], payload["relative_gap"]
        assert err.splitlines()[0] == f"scale_factor={scale_factor!r} relative_gap={relative_gap!r}"
        assert err.startswith("scale_factor=3.798369866265729e-07 ")

    @pytest.mark.parametrize("powers, rownum", [([1.0] * 23 + [5e-324], 25), ([5e-324] * 24, 2)],
                             ids=["one-subnormal-hour", "subnormal-day"])
    def test_a_power_below_the_floor_is_refused_naming_its_row(self, capsys, tmp_path, powers, rownum):
        """Below the floor an hour would get no attributed power, and a day of such hours overflows the gap."""
        path = write_day_csv(tmp_path / "subnormal.csv", powers)
        code, out, err = run(capsys, "reconcile", "--builtin-paper", "--profile", str(path))
        assert (code, out) == (1, "")
        assert err == f"loadcomp: error: row {rownum}: power must be 0 or >= 1e-06 kW (got 5e-324)\n"

    def test_a_payload_error_is_the_only_line_on_stderr(self, capsys, tmp_path, monkeypatch):
        """With the power floor lifted, a subnormal day overflows the relative gap; ``scale_to_measured`` refuses it."""
        monkeypatch.setattr(profile, "MIN_POWER_KW", 0.0)
        path = write_day_csv(tmp_path / "subnormal.csv", [5e-324] * 24)  # the relative gap overflows
        code, out, err = run(capsys, "reconcile", "--builtin-paper", "--profile", str(path))
        assert (code, out) == (1, "")
        assert err == "loadcomp: error: a result is not a finite number; an input value is out of range\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_non_finite_relative_gap_is_one_error_in_both_formats(self, capsys, tmp_path, fmt, monkeypatch):
        """No valid input reaches this: the smallest normal kW is below the power floor, which is lifted here."""
        monkeypatch.setattr(profile, "MIN_POWER_KW", 0.0)
        catalog = tmp_path / "big.csv"
        catalog.write_text(CATALOG_HEADER + "Big,24,24,1000000,1000000,1e7,0,Auto,1,0\n")
        path = write_day_csv(tmp_path / "tiny.csv", [2.2250738585072014e-308] * 24)
        code, out, err = run(capsys, "reconcile", "--catalog", str(catalog), "--profile", str(path), "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "loadcomp: error: a result is not a finite number; an input value is out of range\n"

    def test_a_failed_write_is_the_only_line_on_stderr(self, capsys, tmp_path):
        """The summary and the gap warning follow the written payload, so a run that cannot write prints neither."""
        path = write_day_csv(tmp_path / "measured.csv", [p * 1.5 for p in synth_day_kw()])
        code, out, err = run(capsys, "reconcile", "--builtin-paper", "--profile", str(path),
                             "--out", str(tmp_path / "no" / "such" / "dir" / "x.json"))
        assert (code, out) == (2, "")
        assert err.startswith("loadcomp: I/O error: ") and err.count("\n") == 1

    def test_a_profile_that_is_not_one_day_is_reported_before_the_month_length(self, capsys, tmp_path):
        """``disaggregate`` checks the day before it builds the model, which rejects a month of 0 days."""
        path = write_monthly_csv(tmp_path / "monthly.csv")
        code, out, err = run(capsys, "reconcile", "--builtin-paper", "--profile", str(path), "--days-per-month", "0")
        assert (code, out) == (1, "")
        assert err.startswith("loadcomp: error: granularity mismatch: need hourly") and err.count("\n") == 1

    def test_large_gap_warns(self, capsys, tmp_path):
        powers = [p * 1.5 for p in synth_day_kw()]
        path = write_day_csv(tmp_path / "measured.csv", powers)
        code, _, err = run(capsys, "reconcile", "--builtin-paper", "--profile", str(path))
        assert code == 0
        assert "warning" in err

    def test_gap_warning_reports_the_threshold_in_force(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("loadcomp.reconcile.GAP_WARNING_THRESHOLD", 0.1)
        powers = [p * 1.15 for p in synth_day_kw()]  # relative gap 0.13
        path = write_day_csv(tmp_path / "measured.csv", powers)
        code, _, err = run(capsys, "reconcile", "--builtin-paper", "--profile", str(path))
        assert code == 0
        assert "by more than 10%;" in err

    def test_csv_format_emits_attribution(self, capsys, tmp_path):
        path = write_day_csv(tmp_path / "measured.csv", synth_day_kw())
        code, out, _ = run(
            capsys, "reconcile", "--builtin-paper", "--profile", str(path), "--format", "csv"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and len(rows) == 24 * 15
        hour0 = sum(float(r["kw"]) for r in rows if r["hour"] == "0")
        assert hour0 == pytest.approx(synth_day_kw()[0], rel=1e-9)

    def test_unattributable_hour_exits_1_naming_hour(self, capsys, tmp_path):
        catalog = tmp_path / "manual.csv"
        catalog.write_text(
            "activity,tou_winter,tou_summer,units_winter,units_summer,"
            "run_watts,idle_watts,operation,run_fraction,idle_fraction\n"
            "Toaster,1,1,1,1,800,0,Manual,1,0\n"
        )
        occupancy = tmp_path / "gap.csv"
        occupancy.write_text(",".join(["0"] + ["1"] * 23) + "\n")
        path = write_day_csv(tmp_path / "measured.csv", [1.0] * 24)
        code, _, err = run(
            capsys, "reconcile", "--catalog", str(catalog), "--profile", str(path),
            "--occupancy", str(occupancy),
        )
        assert code == 1
        assert "unattributable load at hour 0" in err

    def test_a_catalog_of_no_energy_exits_1_naming_the_empty_model(self, capsys, tmp_path):
        """Every hour of a model of no energy is empty; the empty table is the fault, not its first hour."""
        catalog = tmp_path / "dead.csv"
        catalog.write_text(CATALOG_HEADER + "Toaster,0,0,1,1,800,0,Manual,1,0\n")
        path = write_day_csv(tmp_path / "measured.csv", [1.0] * 24)
        code, out, err = run(capsys, "reconcile", "--catalog", str(catalog), "--profile", str(path))
        assert (code, out, err) == (1, "", "loadcomp: error: zero bottom-up total\n")

    def test_explicit_season_override(self, capsys, tmp_path):
        path = write_day_csv(tmp_path / "measured.csv", synth_day_kw(Season.WINTER), day="2016-01-15")
        code, out, _ = run(
            capsys, "reconcile", "--builtin-paper", "--profile", str(path), "--season", "winter"
        )
        assert code == 0
        assert json.loads(out)["season"] == "winter"


class TestSynth:
    def test_winter_grand_total(self, capsys):
        code, out, _ = run(capsys, "synth", "--builtin-paper", "--season", "winter", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert sum(float(r["wh"]) for r in rows) == pytest.approx(63185.0, abs=1e-6)

    def test_uniform_occupancy_with_auto_only_catalog(self, capsys, tmp_path):
        catalog = tmp_path / "auto.csv"
        catalog.write_text(
            "activity,tou_winter,tou_summer,units_winter,units_summer,"
            "run_watts,idle_watts,operation,run_fraction,idle_fraction\n"
            "Fridge,24,24,1,1,100,0,Auto,1,0\n"
        )
        occupancy = tmp_path / "uniform.csv"
        occupancy.write_text(",".join(["1"] * 24) + "\n")
        code, out, _ = run(
            capsys, "synth", "--catalog", str(catalog), "--season", "summer",
            "--occupancy", str(occupancy),
        )
        assert code == 0
        series = json.loads(out)["activities"]["Fridge"]
        assert all(v == pytest.approx(100.0) for v in series)

    def test_malformed_occupancy_exits_1(self, capsys, tmp_path):
        occupancy = tmp_path / "short.csv"
        occupancy.write_text(",".join(["1"] * 23) + "\n")
        code, _, err = run(
            capsys, "synth", "--builtin-paper", "--season", "winter", "--occupancy", str(occupancy)
        )
        assert code == 1 and "expected 24 occupancy values, got 23" in err

    def test_large_uniform_occupancy_gives_the_bytes_of_a_small_one(self, capsys, tmp_path):
        outputs = []
        for value in ("1e308", "1"):
            occupancy = tmp_path / f"{value}.csv"
            occupancy.write_text(",".join([value] * 24) + "\n")
            outputs.append(run(capsys, "synth", "--builtin-paper", "--season", "winter", "--occupancy", str(occupancy)))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0

    def test_json_total_matches_table(self, capsys):
        code, out, _ = run(capsys, "synth", "--builtin-paper", "--season", "summer")
        assert code == 0
        assert json.loads(out)["daily_total_wh"] == pytest.approx(90489.7, abs=1e-6)


class TestValidate:
    def test_builtin_is_valid(self, capsys):
        code, out, _ = run(capsys, "validate", "--builtin-paper")
        payload = json.loads(out)
        assert code == 0 and payload == {"valid": True, "entries": 15, "error": None}

    def test_invalid_catalog_reports_rule_and_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "activity,tou_winter,tou_summer,units_winter,units_summer,"
            "run_watts,idle_watts,operation,run_fraction,idle_fraction\n"
            "TV,5,5,1,1,120,13,Manual,0.6,0.5\n"
        )
        code, out, _ = run(capsys, "validate", "--catalog", str(bad))
        payload = json.loads(out)
        assert code == 1
        assert payload["valid"] is False
        assert "sum to 1" in payload["error"]


CATALOG_HEADER = (
    "activity,tou_winter,tou_summer,units_winter,units_summer,"
    "run_watts,idle_watts,operation,run_fraction,idle_fraction\n"
)
JSON_TV_ROW = {"activity": "TV", "tou_winter": 5, "tou_summer": 5, "units_winter": 1, "units_summer": 1,
               "run_watts": 120, "idle_watts": 13, "operation": "Manual", "run_fraction": 1, "idle_fraction": 0}
UNDECODABLE = b"\xff\xfe" + "timestamp,power_kw\n".encode("utf-16-le")
OVERSIZED = "x" * (csv.field_size_limit() + 1)  # a cell that csv.reader refuses
QUARTER_HOUR_DAY = "timestamp,power_kw\n" + "".join(
    f"2016-06-01T{m // 60:02d}:{m % 60:02d},{1 + m % 7}\n" for m in range(0, 24 * 60, 15)
)


class TestInputDefects:
    """Each input ends in one error line (or the validate verdict), never a traceback or NaN."""

    @pytest.mark.parametrize(
        "argv, content",
        [
            (["profile-stats", "--profile"], day_csv([1.0] * 23 + [float("nan")])),
            (["profile-stats", "--profile"], day_csv([float("inf")] + [1.0] * 23)),
            (["profile-stats", "--profile"], "timestamp,power_kw\n2016-06-01T00:00,1\n2016-06-01T01:00+00:00,2\n"),
            (["profile-stats", "--profile"], UNDECODABLE),
            (["composition", "--catalog"], CATALOG_HEADER + "TV,nan,5,1,1,120,13,Manual,1,0\n"),
            (["synth", "--builtin-paper", "--season", "winter", "--occupancy"], ",".join(["1"] * 23 + ["nan"])),
            (["synth", "--builtin-paper", "--season", "winter", "--occupancy"], UNDECODABLE),
            (["reconcile", "--builtin-paper", "--profile"], QUARTER_HOUR_DAY),
            (["reconcile", "--builtin-paper", "--profile"], day_csv([1.0] * 23)),
            (["profile-stats", "--granularity", "monthly-average", "--profile"], day_csv([1.0] * 24)),
            # finite inputs beyond the magnitude bounds and floors, whose results would overflow: strict JSON has no
            # Infinity, and CSV output and fsum cannot otherwise survive them
            (["profile-stats", "--profile"], "timestamp,power_kw\n2016-01-01T00:00,1e-300\n2016-02-01T00:00,1e9\n"),
            (["composition", "--catalog"], CATALOG_HEADER + "Big,24,24,10,10,1e308,0,Auto,1,0\n"),
            (["composition", "--format", "csv", "--catalog"], CATALOG_HEADER + "Big,24,24,10,10,1e308,0,Auto,1,0\n"),
            (["synth", "--season", "winter", "--format", "csv", "--catalog"],
             CATALOG_HEADER + "Big,24,24,10,10,1e308,0,Auto,1,0\n"),
            (["profile-stats", "--profile"], "timestamp,power_kw\n2016-06-01T00:00,1e308\n2016-06-01T01:00,1e308\n"),
        ],
        ids=["nan-power", "inf-power", "mixed-timestamps", "undecodable-profile", "nan-catalog-tou",
             "nan-occupancy", "undecodable-occupancy", "quarter-hour-day", "23-hour-day", "monthly-declared-day",
             "growth-overflow", "catalog-energy-overflow", "catalog-energy-overflow-csv",
             "synth-energy-overflow-csv", "power-sum-overflow"],
    )
    def test_exits_1_with_one_error_line(self, capsys, tmp_path, argv, content):
        path = tmp_path / "input.csv"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        code, out, err = run(capsys, *argv, str(path))
        assert code == 1 and out == ""
        assert err.startswith("loadcomp: error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "content, rownum",
        [(f"{OVERSIZED},1\n", 1), ("timestamp,power_kw\n2016-06-01T00:00,1\n\n" + f"{OVERSIZED},1\n", 3)],
        ids=["header", "sample"],
    )
    def test_a_profile_cell_over_the_csv_field_limit_names_its_row(self, capsys, tmp_path, content, rownum):
        path = tmp_path / "profile.csv"
        path.write_text(content)
        code, out, err = run(capsys, "profile-stats", "--profile", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"loadcomp: error: row {rownum}: field larger than field limit") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "content, rule",
        [
            (CATALOG_HEADER + "TV,nan,5,1,1,120,13,Manual,1,0\n", "tou_winter: must be a finite number"),
            (CATALOG_HEADER + "TV,5,5,1,1,inf,13,Manual,1,0\n", "run_watts: must be a finite number"),
            (CATALOG_HEADER + "TV,5,5,nan,1,120,13,Manual,1,0\n", "'units_winter' must be a whole number"),
            (CATALOG_HEADER + "TV,5,5,1,inf,120,13,Manual,1,0\n", "'units_summer' must be a whole number"),
            (UNDECODABLE, "cannot read catalog file"),
            (CATALOG_HEADER + "TV,5,5,1,1,120,13,Manual,1,0\n\n" + OVERSIZED + ",5,5,1,1,120,13,Manual,1,0\n",
             "row 2: field larger than field limit"),
        ],
        ids=["nan-tou", "inf-watts", "nan-units", "inf-units", "undecodable", "oversized-cell"],
    )
    def test_validate_gives_a_verdict(self, capsys, tmp_path, content, rule):
        path = tmp_path / "catalog.csv"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        code, out, err = run(capsys, "validate", "--catalog", str(path))
        payload = json.loads(out)
        assert code == 1 and err == ""
        assert payload["valid"] is False and rule in payload["error"]

    @pytest.mark.parametrize(
        "field, digits, rule",
        [
            ("run_watts", 401, "'run_watts' is not a number"),
            ("units_winter", 401, "'units_winter' is not a number"),
            ("run_watts", 4400, "invalid JSON"),
        ],
        ids=["401-digit-watts", "401-digit-units", "4400-digit-watts"],
    )
    def test_json_integer_too_large_for_a_float(self, capsys, tmp_path, field, digits, rule):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([{**JSON_TV_ROW, field: "BIG"}]).replace('"BIG"', "9" * digits))
        code, out, err = run(capsys, "validate", "--catalog", str(path))
        payload = json.loads(out)
        assert code == 1 and err == ""
        assert payload["valid"] is False and rule in payload["error"]

    @pytest.mark.parametrize(
        "field, value", [("units_winter", True), ("run_fraction", True), ("idle_fraction", False)]
    )
    def test_json_boolean_is_not_a_number(self, capsys, tmp_path, field, value):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([{**JSON_TV_ROW, field: value}]))
        code, out, err = run(capsys, "validate", "--catalog", str(path))
        payload = json.loads(out)
        assert code == 1 and err == ""
        assert payload["valid"] is False and f"field {field!r} is not a number" in payload["error"]

    @pytest.mark.parametrize("days", ["32", str(10**400)], ids=["32", "10**400"])
    @pytest.mark.parametrize("command", ["composition", "reconcile"])
    def test_days_per_month_above_31_exits_1(self, capsys, tmp_path, command, days):
        argv = [command, "--builtin-paper", "--days-per-month", days]
        if command == "reconcile":
            argv += ["--profile", str(write_day_csv(tmp_path / "day.csv", synth_day_kw()))]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("loadcomp: error: days_per_month") and err.count("\n") == 1


class TestExitContract:
    def test_unknown_flag_maps_to_1(self, capsys):
        assert main(["composition", "--builtin-paper", "--no-such-flag"]) == 1

    def test_missing_subcommand_maps_to_1(self, capsys):
        assert main([]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("composition", {"--format", "--out", "--days-per-month", "--catalog", "--builtin-paper",
                             "--season", "--integer-shares"}),
            ("profile-stats", {"--format", "--out", "--profile", "--granularity"}),
            ("reconcile", {"--format", "--out", "--days-per-month", "--occupancy", "--catalog",
                           "--builtin-paper", "--profile", "--season"}),
            ("synth", {"--format", "--out", "--occupancy", "--catalog", "--builtin-paper", "--season"}),
            ("validate", {"--out", "--catalog", "--builtin-paper"}),
        ],
    )
    def test_each_command_accepts_only_the_flags_it_reads(self, capsys, command, flags):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == flags | {"--help"}


_INPUTS = Path(__file__).parent / "golden" / "inputs"
_FILES = ["winter_day.csv", "monthly36.csv", "catalog.csv", "occupancy.csv"]
# every flag of any subcommand, so that each subcommand also meets the flags of the others, and the
# abbreviations argparse expands, one of them ambiguous ("--o": --out or --occupancy)
_FLAGS = ["--format", "--out", "--days-per-month", "--occupancy", "--catalog", "--builtin-paper", "--season",
          "--integer-shares", "--profile", "--granularity", "--prof", "--for", "--b", "--o", "--se", "--ver",
          "--version", "-h", "--help", "--no-such-flag", "-x", "--", "-"]
# valid and invalid values, and files in the folder that each call runs in ("." cannot be written)
_VALUES = ["csv", "json", "xml", "winter", "summer", "both", "30", "0", "-1", "x", "", "hourly", "monthly-peak",
           *_FILES, "missing.csv", "."]
_TOKENS = st.one_of(st.sampled_from(_FLAGS), st.sampled_from(_VALUES),
                    st.builds("{}={}".format, st.sampled_from(_FLAGS), st.sampled_from(_VALUES)))
_ARGVS = st.builds(lambda head, tokens: [head, *tokens],
                   st.sampled_from(["composition", "profile-stats", "reconcile", "synth", "validate",
                                    "bogus", "--version", "-h", "--", ""]),
                   st.lists(_TOKENS, max_size=7))

_SOURCES = {"--catalog": ["catalog.csv", "missing.csv"], "--builtin-paper": None}  # None: a store_true
_OPTIONAL = {"--format": ["csv", "json"], "--out": ["out.json", "catalog.csv"], "--days-per-month": ["30", "28", "0"],
             "--occupancy": ["occupancy.csv"], "--integer-shares": None, "--granularity": ["hourly", "monthly-peak"]}
# each subcommand's required flags, its optional ones and its catalog flags, with values that argparse takes
_WELL_FORMED = {
    "composition": ({}, {"--season": ["winter", "summer", "both"], **_OPTIONAL}, _SOURCES),
    "profile-stats": ({"--profile": ["winter_day.csv", "monthly36.csv"]}, _OPTIONAL, {}),
    "reconcile": ({"--profile": ["winter_day.csv", "monthly36.csv"]}, {"--season": ["winter", "summer"], **_OPTIONAL},
                  _SOURCES),
    "synth": ({"--season": ["winter", "summer"]}, _OPTIONAL, _SOURCES),
    "validate": ({}, _OPTIONAL, _SOURCES),
}
_COMMAND_FLAGS = {  # the flags that each subcommand has
    "composition": {"--format", "--out", "--days-per-month", "--season", "--integer-shares"},
    "profile-stats": {"--format", "--out", "--profile", "--granularity"},
    "reconcile": {"--format", "--out", "--days-per-month", "--occupancy", "--profile", "--season"},
    "synth": {"--format", "--out", "--occupancy", "--season"},
    "validate": {"--out"},
}


@st.composite
def well_formed_argvs(draw):
    """An argv that the flag table reads: a subcommand, its required flags and one catalog source, some of its optional
    flags, in any order and in both value forms; one time in three with one mutation, which may send it to argparse."""
    command = draw(st.sampled_from(sorted(_WELL_FORMED)))
    required, optional, sources = _WELL_FORMED[command]
    optional = {flag: values for flag, values in optional.items() if flag in _COMMAND_FLAGS[command]}
    flags = {**required, **dict([draw(st.sampled_from(sorted(sources.items())))] if sources else [])}
    flags.update(draw(st.lists(st.sampled_from(sorted(optional.items())), unique_by=lambda item: item[0])))
    tokens = []
    for flag in draw(st.permutations(sorted(flags))):
        if flags[flag] is None:
            tokens.append(flag)
        else:
            value = draw(st.sampled_from(flags[flag]))
            tokens += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    at = draw(st.integers(0, len(tokens)))
    mutation = draw(st.sampled_from(["none", "none", "drop", "repeat", "insert", "abbreviate"]))
    if mutation == "insert" or mutation != "none" and at == len(tokens):
        tokens.insert(at, draw(_TOKENS))
    elif mutation == "drop":
        del tokens[at]
    elif mutation == "repeat":
        tokens.insert(at, tokens[at])
    elif mutation == "abbreviate":
        tokens[at] = tokens[at][:-1]
    return [command, *tokens]


class TestSubcommandParse:
    """``main`` reads a well-formed argv from the flag table, and hands any other to the parser, as the whole parse."""

    @staticmethod
    def outcome(call, *args):
        """What ``call(*args)`` returns or exits with, and prints, run in a new folder that holds ``_FILES``."""
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as folder, contextlib.chdir(folder):
            for name in _FILES:
                shutil.copy(_INPUTS / name, name)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    result = call(*args)
                except SystemExit as exc:
                    result = ("exit", exc.code)
        return result, out.getvalue(), err.getvalue()

    @settings(max_examples=250, deadline=None)
    @given(st.one_of(_ARGVS, well_formed_argvs()))
    @example(["validate", "--catalog", "catalog.csv", "--format", "csv"])  # a golden usage error
    @example(["reconcile", "--builtin-paper", "--profile", "winter_day.csv", "--version"])
    @example(["reconcile", "--builtin-paper", "--prof", "winter_day.csv", "--ver"])
    @example(["reconcile", "--builtin-paper", "--profile", "winter_day.csv", "--=csv"])  # ambiguous to the top level
    @example(["synth", "--builtin-paper", "--season=winter", "--", "summer"])
    @example(["synth", "--builtin-paper", "--season"])  # a missing value
    @example(["synth", "--builtin-paper", "--season", "winter", "--season", "summer"])  # a repeated flag
    @example(["reconcile", "--profile", "winter_day.csv", "--builtin-paper", "-h"])
    @example(["validate", "--catalog", "catalog.csv", "--out", "catalog.csv"])  # each call writes its own folder
    @example([])
    @example(["reconcile", "--builtin-paper", "--profile", "winter_day.csv", "--format=csv", "--days-per-month=28",
              "--occupancy", "occupancy.csv", "--season=summer", "--out", "out.json"])  # every reconcile flag
    @example(["composition", "--builtin-paper=x"])  # a store_true with a value
    @example(["composition", "--builtin-paper", "--builtin-paper"])  # a repeated store_true
    @example(["composition", "--builtin-paper", "--format="])  # an empty value
    @example(["composition", "--builtin-paper", "--days-per-month", "-1"])  # a value that starts with "-"
    @example(["validate", "--builtin-paper", "--out", "-"])
    @example(["profile-stats", "--profile", ""])
    @example(["synth", "--season", "winter", "--catalog", "catalog.csv", "--builtin-paper"])  # both catalog sources
    @example(["synth", "--season", "winter"])  # neither of them
    @example(["reconcile", "--builtin-paper"])  # a missing --profile
    @example(["composition", "--builtin-paper", "--days-per-month", "x"])  # an int that does not convert
    def test_the_subcommand_parse_is_the_whole_parse(self, argv):
        parser = cli.build_parser()
        with mock.patch.dict("os.environ", {"COLUMNS": "80"}):
            assert self.outcome(cli._parse, argv) == self.outcome(parser.parse_args, argv)
            whole = self.outcome(main, argv)
            with mock.patch.object(cli, "_parse", lambda argv: parser.parse_args(argv)):
                assert self.outcome(main, argv) == whole


# ---------------------------------------------------------------------------
# fuzz: random CSV, JSON and bytes for every file a command reads

# Cells that sit near a rule's edge, plus small and arbitrary floats and short text.
_CELLS = st.one_of(
    st.sampled_from([
        "0", "1", "24", "25", "-1", "0.5", "1e7", "1e308", "5e-324", "nan", "inf", "-inf", "", " ", "9" * 400,
        "Auto", "Manual", "Semi Auto", "x", '"', "2016-01-01T00:00", "2016-06-01T00:00+00:00", "2016-13-01",
    ]),
    st.floats(min_value=0, max_value=30).map(repr),  # within most ranges
    st.floats().map(repr),
    st.text(max_size=8),
)
_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8), _CELLS)
_TOO_MANY_DIGITS = "<digits>"  # stands for an integer literal that json.dumps refuses to write


def _catalog_table():
    return list(csv.reader(io.StringIO(serialize_catalog(builtin_catalog()))))


def _profile_table(day):
    if day == "monthly":
        return [["timestamp", "power_kw"], *([f"2016-{m:02d}-01T00:00", str(kw)] for m, kw in MONTHLY_AVG_KW.items())]
    return [["timestamp", "power_kw"], *([f"{day}T{h:02d}:00", str(kw)] for h, kw in enumerate(DAY_CURVE_KW))]


def _mutated(draw, table):
    """The first rows of ``table`` with a few cells replaced."""
    if draw(st.sampled_from([False, False, False, True])):
        table = table[:draw(st.integers(1, len(table)))]
    table = [list(row) for row in table]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        row = table[draw(st.integers(0, len(table) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(_CELLS)
    return table


@st.composite
def _catalog_texts(draw, fmt):
    table = _mutated(draw, _catalog_table())
    if fmt == "csv":
        return csv_table(table)
    rows = [dict(zip(table[0], row)) for row in table[1:]]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        key = draw(st.sampled_from([*table[0], "extra"]))
        rows[draw(st.integers(0, len(rows) - 1))][key] = draw(_JSON_VALUES | st.just(_TOO_MANY_DIGITS))
    data = rows if draw(st.sampled_from([True, True, True, False])) else draw(_JSON_VALUES)
    return json.dumps(data).replace(json.dumps(_TOO_MANY_DIGITS), "9" * 4400)


@st.composite
def _profile_texts(draw):
    table = _mutated(draw, _profile_table(draw(st.sampled_from(["2016-01-15", "2016-06-01", "monthly"]))))
    return csv_table(table)


@st.composite
def _occupancy_texts(draw):
    values = _mutated(draw, [["1"] * draw(st.integers(22, 25))])[0]
    return draw(st.sampled_from([",", "\n"])).join(values)


@st.composite
def _file_contents(draw, texts):
    """Mostly text of the expected shape; else arbitrary text, or bytes that need not decode."""
    kind = draw(st.sampled_from(["shaped", "shaped", "shaped", "text", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    return draw(texts if kind == "shaped" else st.text(max_size=64)).encode("utf-8", "surrogatepass")


@st.composite
def invocations(draw):
    """A command line and the content of each file it names, by file name."""
    command = draw(st.sampled_from(["composition", "profile-stats", "reconcile", "synth", "validate"]))
    argv, files = [command], {}
    if command != "profile-stats":
        catalog = draw(st.sampled_from(["catalog.csv", "catalog.json"] + ["builtin"] * (command != "validate")))
        if catalog == "builtin":
            argv.append("--builtin-paper")
        else:
            argv += ["--catalog", catalog]
            files[catalog] = draw(_file_contents(_catalog_texts(catalog.rpartition(".")[2])))
    if command in ("profile-stats", "reconcile"):
        argv += ["--profile", "profile.csv"]
        files["profile.csv"] = draw(_file_contents(_profile_texts()))
    if command in ("reconcile", "synth") and draw(st.booleans()):
        argv += ["--occupancy", "occupancy.txt"]
        files["occupancy.txt"] = draw(_file_contents(_occupancy_texts()))
    if command != "validate":
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    if command == "composition":
        argv += ["--season", draw(st.sampled_from(["winter", "summer", "both"]))]
        argv += draw(st.sampled_from([[], ["--integer-shares"]]))
    if command == "synth":
        argv += ["--season", draw(st.sampled_from(["winter", "summer"]))]
    if command == "reconcile":
        argv += draw(st.sampled_from([[], ["--season", "winter"], ["--season", "summer"]]))
    if command == "profile-stats":
        argv += draw(st.sampled_from([[], *(["--granularity", g] for g in ("hourly", "monthly-average", "monthly-peak"))]))
    return argv, files


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestFuzz:
    @settings(max_examples=250, deadline=None)
    @given(invocation=invocations())
    def test_every_input_gives_valid_output_or_one_error_line(self, invocation):
        argv, files = invocation
        with tempfile.TemporaryDirectory() as directory:
            for name, content in files.items():
                (Path(directory) / name).write_bytes(content)
            argv = [str(Path(directory) / arg) if arg in files else arg for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in out + err
        if code == 0 and "csv" in argv:
            rows = list(csv.reader(io.StringIO(out, newline=""), strict=True))
            assert out.endswith("\n") and rows and {len(row) for row in rows} == {len(rows[0])}
        elif code == 0:
            _strict_json(out)
        elif argv[0] == "validate" and code == 1 and err == "":
            assert _strict_json(out)["valid"] is False
        else:
            assert code in (1, 2) and out == ""
            assert len(err.splitlines()) == 1 and err.endswith("\n"), err
            assert err.startswith(("loadcomp: error:", "loadcomp: I/O error:")), err
        if code == 0:
            assert "error:" not in err


# one entry per operation class, so that each shape meets the extreme day
_OPERATIONS = ("Auto", "Semi Auto", "Manual")
WORST_CASES = {
    # one hour at the power floor, the rest 0, against every catalog field at its bound
    "floor-hour-against-largest-catalog": (
        [1e-6] + [0.0] * 23,
        "".join(f"Max {op},24,24,1000000,1000000,1e7,1e7,{op},0.5,0.5\n" for op in _OPERATIONS),
    ),
    # every hour at the power bound against activities whose energy is the catalog floor cubed
    "bound-day-against-floor-catalog": (
        [1e9] * 24,
        "".join(f"Min {op},1e-6,1e-6,1,1,1e-6,0,{op},1e-6,0.999999\n" for op in _OPERATIONS),
    ),
}


class TestWorstCases:
    """The extreme valid inputs are reconciled: the floors and bounds of profile and catalog keep every result finite."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("days", ["1", "31"])
    @pytest.mark.parametrize("case", sorted(WORST_CASES))
    def test_each_measured_hour_is_conserved(self, capsys, tmp_path, case, days, fmt):
        powers, rows = WORST_CASES[case]
        catalog = tmp_path / "catalog.csv"
        catalog.write_text(CATALOG_HEADER + rows)
        path = write_day_csv(tmp_path / "day.csv", powers)
        code, out, err = run(capsys, "reconcile", "--catalog", str(catalog), "--profile", str(path),
                             "--days-per-month", days, "--format", fmt)
        assert code == 0, err
        if fmt == "json":
            payload = _strict_json(out)
            assert all(map(math.isfinite, (payload["scale_factor"], payload["relative_gap"],
                                           payload["measured_kwh_month"], payload["bottom_up_kwh_month"])))
            by_hour = [[*row["kw"].values()] for row in payload["attribution"]]
        else:
            table = list(csv.reader(io.StringIO(out, newline=""), strict=True))
            assert table[0] == ["hour", "activity", "kw"] and {len(row) for row in table} == {3}
            by_hour = [[float(kw) for hour, _, kw in table[1:] if int(hour) == h] for h in range(24)]
        for power, cells in zip(powers, by_hour, strict=True):
            assert len(cells) == len(_OPERATIONS) and all(map(math.isfinite, cells))
            total = sum(cells)
            assert total == pytest.approx(power, rel=1e-12, abs=0.0)  # a zero hour sums to exactly zero
            assert (total != 0) == (power != 0)
