"""End-to-end CLI behavior: payloads, exit codes, determinism."""

import csv
import io
import json
import re
import shlex

import pytest

from loadcomp import Season, builtin_catalog, composition_shares
from loadcomp.catalog import serialize_catalog
from loadcomp.cli import main
from loadcomp.composition import round_half_up
from loadcomp.synth import synth_household_day
from conftest import DAY_CURVE_KW, MONTHLY_AVG_KW


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
    total = synth_household_day(builtin_catalog(), season).household_total
    return [wh / 1000.0 for wh in total]


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
        assert round_half_up(ac["share_pct"], 1) == 61.9

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
        from loadcomp.catalog import serialize_catalog

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

    def test_out_writes_payload_and_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "composition", "--builtin-paper", "--out", str(out_path))
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["days_per_month"] == 30
        sidecar = json.loads((tmp_path / "report.json.meta.json").read_text())
        assert sidecar["tool"] == "loadcomp" and "created_utc" in sidecar

    def test_sidecar_command_splits_back_to_the_argv(self, capsys, tmp_path):
        catalog = tmp_path / "my catalog.csv"
        catalog.write_text(serialize_catalog(builtin_catalog()))
        argv = ["composition", "--catalog", str(catalog), "--out", str(tmp_path / "report.json")]
        assert run(capsys, *argv)[0] == 0
        sidecar = json.loads((tmp_path / "report.json.meta.json").read_text())
        assert shlex.split(sidecar["command"]) == argv

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


class TestReconcile:
    def test_fixed_point_scale_factor_is_one(self, capsys, tmp_path):
        path = write_day_csv(tmp_path / "measured.csv", synth_day_kw())
        code, out, err = run(capsys, "reconcile", "--builtin-paper", "--profile", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["season"] == "summer"  # inferred from June timestamps
        assert payload["scale_factor"] == pytest.approx(1.0, rel=1e-9)
        assert "scale_factor=" in err
        expected = composition_shares(builtin_catalog(), Season.SUMMER).shares
        for activity, share in payload["attributed_shares_pct"].items():
            assert share == pytest.approx(expected[activity], abs=0.01)

    def test_ten_percent_overshoot_scales(self, capsys, tmp_path):
        powers = [p * 1.1 for p in synth_day_kw()]
        path = write_day_csv(tmp_path / "measured.csv", powers)
        code, out, _ = run(capsys, "reconcile", "--builtin-paper", "--profile", str(path))
        assert code == 0
        assert json.loads(out)["scale_factor"] == pytest.approx(1.1, rel=1e-9)

    def test_zero_measured_day_exits_1_zero_peak(self, capsys, tmp_path):
        path = write_day_csv(tmp_path / "zero.csv", [0.0] * 24)
        code, _, err = run(capsys, "reconcile", "--builtin-paper", "--profile", str(path))
        assert code == 1 and "zero peak" in err

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
            # finite inputs whose results overflow: strict JSON has no Infinity
            (["profile-stats", "--profile"], "timestamp,power_kw\n2016-01-01T00:00,1e-300\n2016-02-01T00:00,1e300\n"),
            (["composition", "--catalog"], CATALOG_HEADER + "Big,24,24,10,10,1e308,0,Auto,1,0\n"),
        ],
        ids=["nan-power", "inf-power", "mixed-timestamps", "undecodable-profile", "nan-catalog-tou",
             "nan-occupancy", "undecodable-occupancy", "quarter-hour-day", "23-hour-day", "monthly-declared-day",
             "growth-overflow", "catalog-energy-overflow"],
    )
    def test_exits_1_with_one_error_line(self, capsys, tmp_path, argv, content):
        path = tmp_path / "input.csv"
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
        code, out, err = run(capsys, *argv, str(path))
        assert code == 1 and out == ""
        assert err.startswith("loadcomp: error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "content, rule",
        [
            (CATALOG_HEADER + "TV,nan,5,1,1,120,13,Manual,1,0\n", "tou_winter: must be a finite number"),
            (CATALOG_HEADER + "TV,5,5,1,1,inf,13,Manual,1,0\n", "run_watts: must be a finite number"),
            (CATALOG_HEADER + "TV,5,5,nan,1,120,13,Manual,1,0\n", "'units_winter' must be a whole number"),
            (CATALOG_HEADER + "TV,5,5,1,inf,120,13,Manual,1,0\n", "'units_summer' must be a whole number"),
            (UNDECODABLE, "cannot read catalog file"),
        ],
        ids=["nan-tou", "inf-watts", "nan-units", "inf-units", "undecodable"],
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
