"""Independent oracle for loadcomp CLI payloads.

It recomputes every expected number from the generated rows and series with
its own arithmetic, following the model as the paper states it, and never
imports loadcomp. Each ``check_*`` function takes one payload's text and
raises :class:`OracleError` on the first defect: JSON that strict parsing
rejects (``NaN``, ``Infinity``), malformed CSV, a wrong row count, or a value
off by more than ``REL`` of its scale.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import NamedTuple

# Relative tolerance of every recomputed value. Float summation over 10,000
# activities drifts by about 1e-12; a conservation error of 1e-6 must fail.
REL = 1e-9

# The paper's seasonal totals for the built-in 15-activity catalog, kWh/month
# at 30 days per month, to the printed two decimals.
BUILTIN_MONTHLY_KWH = {"winter": 1895.55, "summer": 2714.69}
BUILTIN_ACTIVITIES = 15

# Presence weighting of the default occupancy curve, before normalization.
DEFAULT_OCCUPANCY = (
    0.50, 0.42, 0.36, 0.31, 0.28, 0.26, 0.25, 0.30, 0.40, 0.52, 0.64, 0.75,
    0.85, 0.92, 0.97, 1.00, 0.97, 0.93, 0.89, 0.87, 0.84, 0.76, 0.66, 0.56,
)
GAP_WARNING = 0.25
WINTER_MONTHS = frozenset({10, 11, 12, 1, 2})


class OracleError(ValueError):
    """A payload differs from what the oracle expects."""


class CatalogRow(NamedTuple):
    activity: str
    tou_winter: float
    tou_summer: float
    units_winter: int
    units_summer: int
    run_watts: float
    idle_watts: float
    operation: str
    run_fraction: float
    idle_fraction: float


class Series(NamedTuple):
    label: str  # the file stem, which the CLI uses as the label
    granularity: str
    stamps: list[str]
    kw: list[float]


def season_for_month(month: int) -> str:
    return "winter" if month in WINTER_MONTHS else "summer"


def _hour_shapes() -> dict[str, list[float]]:
    total = sum(DEFAULT_OCCUPANCY)
    occupancy = [w / total for w in DEFAULT_OCCUPANCY]
    mixed = [(1 / 24 + w) / 2 for w in occupancy]
    mixed_total = sum(mixed)
    return {
        "Auto": [1 / 24] * 24,
        "Manual": occupancy,
        "Semi Auto": [w / mixed_total for w in mixed],
    }


class CatalogModel:
    """Per-season energies, shares and hourly energies of a generated catalog."""

    def __init__(self, rows: list[CatalogRow]):
        shapes = _hour_shapes()
        self.activities = [row.activity for row in rows]
        self.per_unit, self.household, self.cells, self.hour_totals, self.daily = {}, {}, {}, {}, {}
        for season in ("winter", "summer"):
            per_unit, household, cells = [], [], []
            for row in rows:
                tou, units = (row.tou_winter, row.units_winter) if season == "winter" else (
                    row.tou_summer, row.units_summer)
                unit_wh = (row.run_watts * row.run_fraction + row.idle_watts * row.idle_fraction) * tou
                per_unit.append(unit_wh)
                household.append(units * unit_wh)
                cells.append([units * unit_wh * w for w in shapes[row.operation]])
            self.per_unit[season], self.household[season], self.cells[season] = per_unit, household, cells
            self.hour_totals[season] = [math.fsum(c[h] for c in cells) for h in range(24)]
            self.daily[season] = math.fsum(household)

    def daily_wh(self, season: str) -> float:
        return self.daily[season]

    def monthly_kwh(self, season: str) -> float:
        return self.daily_wh(season) * 30 / 1000

    def share(self, season: str, index: int) -> float:
        return 100 * self.household[season][index] / self.daily_wh(season)


def verify(check, text: str) -> str | None:
    """Run one check; return the defect it found, or None for a correct payload."""
    try:
        check(text)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _reject_constant(name: str):
    raise OracleError(f"non-finite number {name} in JSON")


def strict_json(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise OracleError(f"invalid JSON: {exc}") from None


def csv_rows(text: str, header: tuple[str, ...], count: int) -> list[list[str]]:
    """Data rows of a CSV payload, which must have exactly ``count`` of them."""
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise OracleError(f"malformed CSV: {exc}") from None
    if not rows or tuple(rows[0]) != header:
        raise OracleError(f"CSV header {rows[0] if rows else None} != {list(header)}")
    data = rows[1:]
    if len(data) != count:
        raise OracleError(f"CSV has {len(data)} data rows, expected {count}")
    for number, row in enumerate(data, start=2):
        if len(row) != len(header):
            raise OracleError(f"CSV line {number} has {len(row)} fields, expected {len(header)}")
    return data


def _number(value, what: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise OracleError(f"{what}: not a number ({value!r})") from None
    if isinstance(value, bool) or not math.isfinite(number):
        raise OracleError(f"{what}: not a finite number ({value!r})")
    return number


def expect_close(got, want: float, what: str, scale: float | None = None, tol: float | None = None) -> None:
    """``got`` must equal ``want`` within ``tol``, by default ``REL`` of ``scale`` or of ``want``."""
    value = _number(got, what)
    if tol is None:
        tol = REL * abs(want if scale is None else scale)
    if not abs(value - want) <= tol:
        raise OracleError(f"{what}: got {value!r}, expected {want!r} (tolerance {tol:.3g})")


def expect_equal(got, want, what: str) -> None:
    if got != want:
        raise OracleError(f"{what}: got {got!r}, expected {want!r}")


def check_validate(text: str, entries: int) -> None:
    expect_equal(strict_json(text), {"valid": True, "entries": entries, "error": None}, "validate payload")


def check_composition_json(text: str, model: CatalogModel) -> None:
    payload = strict_json(text)
    expect_equal(payload["days_per_month"], 30, "days_per_month")
    expect_equal(list(payload["seasons"]), ["winter", "summer"], "seasons")
    count = len(model.activities)
    for season, entry in payload["seasons"].items():
        expect_close(entry["daily_total_wh"], model.daily_wh(season), f"{season} daily_total_wh")
        expect_close(entry["monthly_total_kwh"], model.monthly_kwh(season), f"{season} monthly_total_kwh")
        rows, pie = entry["rows"], entry["pie"]
        expect_equal(len(rows), count, f"{season} row count")
        expect_equal(len(pie), count, f"{season} pie count")
        for i, (row, slice_) in enumerate(zip(rows, pie)):
            expect_equal(row["activity"], model.activities[i], f"{season} row {i} activity")
            expect_equal(slice_["label"], model.activities[i], f"{season} pie {i} label")
            expect_close(row["household_wh_day"], model.household[season][i], f"{season} row {i} household_wh_day")
            share = model.share(season, i)
            expect_close(row["share_pct"], share, f"{season} row {i} share_pct", scale=100)
            expect_close(slice_["percent"], share, f"{season} pie {i} percent", scale=100)
        expect_close(math.fsum(row["share_pct"] for row in rows), 100.0, f"{season} share sum")


def check_composition_csv(text: str, model: CatalogModel) -> None:
    count = len(model.activities)
    data = csv_rows(text, ("activity", "season", "per_unit_wh_day", "household_wh_day", "share_pct"), 2 * count)
    for n, row in enumerate(data):
        season, i = ("winter", n) if n < count else ("summer", n - count)
        expect_equal(row[:2], [model.activities[i], season], f"CSV row {n + 1}")
        # cells are rounded half-up to one decimal
        for got, want in ((row[2], model.per_unit[season][i]), (row[3], model.household[season][i]),
                          (row[4], model.share(season, i))):
            expect_close(got, want, f"CSV row {n + 1}", tol=0.05 + REL * abs(want))


def check_synth_json(text: str, model: CatalogModel, season: str) -> None:
    payload = strict_json(text)
    expect_equal(payload["season"], season, "season")
    activities = payload["activities"]
    expect_equal(list(activities), model.activities, "activities")
    for i, series in enumerate(activities.values()):
        expect_equal(len(series), 24, f"activity {i} hours")
        for hour, value in enumerate(series):
            expect_close(value, model.cells[season][i][hour], f"activity {i} hour {hour}",
                         scale=model.household[season][i])
    daily = model.daily_wh(season)
    expect_equal(len(payload["household_total"]), 24, "household_total hours")
    for hour, value in enumerate(payload["household_total"]):
        expect_close(value, model.hour_totals[season][hour], f"household_total hour {hour}", scale=daily)
    expect_close(payload["daily_total_wh"], daily, "daily_total_wh")
    expect_close(math.fsum(payload["household_total"]), payload["daily_total_wh"], "household_total sum")


def check_synth_csv(text: str, model: CatalogModel, season: str) -> None:
    count = len(model.activities)
    data = csv_rows(text, ("hour", "activity", "wh"), 24 * count)
    for n, row in enumerate(data):
        hour, i = divmod(n, count)
        expect_equal(row[:2], [str(hour), model.activities[i]], f"CSV row {n + 1}")
        expect_close(row[2], model.cells[season][i][hour], f"CSV row {n + 1} wh", scale=model.household[season][i])


def _expected_attribution(kw: list[float], season: str, model: CatalogModel, hour: int, i: int) -> float:
    return kw[hour] * (model.cells[season][i][hour] / model.hour_totals[season][hour])


def check_reconcile_json(text: str, kw: list[float], season: str, model: CatalogModel | None) -> None:
    """``model`` is None for the built-in catalog, whose totals the paper gives."""
    payload = strict_json(text)
    expect_equal(payload["season"], season, "season")
    measured = math.fsum(kw) * 30
    expect_close(payload["measured_kwh_month"], measured, "measured_kwh_month")
    bottom_up = payload["bottom_up_kwh_month"]
    if model is None:
        expect_close(bottom_up, BUILTIN_MONTHLY_KWH[season], "bottom_up_kwh_month", tol=0.005)
        activities = BUILTIN_ACTIVITIES
    else:
        expect_close(bottom_up, model.monthly_kwh(season), "bottom_up_kwh_month")
        activities = len(model.activities)
    expect_close(payload["scale_factor"], measured / bottom_up, "scale_factor")
    gap = abs(1 - bottom_up / measured)
    expect_close(payload["relative_gap"], gap, "relative_gap", scale=max(gap, 1.0))
    expect_equal(payload["gap_warning"], gap > GAP_WARNING, "gap_warning")

    rows = payload["adjusted_rows"]
    expect_equal(len(rows), activities, "adjusted row count")
    expect_close(math.fsum(row["household_wh_day"] for row in rows) * 30 / 1000, measured, "adjusted monthly total")
    if model is not None:
        for i, row in enumerate(rows):
            expect_equal(row["activity"], model.activities[i], f"adjusted row {i} activity")
            expect_close(row["household_wh_day"], model.household[season][i] * measured / bottom_up,
                         f"adjusted row {i} household_wh_day", scale=measured)
    expect_equal(len(payload["attributed_shares_pct"]), activities, "attributed share count")
    expect_close(math.fsum(payload["attributed_shares_pct"].values()), 100.0, "attributed share sum")

    attribution = payload["attribution"]
    expect_equal(len(attribution), 24, "attribution hours")
    for hour, entry in enumerate(attribution):
        expect_equal(entry["hour"], hour, "attribution hour")
        values = list(entry["kw"].values())
        expect_equal(len(values), activities, f"hour {hour} activity count")
        expect_close(math.fsum(values), kw[hour], f"hour {hour} attributed kW")
        if model is not None:
            for i, value in enumerate(values):
                expect_close(value, _expected_attribution(kw, season, model, hour, i),
                             f"hour {hour} activity {i} kW", scale=kw[hour])


def check_reconcile_csv(text: str, kw: list[float], season: str, model: CatalogModel) -> None:
    count = len(model.activities)
    data = csv_rows(text, ("hour", "activity", "kw"), 24 * count)
    for hour in range(24):
        block = data[hour * count:(hour + 1) * count]
        values = []
        for i, row in enumerate(block):
            expect_equal(row[:2], [str(hour), model.activities[i]], f"CSV hour {hour} row {i}")
            values.append(_number(row[2], f"CSV hour {hour} row {i} kw"))
            expect_close(values[-1], _expected_attribution(kw, season, model, hour, i),
                         f"CSV hour {hour} row {i} kw", scale=kw[hour])
        expect_close(math.fsum(values), kw[hour], f"CSV hour {hour} attributed kW")


def _expect_normalized(pairs, series: Series) -> None:
    """(timestamp, fraction) pairs: one per sample, exactly one 1.0, at the peak."""
    peak = max(series.kw)
    at_peak = series.kw.index(peak)
    ones = []
    for i, ((stamp, fraction), want_stamp, value) in enumerate(zip(pairs, series.stamps, series.kw)):
        expect_equal(stamp, want_stamp, f"normalized {i} timestamp")
        expect_close(fraction, value / peak, f"normalized {i} fraction")
        if fraction == 1.0:
            ones.append(i)
    expect_equal(ones, [at_peak], "indexes of fraction 1.0")


def check_profile_json(text: str, series: Series) -> None:
    payload = strict_json(text)
    n = len(series.kw)
    peak = max(series.kw)
    expect_equal(payload["label"], series.label, "label")
    expect_equal(payload["granularity"], series.granularity, "granularity")
    expect_equal(payload["samples"], n, "samples")
    expect_equal(payload["peak_kw"], peak, "peak_kw")
    expect_close(payload["peak_average_ratio"], math.fsum(series.kw) / n / peak, "peak_average_ratio")
    normalized = payload["normalized"]
    expect_equal(len(normalized), n, "normalized count")
    _expect_normalized(((item["timestamp"], item["fraction"]) for item in normalized), series)
    expect_equal(payload["daily_extrema"], None, "daily_extrema")

    split = payload["seasonal_split"]
    for season in ("winter", "summer"):
        part = [kw for stamp, kw in zip(series.stamps, series.kw) if season_for_month(int(stamp[5:7])) == season]
        expect_equal(split[season]["samples"], len(part), f"{season} samples")
        expect_close(split[season]["mean_kw"], math.fsum(part) / len(part), f"{season} mean_kw")
        expect_equal(split[season]["peak_kw"], max(part), f"{season} peak_kw")

    growth = payload["monthly_growth_pct"]
    if series.granularity == "hourly":
        expect_equal(growth, None, "monthly_growth_pct")
        return
    expect_equal(len(growth), n * (n - 1) // 2, "growth pair count")
    pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
    for entry, (i, j) in zip(growth, pairs):
        expect_equal((entry["from"], entry["to"]), (series.stamps[i][:7], series.stamps[j][:7]), "growth months")
        expect_close(entry["pct"], 100 * (series.kw[j] - series.kw[i]) / series.kw[i],
                     f"growth {i}->{j}", scale=100)


def check_profile_csv(text: str, series: Series) -> None:
    data = csv_rows(text, ("timestamp", "fraction"), len(series.kw))
    _expect_normalized(((stamp, _number(fraction, "fraction")) for stamp, fraction in data), series)
