"""Bottom-up energy math: device energy, household totals, and composition shares.

A device with time of use ``t`` hours/day draws its rated wattage for
``run_fraction`` of that time and its idle wattage for the rest, so one
unit consumes ``(run_watts * run_fraction + idle_watts * idle_fraction) * t``
Wh/day; the household total for an activity multiplies by the unit count.
Shares are each activity's percentage of the household daily total.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from ._sourceio import csv_text
from .catalog import ApplianceSpec, Catalog, Season


class CompositionError(ValueError):
    """A composition request cannot be satisfied (zero basis, bad arguments)."""


def device_daily_energy(spec: ApplianceSpec, season: Season) -> float:
    """Daily energy of a single unit, in Wh/day."""
    blended_watts = spec.run_watts * spec.run_fraction + spec.idle_watts * spec.idle_fraction
    return blended_watts * spec.tou(season)


def household_device_energy(spec: ApplianceSpec, season: Season) -> float:
    """Daily energy of all units of the activity in the household, in Wh/day."""
    return spec.units(season) * device_daily_energy(spec, season)


class DeviceEnergy(NamedTuple):
    """One activity's daily energy for one season."""

    activity: str
    units: int
    per_unit_daily_wh: float
    household_daily_wh: float


class SeasonalConsumptionTable(NamedTuple):
    """Per-activity daily energies for one season, in catalog order."""

    season: Season
    rows: tuple[DeviceEnergy, ...]
    days_per_month: int = 30

    @property
    def daily_total_wh(self) -> float:
        return sum(row.household_daily_wh for row in self.rows)

    @property
    def monthly_total_kwh(self) -> float:
        return self.daily_total_wh * self.days_per_month / 1000.0


def seasonal_table(catalog: Catalog, season: Season, days_per_month: int = 30) -> SeasonalConsumptionTable:
    """Tabulate per-activity daily energy and household totals for a season."""
    if not 1 <= days_per_month <= 31:
        raise CompositionError(f"days_per_month must be between 1 and 31 (got {days_per_month})")
    rows = []
    for spec in catalog:  # household_device_energy's product, with the device energy computed once
        units, per_unit = spec.units(season), device_daily_energy(spec, season)
        rows.append(DeviceEnergy(spec.activity, units, per_unit, units * per_unit))
    return SeasonalConsumptionTable(season=season, rows=tuple(rows), days_per_month=days_per_month)


def composition_shares(catalog: Catalog, season: Season) -> dict[str, float]:
    """Each activity's percentage of the household daily total for a season, in catalog order."""
    energies = [(spec.activity, household_device_energy(spec, season)) for spec in catalog]
    total = sum(energy for _, energy in energies)
    if total <= 0:
        raise CompositionError("empty composition basis")
    return {activity: 100.0 * energy / total for activity, energy in energies}


def render_value(value: float, decimals: int = 1) -> str:
    """``value`` rounded half up at ``decimals`` (0 or 1) places on the digits of its ``repr``, with no '.0'."""
    text = repr(value)
    mantissa, _, exponent = text.lstrip("-").partition("e")
    whole, _, fraction = mantissa.partition(".")
    shift = int(exponent or 0) - len(fraction) + decimals  # |value| is the digits times 10**shift last places
    digits = int(whole + fraction)
    if shift < 0:  # dividing by scale drops the digits below the last place; adding half of it first rounds up
        scale = 10 ** -shift
        digits = (digits + scale // 2) // scale
    elif shift:
        digits *= 10 ** shift
    units, tenths = divmod(digits, 10) if decimals else (digits, 0)
    rounded = f"{units}.{tenths}" if tenths else str(units)
    return "-" + rounded if text[0] == "-" else rounded


def table_csv(pairs: Iterable[tuple[SeasonalConsumptionTable, dict[str, float]]]) -> str:
    """Render one or more (table, shares) pairs as CSV, one row per activity."""
    cells = [
        (
            row.activity,
            table.season.value,
            render_value(row.per_unit_daily_wh),
            render_value(row.household_daily_wh),
            render_value(shares[row.activity]),
        )
        for table, shares in pairs
        for row in table.rows
    ]
    header = ("activity", "season", "per_unit_wh_day", "household_wh_day", "share_pct")
    return csv_text(dict(zip(header, zip(*cells))))


def table_json(table: SeasonalConsumptionTable, shares: dict[str, float]) -> dict:
    """JSON-ready dict for one season, full precision values."""
    return {
        "season": table.season.value,
        "days_per_month": table.days_per_month,
        "daily_total_wh": table.daily_total_wh,
        "monthly_total_kwh": table.monthly_total_kwh,
        "rows": [
            {
                "activity": row.activity,
                "units": row.units,
                "per_unit_wh_day": row.per_unit_daily_wh,
                "household_wh_day": row.household_daily_wh,
                "share_pct": shares[row.activity],
            }
            for row in table.rows
        ],
    }


def pie_data(shares: dict[str, float], integer_percent: bool = False) -> list[dict]:
    """Pie-chart-ready share list; integer rounding is presentation only."""
    return [
        {"label": activity, "percent": int(render_value(share, 0)) if integer_percent else share}
        for activity, share in shares.items()
    ]
