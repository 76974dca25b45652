"""Bottom-up energy math: device energy, household totals, and composition shares.

A device with time of use ``t`` hours/day draws its rated wattage for
``run_fraction`` of that time and its idle wattage for the rest, so one
unit consumes ``(run_watts * run_fraction + idle_watts * idle_fraction) * t``
Wh/day; the household total for an activity multiplies by the unit count.
Shares are each activity's percentage of the household daily total.
"""

from __future__ import annotations

from typing import NamedTuple

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
