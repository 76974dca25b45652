"""Bottom-up energy math: the seasonal table of device energies, and composition shares.

A device with time of use ``t`` hours/day draws its rated wattage for
``run_fraction`` of that time and its idle wattage for the rest, so one
unit consumes ``(run_watts * run_fraction + idle_watts * idle_fraction) * t``
Wh/day; the household total for an activity multiplies by the unit count.
:func:`seasonal_table` is the one place that evaluates this rule; shares,
synthesized days and reconciliation all read its columns.
Shares are each activity's percentage of the household daily total.
"""

from __future__ import annotations

import sys
from functools import reduce
from operator import add, mul
from typing import NamedTuple

from .catalog import Catalog, OperationClass, Season

if sys.version_info >= (3, 12):  # from 3.12, sum() compensates the rounding of floats and can change a last digit
    def ordered_sum(values):
        """``sum(values)`` as Python 3.11 computes it: added left to right, from 0."""
        return reduce(add, values, 0)
else:
    ordered_sum = sum


class CompositionError(ValueError):
    """A composition request cannot be satisfied (zero basis, bad arguments)."""


class SeasonalConsumptionTable(NamedTuple):
    """One season's daily energy and operation class of each activity, as columns in catalog order."""

    season: Season
    activities: tuple[str, ...]
    units: tuple[int, ...]
    per_unit_daily_wh: tuple[float, ...]
    household_daily_wh: tuple[float, ...]
    operations: tuple[OperationClass, ...]
    days_per_month: int

    @property
    def daily_total_wh(self) -> float:
        return ordered_sum(self.household_daily_wh)

    @property
    def monthly_total_kwh(self) -> float:
        return self.daily_total_wh * self.days_per_month / 1000.0


def seasonal_table(catalog: Catalog, season: Season, days_per_month: int = 30) -> SeasonalConsumptionTable:
    """Tabulate per-activity daily energy and household totals for a season."""
    if not 1 <= days_per_month <= 31:
        raise CompositionError(f"days_per_month must be between 1 and 31 (got {days_per_month})")
    units = tuple(spec.units(season) for spec in catalog)
    per_unit = tuple((spec.run_watts * spec.run_fraction + spec.idle_watts * spec.idle_fraction) * spec.tou(season)
                     for spec in catalog)
    return SeasonalConsumptionTable(season, tuple(spec.activity for spec in catalog), units, per_unit,
                                    tuple(map(mul, units, per_unit)), tuple(spec.operation for spec in catalog),
                                    days_per_month)


def composition_shares(table: SeasonalConsumptionTable) -> dict[str, float]:
    """Each activity's percentage of the table's household daily total, in catalog order."""
    total = table.daily_total_wh
    if total <= 0:
        raise CompositionError("empty composition basis")
    return {activity: 100.0 * energy / total for activity, energy in zip(table.activities, table.household_daily_wh)}
