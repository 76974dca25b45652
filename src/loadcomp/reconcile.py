"""Reconciliation of the bottom-up model with measured data.

Two steps: scale the modeled seasonal table so its monthly energy matches
the measured total (shares are ratios, so they are unchanged), and split
each measured hour across activities in proportion to the synthesized
hourly energies, conserving the measured power at every hour. Both steps
read one :class:`SeasonalModel`: the table, and the weights and empty
hours of its synthesized day.
"""

from __future__ import annotations

import math
import weakref
from itertools import compress, repeat
from operator import mul, truediv
from typing import NamedTuple

from .catalog import Catalog, Season
from .composition import SeasonalConsumptionTable, ordered_sum, seasonal_table
from .profile import Granularity, LoadProfile
from .synth import OccupancyCurve, household_total, synth_household_day

# Above this relative gap the catalog is probably not representative of the
# measured household; reports carry a warning.
GAP_WARNING_THRESHOLD = 0.25


class ReconcileError(ValueError):
    """Reconciliation preconditions are not met."""


class ReconciliationResult(NamedTuple):
    """Scaled seasonal table plus the measured-vs-modeled diagnostics."""

    scale_factor: float
    measured_energy_kwh: float
    bottom_up_energy_kwh: float
    relative_gap: float
    adjusted_table: SeasonalConsumptionTable

    @property
    def gap_warning(self) -> bool:
        return self.relative_gap > GAP_WARNING_THRESHOLD


class HourlyAttribution(NamedTuple):
    """Per-hour split of measured power (kW) across activities.

    For every measured sample the per-activity values sum back to the
    measured power at that hour.
    """

    by_activity: dict[str, tuple[float, ...]]
    measured: LoadProfile
    model: SeasonalModel  # the model whose weights split ``measured``


def _check_one_hourly_day(measured: LoadProfile) -> None:
    """Raise :class:`ReconcileError` unless ``measured`` holds one sample for each hour 0-23 of one date."""
    if measured.granularity is not Granularity.HOURLY:
        raise ReconcileError(f"granularity mismatch: need hourly, got {measured.granularity.value}")
    days = set(measured.days)
    if len(days) != 1 or measured.hours != tuple(range(24)):
        raise ReconcileError(
            "granularity mismatch: need one sample for each hour 0-23 of one date, "
            f"got {len(measured)} samples on {len(days)} date(s)"
        )


def scale_to_measured(attribution: HourlyAttribution) -> ReconciliationResult:
    """The model's table, its two energy columns scaled so its monthly total is ``table.days_per_month`` measured days.

    :func:`disaggregate` checked that the measured day is one hourly day, so a kW sample over its hour is that many
    kWh, and that the table's total is positive.
    """
    table, measured = attribution.model.table, attribution.measured
    bottom_up = table.monthly_total_kwh
    measured_energy_kwh = ordered_sum(measured.powers) * table.days_per_month
    if measured_energy_kwh <= 0:
        raise ReconcileError("zero measured energy")
    k = measured_energy_kwh / bottom_up
    gap = abs(1.0 - bottom_up / measured_energy_kwh)
    if not all(map(math.isfinite, (k, gap, measured_energy_kwh, bottom_up))):  # a ratio of extreme inputs overflows
        raise ReconcileError("a result is not a finite number; an input value is out of range")
    adjusted = table._replace(per_unit_daily_wh=tuple(map(mul, table.per_unit_daily_wh, repeat(k))),
                              household_daily_wh=tuple(map(mul, table.household_daily_wh, repeat(k))))
    return ReconciliationResult(
        scale_factor=k,
        measured_energy_kwh=measured_energy_kwh,
        bottom_up_energy_kwh=bottom_up,
        relative_gap=gap,
        adjusted_table=adjusted,
    )


class SeasonalModel(NamedTuple):
    """A seasonal table, each activity's ``hourly / total`` of its synthesized day, and the hours of no total."""

    table: SeasonalConsumptionTable
    weights: tuple[tuple[str, tuple[float, ...]], ...]
    empty_hours: tuple[int, ...]  # the hours whose total is <= 0, in order


# Each catalog's latest model and its occupancy weights per (season, month length); it lives as long as its catalog.
_MODELS: weakref.WeakKeyDictionary[Catalog, dict] = weakref.WeakKeyDictionary()


def seasonal_model(catalog: Catalog, season: Season, days_per_month: int, occupancy: OccupancyCurve) -> SeasonalModel:
    """The model of ``catalog``'s table for ``season``, built once and kept until a call with other weights."""
    models = _MODELS.setdefault(catalog, {})
    held, model = models.get((season, days_per_month), (None, None))
    if held != occupancy.weights:  # no weight is -0.0 or nan, so equal weights have equal bits
        table = seasonal_table(catalog, season, days_per_month)
        day = synth_household_day(table, occupancy)
        totals = household_total(day)
        # a weight stays in normal float range even when the energies are tiny; a total <= 0 divides as inf
        divisors = [total if total > 0 else math.inf for total in totals]
        weights = tuple((activity, tuple(map(truediv, hourly, divisors)))
                        for activity, hourly in day.items())
        empty_hours = tuple(compress(range(24), map((0.0).__ge__, totals)))
        model = SeasonalModel(table, weights, empty_hours)
        models[season, days_per_month] = occupancy.weights, model
    return model


def disaggregate(measured: LoadProfile, catalog: Catalog, occupancy: OccupancyCurve, days_per_month: int = 30,
                 season: Season | None = None) -> HourlyAttribution:
    """Attribute each measured hour to activities by the weights of ``catalog``'s model for the measured day.

    ``measured`` must hold one sample for each hour 0-23 of one date. The model is :func:`seasonal_model`'s for
    ``season``, by default the season of the measured date's month. Hours with zero measured power get zero
    attribution everywhere; a model of no energy, or positive measured power at an hour where the synthesized
    household total is zero, raises :class:`ReconcileError`.
    """
    _check_one_hourly_day(measured)
    model = seasonal_model(catalog, season or Season.for_month(measured.months[0]), days_per_month, occupancy)
    if model.table.monthly_total_kwh <= 0:  # named before any hour: every hour of such a model is empty
        raise ReconcileError("zero bottom-up total")
    # an hour of zero measured power (-0.0 too) attributes 0.0 * weight, a zero, to every activity
    powers = [*map(abs, measured.powers)]  # a power is >= 0, so abs only turns -0.0 into 0.0
    for hour in model.empty_hours:
        if powers[hour]:
            raise ReconcileError(
                f"unattributable load at hour {hour}: measured power is positive "
                "but the synthesized household total is zero"
            )
    series = {activity: tuple(map(mul, powers, weights)) for activity, weights in model.weights}
    return HourlyAttribution(series, measured, model)


def composition_from_attribution(attribution: HourlyAttribution) -> dict[str, float]:
    """Shares of total attributed energy per activity over the measured day."""
    # hourly samples: kW over one hour = kWh
    energies = {activity: ordered_sum(series) for activity, series in attribution.by_activity.items()}
    total = ordered_sum(energies.values())
    if total <= 0:
        raise ReconcileError("zero total attributed energy")
    return {activity: 100.0 * energy / total for activity, energy in energies.items()}
