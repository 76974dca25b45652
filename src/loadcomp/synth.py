"""Synthesized 24-hour energy shapes per activity.

The operation class decides how occupant presence shapes a device's day:
automatic devices spread their daily energy uniformly, manual devices
follow the occupancy curve, and semi-automatic devices take the midpoint
of the two. A synthesized day is a plain dict from activity to its 24
hourly Wh, in catalog order; each activity's hourly series sums back to
its household daily energy.
"""

from __future__ import annotations

import functools
from itertools import repeat
from operator import mul

from ._sourceio import read_text
from .catalog import OperationClass, _Frozen
from .composition import SeasonalConsumptionTable, ordered_sum

WEIGHT_SUM_TOL = 1e-12

# Default presence weighting: quietest at 06:00, busiest at 15:00, with an
# elevated evening plateau. Normalized on construction; override per run
# with a 24-value occupancy file.
DEFAULT_OCCUPANCY_RAW = (
    0.50, 0.42, 0.36, 0.31, 0.28, 0.26, 0.25, 0.30, 0.40, 0.52, 0.64, 0.75,
    0.85, 0.92, 0.97, 1.00, 0.97, 0.93, 0.89, 0.87, 0.84, 0.76, 0.66, 0.56,
)


class OccupancyError(ValueError):
    """Occupancy curve data is malformed."""


class OccupancyCurve(_Frozen):
    """24 hourly presence weights summing to 1."""

    weights: tuple[float, ...]

    def __init__(self, weights: tuple[float, ...]) -> None:
        weights = tuple(weights)  # a caller's list could change after the checks
        if len(weights) != 24:
            raise OccupancyError(f"expected 24 occupancy values, got {len(weights)}")
        if not all(w >= 0 for w in weights):  # false for nan too; an inf breaks the sum rule
            raise OccupancyError("occupancy values must be finite and non-negative")
        total = ordered_sum(weights)
        if total == 0:
            raise OccupancyError("occupancy values must not all be zero")
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise OccupancyError("occupancy values must sum to 1")
        vars(self).update(weights=weights)

    @classmethod
    def from_values(cls, values) -> OccupancyCurve:
        """Normalize raw non-negative values to sum to 1."""
        values = tuple(float(v) for v in values)
        largest = max(values, default=0.0)
        if largest > 0:  # scaled first, so that large finite values cannot overflow the sum
            values = tuple(v / largest for v in values)
        total = ordered_sum(values)
        # A non-positive total cannot be normalized; the weight rule then names the fault.
        return cls(weights=values if total <= 0 else tuple(v / total for v in values))


@functools.cache  # the curve is constant and immutable, so one per process serves every caller
def default_occupancy() -> OccupancyCurve:
    return OccupancyCurve.from_values(DEFAULT_OCCUPANCY_RAW)


def load_occupancy(path) -> OccupancyCurve:
    """Read an occupancy file of 24 comma-separated non-negative numbers; an unreadable file is an OccupancyError."""
    text = read_text(path, "occupancy", OccupancyError)
    parts = [part.strip() for part in text.replace("\n", ",").split(",")]
    parts = [part for part in parts if part]
    try:
        values = [float(part) for part in parts]
    except ValueError as exc:
        raise OccupancyError(f"invalid occupancy value: {exc}") from None
    return OccupancyCurve.from_values(values)


def shape_for(operation: OperationClass, occupancy: OccupancyCurve) -> tuple[float, ...]:
    """24 hourly weights summing to 1: the daily shape of every activity of one operation class."""
    uniform = 1.0 / 24.0
    if operation is OperationClass.AUTO:
        return (uniform,) * 24
    if operation is OperationClass.MANUAL:
        return occupancy.weights
    # SEMI_AUTO: midpoint of uniform and occupancy, renormalized
    mixed = tuple((uniform + w) / 2.0 for w in occupancy.weights)
    total = ordered_sum(mixed)
    return tuple(w / total for w in mixed)


def synth_household_day(table: SeasonalConsumptionTable, occupancy: OccupancyCurve) -> dict[str, tuple[float, ...]]:
    """Spread each activity's household daily energy over 24 hours by the shape of its operation class."""
    shapes = {operation: shape_for(operation, occupancy) for operation in OperationClass}
    # mul, not the energy's __mul__: an int's returns NotImplemented
    return {
        activity: tuple(map(mul, repeat(energy), shapes[operation]))
        for activity, energy, operation in zip(table.activities, table.household_daily_wh, table.operations)
    }


def household_total(day: dict[str, tuple[float, ...]]) -> tuple[float, ...]:
    """The Wh of every activity of a synthesized day at each hour, added left to right in catalog order."""
    return tuple(map(ordered_sum, zip(*day.values())))
