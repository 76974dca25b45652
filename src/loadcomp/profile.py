"""Measured load profiles: CSV ingestion, peak normalization, and summary statistics.

Profiles are ordered (timestamp, power-in-kW) series at hourly or monthly
granularity. Normalization divides every sample by the series peak, so the
peak sample maps to exactly 1.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import statistics
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from ._sourceio import read_text
from .catalog import Season

PROFILE_CSV_HEADER = ("timestamp", "power_kw")


class ProfileError(ValueError):
    """Profile data cannot be parsed or an operation's precondition fails."""


class Granularity(enum.Enum):
    HOURLY = "hourly"
    MONTHLY_AVERAGE = "monthly-average"
    MONTHLY_PEAK = "monthly-peak"


@dataclass(frozen=True)
class LoadProfile:
    """Timestamped power series in kW.

    Power is finite and non-negative; timestamps strictly increase and are all
    naive or all offset-aware; a monthly profile has at most one sample per
    calendar month. Errors name a sample by its CSV row (the first is row 2).
    Parsed profiles are never empty; :func:`seasonal_split` may return an
    empty sub-profile when the input has no samples in that season.
    """

    samples: tuple[tuple[datetime, float], ...]
    granularity: Granularity
    label: str = ""

    def __post_init__(self) -> None:
        previous = None
        months = None if self.granularity is Granularity.HOURLY else set()
        for rownum, (ts, power) in enumerate(self.samples, start=2):  # header is row 1
            if not math.isfinite(power):
                raise ProfileError(f"row {rownum}: power must be a finite number")
            if power < 0:
                raise ProfileError(f"row {rownum}: negative power {power}")
            if previous is not None and (ts.utcoffset() is None) != (previous.utcoffset() is None):
                raise ProfileError(f"row {rownum}: cannot mix naive and offset-aware timestamps")
            if previous is not None and ts <= previous:
                raise ProfileError(f"row {rownum}: timestamps must be strictly increasing")
            if months is not None:
                if (ts.year, ts.month) in months:
                    raise ProfileError(f"row {rownum}: {self.granularity.value} profile has two samples in {ts:%Y-%m}")
                months.add((ts.year, ts.month))
            previous = ts

    def __len__(self) -> int:
        return len(self.samples)

    @cached_property  # computed once per instance; frozen does not stop it writing __dict__
    def powers(self) -> tuple[float, ...]:
        return tuple(power for _, power in self.samples)

    @cached_property
    def timestamps(self) -> tuple[datetime, ...]:
        return tuple(ts for ts, _ in self.samples)

    @cached_property
    def peak_kw(self) -> float:
        return max(self.powers, default=0.0)

    @cached_property
    def mean_kw(self) -> float:
        """Correctly rounded mean power; an empty profile raises ``StatisticsError``."""
        return statistics.fmean(self.powers)


class DailyExtrema(NamedTuple):
    peak_hour: int
    trough_hour: int


def parse_profile(source, granularity: Granularity | None = None, label: str = "") -> LoadProfile:
    """Parse a power series from CSV with header ``timestamp,power_kw``.

    Timestamps are ISO-8601; :class:`LoadProfile` checks the samples. When
    ``granularity`` is not given it is inferred: samples all stamped at
    midnight on the first of distinct months are monthly averages, anything
    else is hourly (monthly-peak must be declared explicitly).
    """
    text = read_text(source)
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ProfileError("empty profile: no samples")
    have = tuple(name.strip() for name in header)
    if have != PROFILE_CSV_HEADER:
        raise ProfileError(f"expected header {','.join(PROFILE_CSV_HEADER)!r}, got {','.join(have)!r}")

    samples: list[tuple[datetime, float]] = []
    # blank lines are not numbered; a missing power reads as "" and extra cells are ignored
    for rownum, row in enumerate(filter(None, reader), start=2):  # header is line 1
        raw_ts, raw_power, *_ = *map(str.strip, row), ""
        try:
            ts = datetime.fromisoformat(raw_ts)
        except ValueError:
            raise ProfileError(f"row {rownum}: invalid timestamp {raw_ts!r}") from None
        try:
            power = float(raw_power)
        except ValueError:
            raise ProfileError(f"row {rownum}: invalid power {raw_power!r}") from None
        samples.append((ts, power))
    if not samples:
        raise ProfileError("empty profile: no samples")

    if granularity is None:
        granularity = _infer_granularity(samples)
    return LoadProfile(samples=tuple(samples), granularity=granularity, label=label)


def _infer_granularity(samples: list[tuple[datetime, float]]) -> Granularity:
    def is_month_start(ts: datetime) -> bool:
        return ts.day == 1 and ts.hour == 0 and ts.minute == 0 and ts.second == 0 and ts.microsecond == 0

    # one month start at two UTC offsets is not monthly data
    if (len(samples) > 1 and all(is_month_start(ts) for ts, _ in samples)
            and len({(ts.year, ts.month) for ts, _ in samples}) == len(samples)):
        return Granularity.MONTHLY_AVERAGE
    return Granularity.HOURLY


def load_profile(path, granularity: Granularity | None = None) -> LoadProfile:
    path = Path(path)
    return parse_profile(path, granularity=granularity, label=path.stem)


def normalize(profile: LoadProfile) -> tuple[float, ...]:
    """Each sample's fraction of the series peak, in sample order; the peak maps to exactly 1."""
    peak = profile.peak_kw
    if peak <= 0:
        raise ProfileError("zero peak")
    return tuple(power / peak for power in profile.powers)


def peak_average_ratio(profile: LoadProfile) -> float:
    """Mean power divided by peak power; in (0, 1] for any non-zero profile."""
    peak = profile.peak_kw
    if peak <= 0:
        raise ProfileError("zero peak")
    # the mean can round one ulp above the peak for near-constant series
    return min(profile.mean_kw / peak, 1.0)


def monthly_growth(profile: LoadProfile) -> list[tuple[datetime, datetime, float]]:
    """Percentage change from every sample of a monthly profile to each later one.

    One ``(from_ts, to_ts, pct)`` tuple per sample pair i < j, in sample order.
    A zero-power sample is never a base, but is kept as a target.
    """
    if profile.granularity is Granularity.HOURLY:
        raise ProfileError("monthly granularity required")
    samples = profile.samples
    return [
        (ts_from, ts_to, 100.0 * (p_to - p_from) / p_from)
        for i, (ts_from, p_from) in enumerate(samples)
        if p_from != 0
        for ts_to, p_to in samples[i + 1:]
    ]


def seasonal_split(profile: LoadProfile) -> dict[Season, LoadProfile]:
    """Partition samples by season; together the two halves cover the input."""
    buckets: dict[Season, list[tuple[datetime, float]]] = {Season.WINTER: [], Season.SUMMER: []}
    by_month = [None, *(buckets[Season.for_month(month)] for month in range(1, 13))]
    for sample in profile.samples:
        by_month[sample[0].month].append(sample)
    return {
        season: LoadProfile(samples=tuple(samples), granularity=profile.granularity, label=profile.label)
        for season, samples in buckets.items()
    }


def daily_extrema(profile: LoadProfile) -> DailyExtrema:
    """Hours of maximum and minimum power in a one-day hourly profile.

    Ties are broken toward the earliest hour.
    """
    if profile.granularity is not Granularity.HOURLY:
        raise ProfileError("hourly granularity required")
    dates = {ts.date() for ts, _ in profile.samples}
    if len(dates) != 1:
        raise ProfileError(f"single-day profile required (spans {len(dates)} days)")

    peak_hour, peak = profile.samples[0][0].hour, profile.samples[0][1]
    trough_hour, trough = peak_hour, peak
    for ts, power in profile.samples[1:]:
        if power > peak:
            peak_hour, peak = ts.hour, power
        if power < trough:
            trough_hour, trough = ts.hour, power
    return DailyExtrema(peak_hour=peak_hour, trough_hour=trough_hour)
