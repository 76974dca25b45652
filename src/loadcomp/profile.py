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
from datetime import datetime
from functools import cached_property
from itertools import compress, count, repeat
from operator import attrgetter, contains, itemgetter, lt, not_, truediv

from ._sourceio import read_text
from .catalog import WINTER_MONTHS, Season, _Frozen

PROFILE_CSV_HEADER = ("timestamp", "power_kw")
MAX_POWER_KW = 1e9  # keeps sums, means and day-to-month scaling finite
MIN_POWER_KW = 1e-6  # a non-zero power is at least this, so no ratio of a power to an energy overflows


class ProfileError(ValueError):
    """Profile data cannot be parsed or an operation's precondition fails."""


class Granularity(enum.Enum):
    HOURLY = "hourly"
    MONTHLY_AVERAGE = "monthly-average"
    MONTHLY_PEAK = "monthly-peak"


class LoadProfile(_Frozen):
    """Timestamped power series in kW, held as two columns of equal length.

    Power is 0 or between ``MIN_POWER_KW`` and ``MAX_POWER_KW``; timestamps
    strictly increase and are all naive or all offset-aware; a monthly profile
    has at most one sample per calendar month. Errors name a sample by its CSV
    row (the first is row 2). Parsed profiles are never empty; :func:`seasonal_split`
    may return an empty sub-profile when the input has no samples in that season.
    """

    timestamps: tuple[datetime, ...]
    powers: tuple[float, ...]
    granularity: Granularity
    peak_kw: float  # the largest power, 0.0 for no samples

    def __init__(self, timestamps, powers, granularity: Granularity) -> None:
        timestamps, powers = tuple(timestamps), tuple(powers)  # a caller's list could change after the checks
        if len(timestamps) != len(powers):
            raise ProfileError(f"{len(timestamps)} timestamps but {len(powers)} powers")
        # one column test of every rule; only a series that fails it is walked, to name its first fault
        # a nan power makes the sum nan; the stamps are all naive or all aware before < meets them
        checked = ((peak := max(powers, default=0.0)) <= MAX_POWER_KW and 0 <= (low := min(powers, default=0.0))
                   and (low >= MIN_POWER_KW or min(filter(None, powers), default=MIN_POWER_KW) >= MIN_POWER_KW)
                   and (total := sum(powers)) == total
                   and (None not in (offsets := set(map(datetime.utcoffset, timestamps))) or offsets == {None})
                   and all(map(lt, timestamps, timestamps[1:]))
                   and (granularity is Granularity.HOURLY
                        or len({(ts.year, ts.month) for ts in timestamps}) == len(timestamps)))
        previous = previous_naive = None
        months = None if granularity is Granularity.HOURLY else set()
        for rownum, ts, power in () if checked else zip(count(2), timestamps, powers):  # header is row 1
            if not (MIN_POWER_KW <= power <= MAX_POWER_KW or power == 0):  # false for nan too
                if not math.isfinite(power):
                    raise ProfileError(f"row {rownum}: power must be a finite number")
                if power < 0:
                    raise ProfileError(f"row {rownum}: negative power {power}")
                if power > MAX_POWER_KW:
                    raise ProfileError(f"row {rownum}: power {power} exceeds {MAX_POWER_KW:g} kW")
                raise ProfileError(f"row {rownum}: power must be 0 or >= {MIN_POWER_KW:g} kW (got {power})")
            naive = ts.utcoffset() is None
            if previous is not None and naive != previous_naive:
                raise ProfileError(f"row {rownum}: cannot mix naive and offset-aware timestamps")
            if previous is not None and ts <= previous:
                raise ProfileError(f"row {rownum}: timestamps must be strictly increasing")
            if months is not None:
                if (ts.year, ts.month) in months:
                    raise ProfileError(f"row {rownum}: {granularity.value} profile has two samples in "
                                       f"{ts.isoformat()[:7]}")  # strftime's %Y writes year 999 as 999
                months.add((ts.year, ts.month))
            previous, previous_naive = ts, naive
        vars(self).update(timestamps=timestamps, powers=powers, granularity=granularity, peak_kw=peak)

    def __len__(self) -> int:
        return len(self.powers)

    @cached_property  # computed once per instance; cached_property writes __dict__, past the frozen guard
    def mean_kw(self) -> float:
        """Mean power, correctly rounded as ``statistics.fmean`` computes it."""
        powers = self.powers
        if not powers:
            raise ProfileError("empty profile: no samples")
        return math.fsum(powers) / len(powers)

    @cached_property  # the calendar columns: the package's one reading of dates, hours and months
    def days(self) -> tuple[int, ...]:
        """Each sample's date as its ordinal; each column is made on first read, each stamp in its own offset."""
        return tuple(map(datetime.toordinal, self.timestamps))

    @cached_property
    def hours(self) -> tuple[int, ...]:  # 0-23
        return tuple(map(attrgetter("hour"), self.timestamps))

    @cached_property
    def months(self) -> bytes:  # one byte, 1-12, per sample
        return bytes(map(attrgetter("month"), self.timestamps))

    @cached_property
    def iso_texts(self) -> tuple[str, ...]:
        """Each timestamp's ``isoformat``; :func:`parse_profile` sets the cells read when each is in that form."""
        return tuple(map(datetime.isoformat, self.timestamps))


def parse_profile(text: str, granularity: Granularity | None = None) -> LoadProfile:
    """Parse a power series from CSV with header ``timestamp,power_kw``.

    Timestamps are ISO-8601; :class:`LoadProfile` checks the samples. When
    ``granularity`` is not given it is inferred: samples all stamped at
    midnight on the first of distinct months are monthly averages, anything
    else is hourly (monthly-peak must be declared explicitly).
    """
    stamps, timestamps, powers = _columns(text)  # the other cells die in _columns, before the profile is built
    if granularity is None:
        granularity = _infer_granularity(timestamps)
    profile = LoadProfile(timestamps, powers, granularity)
    joined, n = "".join(stamps), len(timestamps)  # only YYYY-MM-DDTHH:MM:SS cells, each its own isoformat, fit
    if len(joined) == 19 * n and all(joined[at::19] == mark * n for at, mark in zip((4, 7, 10, 13, 16), "--T::")):
        vars(profile)["iso_texts"] = stamps
    return profile


def _columns(text: str) -> tuple[tuple[str, ...], tuple[datetime, ...], tuple[float, ...]]:
    """The stripped timestamp cells (``()`` after a row walk) and the columns of a profile CSV, read as csv reads it."""
    # csv splits a text with no quote or "\r" and no line over its field limit at each "\n" and each comma
    lines = [] if '"' in text or "\r" in text else text.split("\n")
    rows = [*filter(None, lines[1:])]  # blank lines are not numbered
    cells = ",".join(rows).split(",")
    if (len(cells) == 2 * len(rows) and all(map(contains, rows, repeat(",")))  # two cells in each row
            and max(map(len, lines)) <= csv.field_size_limit()):
        header, firsts, seconds = lines[0].split(","), cells[0::2], cells[1::2]
        rows = zip(firsts, seconds)  # for the row walk
    else:
        reader = csv.reader(io.StringIO(text, newline=None))  # a lone "\r" ends a line, as in a file load_profile reads
        header, rows = None, []
        try:
            header = next(reader, None)
            rows.extend(filter(None, reader))
        except csv.Error as exc:  # a cell longer than csv.field_size_limit(), say: name its row
            raise ProfileError(f"row {1 if header is None else len(rows) + 2}: {exc}") from None
        if header is None:
            raise ProfileError("empty profile: no samples")
        firsts, seconds = map(itemgetter(0), rows), map(itemgetter(1), rows)
    have = tuple(name.strip() for name in header)
    if have != PROFILE_CSV_HEADER:
        raise ProfileError(f"expected header {','.join(PROFILE_CSV_HEADER)!r}, got {','.join(have)!r}")

    if not rows:
        raise ProfileError("empty profile: no samples")
    try:  # one pass per column; extra cells are ignored
        stamps = tuple(map(str.strip, firsts))  # not the powers: float strips all whitespace but \x1c-\x1f itself
        return stamps, tuple(map(datetime.fromisoformat, stamps)), tuple(map(float, seconds))
    except (ValueError, IndexError):  # a bad cell, or a row without a power: name the first such row
        pass
    timestamps, powers = [], []
    for rownum, row in enumerate(rows, start=2):  # header is line 1
        raw_ts, raw_power, *_ = *map(str.strip, row), ""  # a missing power reads as ""
        try:
            timestamps.append(datetime.fromisoformat(raw_ts))
        except ValueError:
            raise ProfileError(f"row {rownum}: invalid timestamp {raw_ts!r}") from None
        try:
            powers.append(float(raw_power))
        except ValueError:
            raise ProfileError(f"row {rownum}: invalid power {raw_power!r}") from None
    return (), tuple(timestamps), tuple(powers)  # each cell is good once stripped


def _infer_granularity(timestamps: tuple[datetime, ...]) -> Granularity:
    def is_month_start(ts: datetime) -> bool:
        return ts.day == 1 and ts.hour == 0 and ts.minute == 0 and ts.second == 0 and ts.microsecond == 0

    # one month start at two UTC offsets is not monthly data
    if (len(timestamps) > 1 and all(map(is_month_start, timestamps))
            and len({(ts.year, ts.month) for ts in timestamps}) == len(timestamps)):
        return Granularity.MONTHLY_AVERAGE
    return Granularity.HOURLY


def load_profile(path, granularity: Granularity | None = None) -> LoadProfile:
    """Read a profile CSV file; an unreadable file is a ProfileError."""
    return parse_profile(read_text(path, "profile", ProfileError), granularity)


def normalize(profile: LoadProfile) -> tuple[float, ...]:
    """Each sample's fraction of the series peak, in sample order; the peak maps to exactly 1."""
    peak = profile.peak_kw
    if peak <= 0:
        raise ProfileError("zero peak")
    return tuple(map(truediv, profile.powers, repeat(peak)))


def peak_average_ratio(profile: LoadProfile) -> float:
    """Mean power divided by peak power; in (0, 1] for any non-zero profile."""
    peak = profile.peak_kw
    if peak <= 0:
        raise ProfileError("zero peak")
    # the mean can round one ulp above the peak for near-constant series
    return min(profile.mean_kw / peak, 1.0)


def monthly_growth(profile: LoadProfile) -> tuple[list[int], list[int], list[float]]:
    """Percentage change from every sample of a monthly profile to each later one, as three columns.

    Entry ``k`` of the columns ``(froms, tos, pcts)`` is the change from sample ``froms[k]`` to sample ``tos[k]``, one
    entry per sample pair i < j in sample order. A zero-power sample is never a base, but is kept as a target.
    """
    if profile.granularity is Granularity.HOURLY:
        raise ProfileError("monthly granularity required")
    powers, n = profile.powers, len(profile)
    froms, tos, pcts = [], [], []
    for i, p_from in enumerate(powers):
        if p_from != 0:  # -0.0 too
            froms += repeat(i, n - i - 1)
            tos += range(i + 1, n)
            pcts += [100.0 * (p_to - p_from) / p_from for p_to in powers[i + 1:]]
    return froms, tos, pcts


def seasonal_split(profile: LoadProfile) -> dict[Season, LoadProfile]:
    """Partition samples by season; together the two halves cover the input.

    A subsequence of checked samples keeps every rule of :class:`LoadProfile`, so a half is not checked again.
    """
    months = profile.months
    winter = [month in WINTER_MONTHS for month in range(256)]  # a bytes.translate table: month -> 1 in winter
    masks = {Season.WINTER: months.translate(bytes(winter)), Season.SUMMER: months.translate(bytes(map(not_, winter)))}
    split = {}
    for season, mask in masks.items():
        part = split[season] = object.__new__(LoadProfile)
        powers = tuple(compress(profile.powers, mask))
        vars(part).update(timestamps=tuple(compress(profile.timestamps, mask)), powers=powers,
                          granularity=profile.granularity, peak_kw=max(powers, default=0.0))
    return split


def daily_extrema(profile: LoadProfile) -> dict[str, int]:
    """Hours of maximum and minimum power in a one-day hourly profile, as ``peak_hour`` and ``trough_hour``.

    Ties are broken toward the earliest hour. A profile whose samples fall on more than one date is refused.
    """
    if profile.granularity is not Granularity.HOURLY:
        raise ProfileError("hourly granularity required")
    timestamps = profile.timestamps
    # two end dates are two days, whatever lies between; one end date is not one day for aware stamps, which can
    # go back to an earlier date in another offset, so then only the whole days column tells
    if timestamps and timestamps[0].date() != timestamps[-1].date():
        raise ProfileError(f"single-day profile required (spans {timestamps[0].date()} to {timestamps[-1].date()})")
    days = set(profile.days)
    if len(days) != 1:
        raise ProfileError(f"single-day profile required (spans {len(days)} days)")

    indexes = range(len(profile))
    peak = max(indexes, key=profile.powers.__getitem__)  # max and min keep the first of equal values
    trough = min(indexes, key=profile.powers.__getitem__)
    return {"peak_hour": profile.hours[peak], "trough_hour": profile.hours[trough]}
