"""Load profile ingestion, normalization, and summary statistics."""

import csv
import io
import math
import re
import statistics
from datetime import datetime, timedelta, timezone, tzinfo
from itertools import count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loadcomp import Season
from loadcomp.profile import (
    Granularity,
    LoadProfile,
    ProfileError,
    daily_extrema,
    load_profile,
    monthly_growth,
    normalize,
    parse_profile,
    peak_average_ratio,
    seasonal_split,
)
from conftest import DAY_CURVE_KW, hourly_day, monthly_profile, profile_of


def day_csv(powers, day="2016-06-01"):
    lines = ["timestamp,power_kw"]
    lines += [f"{day}T{h:02d}:00,{p}" for h, p in enumerate(powers)]
    return "\n".join(lines) + "\n"


def monthly_csv(values, year=2016):
    lines = ["timestamp,power_kw"]
    lines += [f"{year}-{m:02d}-01T00:00,{p}" for m, p in enumerate(values, start=1)]
    return "\n".join(lines) + "\n"


# strictly positive somewhere, non-negative everywhere; no subnormals so
# that scaling by k cannot underflow the peak to zero
power_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_subnormal=False),
    min_size=1,
    max_size=48,
).filter(lambda ps: max(ps) > 0)


class TestParseProfile:
    def test_hourly_day_parses(self):
        profile = parse_profile(day_csv([850] * 24))
        assert len(profile) == 24
        assert profile.granularity is Granularity.HOURLY

    def test_monthly_averages_inferred(self):
        profile = parse_profile(monthly_csv(range(100, 112)))
        assert len(profile) == 12
        assert profile.granularity is Granularity.MONTHLY_AVERAGE

    @pytest.mark.parametrize("granularity", [Granularity.MONTHLY_AVERAGE, Granularity.MONTHLY_PEAK])
    def test_declared_monthly_granularity_needs_one_sample_per_month(self, granularity):
        with pytest.raises(ProfileError, match=f"^row 3: {granularity.value} profile has two samples in 2016-06$"):
            parse_profile(day_csv([850] * 24), granularity=granularity)

    def test_a_month_before_year_1000_is_named_yyyy_mm(self):
        text = "timestamp,power_kw\n0999-01-01T00:00,1.0\n0999-01-15T00:00,2.0\n"
        with pytest.raises(ProfileError, match="^row 3: monthly-peak profile has two samples in 0999-01$"):
            parse_profile(text, granularity=Granularity.MONTHLY_PEAK)

    def test_explicit_granularity_wins(self):
        profile = parse_profile(monthly_csv(range(100, 112)), granularity=Granularity.MONTHLY_PEAK)
        assert profile.granularity is Granularity.MONTHLY_PEAK

    def test_negative_power_names_row(self):
        source = "timestamp,power_kw\n2016-06-01T00:00,5\n2016-06-01T01:00,-5\n"
        with pytest.raises(ProfileError, match="row 3: negative power"):
            parse_profile(source)

    def test_non_monotone_timestamps_rejected(self):
        source = "timestamp,power_kw\n2016-06-01T02:00,5\n2016-06-01T01:00,6\n"
        with pytest.raises(ProfileError, match="row 3: timestamps must be strictly increasing"):
            parse_profile(source)

    def test_empty_file_rejected(self):
        with pytest.raises(ProfileError, match="no samples"):
            parse_profile("")

    def test_header_only_rejected(self):
        with pytest.raises(ProfileError, match="no samples"):
            parse_profile("timestamp,power_kw\n")

    def test_wrong_header_rejected(self):
        with pytest.raises(ProfileError, match="expected header"):
            parse_profile("time,kw\n2016-06-01T00:00,5\n")

    def test_bad_timestamp_names_row(self):
        with pytest.raises(ProfileError, match="row 2: invalid timestamp"):
            parse_profile("timestamp,power_kw\nyesterday,5\n")

    def test_bad_power_names_row(self):
        with pytest.raises(ProfileError, match="row 2: invalid power"):
            parse_profile("timestamp,power_kw\n2016-06-01T00:00,much\n")

    @pytest.mark.parametrize("power", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_power_names_row(self, power):
        source = f"timestamp,power_kw\n2016-06-01T00:00,5\n2016-06-01T01:00,{power}\n"
        with pytest.raises(ProfileError, match="row 3: power must be a finite number"):
            parse_profile(source)

    @pytest.mark.parametrize(
        "first, second", [("2016-06-01T00:00", "2016-06-01T01:00+00:00"), ("2016-06-01T00:00Z", "2016-06-01T01:00")]
    )
    def test_mixed_naive_and_aware_timestamps_name_row(self, first, second):
        source = f"timestamp,power_kw\n{first},5\n{second},6\n"
        with pytest.raises(ProfileError, match="row 3: cannot mix naive and offset-aware timestamps"):
            parse_profile(source)

    def test_aware_timestamps_with_different_offsets_parse(self):
        source = "timestamp,power_kw\n2016-06-01T00:00+02:00,5\n2016-06-01T00:00+00:00,6\n"
        assert len(parse_profile(source)) == 2

    def test_blank_lines_are_not_numbered(self):
        source = "timestamp,power_kw\n\n2016-06-01T00:00,5\n\n\n2016-06-01T01:00,much\n"
        with pytest.raises(ProfileError, match="^row 3: invalid power 'much'$"):
            parse_profile(source)

    def test_row_without_a_power_is_an_invalid_power(self):
        with pytest.raises(ProfileError, match="^row 2: invalid power ''$"):
            parse_profile("timestamp,power_kw\n2016-06-01T00:00\n")

    def test_extra_cells_are_ignored(self):
        profile = parse_profile("timestamp,power_kw\n2016-06-01T00:00,5,x\n2016-06-01T01:00, 6 ,,\n")
        assert profile.timestamps == (datetime(2016, 6, 1, 0), datetime(2016, 6, 1, 1))
        assert profile.powers == (5.0, 6.0)

    # ASCII and Unicode whitespace; float strips all that str.strip does but the separators \x1c-\x1f
    @pytest.mark.parametrize("space", [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u3000"])
    def test_whitespace_around_a_power_is_stripped(self, space):
        profile = parse_profile(f"timestamp,power_kw\n2016-06-01T00:00,{space}5.5{space}\n2016-06-01T01:00,{space}6\n")
        assert profile.powers == (5.5, 6.0)
        with pytest.raises(ProfileError, match=r"^row 3: invalid power '5\.5x'$"):
            parse_profile(f"timestamp,power_kw\n2016-06-01T00:00,{space}5{space}\n2016-06-01T01:00,{space}5.5x{space}\n")

    def test_a_list_changed_after_construction_leaves_the_profile_unchanged(self):
        timestamps, powers = [datetime(2016, 6, 1)], [5.0]
        profile = LoadProfile(timestamps, powers, Granularity.HOURLY)
        timestamps.append(datetime(2016, 5, 1))  # out of order: never checked
        powers.append(-1.0)  # negative: never checked
        assert profile.timestamps == (datetime(2016, 6, 1),)
        assert profile.powers == (5.0,)

    def test_a_plain_year_is_split_without_csv_reader(self, monkeypatch):
        """A file with no quote or "\\r" and two cells in each row is read by splitting it, with csv's result."""
        stamps = [datetime(2016, 1, 1) + timedelta(hours=hour) for hour in range(8784)]
        powers = [round(0.5 + (hour % 24) / 7 + (hour % 5) / 1000, 3) for hour in range(8784)]
        text = "timestamp,power_kw\n" + "".join(f"{ts.isoformat()},{power}\n" for ts, power in zip(stamps, powers))

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader was called")

        monkeypatch.setattr("loadcomp.profile.csv.reader", refuse)
        profile = parse_profile(text)
        assert profile.granularity is Granularity.HOURLY
        assert (profile.timestamps, profile.powers) == (tuple(stamps), tuple(powers))

    def test_malformed_later_row_is_reported_before_an_earlier_sign_error(self):
        source = "timestamp,power_kw\n2016-06-01T00:00,-5\nyesterday,5\n"
        with pytest.raises(ProfileError, match="row 3: invalid timestamp"):
            parse_profile(source)


class TestLoadProfile:
    @pytest.mark.parametrize("content", [None, b"\xff\xfetimestamp,power_kw\n"], ids=["missing", "undecodable"])
    def test_an_unreadable_file_is_a_profile_error(self, tmp_path, content):
        path = tmp_path / "day.csv"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ProfileError, match=f"^cannot read profile file {re.escape(str(path))}: "):
            load_profile(path)

    def test_a_text_with_lone_carriage_returns_parses_as_its_file_loads(self, tmp_path):
        text = "timestamp,power_kw\r2016-06-01T00:00,1\r2016-06-01T01:00,2\r"
        path = tmp_path / "day.csv"
        path.write_bytes(text.encode())
        parsed, loaded = parse_profile(text), load_profile(path)
        assert parsed.powers == loaded.powers == (1.0, 2.0)
        assert parsed.timestamps == loaded.timestamps == (datetime(2016, 6, 1, 0), datetime(2016, 6, 1, 1))


def row_by_row(text):
    """The samples of a profile CSV as the row-by-row parser before the column passes read them, or its error.

    A file that ``csv`` cannot read to its end is refused first, naming the row where reading stopped, as an
    undecodable file is refused before any cell is checked.
    """
    reader = csv.reader(io.StringIO(text, newline=None))  # as a file is read: "\r" and "\r\n" end a line
    header, rows = None, []
    try:
        header = next(reader)
        rows.extend(filter(None, reader))
    except csv.Error as exc:
        return f"row {1 if header is None else len(rows) + 2}: {exc}"
    if (have := ",".join(map(str.strip, header))) != "timestamp,power_kw":
        return f"expected header 'timestamp,power_kw', got {have!r}"
    samples = []
    for rownum, row in enumerate(rows, start=2):
        raw_ts, raw_power, *_ = *map(str.strip, row), ""
        try:
            ts = datetime.fromisoformat(raw_ts)
        except ValueError:
            return f"row {rownum}: invalid timestamp {raw_ts!r}"
        try:
            power = float(raw_power)
        except ValueError:
            return f"row {rownum}: invalid power {raw_power!r}"
        samples.append((ts, power))
    return samples


_BAD_CELLS = ["", " ", "yesterday", "2016-13-01", "much", "1,5", "nan", "-1", "1e999", "5e-324", "1_000", "\x1c5\x1f",
              "\u0665", "2016-06-01T00:00", "2016-06-01T00:00+00:00", '"']


_OVERSIZED = csv.field_size_limit() + 1  # the length of a cell that csv.reader refuses


@st.composite
def mutated_profile_csv(draw):
    """A day of profile CSV with bad cells, blank lines, short rows, extra cells and padding in a few rows.

    Some texts hold what only ``csv.reader`` reads: quoted cells, NUL, ``\\r\\n`` or lone ``\\r`` line ends, a blank
    first line, or a cell padded to the field-size limit or one past it.
    """
    lines = [[f"2016-06-01T{hour:02d}:00", repr(float(hour + 1))] for hour in range(draw(st.integers(1, 24)))]
    for _ in range(draw(st.integers(0, 4))):
        line = draw(st.sampled_from(lines))
        # weighted so that about a third of the texts are plain, read by the split
        change = draw(st.sampled_from(["cell", "pad", "blank"] * 3 + ["short", "extra", "quote", "nul", "long"]))
        column = draw(st.integers(0, len(line) - 1)) if line else 0
        if change == "cell" and line:
            line[column] = draw(st.sampled_from(_BAD_CELLS) | st.text(max_size=4))
        elif change == "short" and line:
            del line[-1]
        elif change == "extra":
            line.append(draw(st.sampled_from(_BAD_CELLS)))
        elif change == "pad" and line:
            line[column] = draw(st.sampled_from([" ", "\t", "\u3000"])) + line[column] + " "
        elif change == "blank":
            lines.insert(lines.index(line), [])
        elif change == "quote" and line:  # csv reads a quoted cell as the cell, and may find a comma or "\n" in it
            line[column] = '"' + draw(st.sampled_from([line[column], "1,5", "5\n", 'a""b'])) + '"'
        elif change == "nul" and line:
            line[column] += "\0"
        elif change == "long" and line:
            line[column] = line[column].rjust(_OVERSIZED - draw(st.integers(0, 1)))
    texts = ["timestamp,power_kw", *map(",".join, lines)]
    ends = ["\n"] * len(texts)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):  # most texts keep "\n" alone
        ends[draw(st.integers(0, len(ends) - 1))] = draw(st.sampled_from(["\r\n", "\r"]))
    if draw(st.integers(0, 9)) == 0:
        texts.insert(0, "")
        ends.insert(0, "\n")
    return "".join(map(str.__add__, texts, ends))


class TestParseEquivalence:
    @settings(max_examples=150)
    @given(mutated_profile_csv())
    @example("timestamp,power_kw\n2016-06-01T00:00,much\nyesterday,5\n")  # the bad power comes first
    @example("timestamp,power_kw\n2016-06-01T00:00\n\nyesterday,5\n")  # a short row, then a bad timestamp
    @example("timestamp,power_kw\n,1.0\n\r,2.0\n")  # a bad timestamp, then a lone "\r" that ends a line
    @example("timestamp,power_kw\n,1.0\n2016-06-01T00:00," + "5".rjust(_OVERSIZED) + "\n")  # then a row csv refuses
    @example("timestamp,power_kw\r\n2016-06-01T00:00,1\r\n2016-06-01T01:00,2\r\n")  # csv reads \r\n as \n
    @example('timestamp,power_kw\n"2016-06-01T00:00","1"\n"2016-06-01T01:00",2\n')  # quoted cells
    @example("timestamp,power_kw\n2016-06-01T00:00,1\r2016-06-01T01:00,2\n")  # a lone \r ends a line
    @example("\ntimestamp,power_kw\n2016-06-01T00:00,1\n")  # a blank first line is the header
    @example("timestamp,power_kw\n2016-06-01T00:00,1\n2016-06-01T01:00\n20160601,20160602,5\n")  # 1 cell, 3 cells
    @example("timestamp,power_kw\n2016-06-01T00:00," + "5".rjust(_OVERSIZED) + "\n")  # a cell past the limit
    @example("timestamp,power_kw\n2016-06-01T00:00," + "5".rjust(_OVERSIZED - 1) + "\n")  # a cell at the limit
    def test_columns_match_the_row_by_row_parse(self, text):
        expected = row_by_row(text)
        if isinstance(expected, list):  # parsed: the sample rules decide, as they did then
            try:
                profile_of(expected)
            except ProfileError as exc:
                expected = str(exc)
        try:
            profile = parse_profile(text, granularity=Granularity.HOURLY)
        except ProfileError as exc:
            got = str(exc)
        else:
            got = list(zip(profile.timestamps, profile.powers))
        assert got == (expected or "empty profile: no samples")


class TestNormalize:
    def test_constant_profile_maps_to_ones(self):
        profile = hourly_day([5, 5, 5])
        assert normalize(profile) == (1.0, 1.0, 1.0)
        assert profile.peak_kw == 5.0

    def test_hand_division_example(self):
        assert normalize(hourly_day([2, 4, 8])) == (0.25, 0.5, 1.0)

    def test_zero_profile_rejected(self):
        with pytest.raises(ProfileError, match="zero peak"):
            normalize(hourly_day([0, 0, 0]))

    @given(powers=power_lists)
    def test_peak_maps_to_exactly_one(self, powers):
        fractions = normalize(hourly_day(powers))
        assert max(fractions) == 1.0
        assert all(0.0 <= f <= 1.0 for f in fractions)

    @given(powers=power_lists, k=st.floats(min_value=1e-6, max_value=1e3, allow_nan=False).filter(lambda k: k > 0))
    def test_invariant_under_uniform_scaling(self, powers, k):
        base = normalize(hourly_day(powers))
        scaled = normalize(hourly_day([p * k for p in powers]))
        for f_base, f_scaled in zip(base, scaled):
            assert f_scaled == pytest.approx(f_base, abs=1e-12)

    @given(powers=power_lists)
    def test_idempotent_up_to_scale(self, powers):
        once = normalize(hourly_day(powers))
        assert normalize(hourly_day(once)) == once  # second peak is exactly 1.0


class TestPeakAverageRatio:
    def test_flat_profile_is_one(self):
        assert peak_average_ratio(hourly_day([7, 7, 7, 7])) == 1.0

    def test_hand_arithmetic_example(self):
        assert peak_average_ratio(hourly_day([86, 100])) == pytest.approx(0.93, abs=1e-12)

    def test_constructed_86_percent_fixture(self):
        # mean (100+79+79)/3 = 86 against peak 100
        assert peak_average_ratio(hourly_day([100, 79, 79])) == pytest.approx(0.86, abs=1e-12)

    def test_zero_peak_rejected(self):
        with pytest.raises(ProfileError, match="zero peak"):
            peak_average_ratio(hourly_day([0.0]))

    @given(powers=power_lists, k=st.floats(min_value=1e-6, max_value=1e3, allow_nan=False))
    def test_scale_invariant_and_bounded(self, powers, k):
        ratio = peak_average_ratio(hourly_day(powers))
        assert 0 < ratio <= 1
        scaled = peak_average_ratio(hourly_day([p * k for p in powers]))
        assert scaled == pytest.approx(ratio, abs=1e-12)


class TestMonthlyGrowth:
    def test_reference_feb_to_jun_growth(self, annual_profile):
        stamps = annual_profile.timestamps
        froms, tos, pcts = monthly_growth(annual_profile)
        growth = {(stamps[i], stamps[j]): pct for i, j, pct in zip(froms, tos, pcts)}
        assert growth[(datetime(2016, 2, 1), datetime(2016, 6, 1))] == 130.0

    def test_zero_base_rejected(self):
        profile = monthly_profile({1: 0.0, 2: 10.0})
        assert monthly_growth(profile) == ([], [], [])

    def test_hourly_profile_rejected(self, day_profile):
        with pytest.raises(ProfileError, match="monthly granularity"):
            monthly_growth(day_profile)

    def test_every_sample_pair_in_sample_order(self):
        stamps = [datetime(2016 + m // 12, m % 12 + 1, 1) for m in range(24)]
        profile = profile_of(((ts, 100.0 + m) for m, ts in enumerate(stamps)), Granularity.MONTHLY_AVERAGE)
        froms, tos, pcts = monthly_growth(profile)
        assert len(froms) == len(tos) == len(pcts) == 276
        assert [*zip(froms, tos)] == [(i, j) for i in range(24) for j in range(i + 1, 24)]
        assert (0, 12, 12.0) in zip(froms, tos, pcts)

    def test_zero_sample_is_a_target_but_never_a_base(self):
        profile = monthly_profile({1: 50.0, 2: 0.0, 3: 100.0})
        assert monthly_growth(profile) == ([0, 0], [1, 2], [-100.0, 100.0])

    @given(powers=st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0, 1e9)), min_size=1, max_size=30),
           granularity=st.sampled_from([Granularity.MONTHLY_AVERAGE, Granularity.MONTHLY_PEAK]))
    @example(powers=[7.0], granularity=Granularity.MONTHLY_AVERAGE)
    @example(powers=[0.0, 3.0, -0.0, 5e-324, 1e9], granularity=Granularity.MONTHLY_PEAK)
    def test_columns_are_the_pairwise_definition(self, powers, granularity):
        stamps = [datetime(2016 + m // 12, m % 12 + 1, 1) for m in range(len(powers))]
        froms, tos, pcts = monthly_growth(LoadProfile(stamps, powers, granularity))
        assert len(froms) == len(tos) == len(pcts)
        n = len(powers)
        pairs = [(i, j, repr(100.0 * (powers[j] - powers[i]) / powers[i]))
                 for i in range(n) if powers[i] != 0 for j in range(i + 1, n)]
        assert [*zip(froms, tos, map(repr, pcts))] == pairs


class TestSeasonalSplit:
    def test_annual_profile_splits_5_7(self, annual_profile):
        split = seasonal_split(annual_profile)
        assert len(split[Season.WINTER]) == 5
        assert len(split[Season.SUMMER]) == 7
        assert {ts.month for ts in split[Season.WINTER].timestamps} == {10, 11, 12, 1, 2}

    def test_single_season_input_leaves_other_empty(self, day_profile):
        split = seasonal_split(day_profile)  # July-side day (June)
        assert len(split[Season.WINTER]) == 0
        assert split[Season.SUMMER].timestamps == day_profile.timestamps
        assert split[Season.SUMMER].powers == day_profile.powers

    @given(
        powers=st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=30),
        start_month=st.integers(1, 12),
    )
    def test_partition_preserves_all_samples(self, powers, start_month):
        start = datetime(2016, start_month, 1)
        samples = tuple((start + timedelta(days=31 * i), p) for i, p in enumerate(powers))
        profile = profile_of(samples, Granularity.HOURLY)
        split = seasonal_split(profile)
        merged = sorted(pair for part in split.values() for pair in zip(part.timestamps, part.powers))
        assert merged == sorted(samples)

    @given(
        powers=st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=30),
        start_month=st.integers(1, 12),
        granularity=st.sampled_from(list(Granularity)),
    )
    def test_each_half_is_the_checked_profile_of_its_samples(self, powers, start_month, granularity):
        """The halves are not checked again; each must still be what the constructor builds from its columns."""
        start = datetime(2016, start_month, 1)
        profile = profile_of([(start + timedelta(days=31 * i), p) for i, p in enumerate(powers)], granularity, "x")
        for part in seasonal_split(profile).values():
            checked = LoadProfile(part.timestamps, part.powers, granularity, "x")
            assert type(part) is LoadProfile and vars(part) == vars(checked)
            with pytest.raises(AttributeError):
                part.label = "y"


@st.composite
def calendar_stamps(draw):
    """Strictly increasing stamps: all naive, or each at its own fixed offset of either sign, some with minutes."""
    instants = draw(st.lists(st.datetimes(min_value=datetime(2, 1, 1), max_value=datetime(9998, 12, 31)),
                             min_size=1, max_size=30, unique=True))
    instants.sort()
    if draw(st.booleans()):
        return instants
    offsets = st.integers(-(24 * 60 - 1), 24 * 60 - 1).map(lambda minutes: timezone(timedelta(minutes=minutes)))
    return [instant.replace(tzinfo=timezone.utc).astimezone(draw(offsets)) for instant in instants]


@st.composite
def stamp_cells(draw):
    """Timestamp cells of one valid profile, naive or at one offset, each in a form that ``fromisoformat`` reads.

    Some lists hold only canonical ``YYYY-MM-DDTHH:MM:SS`` cells, bare or padded with whitespace; the others mix in
    space-separated, fractional, offset, ``Z`` and compact cells.
    """
    instants = draw(st.lists(st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30)),
                             min_size=1, max_size=20))
    zone = draw(st.none() | st.sampled_from([timezone.utc, timezone(timedelta(hours=9)),
                                             timezone(-timedelta(hours=3, minutes=30))]))
    forms = draw(st.sampled_from([["iso"], ["iso", "padded"], ["iso", "padded", "space", "fraction", "z", "compact"]]))
    cells = {}  # the first cell of each stamp
    for instant in instants:
        form = draw(st.sampled_from(forms))
        ts = instant.replace(microsecond=instant.microsecond if form == "fraction" else 0, tzinfo=zone)
        iso = ts.isoformat()
        cells.setdefault(ts, {
            "iso": iso,
            "padded": draw(st.sampled_from([" ", "\t", "\u3000"])) + iso + " ",
            "space": ts.isoformat(sep=" "),
            "fraction": ts.isoformat(timespec="microseconds"),
            "z": iso.replace("+00:00", "Z"),
            "compact": iso[:19].replace("-", "").replace(":", "") + iso[19:].replace(":", ""),
        }[form])
    return [cells[ts] for ts in sorted(cells)]


class TestCalendarColumns:
    @settings(max_examples=60)
    @given(stamps=calendar_stamps())
    @example(stamps=[datetime(2016, 10, 1, hour, tzinfo=timezone(timedelta(hours=9))) for hour in (0, 8, 9, 23)])
    @example(stamps=[datetime(2016, 9, 30, 23, 30, tzinfo=timezone(-timedelta(hours=3, minutes=30)))])
    def test_each_column_is_the_calendar_of_each_stamp_in_its_own_offset(self, stamps):
        profile = LoadProfile(stamps, [1.0] * len(stamps), Granularity.HOURLY)
        assert profile.days == tuple(ts.toordinal() for ts in stamps)
        assert profile.hours == tuple(ts.hour for ts in stamps)
        assert type(profile.months) is bytes and list(profile.months) == [ts.month for ts in stamps]
        assert profile.days is profile.days and profile.hours is profile.hours and profile.months is profile.months

    @settings(max_examples=80)
    @given(cells=stamp_cells())
    @example(cells=["0999-01-01T00:00:00", "2016-06-01T00:00:00"])
    @example(cells=["2016-06-01T00:00:00", "2016-06-01T01:00:00.500000"])
    @example(cells=["2016-06-01T00:00:00Z"])  # one character past 19: only the length tells it apart
    @example(cells=["2016-06-01T00:00+01"])  # 19 characters, an offset where the seconds' ":" would be
    def test_iso_texts_are_the_isoformat_of_each_parsed_stamp(self, cells):
        """A list of canonical cells is given as it was read, and any other is written from the timestamps."""
        profile = parse_profile("timestamp,power_kw\n" + "".join(f"{cell},1.0\n" for cell in cells), Granularity.HOURLY)
        as_read = "iso_texts" in vars(profile)
        assert profile.iso_texts == tuple(ts.isoformat() for ts in profile.timestamps)
        assert as_read == all(re.fullmatch("[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}", cell.strip())
                              for cell in cells)

    def test_each_aware_time_of_day_is_written_with_its_own_offset(self):
        """A tzinfo can give one time of day two offsets on two dates, and none without a date, as zoneinfo does."""

        class TwoOffsets(tzinfo):
            def utcoffset(self, dt):
                return None if dt is None else timedelta(hours=1 if dt.day < 29 else 2)

        stamps = [datetime(2020, 3, day, 1, 30, tzinfo=TwoOffsets()) for day in (28, 29)]
        profile = LoadProfile(stamps, (1.0, 1.0), Granularity.HOURLY)
        assert profile.iso_texts == ("2020-03-28T01:30:00+01:00", "2020-03-29T01:30:00+02:00")


class TestDailyExtrema:
    def test_reference_day_peaks_at_15_and_troughs_at_6(self, day_profile):
        assert daily_extrema(day_profile) == {"peak_hour": 15, "trough_hour": 6}

    def test_constant_day_breaks_ties_earliest(self):
        assert daily_extrema(hourly_day([4.0] * 24)) == {"peak_hour": 0, "trough_hour": 0}

    def test_peak_at_hour_zero(self):
        powers = [100.0] + [50.0] * 23
        assert daily_extrema(hourly_day(powers))["peak_hour"] == 0

    def test_monthly_profile_rejected(self, annual_profile):
        with pytest.raises(ProfileError, match="hourly granularity"):
            daily_extrema(annual_profile)

    def test_multi_day_profile_rejected(self):
        samples = tuple(
            (datetime(2016, 6, 1) + timedelta(hours=12 * i), 5.0) for i in range(4)
        )
        profile = profile_of(samples, Granularity.HOURLY)
        with pytest.raises(ProfileError, match="single-day"):
            daily_extrema(profile)

    def test_hourly_year_refused_by_its_end_dates(self):
        stamps = [datetime(2016, 1, 1) + timedelta(hours=h) for h in range(8760)]
        profile = LoadProfile(stamps, [1.0] * 8760, Granularity.HOURLY)
        with pytest.raises(ProfileError, match=r"^single-day profile required \(spans 2016-01-01 to 2016-12-30\)$"):
            daily_extrema(profile)
        assert "days" not in vars(profile)  # the calendar column is not built to refuse the year

    def test_aware_stamps_back_on_the_first_date_refused(self):
        # increasing in UTC, and first and last on 2016-01-01, but the second sample is on 2016-01-02
        cells = ["2016-01-01T23:00+00:00", "2016-01-02T00:30+00:00", "2016-01-01T20:00-05:00"]
        profile = LoadProfile(map(datetime.fromisoformat, cells), [1.0, 2.0, 3.0], Granularity.HOURLY)
        with pytest.raises(ProfileError, match=r"^single-day profile required \(spans 2 days\)$"):
            daily_extrema(profile)


class TestMeanKw:
    @given(powers=st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=48))
    def test_is_statistics_fmean_bit_for_bit(self, powers):
        assert hourly_day(powers).mean_kw.hex() == statistics.fmean(powers).hex()

    def test_empty_profile_names_the_fault(self):
        with pytest.raises(ProfileError, match="^empty profile: no samples$"):
            LoadProfile(timestamps=(), powers=(), granularity=Granularity.HOURLY).mean_kw


class NoOffset(tzinfo):
    """A ``tzinfo`` whose ``utcoffset`` is None: its stamps are naive, although their ``tzinfo`` is set."""

    def utcoffset(self, dt):
        return None


_SPECIAL_POWERS = [math.nan, math.inf, -math.inf, -1.0, -5e-324, -0.0, 0.0, 1e9, math.nextafter(1e9, math.inf), 2e9]
_ZONES = [timezone.utc, timezone(timedelta(hours=2)), NoOffset()]


def sample_rules(timestamps, powers, granularity):
    """The message of the first sample the row-by-row check refuses, or None: the rules as that loop states them."""
    previous = previous_naive = None
    months = None if granularity is Granularity.HOURLY else set()
    for rownum, ts, power in zip(count(2), timestamps, powers):
        if not math.isfinite(power):
            return f"row {rownum}: power must be a finite number"
        if power < 0:
            return f"row {rownum}: negative power {power}"
        if power > 1e9:
            return f"row {rownum}: power {power} exceeds 1e+09 kW"
        naive = ts.utcoffset() is None
        if previous is not None and naive != previous_naive:
            return f"row {rownum}: cannot mix naive and offset-aware timestamps"
        if previous is not None and ts <= previous:
            return f"row {rownum}: timestamps must be strictly increasing"
        if months is not None:
            if (ts.year, ts.month) in months:
                return f"row {rownum}: {granularity.value} profile has two samples in {ts.isoformat()[:7]}"
            months.add((ts.year, ts.month))
        previous, previous_naive = ts, naive
    return None


@st.composite
def sample_columns(draw):
    """Columns of a valid series, hourly or one per month, with a few samples changed to break or bend a rule."""
    size, step = draw(st.integers(0, 30)), draw(st.sampled_from([timedelta(hours=1), timedelta(days=31)]))
    timestamps = [datetime(2016, 1, 1) + i * step for i in range(size)]
    powers = draw(st.lists(st.floats(0, 1e4), min_size=size, max_size=size))
    if draw(st.integers(0, 3)) == 0:  # an aware series: each stamp in one of the zones
        timestamps = [ts.replace(tzinfo=draw(st.sampled_from(_ZONES))) for ts in timestamps]
    for _ in range(draw(st.integers(0, 3)) if size else 0):
        index = draw(st.integers(0, size - 1))
        change = draw(st.sampled_from(["power", "power", "zone", "equal", "earlier", "same month"]))
        if change == "power":
            powers[index] = draw(st.sampled_from(_SPECIAL_POWERS))
        elif change == "zone":
            timestamps[index] = timestamps[index].replace(tzinfo=draw(st.sampled_from([None, *_ZONES])))
        elif index:  # a stamp equal to, before, or in the month of the one before it
            gap = {"equal": timedelta(0), "earlier": -timedelta(minutes=1), "same month": timedelta(minutes=1)}
            timestamps[index] = timestamps[index - 1] + gap[change]
    return timestamps, powers, draw(st.sampled_from([Granularity.HOURLY, *Granularity]))


class TestSampleCheckEquivalence:
    @settings(max_examples=300)
    @given(sample_columns())
    @example(([], [], Granularity.HOURLY))
    # a naive stamp before one whose tzinfo gives no offset: < orders them as naive, as the row loop does
    @example(([datetime(2016, 1, 1), datetime(2016, 1, 1, 1, tzinfo=NoOffset())], [1.0, 2.0], Granularity.HOURLY))
    # a naive stamp before an aware one: < raises TypeError, and the row loop names the row
    @example(([datetime(2016, 1, 1), datetime(2016, 1, 1, 1), datetime(2016, 1, 1, 2, tzinfo=timezone.utc)],
              [1.0, 2.0, 3.0], Granularity.HOURLY))
    # aware stamps are checked by the same column test, valid or mixed
    @example(([datetime(2016, 1, 1, tzinfo=timezone.utc), datetime(2016, 1, 1, 1, tzinfo=timezone.utc)],
              [1.0, 2.0], Granularity.HOURLY))
    @example(([datetime(2016, 1, 1, tzinfo=timezone.utc), datetime(2016, 1, 1, 1)], [1.0, 2.0], Granularity.HOURLY))
    @example(([datetime(2016, 1, 1, tzinfo=timezone.utc), datetime(2016, 2, 1, tzinfo=timezone(timedelta(hours=2)))],
              [1.0, 2.0], Granularity.MONTHLY_AVERAGE))  # valid, although both are in January in UTC
    # two samples in one month, each read in its own offset: in UTC these are in January and in February
    @example(([datetime(2016, 1, 31, 23, tzinfo=timezone.utc),
               datetime(2016, 1, 31, 23, 30, tzinfo=timezone(-timedelta(hours=2)))],
              [1.0, 2.0], Granularity.MONTHLY_PEAK))
    @example(([datetime(2016, 1, 1), datetime(2016, 1, 1, 1)], [1.0, math.nan], Granularity.HOURLY))  # min, max miss it
    @example(([datetime(2016, 1, 1), datetime(2016, 1, 1, 1)], [1e9, 2e9], Granularity.HOURLY))
    @example(([datetime(2016, 1, 1), datetime(2016, 1, 1, 1)], [1.0, -1.0], Granularity.HOURLY))
    @example(([datetime(2016, 1, 1), datetime(2016, 1, 1)], [1.0, 1.0], Granularity.HOURLY))
    @example(([datetime(2016, 1, 1), datetime(2016, 1, 2)], [1.0, 2.0], Granularity.MONTHLY_AVERAGE))  # one month
    def test_the_column_tests_accept_what_the_row_loop_accepts(self, columns):
        timestamps, powers, granularity = columns
        try:
            profile = LoadProfile(timestamps, powers, granularity)
        except ProfileError as exc:
            assert str(exc) == sample_rules(timestamps, powers, granularity)
        else:
            assert sample_rules(timestamps, powers, granularity) is None
            assert (profile.timestamps, profile.powers) == (tuple(timestamps), tuple(powers))


class TestLoadProfileInvariants:
    def test_negative_power_rejected_on_construction(self):
        with pytest.raises(ProfileError, match="negative power"):
            profile_of(((datetime(2016, 1, 1), -1.0),), Granularity.HOURLY)

    def test_non_increasing_timestamps_rejected(self):
        ts = datetime(2016, 1, 1)
        with pytest.raises(ProfileError, match="strictly increasing"):
            profile_of(((ts, 1.0), (ts, 2.0)), Granularity.HOURLY)

    def test_samples_are_numbered_as_csv_rows(self):
        samples = ((datetime(2016, 1, 1), 1.0), (datetime(2016, 1, 2), -1.0))
        with pytest.raises(ProfileError, match="row 3: negative power"):
            profile_of(samples, Granularity.HOURLY)

    @pytest.mark.parametrize("power", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_power_rejected_on_construction(self, power):
        with pytest.raises(ProfileError, match="row 2: power must be a finite number"):
            profile_of(((datetime(2016, 1, 1), power),), Granularity.HOURLY)

    def test_mixed_naive_and_aware_timestamps_rejected_on_construction(self):
        samples = ((datetime(2016, 1, 1, tzinfo=timezone.utc), 1.0), (datetime(2016, 1, 2), 2.0))
        with pytest.raises(ProfileError, match="row 3: cannot mix naive and offset-aware timestamps"):
            profile_of(samples, Granularity.HOURLY)

    @pytest.mark.parametrize("timestamps, powers, granularity", [
        ([datetime(2016, 1, 1), datetime(2016, 1, 1, 1)], [2.0, 5.0], Granularity.HOURLY),
        ([datetime(2016, 1, 1, tzinfo=timezone.utc), datetime(2016, 2, 1, tzinfo=timezone.utc)], [5.0, 2.0],
         Granularity.MONTHLY_AVERAGE),
        ([], [], Granularity.HOURLY),
    ], ids=["naive-hourly", "aware-monthly", "empty"])
    def test_peak_is_set_by_the_check(self, timestamps, powers, granularity):
        profile = LoadProfile(timestamps, powers, granularity)
        assert "peak_kw" in vars(profile)  # a field, not computed again on first read
        assert profile.peak_kw == max(powers, default=0.0)

    def test_day_curve_has_expected_shape(self):
        assert min(DAY_CURVE_KW) == DAY_CURVE_KW[6]
        assert max(DAY_CURVE_KW) == DAY_CURVE_KW[15]
