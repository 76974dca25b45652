"""Load profile ingestion, normalization, and summary statistics."""

import statistics
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loadcomp import Season
from loadcomp.profile import (
    Granularity,
    LoadProfile,
    ProfileError,
    daily_extrema,
    monthly_growth,
    normalize,
    parse_profile,
    peak_average_ratio,
    seasonal_split,
)
from conftest import DAY_CURVE_KW, hourly_day, monthly_profile


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
        assert profile.samples == ((datetime(2016, 6, 1, 0), 5.0), (datetime(2016, 6, 1, 1), 6.0))

    def test_a_list_changed_after_construction_leaves_the_profile_unchanged(self):
        samples = [(datetime(2016, 6, 1), 5.0)]
        profile = LoadProfile(samples=samples, granularity=Granularity.HOURLY)
        samples.append((datetime(2016, 5, 1), -1.0))  # negative and out of order: never checked
        assert profile.samples == ((datetime(2016, 6, 1), 5.0),)
        assert profile.powers == (5.0,)

    def test_malformed_later_row_is_reported_before_an_earlier_sign_error(self):
        source = "timestamp,power_kw\n2016-06-01T00:00,-5\nyesterday,5\n"
        with pytest.raises(ProfileError, match="row 3: invalid timestamp"):
            parse_profile(source)


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
        growth = {(ts_from, ts_to): pct for ts_from, ts_to, pct in monthly_growth(annual_profile)}
        assert growth[(datetime(2016, 2, 1), datetime(2016, 6, 1))] == 130.0

    def test_zero_base_rejected(self):
        profile = monthly_profile({1: 0.0, 2: 10.0})
        assert monthly_growth(profile) == []

    def test_hourly_profile_rejected(self, day_profile):
        with pytest.raises(ProfileError, match="monthly granularity"):
            monthly_growth(day_profile)

    def test_every_sample_pair_in_sample_order(self):
        stamps = [datetime(2016 + m // 12, m % 12 + 1, 1) for m in range(24)]
        profile = LoadProfile(
            samples=tuple((ts, 100.0 + m) for m, ts in enumerate(stamps)),
            granularity=Granularity.MONTHLY_AVERAGE,
        )
        growth = monthly_growth(profile)
        assert len(growth) == 276
        assert [(a, b) for a, b, _ in growth] == [
            (stamps[i], stamps[j]) for i in range(24) for j in range(i + 1, 24)
        ]
        assert (datetime(2016, 1, 1), datetime(2017, 1, 1), 12.0) in growth

    def test_zero_sample_is_a_target_but_never_a_base(self):
        profile = monthly_profile({1: 50.0, 2: 0.0, 3: 100.0})
        assert monthly_growth(profile) == [
            (datetime(2016, 1, 1), datetime(2016, 2, 1), -100.0),
            (datetime(2016, 1, 1), datetime(2016, 3, 1), 100.0),
        ]


class TestSeasonalSplit:
    def test_annual_profile_splits_5_7(self, annual_profile):
        split = seasonal_split(annual_profile)
        assert len(split[Season.WINTER]) == 5
        assert len(split[Season.SUMMER]) == 7
        assert {ts.month for ts in split[Season.WINTER].timestamps} == {10, 11, 12, 1, 2}

    def test_single_season_input_leaves_other_empty(self, day_profile):
        split = seasonal_split(day_profile)  # July-side day (June)
        assert len(split[Season.WINTER]) == 0
        assert split[Season.SUMMER].samples == day_profile.samples

    @given(
        powers=st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=30),
        start_month=st.integers(1, 12),
    )
    def test_partition_preserves_all_samples(self, powers, start_month):
        start = datetime(2016, start_month, 1)
        samples = tuple((start + timedelta(days=31 * i), p) for i, p in enumerate(powers))
        profile = LoadProfile(samples=samples, granularity=Granularity.HOURLY)
        split = seasonal_split(profile)
        merged = sorted(split[Season.WINTER].samples + split[Season.SUMMER].samples)
        assert merged == sorted(profile.samples)


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
        profile = LoadProfile(samples=samples, granularity=Granularity.HOURLY)
        with pytest.raises(ProfileError, match="single-day"):
            daily_extrema(profile)


class TestMeanKw:
    @given(powers=st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=48))
    def test_is_statistics_fmean_bit_for_bit(self, powers):
        assert hourly_day(powers).mean_kw.hex() == statistics.fmean(powers).hex()

    def test_empty_profile_names_the_fault(self):
        with pytest.raises(ProfileError, match="^empty profile: no samples$"):
            LoadProfile(samples=(), granularity=Granularity.HOURLY).mean_kw


class TestLoadProfileInvariants:
    def test_negative_power_rejected_on_construction(self):
        with pytest.raises(ProfileError, match="negative power"):
            LoadProfile(samples=((datetime(2016, 1, 1), -1.0),), granularity=Granularity.HOURLY)

    def test_non_increasing_timestamps_rejected(self):
        ts = datetime(2016, 1, 1)
        with pytest.raises(ProfileError, match="strictly increasing"):
            LoadProfile(samples=((ts, 1.0), (ts, 2.0)), granularity=Granularity.HOURLY)

    def test_samples_are_numbered_as_csv_rows(self):
        samples = ((datetime(2016, 1, 1), 1.0), (datetime(2016, 1, 2), -1.0))
        with pytest.raises(ProfileError, match="row 3: negative power"):
            LoadProfile(samples=samples, granularity=Granularity.HOURLY)

    @pytest.mark.parametrize("power", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_power_rejected_on_construction(self, power):
        with pytest.raises(ProfileError, match="row 2: power must be a finite number"):
            LoadProfile(samples=((datetime(2016, 1, 1), power),), granularity=Granularity.HOURLY)

    def test_mixed_naive_and_aware_timestamps_rejected_on_construction(self):
        samples = ((datetime(2016, 1, 1, tzinfo=timezone.utc), 1.0), (datetime(2016, 1, 2), 2.0))
        with pytest.raises(ProfileError, match="row 3: cannot mix naive and offset-aware timestamps"):
            LoadProfile(samples=samples, granularity=Granularity.HOURLY)

    def test_day_curve_has_expected_shape(self):
        assert min(DAY_CURVE_KW) == DAY_CURVE_KW[6]
        assert max(DAY_CURVE_KW) == DAY_CURVE_KW[15]
