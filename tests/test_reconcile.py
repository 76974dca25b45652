"""Scaling to measured energy and hour-by-hour attribution."""

import gc
import math
import weakref
from datetime import datetime, timedelta

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loadcomp import Season, builtin_catalog, composition_shares, profile, reconcile, seasonal_table
from loadcomp.catalog import ApplianceSpec, Catalog, OperationClass
from loadcomp.profile import MIN_POWER_KW, Granularity
from loadcomp.reconcile import (
    GAP_WARNING_THRESHOLD,
    ReconcileError,
    composition_from_attribution,
    disaggregate,
    scale_to_measured,
    seasonal_model,
)
from loadcomp.synth import (
    DEFAULT_OCCUPANCY_RAW, OccupancyCurve, default_occupancy, household_total, synth_household_day,
)
from conftest import DAY_CURVE_KW, catalogs, hourly_day, left_to_right_sum, monthly_profile, power_kw, profile_of

JUNE1 = datetime(2016, 6, 1)

# a non-zero power is at least 1e3 times the floor, so that scaling by k >= 1e-3 leaves a valid power
power_days = st.lists(power_kw(1e3, floor=1e3 * MIN_POWER_KW), min_size=24, max_size=24)


def attribute(measured, catalog, season, occupancy=default_occupancy()):
    """``measured`` split by the synthesized day of ``catalog``'s table for ``season``."""
    return disaggregate(measured, catalog, occupancy, season=season)


def scale(measured, catalog, season, days_per_month=30):
    """``catalog``'s table for ``season`` scaled to ``measured``, through its attribution."""
    return scale_to_measured(disaggregate(measured, catalog, default_occupancy(), days_per_month, season))


def synth_as_measured(catalog, season, day=JUNE1):
    """The synthesized household total, replayed as a measured day in kW."""
    total = household_total(synth_household_day(seasonal_table(catalog, season), default_occupancy()))
    return hourly_day([wh / 1000.0 for wh in total], day=day)


def day_of_monthly_energy(kwh: float):
    """A measured day that gives ``kwh`` over a 30-day month, all of it drawn in hour 0."""
    return hourly_day([kwh / 30] + [0.0] * 23)


def builtin_specs():
    from loadcomp import builtin_catalog

    return builtin_catalog().specs


def one_manual_device(name="Toaster") -> Catalog:
    spec = ApplianceSpec(
        activity=name,
        tou_winter=1.0,
        tou_summer=1.0,
        units_winter=1,
        units_summer=1,
        run_watts=800.0,
        idle_watts=0.0,
        operation=OperationClass.MANUAL,
        run_fraction=1.0,
        idle_fraction=0.0,
    )
    return Catalog(specs=(spec,))


class TestScaleToMeasured:
    def test_self_match_has_unit_factor(self, paper_catalog):
        table = seasonal_table(paper_catalog, Season.WINTER, 30)
        result = scale(day_of_monthly_energy(table.monthly_total_kwh), paper_catalog, Season.WINTER)
        assert result.scale_factor == pytest.approx(1.0, abs=1e-12)
        assert result.relative_gap == pytest.approx(0.0, abs=1e-12)
        assert not result.gap_warning

    def test_ten_percent_overshoot(self, paper_catalog):
        table = seasonal_table(paper_catalog, Season.SUMMER, 30)
        result = scale(day_of_monthly_energy(table.monthly_total_kwh * 1.1), paper_catalog, Season.SUMMER)
        assert result.scale_factor == pytest.approx(1.1, abs=1e-9)
        assert result.measured_energy_kwh == pytest.approx(2986.16, abs=0.01)

    def test_adjusted_total_matches_measured(self, paper_catalog):
        result = scale(day_of_monthly_energy(3200.0), paper_catalog, Season.SUMMER)
        assert result.adjusted_table.monthly_total_kwh == pytest.approx(3200.0, rel=1e-9)

    def test_scaling_preserves_shares_and_argmax(self, paper_catalog):
        table = seasonal_table(paper_catalog, Season.SUMMER, 30)
        result = scale(day_of_monthly_energy(1234.5), paper_catalog, Season.SUMMER)
        base = composition_shares(table)
        adjusted = result.adjusted_table
        for activity, energy in zip(adjusted.activities, adjusted.household_daily_wh, strict=True):
            share = 100.0 * energy / adjusted.daily_total_wh
            assert share == pytest.approx(base[activity], abs=1e-9)
        energies = adjusted.household_daily_wh
        assert adjusted.activities[energies.index(max(energies))] == "Air conditioning"
        assert adjusted.operations == table.operations

    def test_the_model_table_is_as_it_was_and_shares_the_columns_it_keeps(self, paper_catalog):
        attribution = attribute(hourly_day(DAY_CURVE_KW), paper_catalog, Season.SUMMER)
        table = attribution.model.table
        result = scale_to_measured(attribution)
        adjusted, k = result.adjusted_table, result.scale_factor
        assert table == seasonal_table(paper_catalog, Season.SUMMER, 30)
        for name in ("season", "activities", "units", "operations", "days_per_month"):
            assert getattr(adjusted, name) is getattr(table, name)
        assert adjusted.per_unit_daily_wh == tuple(energy * k for energy in table.per_unit_daily_wh)
        assert adjusted.household_daily_wh == tuple(energy * k for energy in table.household_daily_wh)
        assert k != 1.0

    def test_gap_warning_threshold(self, paper_catalog):
        table = seasonal_table(paper_catalog, Season.WINTER, 30)
        quiet_kwh = table.monthly_total_kwh * (1 + GAP_WARNING_THRESHOLD * 0.9)
        quiet = scale(day_of_monthly_energy(quiet_kwh), paper_catalog, Season.WINTER)
        loud = scale(day_of_monthly_energy(table.monthly_total_kwh * 2.0), paper_catalog, Season.WINTER)
        assert not quiet.gap_warning
        assert loud.gap_warning

    def test_zero_measured_rejected(self, paper_catalog):
        with pytest.raises(ReconcileError, match="zero measured"):
            scale(hourly_day([0.0] * 24), paper_catalog, Season.WINTER)

    def test_zero_bottom_up_rejected(self):
        """A day of no power is the one a model of no energy can attribute; the empty table is then the error."""
        spec = one_manual_device().specs[0]
        dead = Catalog(specs=(spec._replace(tou_winter=0.0, tou_summer=0.0),))
        with pytest.raises(ReconcileError, match="zero bottom-up"):
            scale(hourly_day([0.0] * 24), dead, Season.WINTER)

    def test_a_ratio_that_overflows_is_rejected(self, monkeypatch):
        """The smallest normal kW against 24 h of 10⁶ units at 10⁷ W: the relative gap is infinite.

        That kW is below the power floor, which no ratio of valid inputs overflows; the floor is lifted here.
        """
        monkeypatch.setattr(profile, "MIN_POWER_KW", 0.0)
        spec = one_manual_device().specs[0]._replace(tou_winter=24.0, units_winter=10**6, run_watts=1e7)
        with pytest.raises(ReconcileError, match="not a finite number"):
            scale(hourly_day([2.2250738585072014e-308] * 24), Catalog(specs=(spec,)), Season.WINTER)

    def test_a_month_is_the_measured_day_times_the_table_days(self, paper_catalog):
        day = hourly_day(DAY_CURVE_KW)
        short = scale(day, paper_catalog, Season.SUMMER, 28)
        long = scale(day, paper_catalog, Season.SUMMER, 31)
        assert short.measured_energy_kwh == left_to_right_sum(DAY_CURVE_KW) * 28  # kW over one hour is kWh
        assert short.measured_energy_kwh / long.measured_energy_kwh == pytest.approx(28 / 31, rel=1e-15)


class TestDisaggregate:
    def test_single_activity_takes_every_hour(self):
        catalog = one_manual_device()
        measured = hourly_day([1.0] * 24)
        attribution = attribute(measured, catalog, Season.SUMMER)
        assert attribution.by_activity["Toaster"] == (pytest.approx(1.0),) * 24

    def test_all_zero_day_attributes_nothing(self, paper_catalog):
        measured = hourly_day([0.0] * 24)
        attribution = attribute(measured, paper_catalog, Season.SUMMER)
        for series in attribution.by_activity.values():
            assert series == (0.0,) * 24

    def test_fixed_point_reproduces_synthesized_series(self, paper_catalog):
        day = synth_household_day(seasonal_table(paper_catalog, Season.SUMMER), default_occupancy())
        measured = synth_as_measured(paper_catalog, Season.SUMMER)
        attribution = attribute(measured, paper_catalog, Season.SUMMER)
        for activity, series in day.items():
            for got_kw, want_wh in zip(attribution.by_activity[activity], series):
                assert got_kw == pytest.approx(want_wh / 1000.0, rel=1e-9, abs=1e-15)

    def test_unattributable_hour_reported(self):
        # all-manual catalog with an occupancy gap at hour 0
        values = [0.0] + [1.0] * 23
        occupancy = OccupancyCurve.from_values(values)
        measured = hourly_day([1.0] * 24)
        with pytest.raises(ReconcileError, match="unattributable load at hour 0"):
            attribute(measured, one_manual_device(), Season.SUMMER, occupancy)

    def test_monthly_profile_rejected(self, paper_catalog):
        with pytest.raises(ReconcileError, match="granularity mismatch"):
            attribute(monthly_profile(), paper_catalog, Season.WINTER)

    def test_an_empty_profile_is_rejected(self, paper_catalog):
        """The day is checked before anything reads its first sample."""
        with pytest.raises(ReconcileError, match="granularity mismatch: need one sample for each hour"):
            disaggregate(profile_of(()), paper_catalog, default_occupancy())

    @pytest.mark.parametrize("day, season", [(datetime(2016, 1, 15), Season.WINTER), (JUNE1, Season.SUMMER)],
                             ids=["january", "june"])
    def test_the_season_is_that_of_the_measured_date(self, paper_catalog, day, season):
        attribution = disaggregate(hourly_day(DAY_CURVE_KW, day=day), paper_catalog, default_occupancy(), 28)
        assert attribution.model is seasonal_model(paper_catalog, season, 28, default_occupancy())
        assert attribution.model.table.season is season

    def test_an_explicit_season_overrides_the_measured_date(self, paper_catalog):
        january = hourly_day(DAY_CURVE_KW, day=datetime(2016, 1, 15))
        attribution = disaggregate(january, paper_catalog, default_occupancy(), season=Season.SUMMER)
        assert attribution.model is seasonal_model(paper_catalog, Season.SUMMER, 30, default_occupancy())
        assert scale_to_measured(attribution).adjusted_table.season is Season.SUMMER

    def test_multi_day_profile_rejected(self, paper_catalog):
        measured = hourly_day([1.0] * 30)  # spills into the next day
        with pytest.raises(ReconcileError, match="granularity mismatch"):
            attribute(measured, paper_catalog, Season.SUMMER)

    @pytest.mark.parametrize(
        "hours",
        [
            [quarter / 4 for quarter in range(96)],  # a 15-minute day
            list(range(23)),  # a 23-hour day
            list(range(1, 25)),  # 24 samples, but from 01:00 into the next day
            [0, 0.5] + list(range(2, 24)),  # 24 samples on one date, none in hour 1
        ],
        ids=["quarter-hour", "23-hour", "shifted", "missing-hour"],
    )
    def test_day_without_one_sample_per_hour_rejected(self, paper_catalog, hours):
        samples = tuple((JUNE1 + timedelta(hours=h), 1.0) for h in hours)
        measured = profile_of(samples, Granularity.HOURLY)
        with pytest.raises(ReconcileError, match="granularity mismatch: need one sample for each hour 0-23"):
            attribute(measured, paper_catalog, Season.SUMMER)

    def test_an_hour_of_zero_power_attributes_positive_zero(self, paper_catalog):
        powers = [1.0] * 24
        powers[3], powers[7] = 0.0, -0.0
        attribution = attribute(hourly_day(powers), paper_catalog, Season.SUMMER)
        for series in attribution.by_activity.values():
            assert [math.copysign(1.0, series[hour]) for hour in (3, 7)] == [1.0, 1.0]
            assert series[3] == series[7] == 0.0

    @settings(max_examples=40)
    @given(catalog=catalogs(min_size=1, max_size=5), powers=power_days)
    def test_per_hour_conservation(self, catalog, powers):
        """Every attributable day is conserved hour by hour; a model of no energy attributes no day."""
        season = Season.SUMMER
        table = seasonal_table(catalog, season)
        day = synth_household_day(table, default_occupancy())
        assume(all(t > 0 for t in household_total(day)) or max(powers) == 0)
        measured = hourly_day(powers)
        if table.monthly_total_kwh <= 0:
            with pytest.raises(ReconcileError, match="^zero bottom-up total$"):
                attribute(measured, catalog, season)
            return
        attribution = attribute(measured, catalog, season)
        for index, power in enumerate(measured.powers):
            total = sum(series[index] for series in attribution.by_activity.values())
            assert total == pytest.approx(power, rel=1e-9, abs=1e-12)

    @settings(max_examples=25)
    @given(powers=power_days, k=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    def test_scale_invariance(self, powers, k):
        catalog = Catalog(specs=builtin_specs())
        base = attribute(hourly_day(powers), catalog, Season.SUMMER)
        scaled = attribute(hourly_day([p * k for p in powers]), catalog, Season.SUMMER)
        for activity in base.by_activity:
            for f_base, f_scaled in zip(base.by_activity[activity], scaled.by_activity[activity]):
                assert f_scaled == pytest.approx(f_base * k, rel=1e-9, abs=1e-12)


class TestSeasonalModel:
    def test_a_model_lives_as_long_as_its_catalog(self):
        gc.collect()
        entries = len(reconcile._MODELS)
        catalog = one_manual_device()
        seasonal_model(catalog, Season.SUMMER, 30, default_occupancy())
        assert len(reconcile._MODELS) == entries + 1
        gone = weakref.ref(catalog)
        del catalog
        gc.collect()
        assert gone() is None
        assert len(reconcile._MODELS) == entries

    def test_the_builtin_catalog_keeps_one_model_per_season(self):
        catalog = builtin_catalog()
        model = seasonal_model(catalog, Season.WINTER, 30, default_occupancy())
        assert seasonal_model(catalog, Season.WINTER, 30, default_occupancy()) is model
        assert seasonal_model(catalog, Season.WINTER, 30, OccupancyCurve.from_values(DEFAULT_OCCUPANCY_RAW)) is model
        assert seasonal_model(catalog, Season.SUMMER, 30, default_occupancy()) is not model
        assert seasonal_model(catalog, Season.WINTER, 31, default_occupancy()) is not model

    def test_a_negative_zero_weight_gets_its_own_model(self):
        """``0.0 == -0.0``, but a -0.0 weight attributes -0.0, so the two curves cannot share a model."""
        catalog = builtin_catalog()
        zero = OccupancyCurve.from_values([0.0] + [1.0] * 23)
        negative_zero = OccupancyCurve.from_values([-0.0] + [1.0] * 23)
        assert zero.weights == negative_zero.weights
        model = seasonal_model(catalog, Season.SUMMER, 30, zero)
        assert seasonal_model(catalog, Season.SUMMER, 30, negative_zero) is not model
        attribution = disaggregate(hourly_day([1.0] * 24), catalog, negative_zero, season=Season.SUMMER)
        assert math.copysign(1.0, attribution.by_activity["Lighting"][0]) == -1.0

    def test_a_catalog_keeps_one_model_per_season_and_month_length(self):
        """A caller that varies the curve replaces the model; 1,000 curves leave one model per (season, month length)."""
        catalog = Catalog(builtin_catalog().specs)  # a catalog of its own, so that no other test's models count
        for index in range(1000):
            curve = OccupancyCurve.from_values([1.0 + index] + [1.0] * 23)
            seasonal_model(catalog, (Season.WINTER, Season.SUMMER)[index % 2], 28 + index // 2 % 4, curve)
        assert len(reconcile._MODELS[catalog]) == 2 * 4
        model = seasonal_model(catalog, Season.SUMMER, 30, default_occupancy())
        assert len(reconcile._MODELS[catalog]) == 2 * 4
        assert seasonal_model(catalog, Season.SUMMER, 30, OccupancyCurve.from_values(DEFAULT_OCCUPANCY_RAW)) is model

    def test_the_model_records_its_hours_of_no_total(self):
        catalog = one_manual_device()
        occupancy = OccupancyCurve.from_values([0.0] * 5 + [1.0] * 19)
        model = seasonal_model(catalog, Season.SUMMER, 30, occupancy)
        totals = household_total(synth_household_day(model.table, occupancy))
        assert model.empty_hours == tuple(hour for hour, total in enumerate(totals) if total <= 0)
        assert model.empty_hours == (0, 1, 2, 3, 4)

    def test_the_model_holds_only_tuples(self):
        model = seasonal_model(builtin_catalog(), Season.SUMMER, 30, default_occupancy())
        assert type(model.weights) is tuple
        assert all(type(pair) is tuple and type(pair[1]) is tuple for pair in model.weights)
        table = model.table
        columns = (table.activities, table.units, table.per_unit_daily_wh, table.household_daily_wh, table.operations)
        assert all(type(column) is tuple and len(column) == 15 for column in columns)


class TestCompositionFromAttribution:
    def test_round_trip_matches_bottom_up_shares(self, paper_catalog):
        measured = synth_as_measured(paper_catalog, Season.SUMMER)
        attribution = attribute(measured, paper_catalog, Season.SUMMER)
        shares = composition_from_attribution(attribution)
        expected = composition_shares(seasonal_table(paper_catalog, Season.SUMMER))
        for activity, share in shares.items():
            assert share == pytest.approx(expected[activity], abs=0.01)

    def test_single_activity_is_100_percent(self):
        catalog = one_manual_device()
        attribution = attribute(hourly_day([0.5] * 24), catalog, Season.SUMMER)
        shares = composition_from_attribution(attribution)
        assert shares["Toaster"] == pytest.approx(100.0)

    @settings(max_examples=40)
    @given(catalog=catalogs(min_size=1, max_size=5), powers=power_days)
    def test_shares_sum_to_100(self, catalog, powers):
        season = Season.WINTER
        day = synth_household_day(seasonal_table(catalog, season), default_occupancy())
        assume(all(t > 0 for t in household_total(day)))
        assume(max(powers) > 0)
        attribution = attribute(hourly_day(powers), catalog, season)
        shares = composition_from_attribution(attribution)
        assert sum(shares.values()) == pytest.approx(100.0, abs=1e-9)

    def test_zero_total_rejected(self, paper_catalog):
        attribution = attribute(hourly_day([0.0] * 24), paper_catalog, Season.SUMMER)
        with pytest.raises(ReconcileError, match="zero total attributed"):
            composition_from_attribution(attribution)
