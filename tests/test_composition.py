"""Bottom-up energy math against frozen reference values, plus properties."""

import math
import struct
from decimal import ROUND_HALF_UP, Decimal

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loadcomp import Season, composition_shares, seasonal_table
from loadcomp._sourceio import render_value
from loadcomp.catalog import ApplianceSpec, Catalog, OperationClass, validate_spec
from loadcomp.cli import pie_data, table_csv
from loadcomp.composition import CompositionError, SeasonalConsumptionTable, ordered_sum
from conftest import (
    SUMMER_DAILY_WH,
    SUMMER_MONTHLY_KWH,
    SUMMER_WH_DAY,
    WINTER_DAILY_WH,
    WINTER_MONTHLY_KWH,
    WINTER_WH_DAY,
    catalogs,
    device_daily_energy,
    household_device_energy,
    left_to_right_sum,
    spec_named,
)


def oracle_household_wh(spec: ApplianceSpec, season: Season) -> float:
    # Straight-line restatement of the energy rule, kept independent of the
    # composition module's code path.
    if season is Season.WINTER:
        tou, units = spec.tou_winter, spec.units_winter
    else:
        tou, units = spec.tou_summer, spec.units_summer
    blended = spec.run_watts * spec.run_fraction + spec.idle_watts * spec.idle_fraction
    return units * blended * tou


def table_of(spec: ApplianceSpec, season: Season) -> SeasonalConsumptionTable:
    """The seasonal table of a one-entry catalog."""
    return seasonal_table(Catalog(specs=(spec,)), season)


def shares_of(catalog: Catalog, season: Season) -> dict[str, float]:
    return composition_shares(seasonal_table(catalog, season))


def single_activity_catalog(**overrides) -> Catalog:
    base = dict(
        activity="Space heater",
        tou_winter=2.0,
        tou_summer=2.0,
        units_winter=1,
        units_summer=1,
        run_watts=1000.0,
        idle_watts=0.0,
        operation=OperationClass.MANUAL,
        run_fraction=1.0,
        idle_fraction=0.0,
    )
    base.update(overrides)
    return Catalog(specs=(ApplianceSpec(**base),))


class TestDeviceEnergy:
    def test_ac_summer_per_unit(self, paper_catalog):
        spec = spec_named(paper_catalog, "Air conditioning")
        # (1800*0.6 + 100*0.4) * 10 hours
        assert table_of(spec, Season.SUMMER).per_unit_daily_wh == pytest.approx((11200,), rel=1e-9)

    def test_water_heating_winter_per_unit(self, paper_catalog):
        spec = spec_named(paper_catalog, "Water heating")
        # hand arithmetic: (1500*0.3 + 30*0.7) * 14 = 471 * 14
        assert table_of(spec, Season.WINTER).per_unit_daily_wh == pytest.approx((6594,), rel=1e-9)

    def test_zero_tou_gives_zero(self, paper_catalog):
        spec = paper_catalog.specs[0]._replace(tou_winter=0.0)
        assert table_of(spec, Season.WINTER).per_unit_daily_wh == (0.0,)

    def test_ac_summer_household(self, paper_catalog):
        spec = spec_named(paper_catalog, "Air conditioning")
        assert table_of(spec, Season.SUMMER).household_daily_wh == pytest.approx((56000,), rel=1e-9)

    def test_heating_winter_household(self, paper_catalog):
        spec = spec_named(paper_catalog, "Heating (oil-filled)")
        assert table_of(spec, Season.WINTER).household_daily_wh == pytest.approx((12000,), rel=1e-9)

    def test_zero_units_gives_zero(self, paper_catalog):
        spec = spec_named(paper_catalog, "Air conditioning")._replace(units_summer=0)
        assert table_of(spec, Season.SUMMER).household_daily_wh == (0.0,)


class TestReferenceTables:
    def test_all_winter_values_at_printed_precision(self, paper_catalog):
        table = seasonal_table(paper_catalog, Season.WINTER, 30)
        for activity, energy in zip(table.activities, table.household_daily_wh, strict=True):
            assert float(render_value(energy)) == WINTER_WH_DAY[activity]

    def test_all_summer_values_at_printed_precision(self, paper_catalog):
        table = seasonal_table(paper_catalog, Season.SUMMER, 30)
        for activity, energy in zip(table.activities, table.household_daily_wh, strict=True):
            assert float(render_value(energy)) == SUMMER_WH_DAY[activity]

    def test_monthly_totals(self, paper_catalog):
        assert seasonal_table(paper_catalog, Season.WINTER, 30).monthly_total_kwh == pytest.approx(
            WINTER_MONTHLY_KWH, abs=0.01
        )
        assert seasonal_table(paper_catalog, Season.SUMMER, 30).monthly_total_kwh == pytest.approx(
            SUMMER_MONTHLY_KWH, abs=0.01
        )

    def test_daily_totals(self, paper_catalog):
        assert seasonal_table(paper_catalog, Season.WINTER, 30).daily_total_wh == pytest.approx(
            WINTER_DAILY_WH, abs=1e-6
        )
        assert seasonal_table(paper_catalog, Season.SUMMER, 30).daily_total_wh == pytest.approx(
            SUMMER_DAILY_WH, abs=1e-6
        )

    def test_rows_in_catalog_order(self, paper_catalog):
        table = seasonal_table(paper_catalog, Season.SUMMER, 30)
        assert list(table.activities) == [spec.activity for spec in paper_catalog]

    def test_calendar_length_months_scale_linearly(self, paper_catalog):
        t30 = seasonal_table(paper_catalog, Season.WINTER, 30)
        t31 = seasonal_table(paper_catalog, Season.WINTER, 31)
        assert t31.monthly_total_kwh == pytest.approx(t30.monthly_total_kwh * 31 / 30, rel=1e-12)

    def test_days_per_month_must_be_positive(self, paper_catalog):
        with pytest.raises(CompositionError, match="days_per_month"):
            seasonal_table(paper_catalog, Season.WINTER, 0)

    def test_days_per_month_at_most_31(self, paper_catalog):
        with pytest.raises(CompositionError, match="days_per_month must be between 1 and 31"):
            seasonal_table(paper_catalog, Season.WINTER, 32)

    def test_oracle_agreement_on_builtin(self, paper_catalog):
        for season in Season:
            energies = seasonal_table(paper_catalog, season).household_daily_wh
            for spec, energy in zip(paper_catalog, energies, strict=True):
                assert energy == pytest.approx(oracle_household_wh(spec, season), rel=1e-9)


class TestCompositionShares:
    def test_summer_ac_share(self, paper_catalog):
        shares = shares_of(paper_catalog, Season.SUMMER)
        assert float(render_value(shares["Air conditioning"])) == 61.9

    def test_winter_heating_block_share(self, paper_catalog):
        shares = shares_of(paper_catalog, Season.WINTER)
        combined = shares["Heating (oil-filled)"] + shares["Water heating"]
        assert combined == pytest.approx(50.3, abs=0.05)

    def test_shares_sum_to_100(self, paper_catalog):
        for season in Season:
            shares = shares_of(paper_catalog, season)
            assert sum(shares.values()) == pytest.approx(100.0, abs=1e-9)

    def test_single_activity_gets_everything(self):
        shares = shares_of(single_activity_catalog(), Season.WINTER)
        assert shares == {"Space heater": 100.0}

    def test_all_zero_catalog_rejected(self):
        catalog = single_activity_catalog(tou_winter=0.0, tou_summer=0.0)
        with pytest.raises(CompositionError, match="empty composition basis"):
            shares_of(catalog, Season.WINTER)


class TestSeasonPairReport:
    """The paper's winter and summer composition shares side by side."""

    def test_lighting_shares_both_seasons(self, paper_catalog):
        assert shares_of(paper_catalog, Season.WINTER)["Lighting"] == pytest.approx(5.8, abs=0.05)
        assert shares_of(paper_catalog, Season.SUMMER)["Lighting"] == pytest.approx(4.1, abs=0.05)

    def test_winter_ac_share(self, paper_catalog):
        shares = shares_of(paper_catalog, Season.WINTER)
        assert shares["Air conditioning"] == pytest.approx(10.6, abs=0.05)


class TestProperties:
    @given(catalog=catalogs(), season=st.sampled_from(list(Season)))
    def test_shares_conserve_100(self, catalog, season):
        assume(left_to_right_sum(household_device_energy(s, season) for s in catalog) > 0)
        shares = shares_of(catalog, season)
        assert sum(shares.values()) == pytest.approx(100.0, abs=1e-9)
        assert all(share >= 0 for share in shares.values())

    @given(
        catalog=catalogs(),
        season=st.sampled_from(list(Season)),
        k=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    def test_shares_invariant_under_wattage_scaling(self, catalog, season, k):
        assume(left_to_right_sum(household_device_energy(s, season) for s in catalog) > 0)
        scaled = Catalog(
            specs=tuple(
                s._replace(run_watts=s.run_watts * k, idle_watts=s.idle_watts * k)
                for s in catalog
            )
        )
        base = shares_of(catalog, season)
        after = shares_of(scaled, season)
        for activity in base:
            assert after[activity] == pytest.approx(base[activity], abs=1e-9)

    @given(catalog=catalogs(), season=st.sampled_from(list(Season)))
    def test_table_columns_have_the_bits_of_household_device_energy(self, catalog, season):
        table = seasonal_table(catalog, season)
        columns = zip(table.activities, table.units, table.per_unit_daily_wh, table.household_daily_wh,
                      table.operations, strict=True)
        for spec, (activity, units, per_unit, household, operation) in zip(catalog, columns, strict=True):
            assert repr(household) == repr(household_device_energy(spec, season))
            assert repr(per_unit) == repr(device_daily_energy(spec, season))
            assert (activity, units, operation) == (spec.activity, spec.units(season), spec.operation)

    @given(catalog=catalogs(), season=st.sampled_from(list(Season)))
    def test_shares_have_the_bits_of_the_reference_energies(self, catalog, season):
        energies = [household_device_energy(spec, season) for spec in catalog]
        total = left_to_right_sum(energies)
        assume(total > 0)
        expected = {spec.activity: 100.0 * energy / total for spec, energy in zip(catalog, energies)}
        shares = shares_of(catalog, season)
        assert list(shares) == list(expected)
        assert list(map(repr, shares.values())) == list(map(repr, expected.values()))

    @given(spec=catalogs(min_size=1, max_size=1).map(lambda c: c.specs[0]))
    def test_energy_linear_in_tou(self, spec):
        doubled = spec._replace(tou_winter=spec.tou_winter / 2 * 2, tou_summer=spec.tou_summer)
        half = spec._replace(tou_winter=spec.tou_winter / 2)
        assume(validate_spec(half) == [])  # half of a ToU near the floor is below it
        (energy,) = table_of(half, Season.WINTER).per_unit_daily_wh
        (doubled_energy,) = table_of(doubled, Season.WINTER).per_unit_daily_wh
        assert energy * 2 == pytest.approx(doubled_energy, rel=1e-12, abs=1e-12)

    @given(spec=catalogs(min_size=1, max_size=1).map(lambda c: c.specs[0]), units=st.integers(0, 50))
    def test_household_energy_linear_in_units(self, spec, units):
        rebased = spec._replace(units_winter=units)
        (energy,) = table_of(rebased, Season.WINTER).household_daily_wh
        (per_unit,) = table_of(spec, Season.WINTER).per_unit_daily_wh
        assert energy == pytest.approx(units * per_unit, rel=1e-12, abs=1e-12)

    @settings(max_examples=60)
    @given(
        catalog=catalogs(min_size=2, max_size=6),
        data=st.data(),
    )
    def test_share_monotone_in_tou(self, catalog, data):
        season = Season.SUMMER
        assume(left_to_right_sum(household_device_energy(s, season) for s in catalog) > 0)
        index = data.draw(st.integers(0, len(catalog) - 1))
        bump = data.draw(st.floats(min_value=0.1, max_value=24.0, allow_nan=False))
        target = catalog.specs[index]
        bumped = target._replace(tou_summer=min(24.0, target.tou_summer + bump))
        specs = list(catalog.specs)
        specs[index] = bumped
        before = shares_of(catalog, season)
        after = shares_of(Catalog(specs=tuple(specs)), season)
        assert after[target.activity] >= before[target.activity] - 1e-9
        for activity in before:
            if activity != target.activity:
                assert after[activity] <= before[activity] + 1e-9


def float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def decimal_half_up(value: float) -> str:
    """The reference rounding: ``decimal`` at one place on the text of ``repr(value)``, with a trailing '.0' dropped."""
    rounded = Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
    return str(rounded).removesuffix(".0")


# ties at one decimal, both signs of zero, the smallest subnormal, the catalog bound's
# largest energy, and any bit pattern of a float up to 1e25
renderable = st.one_of(
    st.integers(-10**6, 10**6).map(lambda n: n / 20),
    st.floats(min_value=-2.4e14, max_value=2.4e14),
    st.tuples(st.integers(0, struct.unpack("<Q", struct.pack("<d", 1e25))[0]), st.booleans()).map(
        lambda pair: math.copysign(float_of_bits(pair[0]), -1.0 if pair[1] else 1.0)
    ),
)


class TestRendering:
    @settings(max_examples=500)
    @given(renderable)
    @example(0.05)
    @example(9.95)
    @example(-0.0)
    @example(5e-324)
    @example(2.4e14)
    @example(1e25)
    @example(-0.04)
    def test_render_value_rounds_as_decimal_does(self, value):
        assert render_value(value) == decimal_half_up(value)

    def test_round_half_up_at_one_decimal(self):
        assert float(render_value(2213.65)) == 2213.7
        assert float(render_value(2213.64999)) == 2213.6
        assert float(render_value(19781.999999999996)) == 19782.0

    def test_render_value_drops_trailing_zero(self):
        assert render_value(12000.0) == "12000"
        assert render_value(2213.7000000000003) == "2213.7"

    def test_table_csv_shape(self, paper_catalog):
        table = seasonal_table(paper_catalog, Season.SUMMER, 30)
        shares = composition_shares(table)
        lines = table_csv([(table, shares)]).splitlines()
        assert lines[0] == "activity,season,per_unit_wh_day,household_wh_day,share_pct"
        assert len(lines) == 16
        assert "Air conditioning,summer,11200,56000,61.9" in lines

    def test_pie_data_integer_option(self, paper_catalog):
        shares = shares_of(paper_catalog, Season.SUMMER)
        exact = pie_data(shares)
        rounded = pie_data(shares, integer_percent=True)
        assert exact["label"][1] == "Air conditioning"
        assert exact["percent"][1] == pytest.approx(61.885, abs=1e-3)
        assert rounded["percent"][1] == 62


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
@example([0.1] * 10)  # 0.9999999999999999 left to right; sum() gives 1.0 from Python 3.12
def test_ordered_sum_adds_left_to_right_on_every_python(values):
    """The payload bytes are the same on every supported Python because every float total is made this way."""
    assert repr(ordered_sum(values)) == repr(left_to_right_sum(values))
