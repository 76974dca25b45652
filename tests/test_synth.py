"""Hourly shape rules and daily energy conservation of the synthesized day."""

import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from loadcomp import Season, seasonal_table, synth
from loadcomp.catalog import ApplianceSpec, Catalog, OperationClass
from loadcomp.synth import (
    OccupancyCurve,
    OccupancyError,
    default_occupancy,
    household_total,
    load_occupancy,
    shape_for,
    synth_household_day,
)
from conftest import SUMMER_DAILY_WH, appliance_specs, catalogs, household_device_energy, left_to_right_sum

UNIFORM = OccupancyCurve(weights=(1.0 / 24.0,) * 24)

occupancy_values = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=24, max_size=24
).filter(lambda vs: sum(vs) > 0)


def default_day(catalog: Catalog, season: Season):
    """The synthesized day of ``catalog`` in ``season`` under the built-in occupancy curve."""
    return synth_household_day(seasonal_table(catalog, season), default_occupancy())


def auto_device(watts=100.0, tou=24.0, units=1, name="Fridge") -> ApplianceSpec:
    return ApplianceSpec(
        activity=name,
        tou_winter=tou,
        tou_summer=tou,
        units_winter=units,
        units_summer=units,
        run_watts=watts,
        idle_watts=0.0,
        operation=OperationClass.AUTO,
        run_fraction=1.0,
        idle_fraction=0.0,
    )


class TestDefaultOccupancy:
    def test_normalized_24_weights(self):
        occ = default_occupancy()
        assert len(occ.weights) == 24
        assert sum(occ.weights) == pytest.approx(1.0, abs=1e-12)

    def test_quietest_at_6_busiest_at_15(self):
        occ = default_occupancy()
        assert occ.weights.index(min(occ.weights)) == 6
        assert occ.weights.index(max(occ.weights)) == 15


def occupancy_file(tmp_path, text):
    path = tmp_path / "occupancy.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadOccupancy:
    def test_comma_separated_values_normalized(self, tmp_path):
        occ = load_occupancy(occupancy_file(tmp_path, ",".join(["2"] * 24)))
        assert occ.weights == (pytest.approx(1 / 24),) * 24

    def test_trailing_newline_tolerated(self, tmp_path):
        occ = load_occupancy(occupancy_file(tmp_path, ",".join(["1"] * 24) + "\n"))
        assert sum(occ.weights) == pytest.approx(1.0, abs=1e-12)

    def test_23_values_rejected(self, tmp_path):
        with pytest.raises(OccupancyError, match="expected 24 occupancy values, got 23"):
            load_occupancy(occupancy_file(tmp_path, ",".join(["1"] * 23)))

    def test_negative_value_rejected(self, tmp_path):
        values = ["1"] * 23 + ["-1"]
        with pytest.raises(OccupancyError, match="non-negative"):
            load_occupancy(occupancy_file(tmp_path, ",".join(values)))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        with pytest.raises(OccupancyError, match="non-negative"):
            load_occupancy(occupancy_file(tmp_path, ",".join(["1"] * 23 + [value])))

    def test_nan_weight_rejected_on_construction(self):
        with pytest.raises(OccupancyError, match="non-negative"):
            OccupancyCurve(weights=(float("nan"),) + (1.0 / 23.0,) * 23)

    def test_a_list_changed_after_construction_leaves_the_weights_unchanged(self):
        weights = [1.0 / 24.0] * 24
        curve = OccupancyCurve(weights=weights)
        weights[0] = 5.0  # the weights would no longer sum to 1
        assert curve.weights == (1.0 / 24.0,) * 24

    def test_all_zero_rejected(self, tmp_path):
        with pytest.raises(OccupancyError, match="not all be zero"):
            load_occupancy(occupancy_file(tmp_path, ",".join(["0"] * 24)))

    def test_non_numeric_rejected(self, tmp_path):
        with pytest.raises(OccupancyError, match="invalid occupancy value"):
            load_occupancy(occupancy_file(tmp_path, ",".join(["1"] * 23 + ["busy"])))

    @pytest.mark.parametrize("content", [None, b"\xff\xfe" + b",1" * 24], ids=["missing", "undecodable"])
    def test_an_unreadable_file_is_an_occupancy_error(self, tmp_path, content):
        path = tmp_path / "occupancy.csv"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(OccupancyError, match=f"^cannot read occupancy file {re.escape(str(path))}: "):
            load_occupancy(path)


class TestShapeFor:
    def test_auto_is_uniform(self):
        assert shape_for(OperationClass.AUTO, default_occupancy()) == (pytest.approx(1 / 24),) * 24

    def test_manual_follows_occupancy(self):
        occ = default_occupancy()
        assert shape_for(OperationClass.MANUAL, occ) == occ.weights

    def test_semi_auto_with_uniform_occupancy_is_uniform(self):
        for w in shape_for(OperationClass.SEMI_AUTO, UNIFORM):
            assert w == pytest.approx(1 / 24, abs=1e-15)

    def test_semi_auto_is_midpoint(self):
        occ = default_occupancy()
        for w, o in zip(shape_for(OperationClass.SEMI_AUTO, occ), occ.weights):
            assert w == pytest.approx((1 / 24 + o) / 2, rel=1e-9)

    @given(values=occupancy_values, spec=appliance_specs())
    def test_output_always_a_valid_shape(self, values, spec):
        occ = OccupancyCurve.from_values(values)
        weights = shape_for(spec.operation, occ)
        assert len(weights) == 24
        assert all(w >= 0 for w in weights)
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)


# every field an int, so that the household energy is an int too
INT_DEVICE = auto_device(watts=100, tou=24, units=2)._replace(run_fraction=1, idle_fraction=0, idle_watts=0)


class TestSynthHouseholdDay:
    def test_per_activity_energy_conserved(self, paper_catalog):
        for season in Season:
            day = default_day(paper_catalog, season)
            for spec in paper_catalog:
                expected = household_device_energy(spec, season)
                assert sum(day[spec.activity]) == pytest.approx(
                    expected, rel=1e-9, abs=1e-9
                )

    def test_summer_total_matches_table(self, paper_catalog):
        day = default_day(paper_catalog, Season.SUMMER)
        assert sum(map(sum, day.values())) == pytest.approx(SUMMER_DAILY_WH, abs=1e-6)

    def test_single_auto_device_spreads_uniformly(self):
        catalog = Catalog(specs=(auto_device(watts=100.0, tou=24.0),))  # 2400 Wh/day
        day = default_day(catalog, Season.SUMMER)
        assert day["Fridge"] == (pytest.approx(100.0),) * 24

    def test_zero_tou_catalog_is_all_zero(self):
        catalog = Catalog(specs=(auto_device(tou=0.0),))
        day = default_day(catalog, Season.WINTER)
        assert household_total(day) == (0.0,) * 24

    def test_default_curve_total_peaks_at_15_and_dips_at_6(self, paper_catalog):
        total = household_total(default_day(paper_catalog, Season.SUMMER))
        assert total.index(max(total)) == 15
        assert total.index(min(total)) == 6

    def test_activities_keep_catalog_order(self, paper_catalog):
        day = default_day(paper_catalog, Season.WINTER)
        assert list(day) == [spec.activity for spec in paper_catalog]

    def test_one_shape_per_operation_class(self, paper_catalog, monkeypatch):
        operations = []

        def counting_shape_for(operation, occupancy):
            operations.append(operation)
            return shape_for(operation, occupancy)

        monkeypatch.setattr(synth, "shape_for", counting_shape_for)
        default_day(paper_catalog, Season.WINTER)
        assert sorted(op.value for op in operations) == sorted(op.value for op in OperationClass)

    @given(catalogs(), st.sampled_from(Season))
    @example(Catalog(specs=(INT_DEVICE,)), Season.WINTER)
    def test_columns_have_the_bits_of_the_per_hour_sums(self, catalog, season):
        day = default_day(catalog, season)
        shapes = {operation: shape_for(operation, default_occupancy()) for operation in OperationClass}
        for spec in catalog:
            energy = household_device_energy(spec, season)
            expected = tuple(energy * w for w in shapes[spec.operation])
            assert list(map(repr, day[spec.activity])) == list(map(repr, expected))
        expected = tuple(left_to_right_sum(series[hour] for series in day.values()) for hour in range(24))
        assert household_total(day) == expected
        assert list(map(repr, household_total(day))) == list(map(repr, expected))  # -0.0 and 0.0 differ here
