"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run
``pytest -s tests/test_acceptance.py`` to see them). Tolerances are pinned
here and nowhere else.
"""

import functools
import json
import math
import random
import time
from datetime import datetime

import pytest

from loadcomp import Season, builtin_catalog, composition_shares, seasonal_table
from loadcomp._sourceio import render_value
from loadcomp.catalog import (
    ApplianceSpec,
    Catalog,
    CatalogError,
    OperationClass,
    parse_catalog,
    validate_spec,
)
from loadcomp.cli import main
from loadcomp.profile import monthly_growth, normalize, peak_average_ratio
from loadcomp.reconcile import composition_from_attribution, disaggregate
from loadcomp.synth import default_occupancy, household_total, synth_household_day
from conftest import SUMMER_WH_DAY, WINTER_WH_DAY, hourly_day, monthly_profile


def criterion(name):
    """Print one PASS/FAIL line per criterion."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL: {name}")
                raise
            print(f"PASS: {name}")
            return result

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# randomized input generators (seeded; exact iteration counts matter here)

def random_spec(rng: random.Random, name: str, ensure_active: bool = False) -> ApplianceSpec:
    if ensure_active:
        tou_w, tou_s = rng.uniform(1, 24), rng.uniform(1, 24)
        units_w, units_s = rng.randint(1, 5), rng.randint(1, 5)
        run_watts = rng.uniform(50, 3000)
        run_fraction = rng.uniform(0.2, 1.0)
    else:
        tou_w, tou_s = rng.uniform(0, 24), rng.uniform(0, 24)
        units_w, units_s = rng.randint(0, 5), rng.randint(0, 5)
        run_watts = rng.uniform(0, 3000)
        run_fraction = rng.uniform(0.0, 1.0)
    return ApplianceSpec(
        activity=name,
        tou_winter=tou_w,
        tou_summer=tou_s,
        units_winter=units_w,
        units_summer=units_s,
        run_watts=run_watts,
        idle_watts=run_watts * rng.uniform(0.0, 1.0),
        operation=rng.choice(list(OperationClass)),
        run_fraction=run_fraction,
        idle_fraction=1.0 - run_fraction,
    )


def random_catalog(rng: random.Random, ensure_active: bool = False) -> Catalog:
    size = rng.randint(1, 10)
    specs = tuple(
        random_spec(rng, f"Device {i + 1}", ensure_active=ensure_active and i == 0)
        for i in range(size)
    )
    return Catalog(specs=specs)


def random_measured_day(rng: random.Random):
    powers = [0.0 if rng.random() < 0.1 else rng.uniform(0.0, 10.0) for _ in range(24)]
    return hourly_day(powers)


# ---------------------------------------------------------------------------


@criterion("seasonal table reproduction via CLI (printed precision, totals within 0.01 kWh, < 1 s)")
def test_seasonal_table_reproduction(capsys):
    start = time.perf_counter()
    code = main(["composition", "--builtin-paper", "--season", "both", "--days-per-month", "30"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 1.0

    payload = json.loads(out)
    for season_key, expected in (("winter", WINTER_WH_DAY), ("summer", SUMMER_WH_DAY)):
        rows = payload["seasons"][season_key]["rows"]
        assert len(rows) == 15
        for row in rows:
            got = float(render_value(row["household_wh_day"]))
            assert got == expected[row["activity"]], (season_key, row["activity"])
    assert payload["seasons"]["winter"]["monthly_total_kwh"] == pytest.approx(1895.55, abs=0.01)
    assert payload["seasons"]["summer"]["monthly_total_kwh"] == pytest.approx(2714.69, abs=0.01)


@criterion("composition percentages within 1 percentage point of reported values")
def test_composition_percentages():
    catalog = builtin_catalog()
    winter = composition_shares(seasonal_table(catalog, Season.WINTER))
    summer = composition_shares(seasonal_table(catalog, Season.SUMMER))
    assert summer["Air conditioning"] == pytest.approx(62, abs=1.0)
    assert winter["Heating (oil-filled)"] + winter["Water heating"] == pytest.approx(50, abs=1.0)
    assert winter["Lighting"] == pytest.approx(6, abs=1.0)
    assert summer["Lighting"] == pytest.approx(4, abs=1.0)
    assert winter["Air conditioning"] == pytest.approx(11, abs=1.0)


@criterion("fraction-sum rule enforced with a diagnostic; all builtin rows pass")
def test_fraction_sum_validation():
    header = (
        "activity,tou_winter,tou_summer,units_winter,units_summer,"
        "run_watts,idle_watts,operation,run_fraction,idle_fraction\n"
    )
    rng = random.Random(3)
    pairs = [(0.6, 0.5), (1.0, 0.1), (0.0, 0.0), (0.5, 0.4999999)]
    pairs += [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(20)]
    for run_f, idle_f in pairs:
        if abs(run_f + idle_f - 1.0) <= 1e-12:
            continue
        source = header + f"Heater,2,2,1,1,1000,0,Manual,{run_f!r},{idle_f!r}\n"
        with pytest.raises(CatalogError) as info:
            parse_catalog(source)
        assert "run_fraction + idle_fraction must sum to 1" in str(info.value)

    for spec in builtin_catalog():
        assert validate_spec(spec) == [], spec.activity


@criterion("normalization properties over 1000 randomized profiles")
def test_normalization_properties():
    rng = random.Random(7)
    for _ in range(1000):
        size = rng.randint(1, 48)
        powers = [rng.uniform(0.0, 1000.0) for _ in range(size)]
        powers[rng.randrange(size)] = rng.uniform(1.0, 1000.0)  # guarantee a positive peak
        base = normalize(hourly_day(powers))
        assert max(base) == 1.0
        assert all(0.0 <= f <= 1.0 for f in base)

        k = 0.0
        while k == 0.0:
            k = rng.uniform(0.0, 1000.0)
        scaled = normalize(hourly_day([p * k for p in powers]))
        for f_base, f_scaled in zip(base, scaled):
            assert abs(f_scaled - f_base) <= 1e-12


@criterion("per-hour conservation and round-trip composition over 200 randomized catalogs")
def test_conservation_suite():
    rng = random.Random(11)
    for _ in range(200):
        catalog = random_catalog(rng, ensure_active=True)
        season = rng.choice(list(Season))

        measured = random_measured_day(rng)
        attribution = disaggregate(measured, catalog, default_occupancy(), season=season)
        table = attribution.model.table
        for index, power in enumerate(measured.powers):
            total = sum(series[index] for series in attribution.by_activity.values())
            if power == 0.0:
                assert total == 0.0
            else:
                assert math.isclose(total, power, rel_tol=1e-9)

        synthesized = household_total(synth_household_day(table, default_occupancy()))
        fixed_point = hourly_day([wh / 1000.0 for wh in synthesized])
        round_trip = composition_from_attribution(
            disaggregate(fixed_point, catalog, default_occupancy(), season=season))
        bottom_up = composition_shares(table)
        for activity, share in round_trip.items():
            assert abs(share - bottom_up[activity]) <= 0.01


@criterion("oracle equivalence on builtin and 500 randomized catalogs (1e-9 relative)")
def test_oracle_equivalence():
    def oracle(spec: ApplianceSpec, season: Season) -> float:
        # direct restatement of the arithmetic, independent of the module path
        if season is Season.WINTER:
            tou, units = spec.tou_winter, spec.units_winter
        else:
            tou, units = spec.tou_summer, spec.units_summer
        return units * (spec.run_watts * spec.run_fraction + spec.idle_watts * spec.idle_fraction) * tou

    def check(catalog: Catalog) -> None:
        for season in Season:
            for spec, got in zip(catalog, seasonal_table(catalog, season).household_daily_wh, strict=True):
                assert math.isclose(got, oracle(spec, season), rel_tol=1e-9, abs_tol=1e-12)

    check(builtin_catalog())
    rng = random.Random(13)
    for _ in range(500):
        check(random_catalog(rng))


@criterion("profile statistics on fixtures encoding the reported 86% and +130% figures")
def test_profile_statistic_fixtures():
    # mean (100+79+79)/3 = 86 against peak 100
    ratio_fixture = hourly_day([100.0, 79.0, 79.0])
    assert abs(peak_average_ratio(ratio_fixture) - 0.86) <= 1e-12

    growth_fixture = monthly_profile({2: 100.0, 6: 230.0})
    froms, tos, pcts = monthly_growth(growth_fixture)  # one pair: sample 0 (Feb) to sample 1 (Jun)
    stamps = growth_fixture.timestamps
    assert [(stamps[i], stamps[j]) for i, j in zip(froms, tos)] == [(datetime(2016, 2, 1), datetime(2016, 6, 1))]
    assert pcts == [130.0]
