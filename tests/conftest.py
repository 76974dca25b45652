"""Shared fixtures, reference values, and hypothesis strategies."""

from __future__ import annotations

import csv
import io
import json
import string
from datetime import datetime, timedelta
from functools import reduce
from operator import add

import pytest
from hypothesis import strategies as st

from loadcomp import builtin_catalog
from loadcomp._sourceio import csv_text
from loadcomp.catalog import (
    ACTIVITY_ALIASES, CSV_HEADER, MAGNITUDE_FLOOR, ApplianceSpec, Catalog, OperationClass, Season,
)
from loadcomp.profile import MIN_POWER_KW, Granularity, LoadProfile

# Reference household Wh/day for the builtin catalog (30-day months), as
# printed in the source consumption tables the catalog reproduces.
WINTER_WH_DAY = {
    "Heating (oil-filled)": 12000,
    "Air conditioning": 6720,
    "Water heating": 19782,
    "Water coolers": 1300,
    "Water pump": 375,
    "Washing & Drying": 5200,
    "Ironing": 1000,
    "Vacuum cleaning": 1000,
    "Cooking": 3440,
    "Electric kettle": 2340,
    "Lighting": 3650,
    "Food preservation": 4800,
    "TV": 636,
    "PC": 630,
    "Gaming devices": 312,
}
SUMMER_WH_DAY = {
    "Heating (oil-filled)": 1125,
    "Air conditioning": 56000,
    "Water heating": 2213.7,
    "Water coolers": 2210,
    "Water pump": 525,
    "Washing & Drying": 7600,
    "Ironing": 1800,
    "Vacuum cleaning": 1300,
    "Cooking": 3010,
    "Electric kettle": 3600,
    "Lighting": 3750,
    "Food preservation": 4800,
    "TV": 1416,
    "PC": 780,
    "Gaming devices": 360,
}
WINTER_MONTHLY_KWH = 1895.55
SUMMER_MONTHLY_KWH = 2714.69
WINTER_DAILY_WH = 63185.0  # independent column addition of WINTER_WH_DAY
SUMMER_DAILY_WH = 90489.7  # independent column addition of SUMMER_WH_DAY

# One-day hourly curve with its minimum at 06:00 and maximum at 15:00 (kW).
DAY_CURVE_KW = (
    620, 560, 510, 480, 460, 450, 440, 470, 520, 580, 640, 700,
    760, 820, 870, 900, 880, 860, 845, 830, 800, 740, 690, 650,
)

# Twelve monthly averages (kW) with Feb -> Jun growth of exactly +130%.
MONTHLY_AVG_KW = {
    1: 105, 2: 100, 3: 120, 4: 150, 5: 190, 6: 230,
    7: 228, 8: 220, 9: 180, 10: 140, 11: 120, 12: 110,
}


@pytest.fixture(scope="session", autouse=True)
def unicode_table_built_before_the_tests():
    """Build Hypothesis' UTF-8 character table once, before any test's health check is timing it.

    The first ``st.text()`` draw builds that table (about 2 s) and caches it only in ``.hypothesis/``, which a
    fresh checkout lacks; built inside a property, those seconds fail its too-slow-data health check.
    Validating the strategy builds the table; at conftest import it would warn of a side effect.
    """
    st.text().validate()


@pytest.fixture
def paper_catalog() -> Catalog:
    return builtin_catalog()


def spec_named(catalog: Catalog, activity: str) -> ApplianceSpec:
    return next(spec for spec in catalog if spec.activity == activity)


def device_daily_energy(spec: ApplianceSpec, season: Season) -> float:
    """Reference energy of one unit, in Wh/day: ``seasonal_table`` must give these bits in ``per_unit_daily_wh``."""
    blended_watts = spec.run_watts * spec.run_fraction + spec.idle_watts * spec.idle_fraction
    return blended_watts * spec.tou(season)


def household_device_energy(spec: ApplianceSpec, season: Season) -> float:
    """Reference energy of all units, in Wh/day: ``seasonal_table`` must give these bits in ``household_daily_wh``."""
    return spec.units(season) * device_daily_energy(spec, season)


def left_to_right_sum(values) -> float:
    """The sum that the library computes on every Python: added left to right, from 0, as ``sum`` before 3.12."""
    return reduce(add, values, 0)


def serialize_catalog(catalog: Catalog, fmt: str = "csv") -> str:
    """A catalog in its CSV or JSON wire format; ``parse_catalog`` reads it back to the same specs."""
    rows = [{**spec._asdict(), "operation": spec.operation.value} for spec in catalog]
    if fmt == "csv":
        return csv_text({name: [row[name] for row in rows] for name in CSV_HEADER})
    return json.dumps(rows, indent=2) + "\n"


def csv_table(table) -> str:
    """A table of rows, header first, as ``csv.writer`` writes it with ``\\n`` line endings."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    return buf.getvalue()


def profile_of(samples, granularity: Granularity = Granularity.HOURLY) -> LoadProfile:
    """A profile of ``(timestamp, power)`` pairs."""
    samples = tuple(samples)
    return LoadProfile([ts for ts, _ in samples], [power for _, power in samples], granularity)


def hourly_day(powers, day: datetime = datetime(2016, 6, 1)) -> LoadProfile:
    samples = tuple((day + timedelta(hours=h), float(p)) for h, p in enumerate(powers))
    return profile_of(samples, Granularity.HOURLY)


def monthly_profile(month_to_kw=MONTHLY_AVG_KW, year: int = 2016) -> LoadProfile:
    samples = tuple(
        (datetime(year, month, 1), float(month_to_kw[month])) for month in sorted(month_to_kw)
    )
    return profile_of(samples, Granularity.MONTHLY_AVERAGE)


@pytest.fixture
def day_profile() -> LoadProfile:
    return hourly_day(DAY_CURVE_KW)


@pytest.fixture
def annual_profile() -> LoadProfile:
    return monthly_profile()


# ---------------------------------------------------------------------------
# hypothesis strategies

def power_kw(max_value: float, floor: float = MIN_POWER_KW):
    """A valid power: 0, or from ``floor`` (at least the profile's floor) to ``max_value`` kW.

    A test that scales or divides powers raises ``floor`` so that every result is a valid power too.
    """
    return st.just(0.0) | st.floats(min_value=floor, max_value=max_value)


_NAME_ALPHABET = string.ascii_letters + string.digits + " &()-'"

activity_names = (
    st.text(alphabet=_NAME_ALPHABET, min_size=1, max_size=24)
    .map(str.strip)
    .filter(lambda s: s and s.casefold() not in ACTIVITY_ALIASES)
)

_fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
# Each drawn ToU, wattage and fraction is 0 or at least the catalog's floor. A wattage is 0 or at least 1e3 times the
# floor, so that the wattages scaled by 1e-3, the smallest factor of the scaling property, are valid too.
_tous = st.just(0.0) | st.floats(min_value=MAGNITUDE_FLOOR, max_value=24.0)
_MIN_WATTS = 1e3 * MAGNITUDE_FLOOR
# a run fraction of at least twice the floor, and at most 1 less twice the floor, leaves an idle fraction over the floor
_run_fractions = st.sampled_from([0.0, 1.0]) | st.floats(min_value=2 * MAGNITUDE_FLOOR,
                                                         max_value=1.0 - 2 * MAGNITUDE_FLOOR)


@st.composite
def appliance_specs(draw, name: str | None = None) -> ApplianceSpec:
    run_watts = draw(st.just(0.0) | st.floats(min_value=_MIN_WATTS, max_value=5000.0))
    idle_watts = run_watts * draw(_fractions)  # <= run_watts
    run_fraction = draw(_run_fractions)
    return ApplianceSpec(
        activity=name if name is not None else draw(activity_names),
        tou_winter=draw(_tous),
        tou_summer=draw(_tous),
        units_winter=draw(st.integers(min_value=0, max_value=10)),
        units_summer=draw(st.integers(min_value=0, max_value=10)),
        run_watts=run_watts,
        idle_watts=idle_watts if idle_watts >= _MIN_WATTS else 0.0,
        operation=draw(st.sampled_from(list(OperationClass))),
        run_fraction=run_fraction,
        idle_fraction=1.0 - run_fraction,
    )


@st.composite
def catalogs(draw, min_size: int = 1, max_size: int = 6) -> Catalog:
    names = draw(
        st.lists(activity_names, min_size=min_size, max_size=max_size, unique_by=str.casefold)
    )
    specs = tuple(draw(appliance_specs(name=name)) for name in names)
    return Catalog(specs=specs)
