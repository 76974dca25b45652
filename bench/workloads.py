"""Seeded inputs and invocation lists for the three benchmark workloads.

Every input is valid by construction and depends only on the workload name
and the seed, so the same seed gives byte-identical files. Each invocation
carries the oracle check for its payload, bound to the generated values, so
the check never has to read anything back through loadcomp.

Only ``random.Random.random`` is used, because its output for a given seed is
stable across Python versions.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from functools import partial
from pathlib import Path
from typing import Callable

import oracle

CATALOG_ACTIVITIES = 10_000
YEAR_HOURS = 8_760
SERIES_MONTHS = 120
YEAR_DAYS = 365

OPERATIONS = ("Manual", "Semi Auto", "Auto")
WORDS = ("Heater", "Cooler", "Pump", "Lamp", "Fan", "Oven", "Kettle", "Router",
         "Dryer", "Washer", "Freezer", "Charger", "Speaker", "Boiler", "Mixer")


@dataclass(frozen=True)
class Invocation:
    argv: list[str]
    check: Callable[[str], None]  # raises oracle.OracleError on a wrong payload


@dataclass(frozen=True)
class Workload:
    invocations: list[Invocation]
    units_per_pass: int  # work units of one pass, the numerator of throughput_per_s


def build(name: str, seed: int, directory: Path) -> Workload:
    """Write the inputs of workload ``name`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"loadcomp-bench/{name}/{seed}")
    return BUILDERS[name](rng, directory)


def _draw(rng: random.Random, low: float, high: float, digits: int) -> float:
    return round(low + (high - low) * rng.random(), digits)


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def _write_profile(path: Path, samples: list[tuple[str, float]]) -> None:
    _write_csv(path, ("timestamp", "power_kw"), ((ts, repr(kw)) for ts, kw in samples))


def _catalog_rows(rng: random.Random, count: int) -> list[oracle.CatalogRow]:
    rows = []
    for i in range(count):
        run_watts = _draw(rng, 5.0, 3000.0, 1)
        run_fraction = round(int(21 * rng.random()) / 20, 2)
        rows.append(oracle.CatalogRow(
            activity=f"{WORDS[int(len(WORDS) * rng.random())]} {i:05d}",
            tou_winter=_draw(rng, 0.0, 24.0, 2),
            tou_summer=_draw(rng, 0.0, 24.0, 2),
            units_winter=int(6 * rng.random()),
            units_summer=int(6 * rng.random()),
            run_watts=run_watts,
            idle_watts=round(run_watts * 0.2 * rng.random(), 1),
            operation=OPERATIONS[i % 3],  # the three classes in equal thirds
            run_fraction=run_fraction,
            idle_fraction=round(1.0 - run_fraction, 2),
        ))
    return rows


def _day_samples(rng: random.Random, day: date, low: float, high: float) -> list[tuple[str, float]]:
    """24 hourly kW samples with an evening peak; every value is positive."""
    samples = []
    for hour in range(24):
        shape = 0.6 + 0.4 * math.sin(math.pi * (hour - 9) / 12) ** 2
        kw = round(low + (high - low) * shape * (0.8 + 0.2 * rng.random()), 3)
        samples.append((datetime(day.year, day.month, day.day, hour).isoformat(), kw))
    return samples


def _with_unique_peak(rng: random.Random, values: list[float]) -> list[float]:
    """Raise one random sample above all others, so exactly one normalizes to 1."""
    values[int(len(values) * rng.random())] = round(max(values) + 0.5 + rng.random(), 3)
    return values


def _wide_catalog(rng: random.Random, directory: Path) -> Workload:
    rows = _catalog_rows(rng, CATALOG_ACTIVITIES)
    as_csv, as_json = directory / "catalog.csv", directory / "catalog.json"
    _write_csv(as_csv, oracle.CatalogRow._fields, rows)
    as_json.write_text(json.dumps([row._asdict() for row in rows], indent=2) + "\n", encoding="utf-8")

    day = date(2015 + int(10 * rng.random()), 1 + int(12 * rng.random()), 1 + int(28 * rng.random()))
    measured = _day_samples(rng, day, 20.0, 90.0)
    day_csv = directory / "day.csv"
    _write_profile(day_csv, measured)
    kw = [value for _, value in measured]
    season = oracle.season_for_month(day.month)
    model = oracle.CatalogModel(rows)

    def cmd(*args: str) -> list[str]:
        return [str(a) for a in args]

    invocations = [
        Invocation(cmd("validate", "--catalog", as_json), partial(oracle.check_validate, entries=len(rows))),
        Invocation(cmd("composition", "--catalog", as_csv, "--season", "both"),
                   partial(oracle.check_composition_json, model=model)),
        Invocation(cmd("composition", "--catalog", as_json, "--season", "both", "--format", "csv"),
                   partial(oracle.check_composition_csv, model=model)),
        Invocation(cmd("synth", "--catalog", as_csv, "--season", "winter"),
                   partial(oracle.check_synth_json, model=model, season="winter")),
        Invocation(cmd("synth", "--catalog", as_json, "--season", "summer", "--format", "csv"),
                   partial(oracle.check_synth_csv, model=model, season="summer")),
        Invocation(cmd("reconcile", "--catalog", as_csv, "--profile", day_csv),
                   partial(oracle.check_reconcile_json, kw=kw, season=season, model=model)),
        Invocation(cmd("reconcile", "--catalog", as_json, "--profile", day_csv, "--format", "csv"),
                   partial(oracle.check_reconcile_csv, kw=kw, season=season, model=model)),
    ]
    return Workload(invocations, units_per_pass=len(invocations) * len(rows))


def _long_series(rng: random.Random, directory: Path) -> Workload:
    start = datetime(2000 + int(10 * rng.random()), 1, 1)
    stamps = [(start + timedelta(hours=i)).isoformat() for i in range(YEAR_HOURS)]
    hourly = []
    for i, stamp in enumerate(stamps):
        seasonal = 1.0 + 0.3 * math.cos(2 * math.pi * i / 8760.0)
        diurnal = 0.6 + 0.4 * math.sin(math.pi * ((i % 24) - 9) / 12) ** 2
        hourly.append(round(seasonal * diurnal * (0.8 + 0.4 * rng.random()), 3))
    hourly = _with_unique_peak(rng, hourly)

    months = [datetime(start.year + m // 12, 1 + m % 12, 1).isoformat() for m in range(SERIES_MONTHS)]
    monthly = [round(1.0 + 0.3 * math.cos(2 * math.pi * m / 12) + 0.2 * rng.random(), 3)
               for m in range(SERIES_MONTHS)]
    monthly = _with_unique_peak(rng, monthly)

    hourly_csv, monthly_csv = directory / "hourly.csv", directory / "monthly.csv"
    _write_profile(hourly_csv, list(zip(stamps, hourly)))
    _write_profile(monthly_csv, list(zip(months, monthly)))
    hourly_series = oracle.Series("hourly", "hourly", stamps, hourly)
    monthly_series = oracle.Series("monthly", "monthly-average", months, monthly)
    invocations = [
        Invocation(["profile-stats", "--profile", str(hourly_csv)],
                   partial(oracle.check_profile_json, series=hourly_series)),
        Invocation(["profile-stats", "--profile", str(hourly_csv), "--format", "csv"],
                   partial(oracle.check_profile_csv, series=hourly_series)),
        Invocation(["profile-stats", "--profile", str(monthly_csv)],
                   partial(oracle.check_profile_json, series=monthly_series)),
    ]
    return Workload(invocations, units_per_pass=2 * YEAR_HOURS + SERIES_MONTHS)


def _daily_reconcile(rng: random.Random, directory: Path) -> Workload:
    year = 2001 + int(20 * rng.random())
    if year % 4 == 0:
        year += 1  # a common year, so 365 days make the whole year
    first = date(year, 1, 1)
    invocations = []
    for index in range(YEAR_DAYS):
        day = first + timedelta(days=index)
        measured = _day_samples(rng, day, 1.0, 4.5)
        path = directory / f"day_{index + 1:03d}.csv"
        _write_profile(path, measured)
        invocations.append(Invocation(
            ["reconcile", "--builtin-paper", "--profile", str(path)],
            partial(oracle.check_reconcile_json, kw=[kw for _, kw in measured],
                    season=oracle.season_for_month(day.month), model=None),
        ))
    return Workload(invocations, units_per_pass=YEAR_DAYS)


BUILDERS = {
    "wide_catalog": _wide_catalog,
    "long_series": _long_series,
    "daily_reconcile": _daily_reconcile,
}
