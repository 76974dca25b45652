"""Every exit-0 output of the CLI, checked by the benchmark's independent oracle.

``bench/oracle.py`` recomputes each number of a payload from the inputs with its own arithmetic and never imports
loadcomp. The benchmark runs it on seeded workloads; here it checks the payloads of drawn catalogs and series. The
oracle covers the default occupancy curve and 30-day months, so the commands run with those.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import math
import tempfile
from datetime import datetime, timedelta, timezone
from functools import partial
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from loadcomp.cli import main
from loadcomp.profile import MAX_POWER_KW, MIN_POWER_KW
from conftest import catalogs, power_kw, serialize_catalog

ROOT = Path(__file__).resolve().parent.parent


def _benchmark_oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", ROOT / "bench" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _benchmark_oracle()

# The first month of summer and of winter: a drawn series holds samples of both seasons, which the oracle reads.
_SEASON_STARTS = (3, 10)
_OFFSETS = st.none() | st.integers(-14 * 4, 14 * 4).map(lambda quarters: timezone(timedelta(minutes=15 * quarters)))


@st.composite
def _peaked(draw, count: int, positive: bool = False) -> list[float]:
    """``count`` valid powers, all positive if ``positive``, with one largest: the oracle expects one normalized 1.0."""
    peak = draw(st.floats(min_value=math.nextafter(MIN_POWER_KW, math.inf) if positive else MIN_POWER_KW,
                          max_value=MAX_POWER_KW))
    below = math.nextafter(peak, 0)
    if positive:
        rest = st.floats(min_value=MIN_POWER_KW, max_value=below)
    else:
        rest = power_kw(below) if below >= MIN_POWER_KW else st.just(0.0)
    powers = draw(st.lists(rest, min_size=count - 1, max_size=count - 1))
    powers.insert(draw(st.integers(0, count - 1)), peak)
    return powers


@st.composite
def hourly_series(draw):
    """Hourly samples across a season change, so on more than one date: a series with no daily extrema."""
    count = draw(st.integers(2, 24 * 2))
    change = datetime(draw(st.integers(2, 9998)), draw(st.sampled_from(_SEASON_STARTS)), 1, tzinfo=draw(_OFFSETS))
    first = change - timedelta(hours=draw(st.integers(1, count - 1)))
    stamps = [(first + timedelta(hours=hour)).isoformat() for hour in range(count)]
    return oracle.Series("hourly", "hourly", stamps, draw(_peaked(count)))


@st.composite
def monthly_series(draw):
    """Month starts in both seasons, read as monthly averages.

    Every power is positive: the oracle expects a growth entry for each pair of months, and ``monthly_growth`` takes
    no zero power as a base.
    """
    # months counted from January of ``year``: 9-13 are October to February, 2-8 March to September
    winter, summer = draw(st.integers(9, 13)), draw(st.integers(2, 8))
    months = sorted({winter, summer, *draw(st.lists(st.integers(0, 12 * 20), max_size=16))})
    year, offset = draw(st.integers(1, 9970)), draw(_OFFSETS)
    stamps = [datetime(year + month // 12, 1 + month % 12, 1, tzinfo=offset).isoformat() for month in months]
    return oracle.Series("monthly", "monthly-average", stamps, draw(_peaked(len(stamps), positive=True)))


def _write_profile(path: Path, stamps, powers) -> None:
    path.write_text("timestamp,power_kw\n" + "".join(f"{stamp},{kw!r}\n" for stamp, kw in zip(stamps, powers)),
                    encoding="utf-8")


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=200, deadline=None)
@given(catalogs(), st.sampled_from(["csv", "json"]), st.dates(),
       st.lists(power_kw(MAX_POWER_KW), min_size=24, max_size=24), hourly_series(), monthly_series())
def test_every_exit_0_payload_passes_the_oracle(catalog, fmt, day, kw, hourly, monthly):
    """Each command and format on a drawn catalog, a measured day and two series; each exit code is the model's too.

    A command fails only where a season it needs has no energy, or the measured day none.
    """
    rows = [oracle.CatalogRow(*spec._replace(operation=spec.operation.value)) for spec in catalog]
    model, season = oracle.CatalogModel(rows), oracle.season_for_month(day.month)
    has_energy = {name: model.daily_wh(name) > 0 for name in ("winter", "summer")}
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        source = folder / f"catalog.{fmt}"
        source.write_text(serialize_catalog(catalog, fmt), encoding="utf-8")
        _write_profile(folder / "day.csv", [f"{day.isoformat()}T{hour:02d}:00" for hour in range(24)], kw)
        for series in hourly, monthly:
            _write_profile(folder / f"{series.label}.csv", series.stamps, series.kw)
        read = ["--catalog", str(source)]
        measured = [*read, "--profile", str(folder / "day.csv")]
        reconciles = has_energy[season] and math.fsum(kw) > 0
        runs = [  # argv, the oracle's check of its payload, and whether it succeeds
            (["validate", *read], partial(oracle.check_validate, entries=len(rows)), True),
            (["composition", *read], partial(oracle.check_composition_json, model=model), all(has_energy.values())),
            (["composition", *read, "--format", "csv"], partial(oracle.check_composition_csv, model=model),
             all(has_energy.values())),
            (["reconcile", *measured], partial(oracle.check_reconcile_json, kw=kw, season=season, model=model),
             reconciles),
            (["reconcile", *measured, "--format", "csv"],
             partial(oracle.check_reconcile_csv, kw=kw, season=season, model=model), reconciles),
        ]
        for name in "winter", "summer":
            runs += [(["synth", *read, "--season", name], partial(oracle.check_synth_json, model=model, season=name),
                      True),
                     (["synth", *read, "--season", name, "--format", "csv"],
                      partial(oracle.check_synth_csv, model=model, season=name), True)]
        for series in hourly, monthly:
            path = str(folder / f"{series.label}.csv")
            runs += [(["profile-stats", "--profile", path], partial(oracle.check_profile_json, series=series), True),
                     (["profile-stats", "--profile", path, "--format", "csv"],
                      partial(oracle.check_profile_csv, series=series), True)]
        for argv, check, succeeds in runs:
            code, payload = _run(argv)
            assert code == (0 if succeeds else 1), argv
            if code == 0:
                check(payload)
