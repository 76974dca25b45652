"""Command-line interface.

Subcommands: ``composition``, ``profile-stats``, ``reconcile``, ``synth``,
``validate``. Exit codes: 0 success, 1 input or validation error, 2 I/O
error. Payload files are deterministic for identical inputs; run metadata
goes to a ``<out>.meta.json`` sidecar instead.
"""

from __future__ import annotations

import argparse
import json
import math
import shlex
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Iterator

from . import __version__, reconcile
from ._sourceio import csv_text
from .catalog import Catalog, CatalogError, Season, builtin_catalog, load_catalog
from .composition import (
    CompositionError,
    composition_shares,
    pie_data,
    seasonal_table,
    table_csv,
    table_json,
)
from .profile import (
    Granularity,
    LoadProfile,
    ProfileError,
    daily_extrema,
    load_profile,
    monthly_growth,
    normalize,
    peak_average_ratio,
    seasonal_split,
)
from .reconcile import ReconcileError, composition_from_attribution, disaggregate, scale_to_measured
from .synth import OccupancyError, default_occupancy, load_occupancy, synth_household_day


class PayloadError(ValueError):
    """A result cannot be written as strict JSON: it is NaN or infinite."""


_INPUT_ERRORS = (CatalogError, CompositionError, ProfileError, ReconcileError, OccupancyError, PayloadError)
_CELL = {str: _quote, int: int.__repr__, float: float.__repr__}  # cells written as json.dumps writes them


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loadcomp",
        description="Residential load composition: bottom-up appliance model, "
        "measured-profile statistics, and reconciliation of the two.",
    )
    parser.add_argument("--version", action="version", version=f"loadcomp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--format": dict(choices=("csv", "json"), default="json", help="payload format"),
        "--out": dict(type=Path, default=None, help="write payload here instead of stdout"),
        "--days-per-month": dict(type=int, default=30, help="days per month for monthly totals"),
        "--occupancy": dict(type=Path, default=None, help="24-value occupancy curve file"),
    }

    def add_command(name: str, handler, help: str, *flags: str, catalog: bool = True) -> argparse.ArgumentParser:
        """Add a subcommand with the shared ``flags`` its handler reads."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        if catalog:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--catalog", type=Path, help="appliance catalog file (.csv or .json)")
            group.add_argument("--builtin-paper", action="store_true", help="use the built-in 15-activity catalog")
        return p

    p = add_command("composition", cmd_composition, "seasonal consumption table and shares",
                    "--format", "--out", "--days-per-month")
    p.add_argument("--season", choices=("winter", "summer", "both"), default="both")
    p.add_argument("--integer-shares", action="store_true", help="round pie percentages to integers")

    p = add_command("profile-stats", cmd_profile_stats, "normalized series and summary statistics",
                    "--format", "--out", catalog=False)
    p.add_argument("--profile", type=Path, required=True, help="load profile CSV (timestamp,power_kw)")
    p.add_argument("--granularity", choices=[g.value for g in Granularity], default=None,
                   help="override the inferred sampling granularity")

    p = add_command("reconcile", cmd_reconcile, "scale the model to a measured day and attribute hours",
                    "--format", "--out", "--days-per-month", "--occupancy")
    p.add_argument("--profile", type=Path, required=True, help="measured one-day hourly CSV")
    p.add_argument("--season", choices=("winter", "summer"), default=None,
                   help="season (default: inferred from the measured day's month)")

    p = add_command("synth", cmd_synth, "synthesized per-activity 24-hour energy series",
                    "--format", "--out", "--occupancy")
    p.add_argument("--season", choices=("winter", "summer"), required=True)

    # validate always writes its verdict as JSON
    add_command("validate", cmd_validate, "parse and validate a catalog", "--out")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message; remap usage errors to 1
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    args.argv_text = shlex.join(argv if argv is not None else sys.argv[1:])
    try:
        payload, status = args.handler(args)
    except _INPUT_ERRORS as exc:
        print(f"loadcomp: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"loadcomp: I/O error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(args, payload)
    except OSError as exc:
        print(f"loadcomp: I/O error: {exc}", file=sys.stderr)
        return 2
    return status


def _emit(args, payload: str) -> None:
    if args.out is None:
        sys.stdout.write(payload)
        return
    args.out.write_text(payload, encoding="utf-8")
    sidecar = {
        "tool": "loadcomp",
        "version": __version__,
        "command": args.argv_text,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    Path(str(args.out) + ".meta.json").write_text(_json_payload(sidecar), encoding="utf-8")


def _json_payload(obj: dict) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, refusing NaN and infinities.

    The indenting encoder is pure Python. Here dicts of one shape share one
    ``%``-template, and a column of cells of one type is converted in one pass.
    """

    def texts(values: list, indent: str) -> Iterator[str]:
        """Each of ``values`` as json.dumps writes it, with ``indent`` starting each line after the first."""
        kinds = set(map(type, values))
        inner = indent + "  "
        if kinds == {dict} and len(set(map(tuple, values))) == 1 and set(map(type, values[0])) == {str}:
            template = "{" + ",".join(inner + _quote(key).replace("%", "%%") + ": %s" for key in values[0])
            columns = [texts([value[key] for value in values], inner) for key in values[0]]
            return map((template + indent + "}").__mod__, zip(*columns))
        if kinds == {list} and all(values):
            return ("[" + inner + ("," + inner).join(texts(value, inner)) + indent + "]" for value in values)
        if len(kinds) == 1 and kinds <= _CELL.keys() and (kinds != {float} or all(map(math.isfinite, values))):
            return map(_CELL[kinds.pop()], values)
        if len(values) > 1:  # values of mixed shapes: each on its own
            return (text for value in values for text in texts([value], indent))
        return iter([json.dumps(values[0], indent=2, allow_nan=False).replace("\n", indent)])

    try:  # texts are made lazily: json.dumps may raise while they are joined
        return "".join(texts([obj], "\n")) + "\n"
    except ValueError:  # json.dumps refuses NaN and infinities
        raise PayloadError("a result is not a finite number; an input value is out of range") from None


def _read(load, path: Path, what: str, error: type[Exception], **options):
    """``load(path, **options)``, reporting an unreadable or undecodable file as an input error."""
    try:
        return load(path, **options)
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from exc


def _get_catalog(args) -> Catalog:
    if args.builtin_paper:
        return builtin_catalog()
    return _read(load_catalog, args.catalog, "catalog", CatalogError)


def _get_profile(args) -> LoadProfile:
    granularity = Granularity(args.granularity) if getattr(args, "granularity", None) else None
    return _read(load_profile, args.profile, "profile", ProfileError, granularity=granularity)


def _get_occupancy(args):
    if args.occupancy is None:
        return default_occupancy()
    return _read(load_occupancy, args.occupancy, "occupancy", OccupancyError)


def _seasons(choice: str) -> list[Season]:
    if choice == "both":
        return [Season.WINTER, Season.SUMMER]
    return [Season(choice)]


def cmd_composition(args) -> tuple[str, int]:
    catalog = _get_catalog(args)
    pairs = [
        (seasonal_table(catalog, season, args.days_per_month), composition_shares(catalog, season))
        for season in _seasons(args.season)
    ]
    if args.format == "csv":
        return table_csv(pairs), 0
    payload = {"days_per_month": args.days_per_month, "seasons": {}}
    for table, report in pairs:
        entry = table_json(table, report)
        entry["pie"] = pie_data(report, integer_percent=args.integer_shares)
        payload["seasons"][table.season.value] = entry
    return _json_payload(payload), 0


def cmd_profile_stats(args) -> tuple[str, int]:
    profile = _get_profile(args)
    fractions = normalize(profile)
    stamps = [ts.isoformat() for ts in profile.timestamps]

    if args.format == "csv":
        return csv_text(("timestamp", "fraction"), zip(stamps, fractions)), 0

    split = seasonal_split(profile)
    split_summary = {}
    for season, part in split.items():
        if part.samples:
            split_summary[season.value] = {
                "samples": len(part),
                "mean_kw": part.mean_kw,
                "peak_kw": part.peak_kw,
            }
        else:
            split_summary[season.value] = {"samples": 0, "mean_kw": None, "peak_kw": None}

    try:
        extrema = daily_extrema(profile)._asdict()
    except ProfileError:  # not one hourly day
        extrema = None

    try:
        pairs = monthly_growth(profile)
    except ProfileError:  # hourly data
        growth = None
    else:
        month = {ts: ts.strftime("%Y-%m") for ts in profile.timestamps}
        growth = [{"from": month[a], "to": month[b], "pct": pct} for a, b, pct in pairs]

    payload = {
        "label": profile.label,
        "granularity": profile.granularity.value,
        "samples": len(profile),
        "peak_kw": profile.peak_kw,
        "peak_average_ratio": peak_average_ratio(profile),
        "normalized": [{"timestamp": ts, "fraction": f} for ts, f in zip(stamps, fractions)],
        "daily_extrema": extrema,
        "seasonal_split": split_summary,
        "monthly_growth_pct": growth,
    }
    return _json_payload(payload), 0


def cmd_reconcile(args) -> tuple[str, int]:
    catalog = _get_catalog(args)
    measured = _get_profile(args)
    occupancy = _get_occupancy(args)
    if measured.peak_kw <= 0:
        raise ProfileError("zero peak")
    season = Season(args.season) if args.season else Season.for_month(measured.samples[0][0].month)

    attribution = disaggregate(measured, catalog, season, occupancy)
    table = seasonal_table(catalog, season, args.days_per_month)
    # kW over one hour = kWh; scale the measured day up to a month
    measured_kwh_month = sum(measured.powers) * args.days_per_month
    result = scale_to_measured(table, measured_kwh_month)
    shares = composition_from_attribution(attribution)

    print(
        f"scale_factor={result.scale_factor:.6f} relative_gap={result.relative_gap:.6f}",
        file=sys.stderr,
    )
    if result.gap_warning:
        print(
            "loadcomp: warning: bottom-up total differs from measured energy "
            f"by more than {100 * reconcile.GAP_WARNING_THRESHOLD:.0f}%; "
            "the catalog may not represent this household",
            file=sys.stderr,
        )

    if args.format == "csv":
        rows = (
            (ts.hour, activity, series[index])
            for index, (ts, _) in enumerate(measured.samples)
            for activity, series in attribution.by_activity.items()
        )
        return csv_text(("hour", "activity", "kw"), rows), 0

    payload = {
        "season": season.value,
        "scale_factor": result.scale_factor,
        "relative_gap": result.relative_gap,
        "gap_warning": result.gap_warning,
        "measured_kwh_month": result.measured_energy_kwh,
        "bottom_up_kwh_month": result.bottom_up_energy_kwh,
        "adjusted_rows": [
            {
                "activity": row.activity,
                "per_unit_wh_day": row.per_unit_daily_wh,
                "household_wh_day": row.household_daily_wh,
            }
            for row in result.adjusted_table.rows
        ],
        "attributed_shares_pct": shares.shares,
        "attribution": [
            {
                "hour": ts.hour,
                "kw": {activity: series[index] for activity, series in attribution.by_activity.items()},
            }
            for index, (ts, _) in enumerate(measured.samples)
        ],
    }
    return _json_payload(payload), 0


def cmd_synth(args) -> tuple[str, int]:
    catalog = _get_catalog(args)
    occupancy = _get_occupancy(args)
    season = Season(args.season)
    day = synth_household_day(catalog, season, occupancy)

    if args.format == "csv":
        rows = (
            (hour, activity, series[hour])
            for hour in range(24)
            for activity, series in day.per_activity.items()
        )
        return csv_text(("hour", "activity", "wh"), rows), 0

    payload = {
        "season": season.value,
        "activities": {activity: list(series) for activity, series in day.per_activity.items()},
        "household_total": list(day.household_total),
        "daily_total_wh": day.daily_total_wh,
    }
    return _json_payload(payload), 0


def cmd_validate(args) -> tuple[str, int]:
    try:
        catalog = _get_catalog(args)
    except CatalogError as exc:
        payload = {"valid": False, "entries": 0, "error": str(exc)}
        return _json_payload(payload), 1
    payload = {"valid": True, "entries": len(catalog), "error": None}
    return _json_payload(payload), 0


if __name__ == "__main__":
    sys.exit(main())
