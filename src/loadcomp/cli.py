"""Command-line interface.

Subcommands: ``composition``, ``profile-stats``, ``reconcile``, ``synth``,
``validate``. Exit codes: 0 success, 1 input or validation error, 2 I/O
error. Payload files are deterministic for identical inputs; run metadata
goes to a ``<out>.meta.json`` sidecar instead.
"""

from __future__ import annotations

import argparse
import functools
import math
import shlex
import sys
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__, reconcile
from ._sourceio import PayloadError, Rows, csv_text, json_text, render_value
from .catalog import Catalog, CatalogError, Season, builtin_catalog, load_catalog
from .composition import CompositionError, SeasonalConsumptionTable, composition_shares, ordered_sum, seasonal_table
from .profile import (
    Granularity,
    ProfileError,
    daily_extrema,
    load_profile,
    monthly_growth,
    normalize,
    peak_average_ratio,
    seasonal_split,
)
from .reconcile import ReconcileError, composition_from_attribution, disaggregate, scale_to_measured
from .synth import OccupancyError, default_occupancy, household_total, load_occupancy, synth_household_day


_INPUT_ERRORS = (CatalogError, CompositionError, ProfileError, ReconcileError, OccupancyError, PayloadError)


@functools.cache  # one shared parser per process: parse_args leaves it unchanged, so callers must too
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``_COMMANDS``, for the argvs that ``_parse`` does not read itself: help, usage and errors."""
    parser = argparse.ArgumentParser(
        prog="loadcomp",
        description="Residential load composition: bottom-up appliance model, "
        "measured-profile statistics, and reconciliation of the two.",
    )
    parser.add_argument("--version", action="version", version=f"loadcomp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, command=name)  # the name, as the whole parse sets it
        group = p.add_mutually_exclusive_group(required=True) if "--catalog" in flags else p
        for flag, spec in flags.items():
            (group if flag in _CATALOG else p).add_argument(flag, **spec)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
    except SystemExit as exc:  # argparse prints its own message; remap usage errors to 1
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        payload, status, *diagnostics = args.handler(args)  # a handler may add a text for stderr
        _emit(args, payload, argv)
    except _INPUT_ERRORS as exc:
        print(f"loadcomp: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # writing the payload; each loader reports its own file as an input error
        print(f"loadcomp: I/O error: {exc}", file=sys.stderr)
        return 2
    sys.stderr.writelines(diagnostics)  # after the payload is written, so that an error is the one line on stderr
    return status


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, read from ``_COMMANDS`` without a parser when ``argv`` is a subcommand and
    its flags, each in full and once, with values that are not empty, do not start with ``-``, convert and are in their
    choices, and the required flags are there. Any other argv goes to the parser, whose every message stays argparse's.
    """
    handler, _, flags = _COMMANDS.get(argv[0] if argv else "", (None, None, {}))
    tokens, values = iter(argv[1:]), {}
    for token in tokens:
        flag, eq, value = token.partition("=")
        spec = flags.get(flag)
        if spec is None or flag in values or eq and "action" in spec:
            break
        if "action" in spec:  # a bare store_true
            values[flag] = True
            continue
        value = value if eq else next(tokens, "")
        if value[:1] in ("", "-"):
            break
        try:
            value = values[flag] = spec.get("type", str)(value)
        except ValueError:
            break
        if value not in spec.get("choices", (value,)):
            break
    else:
        if handler and all(flag in values for flag, spec in flags.items() if spec.get("required")) and (
                "--catalog" not in flags or ("--catalog" in values) != ("--builtin-paper" in values)):
            args = argparse.Namespace(command=argv[0], handler=handler)  # then every dest, as one dict update
            vars(args).update({flag[2:].replace("-", "_"): values.get(flag, spec.get("default"))
                               for flag, spec in flags.items()})
            return args
    return build_parser().parse_args(argv)


def _emit(args, payload: str, argv: list[str]) -> None:
    if args.out is None:
        sys.stdout.write(payload)
        return
    args.out.write_text(payload, encoding="utf-8")
    sidecar = {"tool": "loadcomp", "version": __version__, "command": shlex.join(argv),
               "created_utc": datetime.now(timezone.utc).isoformat()}
    Path(str(args.out) + ".meta.json").write_text(json_text(sidecar), encoding="utf-8")


def _get_catalog(args) -> Catalog:
    return builtin_catalog() if args.builtin_paper else load_catalog(args.catalog)


def _get_occupancy(args):
    return default_occupancy() if args.occupancy is None else load_occupancy(args.occupancy)


def table_csv(pairs: Iterable[tuple[SeasonalConsumptionTable, dict[str, float]]]) -> str:
    """Render one or more (table, shares) pairs as CSV, one row per activity."""
    columns = {"activity": [], "season": [], "per_unit_wh_day": [], "household_wh_day": [], "share_pct": []}
    for table, shares in pairs:
        columns["activity"] += table.activities
        columns["season"] += [table.season.value] * len(table.activities)
        columns["per_unit_wh_day"] += map(render_value, table.per_unit_daily_wh)
        columns["household_wh_day"] += map(render_value, table.household_daily_wh)
        columns["share_pct"] += map(render_value, map(shares.__getitem__, table.activities))
    return csv_text(columns)


def table_json(table: SeasonalConsumptionTable, shares: dict[str, float]) -> dict:
    """JSON-ready dict for one season, full precision values, with one row per activity."""
    return {
        "season": table.season.value,
        "days_per_month": table.days_per_month,
        "daily_total_wh": table.daily_total_wh,
        "monthly_total_kwh": table.monthly_total_kwh,
        "rows": Rows(activity=table.activities, units=table.units, per_unit_wh_day=table.per_unit_daily_wh,
                     household_wh_day=table.household_daily_wh, share_pct=[*map(shares.__getitem__, table.activities)]),
    }


def pie_data(shares: dict[str, float], integer_percent: bool = False) -> Rows:
    """Pie-chart-ready rows of label and percent; integer rounding is presentation only.

    Integer percents sum to 100 by the largest-remainder method: each share's floor, and then one more for each of the
    largest remainders, ties in catalog order."""
    percents = [*shares.values()]
    if integer_percent:
        whole = [*map(math.floor, percents)]
        for i in sorted(range(len(whole)), key=lambda i: whole[i] - percents[i])[:100 - sum(whole)]:  # a stable sort
            whole[i] += 1
        percents = whole
    return Rows(label=[*shares], percent=percents)


def hourly_csv(hours: Sequence[int], series: dict[str, Sequence[float]], unit: str) -> str:
    """Long-form CSV ``hour,activity,<unit>``: one row per hour and activity, activities in ``series`` order."""
    names = list(series)
    return csv_text({
        "hour": [hour for hour in hours for _ in names],
        "activity": names * len(hours),
        unit: list(chain.from_iterable(zip(*series.values()))),
    })


def cmd_composition(args) -> tuple[str, int]:
    catalog = _get_catalog(args)
    seasons = Season if args.season == "both" else [Season(args.season)]  # the enum lists winter, then summer
    tables = [seasonal_table(catalog, season, args.days_per_month) for season in seasons]
    pairs = [(table, composition_shares(table)) for table in tables]
    if args.format == "csv":
        return table_csv(pairs), 0
    payload = {"days_per_month": args.days_per_month, "seasons": {}}
    for table, shares in pairs:
        entry = table_json(table, shares)
        entry["pie"] = pie_data(shares, integer_percent=args.integer_shares)
        payload["seasons"][table.season.value] = entry
    return json_text(payload), 0


def cmd_profile_stats(args) -> tuple[str, int]:
    profile = load_profile(args.profile, Granularity(args.granularity) if args.granularity else None)
    normalized = Rows(timestamp=profile.iso_texts, fraction=normalize(profile))

    if args.format == "csv":
        return csv_text(normalized), 0

    split = seasonal_split(profile)
    split_summary = {}
    for season, part in split.items():
        if len(part):
            split_summary[season.value] = {
                "samples": len(part),
                "mean_kw": part.mean_kw,
                "peak_kw": part.peak_kw,
            }
        else:
            split_summary[season.value] = {"samples": 0, "mean_kw": None, "peak_kw": None}

    try:
        extrema = daily_extrema(profile)
    except ProfileError:  # not one hourly day
        extrema = None

    try:
        froms, tos, pcts = monthly_growth(profile)
    except ProfileError:  # hourly data
        growth = None
    else:
        months = [text[:7] for text in profile.iso_texts]  # YYYY-MM, year 999 too
        growth = Rows({"from": [*map(months.__getitem__, froms)], "to": [*map(months.__getitem__, tos)], "pct": pcts})

    payload = {
        "label": args.profile.stem,
        "granularity": profile.granularity.value,
        "samples": len(profile),
        "peak_kw": profile.peak_kw,
        "peak_average_ratio": peak_average_ratio(profile),
        "normalized": normalized,
        "daily_extrema": extrema,
        "seasonal_split": split_summary,
        "monthly_growth_pct": growth,
    }
    return json_text(payload), 0


def cmd_reconcile(args) -> tuple[str, int, str]:
    catalog = _get_catalog(args)
    measured = load_profile(args.profile)
    occupancy = _get_occupancy(args)
    season = Season(args.season) if args.season else None
    attribution = disaggregate(measured, catalog, occupancy, args.days_per_month, season)
    result = scale_to_measured(attribution)
    shares = composition_from_attribution(attribution)

    if args.format == "csv":
        text = hourly_csv(measured.hours, attribution.by_activity, "kw")
    else:
        table = result.adjusted_table
        payload = {
            "season": table.season.value,
            "scale_factor": result.scale_factor,
            "relative_gap": result.relative_gap,
            "gap_warning": result.gap_warning,
            "measured_kwh_month": result.measured_energy_kwh,
            "bottom_up_kwh_month": result.bottom_up_energy_kwh,
            "adjusted_rows": Rows(activity=table.activities, per_unit_wh_day=table.per_unit_daily_wh,
                                  household_wh_day=table.household_daily_wh),
            "attributed_shares_pct": shares,
            "attribution": Rows(hour=measured.hours, kw=Rows(attribution.by_activity)),
        }
        text = json_text(payload)

    summary = f"scale_factor={result.scale_factor!r} relative_gap={result.relative_gap!r}\n"
    if result.gap_warning:
        summary += ("loadcomp: warning: bottom-up total differs from measured energy "
                    f"by more than {100 * reconcile.GAP_WARNING_THRESHOLD:.0f}%; "
                    "the catalog may not represent this household\n")
    return text, 0, summary


def cmd_synth(args) -> tuple[str, int]:
    catalog = _get_catalog(args)
    occupancy = _get_occupancy(args)
    season = Season(args.season)
    day = synth_household_day(seasonal_table(catalog, season), occupancy)

    if args.format == "csv":
        return hourly_csv(range(24), day, "wh"), 0

    payload = {
        "season": season.value,
        "activities": day,
        "household_total": household_total(day),
        "daily_total_wh": ordered_sum(map(ordered_sum, day.values())),
    }
    return json_text(payload), 0


def cmd_validate(args) -> tuple[str, int]:
    try:
        return json_text({"valid": True, "entries": len(_get_catalog(args)), "error": None}), 0
    except CatalogError as exc:
        return json_text({"valid": False, "entries": 0, "error": str(exc)}), 1


_FORMAT = {"--format": dict(choices=("csv", "json"), default="json", help="payload format")}
_OUT = {"--out": dict(type=Path, default=None, help="write payload here instead of stdout")}
_DAYS = {"--days-per-month": dict(type=int, default=30, help="days per month for monthly totals")}
_OCCUPANCY = {"--occupancy": dict(type=Path, default=None, help="24-value occupancy curve file")}
_CATALOG = {  # exactly one of the two
    "--catalog": dict(type=Path, help="appliance catalog file (.csv or .json)"),
    "--builtin-paper": dict(action="store_true", default=False, help="use the built-in 15-activity catalog"),
}
# each subcommand's handler, help and flags, in usage order, each flag as ``add_argument`` takes it
_COMMANDS = {
    "composition": (cmd_composition, "seasonal consumption table and shares", {
        **_FORMAT, **_OUT, **_DAYS, **_CATALOG, "--season": dict(choices=("winter", "summer", "both"), default="both"),
        "--integer-shares": dict(action="store_true", default=False, help="round pie percentages to integers")}),
    "profile-stats": (cmd_profile_stats, "normalized series and summary statistics", {
        **_FORMAT, **_OUT, "--profile": dict(type=Path, required=True, help="load profile CSV (timestamp,power_kw)"),
        "--granularity": dict(choices=[g.value for g in Granularity], default=None,
                              help="override the inferred sampling granularity")}),
    "reconcile": (cmd_reconcile, "scale the model to a measured day and attribute hours", {
        **_FORMAT, **_OUT, **_DAYS, **_OCCUPANCY, **_CATALOG,
        "--profile": dict(type=Path, required=True, help="measured one-day hourly CSV"),
        "--season": dict(choices=("winter", "summer"), default=None,
                         help="season (default: inferred from the measured day's month)")}),
    "synth": (cmd_synth, "synthesized per-activity 24-hour energy series", {
        **_FORMAT, **_OUT, **_OCCUPANCY, **_CATALOG, "--season": dict(choices=("winter", "summer"), required=True)}),
    "validate": (cmd_validate, "parse and validate a catalog", {**_OUT, **_CATALOG}),  # its verdict is always JSON
}


if __name__ == "__main__":
    sys.exit(main())
