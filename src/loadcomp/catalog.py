"""Appliance catalog: the bottom-up parameter set for one household archetype.

Each entry describes a household activity (air conditioning, lighting, ...)
by seasonal time of use, unit count, run/idle wattage and the fractions of
operating time spent at run versus idle power. Catalogs are parsed from CSV
or JSON and every entry is validated before use.
"""

from __future__ import annotations

import csv
import enum
import functools
import io
import json
import math
from pathlib import Path
from typing import Iterable, NamedTuple

from ._sourceio import read_text

# Run and idle fractions must sum to 1; slack for binary floating point.
FRACTION_SUM_TOL = 1e-12

# Magnitude bounds: with ToU at most 24 h, every energy, total and share stays finite.
MAGNITUDE_BOUNDS = {"run_watts": 1e7, "idle_watts": 1e7, "units_winter": 10**6, "units_summer": 10**6}

# The floor of every non-zero ToU, wattage and fraction: a non-zero energy is then at least the floor cubed (about
# 1e-18 Wh/day), a normal float, and stays one when the wattages are scaled by 1e-3.
MAGNITUDE_FLOOR = 1e-6

# Historic spellings in source data map onto one canonical activity name.
ACTIVITY_ALIASES = {
    "water bump (dynamo)": "Water pump",
    "water bumb (dynamo)": "Water pump",
    "water bump": "Water pump",
    "water bumb": "Water pump",
}


class CatalogError(ValueError):
    """Catalog data cannot be parsed or violates an invariant."""


class OperationClass(enum.Enum):
    """How directly occupant behavior drives an appliance's schedule."""

    MANUAL = "Manual"
    SEMI_AUTO = "Semi Auto"
    AUTO = "Auto"

    @classmethod
    def parse(cls, text: str) -> OperationClass:
        """Case-insensitive parse accepting 'semi auto', 'semi-auto', 'semi_auto' and 'semiauto'."""
        key = " ".join(str(text).replace("-", " ").replace("_", " ").split()).lower()
        if key not in _OPERATIONS:
            raise ValueError(f"unknown operation class {text!r}")
        return _OPERATIONS[key]


# Each operation class by its parse key: its value in lower case, and "semiauto".
_OPERATIONS = {**{member.value.lower(): member for member in OperationClass}, "semiauto": OperationClass.SEMI_AUTO}

WINTER_MONTHS = frozenset({10, 11, 12, 1, 2})


class Season(enum.Enum):
    """Two-season year: winter is Oct-Feb, summer is Mar-Sep."""

    WINTER = "winter"
    SUMMER = "summer"

    @classmethod
    def for_month(cls, month: int) -> Season:
        if not 1 <= month <= 12:
            raise ValueError(f"month out of range: {month}")
        return cls.WINTER if month in WINTER_MONTHS else cls.SUMMER


class _Frozen:
    """Base of the validated types: ``__init__`` checks and sets every field, and nothing reassigns one."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ApplianceSpec(NamedTuple):
    """Calculation parameters for one household activity.

    Wattages in W, time of use in hours/day, unit counts per household.
    ``run_fraction`` and ``idle_fraction`` split the time of use between
    rated and standby power and must sum to 1. The record itself does
    not validate; :class:`Catalog` checks each entry with :func:`validate_spec`.
    """

    activity: str
    tou_winter: float
    tou_summer: float
    units_winter: int
    units_summer: int
    run_watts: float
    idle_watts: float
    operation: OperationClass
    run_fraction: float
    idle_fraction: float

    def tou(self, season: Season) -> float:
        return self.tou_winter if season is Season.WINTER else self.tou_summer

    def units(self, season: Season) -> int:
        return self.units_winter if season is Season.WINTER else self.units_summer


# The CSV columns and JSON keys of the wire format, in field order.
CSV_HEADER = ApplianceSpec._fields
# Named, not read from the annotations: postponed annotations make each field's type a ForwardRef.
_FLOAT_FIELDS = ("tou_winter", "tou_summer", "run_watts", "idle_watts", "run_fraction", "idle_fraction")


def validate_spec(spec: ApplianceSpec) -> list[str]:
    """Check one spec against its invariants.

    Returns a list of human-readable violations, each naming the offending
    field and rule; an empty list means the spec is valid.
    """
    violations = [
        f"{name}: must be a finite number (got {getattr(spec, name)})"
        for name in _FLOAT_FIELDS
        if not math.isfinite(getattr(spec, name))
    ]
    if violations:  # the range rules below mean nothing for nan or inf
        return violations
    if not spec.activity or not spec.activity.strip():
        violations.append("activity: name must be non-empty")
    for season in Season:
        t = spec.tou(season)
        if t < 0:
            violations.append(f"tou_{season.value}: must be >= 0 (got {t})")
        elif t > 24:
            violations.append(f"tou_{season.value}: ToU exceeds 24 h/day (got {t})")
        q = spec.units(season)
        if q < 0:
            violations.append(f"units_{season.value}: must be >= 0 (got {q})")
    for name, bound in MAGNITUDE_BOUNDS.items():
        if getattr(spec, name) > bound:
            violations.append(f"{name}: must be <= {bound:g} (got {getattr(spec, name)})")
    for name in _FLOAT_FIELDS:
        if 0 < getattr(spec, name) < MAGNITUDE_FLOOR:
            violations.append(f"{name}: must be 0 or >= {MAGNITUDE_FLOOR:g} (got {getattr(spec, name)})")
    if spec.idle_watts < 0:
        violations.append(f"idle_watts: must be >= 0 (got {spec.idle_watts})")
    elif spec.run_watts < spec.idle_watts:
        violations.append(
            f"run_watts: must be >= idle_watts (got {spec.run_watts} < {spec.idle_watts})"
        )
    for name, value in (("run_fraction", spec.run_fraction), ("idle_fraction", spec.idle_fraction)):
        if not 0 <= value <= 1:
            violations.append(f"{name}: must be within [0, 1] (got {value})")
    fraction_sum = spec.run_fraction + spec.idle_fraction
    if abs(fraction_sum - 1.0) > FRACTION_SUM_TOL:
        violations.append(
            f"run_fraction + idle_fraction must sum to 1 (got {fraction_sum})"
        )
    return violations


class Catalog(_Frozen):
    """Ordered, non-empty collection of valid appliance specs with case-insensitively unique names."""

    specs: tuple[ApplianceSpec, ...]

    def __init__(self, specs: Iterable[ApplianceSpec]) -> None:
        """Copy ``specs``, numbered from 1 as rows, checking each one as it is read; duplicates are checked last."""
        copied = []  # a caller's list could change after the checks
        for rownum, spec in enumerate(specs, start=1):
            violations = validate_spec(spec)
            if violations:
                raise CatalogError(f"row {rownum} ({spec.activity!r}): " + "; ".join(violations))
            copied.append(spec)
        specs = tuple(copied)
        if not specs:
            raise CatalogError("no entries")
        seen: set[str] = set()
        for rownum, spec in enumerate(specs, start=1):
            key = spec.activity.casefold()
            if key in seen:
                raise CatalogError(f"row {rownum}: duplicate activity name {spec.activity!r}")
            seen.add(key)
        vars(self).update(specs=specs)

    def __iter__(self):
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)


def parse_catalog(text: str, fmt: str = "csv") -> Catalog:
    """Parse and validate a catalog from CSV or JSON text.

    Rows are kept in file order. Raises :class:`CatalogError` naming the row
    and field on the first malformed or invalid entry; :class:`Catalog` checks
    each row as it is converted, so rows are reported in file order.
    """
    rows = _ROW_READERS[fmt](text)
    # Data rows are numbered from 1, as Catalog numbers its entries; a CSV header is not counted.
    return Catalog(specs=(_spec_from_mapping(raw, rownum) for rownum, raw in enumerate(rows, start=1)))


def load_catalog(path: str | Path) -> Catalog:
    """Read a ``.csv`` or ``.json`` catalog file, by its suffix; an unreadable file is a CatalogError."""
    path = Path(path)
    fmt = path.suffix.lower().lstrip(".")
    if fmt not in _ROW_READERS:
        raise CatalogError(f"cannot infer catalog format from suffix of {path.name!r}")
    return parse_catalog(read_text(path, "catalog", CatalogError), fmt=fmt)


def _rows_from_csv(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    try:
        fieldnames = reader.fieldnames
    except csv.Error as exc:  # a cell longer than csv.field_size_limit(), say
        raise CatalogError(f"header: {exc}") from None
    if fieldnames is None:
        return []
    have = [name.strip() for name in fieldnames]
    for fault, names in (("missing", [name for name in CSV_HEADER if name not in have]),
                         ("unexpected", [name for name in have if name not in CSV_HEADER]),
                         ("duplicate", [name for name in CSV_HEADER if have.count(name) > 1])):
        if names:  # the first kind of fault found, in this order
            raise CatalogError(f"{fault} column(s): {', '.join(map(repr, names))}")
    reader.fieldnames = have  # rows keyed by the stripped names that were checked
    rows: list[dict] = []  # DictReader skips blank lines, so rows are numbered as parse_catalog numbers them
    try:
        rows.extend(reader)
    except csv.Error as exc:
        raise CatalogError(f"row {len(rows) + 1}: {exc}") from None
    return rows


def _rows_from_json(text: str) -> list:
    try:
        data = json.loads(text) if text.strip() else []
    except ValueError as exc:  # JSONDecodeError, or an integer literal over the digit limit
        raise CatalogError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise CatalogError("catalog JSON must be an array of objects")
    return data  # each item is checked to be an object as its row is read


# Each supported catalog format, by name and file suffix, with the reader of its rows.
_ROW_READERS = {"csv": _rows_from_csv, "json": _rows_from_json}


# The order in which a row's fields are converted, so a row with several faults is refused for the first one here.
_READ_ORDER = ("activity", "operation", *(name for name in CSV_HEADER if name not in ("activity", "operation")))


def _spec_from_mapping(raw: dict, rownum: int) -> ApplianceSpec:
    if not isinstance(raw, dict):  # a JSON array item
        raise CatalogError(f"row {rownum}: expected an object, got {type(raw).__name__}")
    if None in raw:  # csv.DictReader files the cells past the header under None
        raise CatalogError(f"row {rownum}: more cells than the header's {len(CSV_HEADER)} columns")
    values = {}
    try:
        for name in _READ_ORDER:
            values[name] = _field_value(name, raw.get(name))
    except ValueError as exc:
        raise CatalogError(f"row {rownum}: {exc}") from None
    return ApplianceSpec(**values)


def _field_value(name: str, value):
    """A CSV cell or JSON value of field ``name`` as the field's type; a fault is a ValueError naming the field."""
    if value is None or (isinstance(value, str) and not value.strip()):  # an absent JSON key, too
        raise ValueError(f"missing field {name!r}")
    if name == "activity":
        text = str(value).strip()
        return ACTIVITY_ALIASES.get(text.casefold(), text)
    if name == "operation":
        return OperationClass.parse(str(value))
    try:
        if isinstance(value, bool):  # a JSON true or false is not a number
            raise TypeError
        number = float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int too large for a float
        raise ValueError(f"field {name!r} is not a number (got {value!r})") from None
    if name in _FLOAT_FIELDS:
        return number
    if not number.is_integer():  # a unit count; also false for nan and inf
        raise ValueError(f"field {name!r} must be a whole number (got {value!r})")
    return int(number)


# Built-in 15-activity archetype (2016 national household usage survey).
# Idle wattage listed for TV/PC/gaming never contributes because their
# run fraction is 1; the survey values are preserved as published.
_BUILTIN_ROWS = (
    ("Heating (oil-filled)", 8.0, 1.5, 2, 1, 1500.0, 0.0, OperationClass.SEMI_AUTO, 0.5, 0.5),
    ("Air conditioning", 3.0, 10.0, 2, 5, 1800.0, 100.0, OperationClass.SEMI_AUTO, 0.6, 0.4),
    ("Water heating", 14.0, 4.7, 3, 1, 1500.0, 30.0, OperationClass.AUTO, 0.3, 0.7),
    ("Water coolers", 10.0, 17.0, 1, 1, 250.0, 10.0, OperationClass.AUTO, 0.5, 0.5),
    ("Water pump", 1.5, 2.1, 1, 1, 250.0, 0.0, OperationClass.AUTO, 1.0, 0.0),
    ("Washing & Drying", 1.3, 1.9, 2, 2, 2000.0, 0.0, OperationClass.SEMI_AUTO, 1.0, 0.0),
    ("Ironing", 1.0, 1.8, 1, 1, 1000.0, 0.0, OperationClass.MANUAL, 1.0, 0.0),
    ("Vacuum cleaning", 1.0, 1.3, 1, 1, 1000.0, 0.0, OperationClass.MANUAL, 1.0, 0.0),
    ("Cooking", 1.6, 1.4, 1, 1, 2150.0, 0.0, OperationClass.SEMI_AUTO, 1.0, 0.0),
    ("Electric kettle", 1.3, 2.0, 1, 1, 1800.0, 0.0, OperationClass.MANUAL, 1.0, 0.0),
    ("Lighting", 7.3, 7.5, 50, 50, 10.0, 0.0, OperationClass.MANUAL, 1.0, 0.0),
    ("Food preservation", 24.0, 24.0, 2, 2, 100.0, 0.0, OperationClass.AUTO, 1.0, 0.0),
    ("TV", 5.3, 5.9, 1, 2, 120.0, 13.0, OperationClass.MANUAL, 1.0, 0.0),
    ("PC", 2.1, 2.6, 2, 2, 150.0, 7.5, OperationClass.MANUAL, 1.0, 0.0),
    ("Gaming devices", 2.6, 3.0, 4, 4, 30.0, 7.5, OperationClass.MANUAL, 1.0, 0.0),
)


@functools.cache  # the catalog is constant and immutable, so one per process serves every caller
def builtin_catalog() -> Catalog:
    """The built-in 15-activity household archetype catalog."""
    return Catalog(specs=tuple(ApplianceSpec(*row) for row in _BUILTIN_ROWS))
