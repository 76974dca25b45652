"""Catalog parsing, validation, and the builtin archetype."""

import json
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loadcomp import Season, builtin_catalog
from loadcomp.catalog import (
    _FLOAT_FIELDS,
    MAGNITUDE_FLOOR,
    Catalog,
    CatalogError,
    OperationClass,
    load_catalog,
    parse_catalog,
    validate_spec,
)
from conftest import catalogs, csv_table, serialize_catalog, spec_named

CSV_HEADER = (
    "activity,tou_winter,tou_summer,units_winter,units_summer,"
    "run_watts,idle_watts,operation,run_fraction,idle_fraction"
)


def row(activity="Air conditioning", tou_w=3, tou_s=10, units_w=2, units_s=5,
        run_w=1800, idle_w=100, op="Semi Auto", run_f=0.6, idle_f=0.4):
    return f"{activity},{tou_w},{tou_s},{units_w},{units_s},{run_w},{idle_w},{op},{run_f},{idle_f}"


def csv_of(*rows):
    return "\n".join((CSV_HEADER,) + rows) + "\n"


class TestSeason:
    def test_every_month_maps_to_exactly_one_season(self):
        by_season = {season: {m for m in range(1, 13) if Season.for_month(m) is season} for season in Season}
        assert by_season[Season.WINTER] | by_season[Season.SUMMER] == set(range(1, 13))
        assert not by_season[Season.WINTER] & by_season[Season.SUMMER]

    def test_winter_is_oct_through_feb(self):
        assert {m for m in range(1, 13) if Season.for_month(m) is Season.WINTER} == {10, 11, 12, 1, 2}
        assert {m for m in range(1, 13) if Season.for_month(m) is Season.SUMMER} == {3, 4, 5, 6, 7, 8, 9}

    @pytest.mark.parametrize("month", [0, 13, -1])
    def test_out_of_range_month_rejected(self, month):
        with pytest.raises(ValueError):
            Season.for_month(month)


class TestOperationClass:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("manual", OperationClass.MANUAL),
            ("MANUAL", OperationClass.MANUAL),
            ("semi auto", OperationClass.SEMI_AUTO),
            ("Semi-Auto", OperationClass.SEMI_AUTO),
            ("semi_auto", OperationClass.SEMI_AUTO),
            ("SemiAuto", OperationClass.SEMI_AUTO),
            ("auto", OperationClass.AUTO),
        ],
    )
    def test_parse_variants(self, text, expected):
        assert OperationClass.parse(text) is expected

    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError, match="unknown operation"):
            OperationClass.parse("sometimes")


class TestValidateSpec:
    def test_half_and_half_fractions_ok(self, paper_catalog):
        heating = spec_named(paper_catalog, "Heating (oil-filled)")
        assert validate_spec(heating) == []

    def test_boundary_fractions_ok(self, paper_catalog):
        spec = spec_named(paper_catalog, "Ironing")  # run 1.0, idle 0.0
        assert spec.run_fraction == 1.0 and spec.idle_fraction == 0.0
        assert validate_spec(spec) == []

    def test_tou_over_24_reported(self, paper_catalog):
        spec = paper_catalog.specs[0]._replace(tou_summer=25.0)
        violations = validate_spec(spec)
        assert any("ToU exceeds 24 h/day" in v for v in violations)
        assert any(v.startswith("tou_summer") for v in violations)

    def test_fraction_sum_violation_names_rule(self, paper_catalog):
        spec = paper_catalog.specs[0]._replace(run_fraction=0.6, idle_fraction=0.5)
        violations = validate_spec(spec)
        assert any("run_fraction + idle_fraction must sum to 1" in v for v in violations)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_reported_alone(self, paper_catalog, value):
        spec = paper_catalog.specs[0]._replace(run_fraction=value)
        assert validate_spec(spec) == [f"run_fraction: must be a finite number (got {value})"]

    def test_every_float_field_is_checked_for_finiteness(self):
        """Spelled out in the code too: postponed annotations give a record no readable field types."""
        assert _FLOAT_FIELDS == ("tou_winter", "tou_summer", "run_watts", "idle_watts", "run_fraction", "idle_fraction")

    def test_idle_above_run_reported(self, paper_catalog):
        spec = paper_catalog.specs[0]._replace(run_watts=50.0, idle_watts=80.0)
        assert any("run_watts" in v for v in validate_spec(spec))

    def test_magnitudes_at_their_bounds_ok(self, paper_catalog):
        spec = paper_catalog.specs[0]._replace(run_watts=1e7, idle_watts=1e7,
                                               units_winter=10**6, units_summer=10**6)
        assert validate_spec(spec) == []

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"run_watts": 2e7}, "run_watts"),
            ({"run_watts": 2e7, "idle_watts": 2e7}, "idle_watts"),
            ({"units_winter": 10**6 + 1}, "units_winter"),
            ({"units_summer": 10**6 + 1}, "units_summer"),
        ],
    )
    def test_magnitude_above_its_bound_names_the_field(self, paper_catalog, changes, field):
        spec = paper_catalog.specs[0]._replace(**changes)
        assert any(v.startswith(f"{field}: must be <= ") for v in validate_spec(spec))


    def test_magnitudes_at_their_floors_ok(self, paper_catalog):
        floor = MAGNITUDE_FLOOR
        spec = paper_catalog.specs[0]._replace(tou_winter=floor, tou_summer=floor, run_watts=floor, idle_watts=floor,
                                               run_fraction=floor, idle_fraction=1.0 - floor)
        assert validate_spec(spec) == []

    @pytest.mark.parametrize("value", [5e-324, math.nextafter(MAGNITUDE_FLOOR, 0.0)])
    @pytest.mark.parametrize("field", _FLOAT_FIELDS)
    def test_a_non_zero_value_below_its_floor_is_one_violation(self, paper_catalog, field, value):
        """Such a value can make an energy subnormal, or 0.0 once the wattages are scaled down."""
        others = {"run_watts": {"idle_watts": 0.0}, "run_fraction": {"idle_fraction": 1.0 - value},
                  "idle_fraction": {"run_fraction": 1.0 - value}}  # the rest of the spec stays valid
        spec = paper_catalog.specs[0]._replace(**{field: value, **others.get(field, {})})
        assert validate_spec(spec) == [f"{field}: must be 0 or >= 1e-06 (got {value!r})"]


class TestParseCatalog:
    def test_single_row_example(self):
        catalog = parse_catalog(csv_of(row()))
        spec = catalog.specs[0]
        assert spec.activity == "Air conditioning"
        assert spec.run_fraction == 0.6 and spec.idle_fraction == 0.4
        assert spec.operation is OperationClass.SEMI_AUTO
        assert spec.tou(Season.WINTER) == 3 and spec.tou(Season.SUMMER) == 10
        assert spec.units(Season.WINTER) == 2 and spec.units(Season.SUMMER) == 5

    def test_empty_file_is_no_entries(self):
        with pytest.raises(CatalogError, match="no entries"):
            parse_catalog("")

    def test_header_only_is_no_entries(self):
        with pytest.raises(CatalogError, match="no entries"):
            parse_catalog(CSV_HEADER + "\n")

    def test_fraction_sum_violation_rejected_with_row(self):
        source = csv_of(row(run_f=0.6, idle_f=0.5))
        with pytest.raises(CatalogError, match=r"row 1 .*sum to 1 \(got 1.1\)"):
            parse_catalog(source)

    def test_tou_out_of_range_rejected(self):
        with pytest.raises(CatalogError, match="ToU exceeds 24"):
            parse_catalog(csv_of(row(tou_s=25)))

    def test_duplicate_activity_rejected(self):
        source = csv_of(row(), row())
        with pytest.raises(CatalogError, match="row 2: duplicate activity"):
            parse_catalog(source)

    def test_row_violation_is_reported_before_an_earlier_duplicate(self):
        source = csv_of(row(), row(), row(activity="TV", tou_s=25))
        with pytest.raises(CatalogError, match=r"row 3 \('TV'\): .*ToU exceeds 24"):
            parse_catalog(source)

    def test_a_broken_rule_is_reported_before_a_later_non_number(self):
        source = csv_of(row(tou_s=25), row(activity="TV"), row(activity="PC", run_w="lots"))
        with pytest.raises(CatalogError, match=r"^row 1 \('Air conditioning'\): tou_summer: ToU exceeds 24"):
            parse_catalog(source)

    def test_malformed_number_names_row_and_field(self):
        with pytest.raises(CatalogError, match=r"row 1: field 'run_watts' is not a number"):
            parse_catalog(csv_of(row(run_w="lots")))

    def test_fractional_unit_count_rejected(self):
        with pytest.raises(CatalogError, match=r"field 'units_winter' must be a whole number"):
            parse_catalog(csv_of(row(units_w=2.5)))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_unit_count_rejected(self, value):
        with pytest.raises(CatalogError, match=rf"row 1: field 'units_summer' must be a whole number \(got '{value}'\)"):
            parse_catalog(csv_of(row(units_s=value)))

    @pytest.mark.parametrize(
        "field, key",
        [("tou_winter", "tou_w"), ("tou_summer", "tou_s"), ("run_watts", "run_w"),
         ("idle_watts", "idle_w"), ("run_fraction", "run_f"), ("idle_fraction", "idle_f")],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_float_field_names_the_field(self, field, key, value):
        with pytest.raises(CatalogError, match=rf"row 1 .*{field}: must be a finite number \(got {value}\)"):
            parse_catalog(csv_of(row(**{key: value})))

    def test_json_non_finite_value_rejected(self):
        source = serialize_catalog(builtin_catalog(), fmt="json").replace('"run_watts": 1500.0', '"run_watts": NaN', 1)
        with pytest.raises(CatalogError, match=r"row 1 .*run_watts: must be a finite number"):
            parse_catalog(source, fmt="json")

    def test_missing_column_rejected(self):
        bad = CSV_HEADER.replace(",idle_fraction", "")
        with pytest.raises(CatalogError, match="missing column"):
            parse_catalog(bad + "\n" + "x,1,1,1,1,10,0,Auto,1\n")

    def test_unexpected_column_rejected(self):
        with pytest.raises(CatalogError, match="unexpected column"):
            parse_catalog(CSV_HEADER + ",color\n")

    @pytest.mark.parametrize("header, message", [
        (CSV_HEADER + ',"x\nloadcomp: error: fake"', "^unexpected column\\(s\\): 'x\\\\nloadcomp: error: fake'$"),
        (CSV_HEADER.replace("idle_fraction", '"idle_fraction\nfake"'),
         "^missing column\\(s\\): 'idle_fraction'$"),
    ])
    def test_column_names_in_errors_are_quoted(self, header, message):
        """A header cell can hold a line break; quoted, it cannot start a second line of the message."""
        with pytest.raises(CatalogError, match=message):
            parse_catalog(header + "\n")

    def test_duplicate_column_rejected(self):
        """With ``activity`` twice, the last cell would name the row: 'Radio', not 'TV'."""
        with pytest.raises(CatalogError, match="^duplicate column\\(s\\): 'activity'$"):
            parse_catalog("activity," + CSV_HEADER + "\n" + "TV," + row(activity="Radio") + "\n")

    def test_padded_header_names_read_as_the_plain_ones(self):
        padded = CSV_HEADER.replace(",", ", ") + "\n" + row() + "\n"
        assert parse_catalog(padded).specs == parse_catalog(csv_of(row())).specs

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_missing_operation_names_its_row_once(self, fmt):
        """An empty CSV cell, or a JSON object without the key."""
        if fmt == "csv":
            source = csv_of(row(op=""))
        else:
            rows = json.loads(serialize_catalog(builtin_catalog(), fmt))
            del rows[0]["operation"]
            source = json.dumps(rows)
        with pytest.raises(CatalogError) as info:
            parse_catalog(source, fmt)
        assert str(info.value) == "row 1: missing field 'operation'"

    def test_unknown_operation_names_row(self):
        with pytest.raises(CatalogError, match="row 1: unknown operation"):
            parse_catalog(csv_of(row(op="mystery")))

    @pytest.mark.parametrize("alias", ["Water Bump (Dynamo)", "Water Bumb (Dynamo)", "water bump"])
    def test_legacy_pump_spellings_canonicalized(self, alias):
        catalog = parse_catalog(csv_of(row(activity=alias, op="Auto", run_f=1, idle_f=0, idle_w=0)))
        assert catalog.specs[0].activity == "Water pump"

    def test_json_array_parsed(self):
        source = serialize_catalog(builtin_catalog(), fmt="json")
        catalog = parse_catalog(source, fmt="json")
        assert catalog.specs == builtin_catalog().specs

    def test_json_non_array_rejected(self):
        with pytest.raises(CatalogError, match="must be an array"):
            parse_catalog('{"activity": "TV"}', fmt="json")

    def test_json_rows_are_checked_in_file_order(self):
        """A fault in row 1 is named before a later item that is not an object."""
        rows = json.loads(serialize_catalog(builtin_catalog(), "json"))[:2]
        rows[0]["tou_winter"] = 30
        with pytest.raises(CatalogError, match=r"^row 1 \('Heating \(oil-filled\)'\): tou_winter: ToU exceeds 24"):
            parse_catalog(json.dumps([*rows, 5]), "json")

    @pytest.mark.parametrize("item", [5, None, "TV", [1]])
    def test_a_json_item_that_is_not_an_object_names_its_row(self, item):
        source = json.dumps([*json.loads(serialize_catalog(builtin_catalog(), "json"))[:2], item])
        with pytest.raises(CatalogError, match=f"^row 3: expected an object, got {type(item).__name__}$"):
            parse_catalog(source, "json")

    def test_invalid_json_rejected(self):
        with pytest.raises(CatalogError, match="invalid JSON"):
            parse_catalog("{nope", fmt="json")

    @pytest.mark.parametrize("line", ["TV,1,1,1,1,100,0,Manual,1,0,999", "TV,1,1,1,1,100,0,Manual,1,0,,"])
    def test_a_row_with_more_cells_than_the_header_is_rejected(self, line):
        """``csv.DictReader`` files the extra cells under the key ``None``; the row must not read as valid."""
        with pytest.raises(CatalogError, match="^row 1: more cells than the header's 10 columns$"):
            parse_catalog(csv_of(line))

    def test_extra_cells_are_reported_in_file_order(self):
        with pytest.raises(CatalogError, match="^row 1 .*tou_summer: ToU exceeds 24 h/day"):
            parse_catalog(csv_of(row(tou_s=25), "TV,1,1,1,1,100,0,Manual,1,0,999"))


class TestLoadCatalog:
    @pytest.mark.parametrize("content", [None, b"\xff\xfe" + CSV_HEADER.encode()], ids=["missing", "undecodable"])
    def test_an_unreadable_file_is_a_catalog_error(self, tmp_path, content):
        path = tmp_path / "catalog.csv"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(CatalogError, match=f"^cannot read catalog file {re.escape(str(path))}: "):
            load_catalog(path)

    def test_the_suffix_is_checked_before_the_file_is_read(self, tmp_path):
        with pytest.raises(CatalogError, match="^cannot infer catalog format from suffix of 'missing.txt'$"):
            load_catalog(tmp_path / "missing.txt")


class TestCatalogStructure:
    def test_empty_catalog_rejected(self):
        with pytest.raises(CatalogError, match="no entries"):
            Catalog(specs=())

    def test_duplicate_names_rejected_case_insensitively(self, paper_catalog):
        clone = paper_catalog.specs[0]._replace(activity="AIR CONDITIONING")
        with pytest.raises(CatalogError, match="duplicate activity"):
            Catalog(specs=(paper_catalog.specs[1], clone))

    @pytest.mark.parametrize("position", [0, 1])
    def test_an_invalid_entry_is_rejected_naming_its_row_and_field(self, paper_catalog, position):
        """A catalog built in Python meets the rules of a catalog file."""
        specs = list(paper_catalog.specs[:2])
        specs[position] = specs[position]._replace(tou_winter=-1.0)
        message = f"row {position + 1} ({specs[position].activity!r}): tou_winter: must be >= 0 (got -1.0)"
        with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
            Catalog(specs=specs)

    def test_a_list_changed_after_construction_leaves_the_catalog_unchanged(self, paper_catalog):
        specs = [paper_catalog.specs[0]]
        catalog = Catalog(specs=specs)
        specs.append(paper_catalog.specs[0])  # a duplicate name that the check never saw
        assert catalog.specs == (paper_catalog.specs[0],)


class TestBuiltinCatalog:
    def test_fifteen_activities(self, paper_catalog):
        assert len(paper_catalog) == 15

    def test_water_heating_parameters(self, paper_catalog):
        spec = spec_named(paper_catalog, "Water heating")
        assert spec.tou_winter == 14 and spec.tou_summer == 4.7
        assert spec.units_winter == 3 and spec.units_summer == 1
        assert spec.run_watts == 1500 and spec.idle_watts == 30
        assert spec.run_fraction == 0.3
        assert spec.operation is OperationClass.AUTO

    def test_lighting_parameters(self, paper_catalog):
        spec = spec_named(paper_catalog, "Lighting")
        assert spec.units_winter == 50 and spec.units_summer == 50
        assert spec.run_watts == 10

    def test_all_entries_valid(self, paper_catalog):
        for spec in paper_catalog:
            assert validate_spec(spec) == [], spec.activity

    def test_row_order_matches_source_table(self, paper_catalog):
        activities = [spec.activity for spec in paper_catalog]
        assert activities[:3] == ["Heating (oil-filled)", "Air conditioning", "Water heating"]
        assert activities[-1] == "Gaming devices"


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_builtin_round_trips(self, paper_catalog, fmt):
        parsed = parse_catalog(serialize_catalog(paper_catalog, fmt=fmt), fmt=fmt)
        assert parsed.specs == paper_catalog.specs

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @given(catalog=catalogs())
    def test_random_catalogs_round_trip(self, fmt, catalog):
        parsed = parse_catalog(serialize_catalog(catalog, fmt=fmt), fmt=fmt)
        assert parsed.specs == catalog.specs


# The order in which a row's fields are converted: a row with several faults is refused for the first one here.
READ_ORDER = ("activity", "operation", "tou_winter", "tou_summer", "units_winter", "units_summer",
              "run_watts", "idle_watts", "run_fraction", "idle_fraction")
ABSENT = object()  # a JSON key left out


def field_faults(name: str, fmt: str):
    """A faulty value of field ``name`` in a ``fmt`` catalog, with the message that refuses it after ``row N: ``."""
    blanks = [ABSENT, None, "", " "] if fmt == "json" else ["", " "]
    faults = [st.sampled_from(blanks).map(lambda value: (value, f"missing field {name!r}"))]
    if name == "operation":
        faults.append(st.just(("sometimes", "unknown operation class 'sometimes'")))
    elif name != "activity":
        others = ["lots", "1,5", "0x10"] + ([True, False, [1]] if fmt == "json" else ["True"])
        faults.append(st.sampled_from(others).map(
            lambda value: (value, f"field {name!r} is not a number (got {value!r})")))
    if name.startswith("units"):
        wholes = [2.5, math.inf, -math.inf, math.nan] if fmt == "json" else ["2.5", "inf", "-inf", "nan", "1e-3"]
        faults.append(st.sampled_from(wholes).map(
            lambda value: (value, f"field {name!r} must be a whole number (got {value!r})")))
    return st.one_of(faults)


class TestReadOrder:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @given(catalog=catalogs(), data=st.data())
    def test_a_row_is_refused_for_its_first_faulty_field_in_read_order(self, fmt, catalog, data):
        rows = [{**spec._asdict(), "operation": spec.operation.value} for spec in catalog]
        at = data.draw(st.integers(0, len(rows) - 1), label="row index")
        names = data.draw(st.lists(st.sampled_from(READ_ORDER), min_size=1, max_size=3, unique=True), label="fields")
        messages = {}
        for name in names:
            rows[at][name], messages[name] = data.draw(field_faults(name, fmt), label=name)
        if fmt == "csv":
            source = csv_table([CSV_HEADER.split(","), *map(dict.values, rows)])  # each row's keys in header order
        else:
            source = json.dumps([{key: value for key, value in row.items() if value is not ABSENT} for row in rows])
        with pytest.raises(CatalogError) as raised:
            parse_catalog(source, fmt)
        assert str(raised.value) == f"row {at + 1}: {messages[min(names, key=READ_ORDER.index)]}"
