"""Residential load composition toolkit.

Combines a measured (top-down) load profile view with a bottom-up
appliance catalog model: seasonal consumption tables, composition share
reports, synthesized hourly shapes, and reconciliation of measured days
against the model.
"""

__version__ = "0.1.0"

from .catalog import (
    ApplianceSpec,
    Catalog,
    CatalogError,
    OperationClass,
    Season,
    builtin_catalog,
    load_catalog,
    parse_catalog,
    serialize_catalog,
    validate_spec,
)
from .composition import (
    CompositionError,
    CompositionReport,
    DeviceEnergy,
    SeasonalConsumptionTable,
    SeasonPairReport,
    composition_shares,
    device_daily_energy,
    household_device_energy,
    season_pair_report,
    seasonal_table,
)
from .profile import (
    DailyExtrema,
    Granularity,
    LoadProfile,
    NormalizedProfile,
    ProfileError,
    daily_extrema,
    load_profile,
    monthly_growth,
    normalize,
    parse_profile,
    peak_average_ratio,
    seasonal_split,
)
from .reconcile import (
    HourlyAttribution,
    ReconcileError,
    ReconciliationResult,
    UnattributableLoadError,
    composition_from_attribution,
    disaggregate,
    scale_to_measured,
)
from .synth import (
    HourlyShape,
    OccupancyCurve,
    OccupancyError,
    SynthesizedDay,
    default_occupancy,
    load_occupancy,
    shape_for,
    synth_household_day,
)
