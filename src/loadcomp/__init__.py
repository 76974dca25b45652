"""Residential load composition toolkit.

Combines a measured (top-down) load profile view with a bottom-up
appliance catalog model: seasonal consumption tables, composition share
reports, synthesized hourly shapes, and reconciliation of measured days
against the model.
"""

__version__ = "0.1.0"

from .catalog import Season, builtin_catalog
from .composition import composition_shares, seasonal_table
