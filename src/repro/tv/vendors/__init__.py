"""Vendor plugin registry.

Importing this package registers every built-in vendor.  Registration
order is user-visible (it defines the ``Vendor`` enum order, grid
enumeration and report rows): the paper's pair first — Samsung before LG,
matching the original enum — then the extension vendors.

To add a vendor, write a module that builds a
:class:`~repro.tv.vendors.base.VendorProfile` (device class, services,
domain catalog, calibrated ACR profiles, capture-decision overrides and a
:class:`~repro.tv.vendors.base.VendorContract`), call
:func:`~repro.tv.vendors.base.register`, and import it here.  A worked
example lives in ``docs/architecture.md`` ("Vendor plugin layer").
"""

from .base import (ACTIVITY_ADS_ONLY, ACTIVITY_DOWNSAMPLED, ACTIVITY_FULL,
                   ACTIVITY_SILENT, OPTOUT_DOWNSAMPLE, OPTOUT_SILENCE,
                   RotationSpec, VendorContract, VendorProfile,
                   catalog_profiles, get, is_registered, paper_vendor_names,
                   register, vendor_names)
from . import samsung as _samsung  # noqa: F401  (registration order 1st)
from . import lg as _lg            # noqa: F401  (2nd)
from . import roku as _roku        # noqa: F401  (3rd)
from . import vizio as _vizio      # noqa: F401  (4th)

__all__ = [
    "ACTIVITY_ADS_ONLY",
    "ACTIVITY_DOWNSAMPLED",
    "ACTIVITY_FULL",
    "ACTIVITY_SILENT",
    "OPTOUT_DOWNSAMPLE",
    "OPTOUT_SILENCE",
    "RotationSpec",
    "VendorContract",
    "VendorProfile",
    "catalog_profiles",
    "get",
    "is_registered",
    "paper_vendor_names",
    "register",
    "vendor_names",
]
