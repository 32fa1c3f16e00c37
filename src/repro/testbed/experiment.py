"""Experiment vocabulary: scenarios, phases, countries, vendors, specs.

One :class:`ExperimentSpec` names a single one-hour capture; the paper's
own matrix is 6 scenarios x 4 phases x 2 vendors x 2 countries, and every
vendor registered in :mod:`repro.tv.vendors` widens the vendor axis (the
extension vendors make the full grid 4-wide).
"""

from __future__ import annotations

from enum import Enum
from typing import List

from ..sim.clock import hours, seconds
from ..tv import vendors as vendor_registry

#: The vendor axis, generated from the plugin registry in registration
#: order (paper pair first) — registering a fifth vendor extends the grid
#: without touching this module.
Vendor = Enum("Vendor", [(name.upper(), name)
                         for name in vendor_registry.vendor_names()],
              module=__name__, qualname="Vendor")
Vendor.__doc__ = "One registered TV vendor (see repro.tv.vendors)."


def paper_vendors() -> List["Vendor"]:
    """The vendors the source paper audited, for the scorecard/tables."""
    return [Vendor(name) for name in vendor_registry.paper_vendor_names()]


def vendor_profile_of(vendor: "Vendor"):
    """The registered profile behind one enum member."""
    return vendor_registry.get(vendor.value)


class Country(Enum):
    UK = "uk"
    US = "us"

    @property
    def vantage(self) -> str:
        """Region key for the latency model / traceroute vantage."""
        return "uk" if self is Country.UK else "us_west"


class Scenario(Enum):
    """The six experimental scenarios (§3.2)."""

    IDLE = "idle"
    LINEAR = "linear"
    FAST = "fast"
    OTT = "ott"
    HDMI = "hdmi"
    SCREEN_CAST = "screen_cast"


class Phase(Enum):
    """The four privacy-configuration phases (§3.2, Figure 3)."""

    LIN_OIN = "LIn-OIn"       # logged in,  opted in
    LOUT_OIN = "LOut-OIn"     # logged out, opted in
    LIN_OOUT = "LIn-OOut"     # logged in,  opted out
    LOUT_OOUT = "LOut-OOut"   # logged out, opted out

    @property
    def logged_in(self) -> bool:
        return self in (Phase.LIN_OIN, Phase.LIN_OOUT)

    @property
    def opted_in(self) -> bool:
        return self in (Phase.LIN_OIN, Phase.LOUT_OIN)


DEFAULT_DURATION_NS = hours(1)
POWER_ON_AT_NS = seconds(2)
SCENARIO_START_NS = seconds(30)


class ExperimentSpec:
    """One experiment cell in the paper's matrix."""

    __slots__ = ("vendor", "country", "scenario", "phase", "duration_ns")

    def __init__(self, vendor: Vendor, country: Country,
                 scenario: Scenario, phase: Phase,
                 duration_ns: int = DEFAULT_DURATION_NS) -> None:
        if duration_ns <= SCENARIO_START_NS:
            raise ValueError("experiment too short for the workflow")
        self.vendor = vendor
        self.country = country
        self.scenario = scenario
        self.phase = phase
        self.duration_ns = duration_ns

    @property
    def label(self) -> str:
        return (f"{self.vendor.value}-{self.country.value}-"
                f"{self.scenario.value}-{self.phase.value}")

    def __repr__(self) -> str:
        return f"ExperimentSpec({self.label})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ExperimentSpec)
                and other.label == self.label
                and other.duration_ns == self.duration_ns)

    def __hash__(self) -> int:
        return hash((self.label, self.duration_ns))

