"""The Data Privacy Framework (DPF) participant list.

The paper checks whether viewership data may lawfully flow from the UK to
the US: "both Alphonso (for LG) and Samsung are on the DPF List, allowing
data transfers between the UK and the US under the UK-US Data Bridge."
"""

from __future__ import annotations

from typing import Dict, List


class DpfParticipant:
    """One organisation on the DPF list."""

    __slots__ = ("organisation", "providers", "uk_extension", "active")

    def __init__(self, organisation: str, providers: List[str],
                 uk_extension: bool, active: bool = True) -> None:
        self.organisation = organisation
        # Provider keys as used by the IP space / domain registry.
        self.providers = providers
        # Participation in the UK Extension ("UK-US Data Bridge").
        self.uk_extension = uk_extension
        self.active = active

    def __repr__(self) -> str:
        bridge = "UK bridge" if self.uk_extension else "no UK bridge"
        return f"DpfParticipant({self.organisation!r}, {bridge})"


_PARTICIPANTS: List[DpfParticipant] = [
    DpfParticipant("Samsung Electronics America, Inc.", ["samsung"],
                   uk_extension=True),
    DpfParticipant("Alphonso Inc. (LG Ad Solutions)", ["alphonso"],
                   uk_extension=True),
    # Extension-vendor operators: the Roku-style SDK licensor is on the
    # list with the UK bridge; the Vizio-style ad subsidiary is listed
    # but never joined the UK Extension, so its UK->US viewership flows
    # have no Data Bridge cover (surfaced by the conformance suite).
    DpfParticipant("Teletrack Analytics, Inc.", ["teletrack"],
                   uk_extension=True),
    DpfParticipant("Inscape-style Data Services, LLC", ["inscape"],
                   uk_extension=False),
    # A non-participant tracker, so negative lookups are exercised.
    DpfParticipant("Example Analytics Ltd.", ["exampletrack"],
                   uk_extension=False, active=False),
]


class DpfList:
    """Queryable snapshot of the DPF participant list."""

    def __init__(self) -> None:
        self._by_provider: Dict[str, DpfParticipant] = {}
        for participant in _PARTICIPANTS:
            for provider in participant.providers:
                self._by_provider[provider] = participant

    def allows_uk_us_transfer(self, provider: str) -> bool:
        """True when the provider is an active DPF participant that has
        also joined the UK Extension (the UK-US Data Bridge)."""
        participant = self._by_provider.get(provider)
        return bool(participant and participant.active
                    and participant.uk_extension)

    def __len__(self) -> int:
        return len({id(p) for p in self._by_provider.values()})
