"""Population sampling: from one fleet seed to N deterministic households.

A household is a point in ``vendor x country x phase x diary`` space plus
its own simulation seed.  Both the attribute draws and the seed are
derived per household *index* with SHA-256 — never from Python's global
RNG state — so:

* the same ``(fleet_seed, index)`` yields the same household in every
  process, on every platform, forever (the cache contract);
* growing a fleet from N to M > N households re-derives households
  ``0..N-1`` identically, so an enlarged fleet only pays for the new
  indices.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, Iterator, List, Mapping, Optional

from ..testbed.experiment import Country, Phase, Vendor, paper_vendors
from .diary import DIARIES, Diary, diary_named

#: Mix axes and their valid values (diary values are registry names).
MIX_AXES = ("vendor", "country", "phase", "diary")

#: The default population mirrors the paper's audited pair; extension
#: vendors join a fleet via ``--mix vendor=roku:1,vizio:1,...`` so
#: default fleet reports stay byte-identical as the registry grows.
DEFAULT_MIX: Dict[str, Dict[str, float]] = {
    "vendor": {vendor.value: 1.0 / len(paper_vendors())
               for vendor in paper_vendors()},
    "country": {"uk": 0.5, "us": 0.5},
    # Most real households never touch privacy settings; opt-out is the
    # minority configuration the efficacy aggregate measures.
    "phase": {"LIn-OIn": 0.5, "LOut-OIn": 0.2,
              "LIn-OOut": 0.2, "LOut-OOut": 0.1},
    "diary": {"ambient": 0.2, "binge": 0.2, "evening_mix": 0.3,
              "channel_surfer": 0.15, "console_gamer": 0.1,
              "second_screen": 0.05},
}


class MixError(ValueError):
    """A ``--mix`` expression names an unknown axis, value or weight."""


def _valid_values(axis: str) -> List[str]:
    if axis == "vendor":
        return [member.value for member in Vendor]
    if axis == "country":
        return [member.value for member in Country]
    if axis == "phase":
        return [member.value for member in Phase]
    return sorted(DIARIES)


def parse_mix(expressions: Optional[Iterable[str]]
              ) -> Dict[str, Dict[str, float]]:
    """Parse ``axis=value:weight[,value:weight...]`` expressions.

    Unmentioned axes keep :data:`DEFAULT_MIX`.  Weights are relative
    (they need not sum to 1; sampling normalizes), e.g.::

        parse_mix(["vendor=lg:3,samsung:1", "phase=LIn-OIn:1"])
    """
    mixes = {axis: dict(weights) for axis, weights in DEFAULT_MIX.items()}
    for expression in expressions or ():
        if "=" not in expression:
            raise MixError(f"bad mix {expression!r}: expected "
                           f"axis=value:weight[,value:weight]")
        axis, __, raw = expression.partition("=")
        axis = axis.strip().lower()
        if axis not in MIX_AXES:
            raise MixError(f"unknown mix axis {axis!r} "
                           f"(choose from {', '.join(MIX_AXES)})")
        weights: Dict[str, float] = {}
        for part in raw.split(","):
            value, colon, raw_weight = part.strip().partition(":")
            try:
                weight = float(raw_weight) if colon else 1.0
            except ValueError:
                raise MixError(f"bad weight {raw_weight!r} "
                               f"for {axis}={value}") from None
            weights[value] = weights.get(value, 0.0) + weight
        validate_weights(axis, weights)
        mixes[axis] = weights
    return mixes


def validate_weights(axis: str, weights: Mapping[str, float]) -> None:
    """Reject unknown values and degenerate weights for one axis.

    Shared by the CLI's :func:`parse_mix` and by
    :class:`PopulationSpec` itself, so library callers get the same
    clear errors instead of a bare ``ZeroDivisionError`` deep inside
    sampling.
    """
    valid = _valid_values(axis)
    for value, weight in weights.items():
        if value not in valid:
            raise MixError(f"unknown {axis} {value!r} "
                           f"(choose from {', '.join(valid)})")
        if not math.isfinite(weight):
            raise MixError(f"non-finite weight for {axis}={value}")
        if weight < 0:
            raise MixError(f"negative weight for {axis}={value}")
    if not any(weights.values()):
        raise MixError(f"mix for {axis} has zero total weight")


def _derive(fleet_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{fleet_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _weighted_pick(fleet_seed: int, index: int, axis: str,
                   weights: Mapping[str, float]) -> str:
    """Deterministic weighted draw for one household attribute.

    The unit fraction comes from a SHA-256 over ``(seed, index, axis)``,
    so each attribute has its own independent stream and adding an axis
    can never perturb another axis's draws.
    """
    fraction = _derive(fleet_seed, f"hh:{index}:{axis}") / float(2 ** 64)
    total = sum(weights.values())
    cumulative = 0.0
    values = sorted(weights)  # canonical order: dict order is irrelevant
    for value in values:
        cumulative += weights[value] / total
        if fraction < cumulative:
            return value
    return values[-1]


class HouseholdSpec:
    """One simulated household: attributes plus its derived seed."""

    __slots__ = ("index", "vendor", "country", "phase", "diary", "seed")

    def __init__(self, index: int, vendor: Vendor, country: Country,
                 phase: Phase, diary: str, seed: int) -> None:
        self.index = index
        self.vendor = vendor
        self.country = country
        self.phase = phase
        self.diary = diary
        self.seed = seed

    @property
    def label(self) -> str:
        """The configuration label (identity lives in the seed)."""
        return (f"hh-{self.vendor.value}-{self.country.value}-"
                f"{self.diary}-{self.phase.value}")

    @property
    def diary_obj(self) -> Diary:
        return diary_named(self.diary)

    def as_tuple(self):
        """Primitive form for crossing a process boundary."""
        return (self.index, self.vendor.value, self.country.value,
                self.phase.value, self.diary, self.seed)

    @classmethod
    def from_tuple(cls, values) -> "HouseholdSpec":
        index, vendor, country, phase, diary, seed = values
        return cls(index, Vendor(vendor), Country(country),
                   Phase(phase), diary, seed)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, HouseholdSpec)
                and self.as_tuple() == other.as_tuple())

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return (f"HouseholdSpec(#{self.index} {self.label} "
                f"seed={self.seed})")


class PopulationSpec:
    """N households drawn from configurable mix distributions."""

    def __init__(self, households: int, seed: int = 7,
                 mixes: Optional[Mapping[str, Mapping[str, float]]] = None
                 ) -> None:
        if households <= 0:
            raise ValueError("population needs at least one household")
        self.households = households
        self.seed = seed
        self.mixes = {axis: dict(weights)
                      for axis, weights in (mixes or DEFAULT_MIX).items()}
        for axis in self.mixes:
            if axis not in MIX_AXES:
                raise MixError(f"unknown mix axis {axis!r} "
                               f"(choose from {', '.join(MIX_AXES)})")
        for axis in MIX_AXES:
            if axis not in self.mixes:
                self.mixes[axis] = dict(DEFAULT_MIX[axis])
            validate_weights(axis, self.mixes[axis])

    def household(self, index: int) -> HouseholdSpec:
        """Derive household ``index`` (independent of every other)."""
        return HouseholdSpec(
            index=index,
            vendor=Vendor(_weighted_pick(self.seed, index, "vendor",
                                         self.mixes["vendor"])),
            country=Country(_weighted_pick(self.seed, index, "country",
                                           self.mixes["country"])),
            phase=Phase(_weighted_pick(self.seed, index, "phase",
                                       self.mixes["phase"])),
            diary=_weighted_pick(self.seed, index, "diary",
                                 self.mixes["diary"]),
            seed=_derive(self.seed, f"hh:{index}:seed"),
        )

    def __iter__(self) -> Iterator[HouseholdSpec]:
        for index in range(self.households):
            yield self.household(index)

    def sample(self) -> List[HouseholdSpec]:
        """The full household list, in index order."""
        return list(self)

    def countries(self) -> List[str]:
        """Countries with non-zero weight (for asset warming)."""
        return sorted(value for value, weight
                      in self.mixes["country"].items() if weight > 0)

    def __repr__(self) -> str:
        return (f"PopulationSpec({self.households} households, "
                f"seed={self.seed})")

