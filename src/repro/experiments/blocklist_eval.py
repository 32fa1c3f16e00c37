"""DNS-blocklist effectiveness against ACR (related-work gap).

Varmarken et al. showed DNS blocklists are leaky for smart-TV tracking;
this experiment quantifies one concrete mechanism on our testbed: LG
rotates the number in ``eu-acrX.alphonso.tv``, so a hosts-file snapshot
that has only ever seen indices 1..4 silently passes traffic whenever the
rotation lands on 5 or 6 — while suffix-level lists (or blocking the
whole zone) hold.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.blocklists import HostsFileBlocklist, stale_hosts_snapshot
from ..analysis.compare import acr_volume_total
from ..analysis.pipeline import AuditPipeline
from ..sim.clock import minutes
from ..testbed.experiment import (Country, ExperimentSpec, Phase, Scenario,
                                  Vendor)
from ..testbed.runner import run_experiment

SWEEP_DURATION_NS = minutes(12)


class BlocklistTrial:
    """One seed's outcome under a blocklist."""

    __slots__ = ("seed", "active_domain", "listed", "leaked_kb",
                 "baseline_kb")

    def __init__(self, seed: int, active_domain: str, listed: bool,
                 leaked_kb: float, baseline_kb: float) -> None:
        self.seed = seed
        self.active_domain = active_domain
        self.listed = listed
        self.leaked_kb = leaked_kb
        self.baseline_kb = baseline_kb

    @property
    def leaked(self) -> bool:
        return self.leaked_kb > 0.1 * max(self.baseline_kb, 1.0)

    def __repr__(self) -> str:
        state = "LEAKED" if self.leaked else "blocked"
        return (f"BlocklistTrial(seed={self.seed}, "
                f"{self.active_domain}, {state}, "
                f"{self.leaked_kb:.1f}/{self.baseline_kb:.1f} KB)")


class BlocklistEvaluation:
    """Aggregate outcome of the sweep."""

    __slots__ = ("trials", "blocklist_size")

    def __init__(self, trials: List[BlocklistTrial],
                 blocklist_size: int) -> None:
        self.trials = trials
        self.blocklist_size = blocklist_size

    @property
    def leak_rate(self) -> float:
        if not self.trials:
            return 0.0
        return sum(t.leaked for t in self.trials) / len(self.trials)

    @property
    def leaked_trials(self) -> List[BlocklistTrial]:
        return [t for t in self.trials if t.leaked]

    def __repr__(self) -> str:
        return (f"BlocklistEvaluation({len(self.trials)} trials, "
                f"leak rate {self.leak_rate:.0%})")


def run_trial(seed: int,
              blocklist: Optional[HostsFileBlocklist] = None,
              vendor: Vendor = Vendor.LG,
              country: Country = Country.UK) -> BlocklistTrial:
    """One (seed, blocklist) cell: short Linear run, measure ACR KB."""
    spec = ExperimentSpec(vendor, country, Scenario.LINEAR,
                          Phase.LIN_OIN, duration_ns=SWEEP_DURATION_NS)
    blocklist = blocklist or stale_hosts_snapshot()
    baseline = run_experiment(spec, seed=seed)
    baseline_pipeline = AuditPipeline.from_result(baseline)
    baseline_kb = acr_volume_total(baseline_pipeline)
    # fingerprint_domain resolves through the vendor profile, which
    # covers rotating schemes (LG) and fixed endpoints alike.
    active_domain = baseline.registry.fingerprint_domain(
        vendor.value, country.value, 0, seed)
    blocked = run_experiment(spec, seed=seed, dns_blocklist=blocklist)
    blocked_pipeline = AuditPipeline.from_result(blocked)
    leaked_kb = acr_volume_total(blocked_pipeline)
    return BlocklistTrial(seed, active_domain,
                          blocklist.is_listed(active_domain),
                          leaked_kb, baseline_kb)


def run_evaluation(seeds: List[int],
                   blocklist: Optional[HostsFileBlocklist] = None,
                   vendor: Vendor = Vendor.LG,
                   country: Country = Country.UK) -> BlocklistEvaluation:
    """Sweep rotation outcomes across seeds under one blocklist."""
    blocklist = blocklist or stale_hosts_snapshot()
    trials = [run_trial(seed, blocklist, vendor, country)
              for seed in seeds]
    return BlocklistEvaluation(trials, len(blocklist))
