"""The benchmark's four workloads, driven through the program's public API.

Every workload has the same shape:

* ``prepare()`` — untimed set-up after the asset warm-up (fills the
  reference result cache and records the reference report digest);
* ``fresh()`` — untimed per-iteration reset (empty caches, a clean
  fingerprint memo, fresh checkpoint directories) so that a "cold"
  iteration is as cold as a new CLI process;
* ``body()`` — one timed iteration as a user runs it (pools included);
* ``walk(tracer)`` — the same steps run serially in-process, with the
  benchmark's own spans around them, for the traced run;
* ``check(output)`` — ``None`` when the output is right, else why not.

Why each workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import zlib
from typing import Dict, List, Optional

from repro.acr import fingerprint
from repro.analysis.pipeline import AuditPipeline, ColumnarAuditPipeline
from repro.experiments import cache as grid_cache
from repro.experiments import findings as findings_mod
from repro.experiments import grid
from repro.fleet import (FleetAggregate, FleetRunner, PopulationSpec,
                         render_population_report)
from repro.fleet import runner as fleet_runner
from repro.service import auditor as service_auditor
from repro.service import daemon as service_daemon
from repro.service.daemon import ServiceConfig, serve_fleet
from repro.testbed import assets, campaign

#: Households in every fleet/serve population: two 16-household shards,
#: so the cold ``jobs=2`` body really runs both pool workers.
FLEET_HOUSEHOLDS = 32

#: Population seeds whose 32-household captures total within 2% of the
#: median packet count of seeds 1-60 (29,672 packets) at the commit that
#: introduced this benchmark.  Totals range from 23k to 36k packets over
#: those seeds, which moved warm throughput by up to 40% from one seed to
#: the next; these populations all carry about the same traffic.  The
#: workload seed picks one.
FLEET_SEEDS = (13, 19, 25, 26, 27, 34, 39, 46, 47, 50, 53, 55)

#: The serve workload checkpoints every few households (default config
#: otherwise: window 8, credits 4, 6 segments).
SERVE_CHECKPOINT_EVERY = 4

SCORECARD_VENDORS = ("samsung", "lg")

#: The scorecard seed whose render is pinned in ``tests/golden``.
GOLDEN_SEED = 7

#: Scorecard seeds on which every S1-S12 check passes at the commit that
#: introduced this benchmark (seeds 5, 9 and 10 fail S12).  The workload
#: seed picks one, so inputs vary with the seed and no operation fails.
SCORECARD_SEEDS = (7, 1, 2, 3, 4, 6, 8, 11, 12, 13, 14, 15)

#: Countries whose assets every workload warms: the default fleet mix
#: and the scorecard both cover uk and us.
COUNTRIES = ("uk", "us")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None \
        else contextlib.nullcontext()


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Workload:
    """Common state: name, sizes, pool width and a private work dir."""

    name = ""
    #: Operations (households or cells) in one body iteration.
    ops = 0
    #: Every layer the traced walk must produce at least one span for.
    layers: tuple = ()

    def __init__(self, seed: int, jobs: int, work: str) -> None:
        self.seed = seed
        self.jobs = jobs
        self.work = work

    def prepare(self) -> None:
        pass

    def provenance(self) -> Dict[str, object]:
        return {"ops_per_iteration": self.ops, "jobs": self.jobs}

    def layer_metrics(self, tracer) -> Dict[str, float]:
        """Workload-specific figures the spans alone do not give."""
        return {}


class FleetWorkload(Workload):
    """fleet-cold, fleet-warm and serve-warm over one population."""

    layers_cold = ("fleet.household", "cache.load", "testbed.session",
                   "acr.backend_setup", "testbed.validate", "cache.store",
                   "analysis.decode", "fleet.summarize", "fleet.fold")
    layers_warm = ("fleet.household", "cache.load", "analysis.decode",
                   "fleet.summarize", "fleet.fold")
    layers_serve = ("fleet.household", "cache.load", "service.split",
                    "service.ingest", "analysis.decode",
                    "service.finalize", "fleet.summarize", "fleet.fold",
                    "service.checkpoint")

    def __init__(self, name: str, seed: int, jobs: int, work: str) -> None:
        super().__init__(seed, jobs, work)
        self.name = name
        self.mode = {"fleet-cold": "cold", "fleet-warm": "warm",
                     "serve-warm": "serve"}[name]
        self.population = PopulationSpec(
            FLEET_HOUSEHOLDS, seed=FLEET_SEEDS[seed % len(FLEET_SEEDS)])
        self.ops = FLEET_HOUSEHOLDS
        self.layers = {"cold": self.layers_cold, "warm": self.layers_warm,
                       "serve": self.layers_serve}[self.mode] \
            + ("report.render",)
        self.reference: Optional[str] = None
        self.ref_cache: Optional[grid.ResultCache] = None
        self.config = ServiceConfig(checkpoint_every=SERVE_CHECKPOINT_EVERY)
        self.last_service = None

    def prepare(self) -> None:
        """Fill the reference cache once; its report is the reference."""
        self.ref_cache = grid.ResultCache(
            _fresh_dir(os.path.join(self.work, "reference")))
        result = FleetRunner(cache=self.ref_cache, jobs=self.jobs).run(
            self.population)
        self.reference = digest(render_population_report(
            result.aggregate, self.population))

    def fresh(self) -> None:
        if self.mode == "cold":
            fingerprint.clear_fingerprint_cache()
            _fresh_dir(os.path.join(self.work, "cold"))
        elif self.mode == "serve":
            _fresh_dir(os.path.join(self.work, "checkpoints"))

    def _run(self, jobs: int, tracer=None) -> str:
        if self.mode == "serve":
            result = serve_fleet(
                self.population, cache=self.ref_cache, config=self.config,
                jobs=jobs,
                checkpoint_dir=os.path.join(self.work, "checkpoints"))
            self.last_service = result
            state = result.state
        else:
            cache = self.ref_cache if self.mode == "warm" else \
                grid.ResultCache(os.path.join(self.work, "cold"))
            state = FleetRunner(cache=cache, jobs=jobs).run(self.population)
        with _span(tracer, "report.render"):
            return render_population_report(state, self.population)

    def body(self) -> str:
        # The warm workloads run serially so pool scheduling on a small
        # shared box does not blur the consumer path they measure.
        return self._run(self.jobs if self.mode == "cold" else 1)

    def walk(self, tracer=None) -> str:
        return self._run(1, tracer)

    def check(self, output: str) -> Optional[str]:
        if self.reference is None:
            return "no reference report (set-up failed)"
        found = digest(output)
        if found != self.reference:
            return f"report sha256 {found[:16]} != reference " \
                   f"{self.reference[:16]}"
        return None

    def provenance(self) -> Dict[str, object]:
        info = super().provenance()
        info.update(households=self.population.households,
                    population_seed=self.population.seed,
                    mixes=self.population.mixes,
                    cache_version=self.ref_cache.version
                    if self.ref_cache else None)
        if self.mode == "serve":
            info["service"] = {"window": self.config.window,
                               "credits": self.config.credits,
                               "segments": self.config.segments,
                               "checkpoint_every":
                                   self.config.checkpoint_every}
        return info

    def layer_metrics(self, tracer) -> Dict[str, float]:
        result = self.last_service
        if self.mode != "serve" or result is None:
            return {}
        offers = result.segments_delivered + result.refusals
        return {"service.refusal_ratio":
                result.refusals / offers if offers else 0.0,
                "service.peak_tracked_flows": result.peak_tracked_flows}


class ScorecardWorkload(Workload):
    """scorecard-cold: the paper's S1-S12 scorecard from an empty cache."""

    name = "scorecard-cold"
    layers = ("experiments.prefetch", "cache.load", "testbed.cell",
              "acr.backend_setup", "testbed.validate", "cache.store",
              "analysis.decode", "report.render") + tuple(
        f"experiments.check.S{index}" for index in range(1, 13))

    def __init__(self, seed: int, jobs: int, work: str,
                 golden: Dict[str, str]) -> None:
        super().__init__(seed, jobs, work)
        self.scorecard_seed = SCORECARD_SEEDS[seed % len(SCORECARD_SEEDS)]
        self.specs = findings_mod.required_specs(SCORECARD_VENDORS)
        self.ops = len(self.specs)
        self.golden = golden["scorecard_paper.txt"]

    def fresh(self) -> None:
        fingerprint.clear_fingerprint_cache()
        os.environ["REPRO_CACHE_DIR"] = _fresh_dir(
            os.path.join(self.work, "cold"))
        grid_cache.reset()

    def body(self):
        checks = findings_mod.run_all_checks(
            self.scorecard_seed, jobs=self.jobs, vendors=SCORECARD_VENDORS)
        return checks, findings_mod.render_checks(checks)

    def walk(self, tracer=None):
        """``run_all_checks`` step by step: prefetch, then each check."""
        seed = self.scorecard_seed
        with _span(tracer, "experiments.prefetch"):
            grid_cache.grid(seed).ensure(self.specs, jobs=1)
        checks = []
        for check in findings_mod.selected_checks(SCORECARD_VENDORS):
            code = check.__name__.split("_")[1].upper()
            with _span(tracer, f"experiments.check.{code}"):
                checks.append(check(seed))
        with _span(tracer, "report.render"):
            return checks, findings_mod.render_checks(checks)

    def check(self, output) -> Optional[str]:
        checks, text = output
        failing = [check.code for check in checks if not check.passed]
        if failing:
            return f"scorecard checks failed: {failing}"
        if self.scorecard_seed == GOLDEN_SEED and digest(text) != self.golden:
            return "scorecard differs from tests/golden/scorecard_paper.txt"
        return None

    def provenance(self) -> Dict[str, object]:
        info = super().provenance()
        info.update(cells=self.ops, scorecard_seed=self.scorecard_seed,
                    vendors=list(SCORECARD_VENDORS),
                    cache_version=grid.code_version())
        return info


def make(name: str, seed: int, jobs: int, work: str,
         golden: Dict[str, str]) -> Workload:
    if name == "scorecard-cold":
        return ScorecardWorkload(seed, jobs, work, golden)
    return FleetWorkload(name, seed, jobs, work)


def load_golden(path: str) -> Dict[str, str]:
    with open(path, "r", encoding="utf-8") as fileobj:
        return json.load(fileobj)


# -- the outside-in trace targets ---------------------------------------------


def _count_session(tracer, args, kwargs, result) -> None:
    tracer.count("acr.batches", result.backend.batches_received)
    tracer.count("acr.recognised", result.backend.batches_recognised)
    tracer.count("testbed.packets", result.packet_count)
    tracer.count("testbed.pcap_bytes", len(result.pcap_bytes))


def _count_load(tracer, args, kwargs, result) -> None:
    tracer.count("cache.hits" if result is not None else "cache.misses")


def _count_store(tracer, args, kwargs, result) -> None:
    tracer.count("cache.stored_bytes", len(args[1].pcap_compressed))


def _count_decoded(tracer, args, kwargs, result) -> None:
    tracer.count("analysis.decoded_packets", len(result.packets))


def _count_extended(tracer, args, kwargs, result) -> None:
    tracer.count("analysis.decoded_packets", result)


def _count_checkpoint(tracer, args, kwargs, result) -> None:
    tracer.count("service.checkpoint_bytes", os.path.getsize(result))


def trace_targets() -> List[tuple]:
    """``(owner, attribute, span, observe)`` for every layer boundary.

    Names are looked up where the caller looks them up (a module that
    did ``from x import f`` holds its own binding of ``f``).
    """
    return [
        (assets, "fresh_backend", "acr.backend_setup"),
        (fleet_runner, "household_record", "fleet.household"),
        (service_daemon, "household_record", "fleet.household"),
        (fleet_runner, "run_session", "testbed.session", _count_session),
        (grid, "run_experiment", "testbed.cell", _count_session),
        (campaign, "run_experiment", "testbed.cell", _count_session),
        (fleet_runner, "validate_session", "testbed.validate"),
        (grid, "validate", "testbed.validate"),
        (campaign, "validate", "testbed.validate"),
        (grid.ResultCache, "load_for", "cache.load", _count_load),
        (grid.ResultCache, "store", "cache.store", _count_store),
        (zlib, "decompress", "cache.decompress"),
        (zlib, "compress", "cache.compress"),
        (AuditPipeline, "from_pcap_bytes", "analysis.decode",
         _count_decoded),
        (AuditPipeline, "extend_pcap_bytes", "analysis.decode",
         _count_extended),
        (ColumnarAuditPipeline, "extend_pcap_bytes", "analysis.decode",
         _count_extended),
        (service_daemon, "segment_record", "service.split"),
        (service_auditor.HouseholdIngest, "ingest", "service.ingest"),
        (service_auditor.IncrementalAuditor, "finalize",
         "service.finalize"),
        (fleet_runner, "summarize_household", "fleet.summarize"),
        (service_auditor, "summarize_household", "fleet.summarize"),
        (FleetAggregate, "fold", "fleet.fold"),
        (service_daemon, "write_checkpoint", "service.checkpoint",
         _count_checkpoint),
    ]


def _per_country(prefix: str):
    return lambda country, *args, **kwargs: f"{prefix}.{country}"


def asset_targets() -> List[tuple]:
    """The set-up walk: ``warm_assets`` calls these per country."""
    return [
        (assets, "media_library", _per_country("assets.media")),
        (assets, "reference_library", _per_country("assets.reflib")),
        (assets, "linear_channel", "assets.channels"),
        (assets, "fast_channel", "assets.channels"),
        (assets, "ui_item", "assets.ui"),
    ]

