"""Parallel experiment-grid runner with a content-addressed result cache.

The paper's evaluation (Tables 1-5, Figures 4-11, findings S1-S12) is one
big grid: ``Vendor x Country x Scenario x Phase``.  This module runs that
grid as a first-class object instead of one cell at a time:

* :func:`enumerate_cells` expands the matrix, optionally restricted by
  ``axis=value[,value...]`` filters (the CLI's ``--filter``).
* :class:`GridRunner` executes cells — serially or on the worker pool
  (:mod:`repro.experiments.pool`), one task per group of cells that
  replay the same content — and each cell stores its own entry in the
  :class:`ResultCache`, in the process that simulated it, so only its
  metadata travels back.
* :class:`ResultCache` is a content-addressed on-disk store keyed by
  ``(spec, seed, code-version)``: captures survive across processes as
  plain pcap files, checked against a CRC-32 on every read, and are
  invalidated automatically whenever the simulator sources change.
* :class:`GridResults` is the single API the scorecard, report and the
  per-figure drivers consume cells through, so warm caches make
  ``scorecard``/``report`` incremental instead of recomputing everything.

Captures are deterministic in ``(spec, seed)``, so a parallel run is
byte-identical to a serial one — ``tests/test_grid.py`` asserts it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zlib
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple, Union)

from ..analysis.pipeline import AuditPipeline
from ..faults import NULL_PLAN, FaultPlan, produce_with_retries
from ..net.addresses import Ipv4Address
from ..obs.metrics import get_registry
from ..testbed.campaign import cell_key
from ..util import atomic_write_bytes
from ..testbed.experiment import (Country, DEFAULT_DURATION_NS,
                                  ExperimentSpec, Phase, Scenario, Vendor)
from ..testbed.runner import run_experiment
from ..testbed.validation import validate
from .pool import partition, run_tasks, warm_assets

DEFAULT_SEED = 7

FILTER_AXES = {
    "vendor": Vendor,
    "country": Country,
    "scenario": Scenario,
    "phase": Phase,
}

Filters = Mapping[str, Set]
ProgressFn = Callable[[ExperimentSpec, "CellRecord"], None]


class GridFilterError(ValueError):
    """A ``--filter`` expression names an unknown axis or value."""


class CacheReadError(RuntimeError):
    """A cached capture could not be read back (corrupt/missing pcap)."""


# -- cell enumeration ---------------------------------------------------------


def parse_filters(expressions: Optional[Iterable[str]]) -> Dict[str, Set]:
    """Parse ``axis=value[,value...]`` expressions into enum-value sets.

    Repeated expressions for the same axis union their values::

        parse_filters(["vendor=lg", "scenario=linear,hdmi"])
    """
    filters: Dict[str, Set] = {}
    for expression in expressions or ():
        if "=" not in expression:
            raise GridFilterError(
                f"bad filter {expression!r}: expected axis=value[,value]")
        axis, __, raw_values = expression.partition("=")
        axis = axis.strip().lower()
        enum_cls = FILTER_AXES.get(axis)
        if enum_cls is None:
            raise GridFilterError(
                f"unknown filter axis {axis!r} "
                f"(choose from {', '.join(sorted(FILTER_AXES))})")
        chosen = filters.setdefault(axis, set())
        for value in raw_values.split(","):
            value = value.strip()
            try:
                chosen.add(enum_cls(value))
            except ValueError:
                valid = ", ".join(member.value for member in enum_cls)
                raise GridFilterError(
                    f"unknown {axis} {value!r} (choose from {valid})") \
                    from None
    return filters


def enumerate_cells(filters: Union[Filters, Iterable[str], None] = None,
                    duration_ns: int = DEFAULT_DURATION_NS
                    ) -> List[ExperimentSpec]:
    """The (filtered) experiment grid, in deterministic matrix order."""
    if filters is not None and not isinstance(filters, Mapping):
        filters = parse_filters(filters)
    filters = filters or {}

    def keep(axis: str, member) -> bool:
        chosen = filters.get(axis)
        return chosen is None or member in chosen

    return [ExperimentSpec(vendor, country, scenario, phase, duration_ns)
            for vendor in Vendor if keep("vendor", vendor)
            for country in Country if keep("country", country)
            for scenario in Scenario if keep("scenario", scenario)
            for phase in Phase if keep("phase", phase)]


# -- code-version fingerprint -------------------------------------------------

_code_version: Optional[str] = None


def code_version() -> str:
    """A digest of every ``repro`` source file, for cache invalidation.

    Any edit to the simulator changes the digest, so stale captures can
    never satisfy a lookup.  ``REPRO_CODE_VERSION`` overrides the scan
    (tests use it to exercise invalidation cheaply).
    """
    global _code_version
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    if _code_version is None:
        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))
        digest = hashlib.sha256()
        for directory, __, names in sorted(os.walk(package_root)):
            for name in sorted(names):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, package_root).encode())
                with open(path, "rb") as fileobj:
                    digest.update(fileobj.read())
        _code_version = digest.hexdigest()[:16]
    return _code_version


# -- cell records -------------------------------------------------------------


class CellRecord:
    """One finished grid cell: capture metadata plus its (lazy) pcap."""

    __slots__ = ("label", "seed", "duration_ns", "packet_count",
                 "pcap_len", "pcap_crc32", "tv_mac", "tv_ip", "device_id",
                 "elapsed_s", "from_cache", "_pcap_bytes", "_pcap_path")

    def __init__(self, label: str, seed: int, duration_ns: int,
                 packet_count: int, pcap_len: int, tv_mac: str,
                 tv_ip: str, device_id: str, elapsed_s: float,
                 pcap_crc32: Optional[int] = None,
                 from_cache: bool = False,
                 pcap_bytes: Optional[bytes] = None,
                 pcap_path: Optional[str] = None) -> None:
        self.label = label
        self.seed = seed
        self.duration_ns = duration_ns
        self.packet_count = packet_count
        self.pcap_len = pcap_len
        if pcap_crc32 is None and pcap_bytes is not None:
            pcap_crc32 = zlib.crc32(pcap_bytes)
        self.pcap_crc32 = pcap_crc32
        self.tv_mac = tv_mac
        self.tv_ip = tv_ip
        self.device_id = device_id
        self.elapsed_s = elapsed_s
        self.from_cache = from_cache
        self._pcap_bytes = pcap_bytes
        self._pcap_path = pcap_path

    def _read(self) -> bytes:
        """Read the cache file, checked against ``pcap_len`` and
        ``pcap_crc32``; raises :class:`CacheReadError` when the file
        cannot be read or either differs."""
        try:
            with open(self._pcap_path, "rb") as fileobj:
                payload = fileobj.read()
        except OSError as exc:
            raise CacheReadError(
                f"cached capture for {self.label} unreadable: "
                f"{exc}") from exc
        if len(payload) != self.pcap_len \
                or zlib.crc32(payload) != self.pcap_crc32:
            raise CacheReadError(
                f"cached capture for {self.label} is damaged: "
                f"{len(payload)} bytes do not match the recorded "
                f"length and CRC-32")
        return payload

    @property
    def pcap_bytes(self) -> bytes:
        """The raw capture, read from the cache file on first access
        and kept (see :meth:`_read` for the checks)."""
        if self._pcap_bytes is None:
            self._pcap_bytes = self._read()
        return self._pcap_bytes

    # A read-only alias of the stored bytes, kept only because
    # perfbench's traced ``cache.store`` hook reads this name and the
    # benchmark's sources change only in benchmark-only commits.
    pcap_compressed = pcap_bytes

    def pipeline(self) -> AuditPipeline:
        """Decode this cell's capture into an audit pipeline.

        A capture not already in memory is read from its cache file for
        the decode only: the record does not keep it.
        """
        with get_registry().span("grid.decode"):
            raw = self._pcap_bytes if self._pcap_bytes is not None \
                else self._read()
            return AuditPipeline.from_pcap_bytes(
                raw, Ipv4Address.parse(self.tv_ip))

    def meta(self) -> Dict:
        return {
            "label": self.label,
            "seed": self.seed,
            "duration_ns": self.duration_ns,
            "packet_count": self.packet_count,
            "pcap_len": self.pcap_len,
            "pcap_crc32": self.pcap_crc32,
            "tv_mac": self.tv_mac,
            "tv_ip": self.tv_ip,
            "device_id": self.device_id,
            "elapsed_s": self.elapsed_s,
        }

    def __repr__(self) -> str:
        origin = "cache" if self.from_cache else "run"
        return (f"CellRecord({self.label}, seed={self.seed}, "
                f"{self.packet_count} packets, {origin})")


def record_from_result(result, elapsed_s: float = 0.0) -> CellRecord:
    """A :class:`CellRecord` view of an in-process ExperimentResult."""
    return CellRecord(
        label=result.spec.label, seed=result.seed,
        duration_ns=result.spec.duration_ns,
        packet_count=result.packet_count,
        pcap_len=len(result.pcap_bytes), tv_mac=result.tv_mac,
        tv_ip=result.tv_ip, device_id=result.device_id,
        elapsed_s=elapsed_s, pcap_bytes=result.pcap_bytes)


# -- the on-disk cache --------------------------------------------------------


class ResultCache:
    """Content-addressed store of finished cells.

    The key is a SHA-256 over the canonical ``(spec label, duration,
    seed, code-version)`` tuple; entries live two levels deep
    (``<root>/<key[:2]>/<key>.{json,pcap}``) so directories stay small
    even for large grids.  The capture is a plain pcap file; its meta
    JSON records the capture's length and CRC-32, which every read
    checks.
    """

    def __init__(self, root: str,
                 version: Optional[str] = None) -> None:
        self.root = root
        self.version = version or code_version()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        os.makedirs(root, exist_ok=True)

    def key(self, spec: ExperimentSpec, seed: int) -> str:
        return self.key_for(spec.label, spec.duration_ns, seed)

    def key_for(self, label: str, duration_ns: int, seed: int) -> str:
        # The canonical cell identity, salted with the code version
        # for invalidation.
        canonical = f"{cell_key(label, seed, duration_ns)}:{self.version}"
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _paths(self, key: str) -> Tuple[str, str]:
        shard = os.path.join(self.root, key[:2])
        return (os.path.join(shard, key + ".json"),
                os.path.join(shard, key + ".pcap"))

    def load(self, spec: ExperimentSpec, seed: int) -> Optional[CellRecord]:
        """Recall one cell, or ``None`` on a miss (or corrupt entry)."""
        return self.load_for(spec.label, spec.duration_ns, seed)

    def load_for(self, label: str, duration_ns: int,
                 seed: int) -> Optional[CellRecord]:
        """Label-addressed recall (fleet households have no spec)."""
        meta_path, pcap_path = self._paths(
            self.key_for(label, duration_ns, seed))
        try:
            with open(meta_path, "r", encoding="utf-8") as fileobj:
                meta = json.load(fileobj)
            record = CellRecord(from_cache=True, pcap_path=pcap_path,
                                **meta)
        except (OSError, ValueError, TypeError):
            self.misses += 1
            get_registry().inc("cache.miss")
            return None
        if not os.path.exists(pcap_path):
            self.misses += 1
            get_registry().inc("cache.miss")
            return None
        self.hits += 1
        get_registry().inc("cache.hit")
        return record

    def store(self, record: CellRecord) -> None:
        """Persist one cell (atomic per file: write-then-rename)."""
        meta_path, pcap_path = self._paths(self.key_for(
            record.label, record.duration_ns, record.seed))
        os.makedirs(os.path.dirname(meta_path), exist_ok=True)
        for path, payload in (
                (pcap_path, record.pcap_bytes),
                (meta_path,
                 json.dumps(record.meta(), indent=2).encode())):
            atomic_write_bytes(path, payload)
        record._pcap_path = pcap_path
        self.stores += 1
        get_registry().inc("cache.store")

    def stored(self, meta: Dict) -> CellRecord:
        """The record of an entry stored under this root (by a grid
        worker) with ``meta``; its capture stays on disk until read."""
        __, pcap_path = self._paths(self.key_for(
            meta["label"], meta["duration_ns"], meta["seed"]))
        return CellRecord(pcap_path=pcap_path, **meta)

    def entry_count(self) -> int:
        return sum(name.endswith(".json")
                   for __, ___, names in os.walk(self.root)
                   for name in names)

    def __repr__(self) -> str:
        return (f"ResultCache({self.root}, {self.entry_count()} entries, "
                f"hits={self.hits}, misses={self.misses})")


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else a per-user XDG cache location."""
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return explicit
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-acr", "grid")


def default_cache() -> Optional[ResultCache]:
    """The process default cache (``REPRO_NO_CACHE=1`` disables it).

    An unwritable cache location degrades to no caching rather than
    failing the run.
    """
    if os.environ.get("REPRO_NO_CACHE"):
        return None
    try:
        return ResultCache(default_cache_dir())
    except OSError:
        return None


# -- execution ----------------------------------------------------------------


def _execute_cell(payload: Tuple) -> Tuple[Dict, Optional[bytes]]:
    """Run, validate and store one cell; return (meta, pcap).  The
    grid's one way to produce a cell, in a pool worker or in process.
    The meta carries the capture's CRC-32, computed here.

    When the payload names a cache (its root and version), the cell is
    stored here through :meth:`ResultCache.store` and ``pcap`` is
    ``None``: the capture bytes never travel to the caller.  Without a
    cache they come back as ``pcap``.

    Takes and returns only primitives so it pickles cleanly; the heavy
    ground-truth handles (backend, registry, zone) stay in the worker.
    """
    (vendor, country, scenario, phase, duration_ns, seed, plan_tuple,
     cache_at) = payload
    spec = ExperimentSpec(Vendor(vendor), Country(country),
                          Scenario(scenario), Phase(phase), duration_ns)
    faults = FaultPlan.from_tuple(plan_tuple)
    warm_assets(countries=[country])
    started = time.perf_counter()

    def simulate():
        with get_registry().span("grid.simulate"):
            return run_experiment(spec, seed=seed)

    # Injected worker crashes/hangs are keyed by the cell label, so the
    # retry counters are identical at any job count.
    result, __ = produce_with_retries(faults, (spec.label,), simulate)
    report = validate(result)
    if not report.ok:
        raise RuntimeError(f"experiment {spec.label} failed "
                           f"validation: {report.failures}")
    get_registry().inc("grid.cells.executed")
    record = record_from_result(
        result, elapsed_s=time.perf_counter() - started)
    if cache_at is None:
        return record.meta(), result.pcap_bytes
    ResultCache(*cache_at).store(record)
    return record.meta(), None


def _execute_group(payloads: Sequence[Tuple]) -> List[Tuple]:
    """Run a group's cells in order through :func:`_execute_cell`: one
    pool task, so the cells' shared content is fingerprinted and matched
    once, by this process's memos."""
    return [_execute_cell(payload) for payload in payloads]


def _content_groups(cells: Sequence[Tuple[int, ExperimentSpec]]
                    ) -> List[List[Tuple[int, ExperimentSpec]]]:
    """``(index, spec)`` pairs grouped by the content they replay
    (country, scenario and duration), groups and members in input order.

    Every vendor and phase of a scenario in one country watches the
    same channel or playlist, so a group run in one process renders
    and matches its fingerprints once.
    """
    return partition(cells, lambda cell: (
        cell[1].country, cell[1].scenario, cell[1].duration_ns))


def _payload(spec: ExperimentSpec, seed: int,
             cache: Optional[ResultCache],
             faults: FaultPlan = NULL_PLAN) -> Tuple:
    return (spec.vendor.value, spec.country.value, spec.scenario.value,
            spec.phase.value, spec.duration_ns, seed, faults.as_tuple(),
            (cache.root, cache.version) if cache else None)


def _cell_record(cache: Optional[ResultCache], outcome: Tuple
                 ) -> CellRecord:
    """The caller's record of an :func:`_execute_cell` outcome."""
    meta, pcap = outcome
    if pcap is None:
        return cache.stored(meta)
    return CellRecord(pcap_bytes=pcap, **meta)


class GridRunner:
    """Execute a set of cells, in parallel, through the result cache."""

    def __init__(self, seed: int = DEFAULT_SEED,
                 cache: Optional[ResultCache] = None, jobs: int = 1,
                 faults: FaultPlan = NULL_PLAN) -> None:
        self.seed = seed
        self.cache = cache
        self.jobs = max(1, jobs)
        self.faults = faults

    def run(self, specs: Sequence[ExperimentSpec],
            progress: Optional[ProgressFn] = None) -> List[CellRecord]:
        """Run every cell (cache hits are recalled, misses executed)."""
        records: Dict[int, CellRecord] = {}
        missing: List[Tuple[int, ExperimentSpec]] = []
        for index, spec in enumerate(specs):
            cached = self.cache.load(spec, self.seed) if self.cache \
                else None
            if cached is not None:
                records[index] = cached
                if progress:
                    progress(spec, cached)
            else:
                missing.append((index, spec))
        if missing:
            for index, spec, record in self._execute(missing):
                records[index] = record
                if progress:
                    progress(spec, record)
        return [records[index] for index in range(len(specs))]

    def _execute(self, missing: List[Tuple[int, ExperimentSpec]]):
        groups = _content_groups(missing)
        outcomes = run_tasks(
            _execute_group,
            [[_payload(spec, self.seed, self.cache, self.faults)
              for __, spec in group] for group in groups],
            self.jobs, {spec.country.value for __, spec in missing})
        for group, group_outcomes in zip(groups, outcomes):
            for (index, spec), outcome in zip(group, group_outcomes):
                yield index, spec, _cell_record(self.cache, outcome)


# -- the consumer API ---------------------------------------------------------


class GridResults:
    """Single access point for experiment-cell artifacts.

    Every scorecard check, table and figure driver asks this object for
    cells.  Pipelines are served from memory, then from the on-disk
    :class:`ResultCache` (no simulation), and only then by running the
    cell.  With a cache, the records hold metadata only and each kept
    pipeline has released its frames, so the process holds decoded
    columns, never capture bytes.  A cell that must be simulated runs
    through :func:`_execute_cell`, in a pool worker or in this process.
    """

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.seed = seed
        self.cache = default_cache()
        self._records: Dict[Tuple[str, int], CellRecord] = {}
        self._pipelines: Dict[Tuple[str, int], AuditPipeline] = {}

    def _key(self, spec: ExperimentSpec) -> Tuple[str, int]:
        return (spec.label, spec.duration_ns)

    def ensure(self, specs: Sequence[ExperimentSpec],
               jobs: int = 1) -> List[CellRecord]:
        """Prefetch cells (parallel when ``jobs > 1``) into this object."""
        runner = GridRunner(seed=self.seed, cache=self.cache, jobs=jobs)
        records = runner.run(specs)
        for spec, record in zip(specs, records):
            self._records.setdefault(self._key(spec), record)
        return records

    def record(self, spec: ExperimentSpec) -> CellRecord:
        """The capture record for one cell (memo -> disk -> run)."""
        key = self._key(spec)
        record = self._records.get(key)
        if record is None:
            record = self.cache.load(spec, self.seed) if self.cache \
                else None
        if record is None:
            record = self._produce(spec)
        self._records[key] = record
        return record

    def _produce(self, spec: ExperimentSpec) -> CellRecord:
        """Simulate one cell in this process, as a grid worker would."""
        return _cell_record(self.cache, _execute_cell(
            _payload(spec, self.seed, self.cache)))

    def pipeline(self, spec: ExperimentSpec) -> AuditPipeline:
        """The decoded audit pipeline for one cell, memoized.

        The kept pipeline has released its frames
        (:meth:`~repro.net.columnar.ColumnarCapture.release_frames`):
        its queries answer from the columns, and the frame bytes stay
        in the raw ``.pcap`` cache file.  A cache entry whose
        capture turns out to be unreadable (e.g. a pcap damaged on
        disk) is re-run and re-stored, so corruption self-heals instead
        of poisoning every later run.
        """
        key = self._key(spec)
        pipeline = self._pipelines.get(key)
        if pipeline is None:
            try:
                pipeline = self.record(spec).pipeline()
            except CacheReadError:
                record = self._records[key] = self._produce(spec)
                pipeline = record.pipeline()
            pipeline.packets.release_frames()
            self._pipelines[key] = pipeline
        return pipeline

    def __repr__(self) -> str:
        return (f"GridResults(seed={self.seed}, "
                f"{len(self._records)} records, "
                f"cache={'on' if self.cache else 'off'})")
