"""The one process pool behind ``grid``, ``fleet`` and ``serve``.

Each command hands :func:`run_tasks` a list of picklable tasks and a
worker function, and gets the results back in task order.  Four rules
hold for all three commands:

1. **Partition.**  A task is a list of items that replay the same
   content (:func:`partition`): grid cells grouped by country, scenario
   and duration; fleet households grouped by country and cut into runs
   of at most ``SHARD_SIZE`` in index order; one serve household per
   task, in admission order.  The partition depends on the items
   alone, never on ``--jobs``, and a worker that runs a task renders
   and matches its shared content once, through its own memos.
2. **Warm.**  Under the fork start method the parent builds the tasks'
   countries' assets before the pool starts, so forked workers inherit
   them copy-on-write.  Under spawn, each worker builds them before
   its first simulation (:func:`warm_assets`, once per process and
   country).
3. **Death.**  A worker that dies (an OOM kill, a segfault) breaks the
   pool.  Every task lost with it reruns serially in the parent, in
   task order, and counts once in ``retry.worker.requeued``.
4. **Order.**  Results, and the metrics snapshots their workers
   collected, are consumed in task order.  Grid and fleet submit every
   task up front; serve bounds its look-ahead by its household window.

A ``--jobs 1`` run, or one with a single task, runs its tasks in this
process through the same worker function.
"""

from __future__ import annotations

import collections
import concurrent.futures
import multiprocessing
import signal
from concurrent.futures.process import BrokenProcessPool
from typing import (Callable, Deque, Dict, Hashable, Iterable, Iterator,
                    List, Optional, Sequence, Set, Tuple, TypeVar)

from ..obs.metrics import get_registry, metrics_enabled, scoped

Item = TypeVar("Item")
Task = TypeVar("Task")
Result = TypeVar("Result")

#: Countries whose assets this process has built through
#: :func:`warm_assets`.  It mirrors the process-wide asset caches of
#: :mod:`repro.testbed.assets`, and a forked worker inherits both.
_warmed: Set[str] = set()


def partition(items: Sequence[Item], key: Callable[[Item], Hashable],
              size: Optional[int] = None) -> List[List[Item]]:
    """``items`` grouped by ``key``, each group cut into runs of at most
    ``size`` items (uncut when ``size`` is ``None``).

    Groups come in the order their first item appears, and each run
    keeps its items in input order.
    """
    groups: Dict[Hashable, List[Item]] = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    if size is None:
        return list(groups.values())
    return [group[start:start + size] for group in groups.values()
            for start in range(0, len(group), size)]


def warm_assets(specs: Sequence = (), countries: Iterable[str] = ()
                ) -> None:
    """Build the shared per-country assets in this process.

    Building a reference fingerprint database takes far longer than
    simulating a cell, and it is memoized per country, so this runs
    once per process and country, under an ``assets.warm`` span: before
    a process's first simulation of a country, and in a forking parent
    before its pool starts.

    Callers name the countries through ``specs`` (grid cells) or
    directly through ``countries``.
    """
    todo = sorted(({spec.country.value for spec in specs}
                   | set(countries)) - _warmed)
    if not todo:
        return
    from ..testbed import assets
    with get_registry().span("assets.warm"):
        for country in todo:
            assets.media_library(country, 0)
            assets.reference_library(country, 0)
            assets.linear_channel(country, 0)
            assets.fast_channel(country, 0)
        assets.ui_item()
    _warmed.update(todo)


def _default_sigterm() -> None:
    """Pool worker initializer.  A forked worker inherits the parent's
    SIGTERM handler (``serve`` traps SIGTERM for its graceful stop), and
    a broken pool stops its remaining workers with SIGTERM, so each
    worker restores the default action."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _call(worker: Callable[[Task], Result], collect: bool, task: Task
          ) -> Tuple[Result, Optional[dict]]:
    """Run one task under a task-local metrics registry; return its
    result and the registry's snapshot (``None`` when ``collect`` is
    false), so the parent absorbs each task's metrics exactly once."""
    with scoped(collect) as registry:
        result = worker(task)
    return result, registry.snapshot() if registry is not None else None


def run_tasks(worker: Callable[[Task], Result], tasks: Sequence[Task],
              jobs: int, countries: Iterable[str],
              lookahead: Optional[int] = None) -> Iterator[Result]:
    """Yield ``worker(task)`` for every task, in task order.

    With ``jobs > 1`` and more than one task the tasks run on a process
    pool of ``min(jobs, len(tasks))`` workers, at most ``lookahead``
    (default: all) submitted ahead of the one being consumed.
    ``countries`` are the tasks' countries, warmed before a forking
    pool starts.  ``worker`` must be a module-level function and the
    tasks and results picklable.  Closing the generator early cancels
    the tasks not yet started.
    """
    collect = metrics_enabled()
    registry = get_registry()
    if jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            result, snapshot = _call(worker, collect, task)
            registry.absorb(snapshot)
            yield result
        return
    if multiprocessing.get_start_method() == "fork":
        warm_assets(countries=countries)
    lookahead = lookahead or len(tasks)
    executor = concurrent.futures.ProcessPoolExecutor(
        min(jobs, len(tasks)), initializer=_default_sigterm)
    futures: Deque[concurrent.futures.Future] = collections.deque()
    submitted = 0
    try:
        for index, task in enumerate(tasks):
            while submitted < min(index + lookahead, len(tasks)):
                try:
                    futures.append(executor.submit(
                        _call, worker, collect, tasks[submitted]))
                except BrokenProcessPool:
                    break
                submitted += 1
            outcome = None
            if index < submitted:
                try:
                    outcome = futures.popleft().result()
                except BrokenProcessPool:
                    pass
            if outcome is None:
                # A worker died and broke the pool before this task
                # finished (or before it was submitted).
                registry.inc("retry.worker.requeued")
                outcome = _call(worker, collect, task)
            result, snapshot = outcome
            registry.absorb(snapshot)
            yield result
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
