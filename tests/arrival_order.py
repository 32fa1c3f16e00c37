"""Reseed ``serve``'s segment arrival schedule in a test.

:class:`~repro.service.daemon.AuditService` draws each segment's
arrival jitter from the population seed, so one population always
arrives in one order.  Tests that must show a result does not depend on
that order run the service inside :func:`arrivals`, which draws the
jitter as if the population seed were another.
"""

import contextlib
from types import SimpleNamespace
from unittest import mock

from repro.service.daemon import AuditService


def arrivals(seed):
    """A context in which every ``AuditService`` draws its arrival
    jitter from ``seed`` instead of its population seed (``None``
    leaves the schedule as it is)."""
    if seed is None:
        return contextlib.nullcontext()
    jitter = AuditService._jitter_ns
    seeded = SimpleNamespace(population=SimpleNamespace(seed=seed))
    return mock.patch.object(
        AuditService, "_jitter_ns",
        lambda self, household_index, seq: jitter(seeded, household_index,
                                                  seq))
