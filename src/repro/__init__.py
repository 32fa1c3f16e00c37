"""repro — a full reproduction of "Watching TV with the Second-Party: A
First Look at Automatic Content Recognition Tracking in Smart TVs"
(IMC 2024).

The package is organised as the paper's testbed is:

* :mod:`repro.sim` — discrete-event simulation engine.
* :mod:`repro.net` — capture encode, pcap files, columnar decode, host stack.
* :mod:`repro.dnsinfra` — vendor DNS zones and a recursive resolver.
* :mod:`repro.geo` — GeoIP databases, traceroute, RIPE-IPmap-style
  arbitration and the DPF list.
* :mod:`repro.media` — synthetic content, channels and TV input sources.
* :mod:`repro.acr` — the ACR client/server system under audit.
* :mod:`repro.tv` — Samsung (Tizen-like) and LG (webOS-like) device models.
* :mod:`repro.testbed` — access point capture and experiment orchestration.
* :mod:`repro.analysis` — the black-box audit pipeline.
* :mod:`repro.reporting` — tables, ASCII plots, exports.
* :mod:`repro.experiments` — one driver per paper table/figure, plus
  the parallel grid runner and its on-disk result cache.

Quickstart::

    from repro.testbed import (Country, ExperimentSpec, Phase, Scenario,
                               Vendor, run_experiment)
    from repro.analysis import AuditPipeline

    spec = ExperimentSpec(Vendor.LG, Country.UK, Scenario.LINEAR,
                          Phase.LIN_OIN)
    result = run_experiment(spec, seed=7)
    audit = AuditPipeline.from_result(result)
    print(audit.acr_candidate_domains())
"""

import os

# ``src/`` calls no BLAS routine, yet numpy's OpenBLAS starts a thread
# pool at import, and that idle pool cost 0.12-0.19 s of CPU per process
# on a 2-core container.  This runs before any ``repro`` module imports
# numpy; a user's own setting still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "1.0.0"
