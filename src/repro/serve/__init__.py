"""`repro.serve`: the shared run-cache tier over HTTP.

``python -m repro serve`` exposes a :class:`~repro.sim.cache.RunCache`
at ``/v1/cache/<key>`` (:mod:`repro.serve.server`), with ``/healthz``
and a Prometheus-style ``/metrics`` page (:mod:`repro.serve.metrics`).
Workers federate through it with ``--cache-url``
(:class:`~repro.sim.cache.HttpCacheTier`).
"""

from repro.serve.server import ReproServer, ServerThread

__all__ = ["ReproServer", "ServerThread"]
