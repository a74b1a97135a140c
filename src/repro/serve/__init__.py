"""Verification-as-a-service: the ``repro serve`` daemon layer.

A long-lived front door over the tiered pipeline (ROADMAP's "millions
of users" line): a newline-delimited-JSON TCP daemon
(:mod:`~repro.serve.server`) with in-flight dedup and a persistent
worker pool, a sharded disk-backed content-addressed proof store
(:mod:`~repro.serve.store`) many processes share safely, and a retrying
client (:mod:`~repro.serve.client`) that
:meth:`repro.session.Session.connect` wraps so the fluent API runs
remote transparently.
"""

from .._lazy import lazy_exports

__all__ = [
    "MAX_LINE_BYTES",
    "ProtocolError",
    "ReproServer",
    "ServeClient",
    "ServeClientError",
    "ServeError",
    "ShardedProofStore",
    "StoreError",
    "StoreProofCache",
    "parse_address",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".client": ("ServeClient", "ServeClientError"),
    ".protocol": ("MAX_LINE_BYTES", "ProtocolError", "parse_address"),
    ".server": ("ReproServer", "ServeError"),
    ".store": ("ShardedProofStore", "StoreError", "StoreProofCache"),
})
