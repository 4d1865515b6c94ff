"""Execution backends: where and how chunked Monte-Carlo work runs.

The engine in :mod:`repro.mc.engine` splits every sweep into
independently-seeded chunks; this package supplies the pluggable
strategies (serial / thread pool / forked process pool) that execute
them, and the one chunk runner (:func:`chunk_bounds` +
:func:`run_chunks`) every chunked sweep plans, dispatches, reports
progress and gathers through.  See :mod:`repro.exec.backend` for the
determinism contract.
"""

from .backend import (BACKEND_ENV_VAR, Backend, ProcessBackend,
                      SerialBackend, ThreadBackend, available_backends,
                      chunk_bounds, default_workers, resolve_backend,
                      run_chunks)

__all__ = [
    "BACKEND_ENV_VAR", "Backend", "SerialBackend", "ThreadBackend",
    "ProcessBackend", "available_backends", "chunk_bounds",
    "default_workers", "resolve_backend", "run_chunks",
]
