"""Canonical configuration fingerprints.

A *fingerprint* is the exact, human-readable identity of a unit of work:
canonical JSON over everything that shapes its numeric result.  The
content-addressed cache (:mod:`repro.cache.store`) keys entries by its
digest, the streaming Monte-Carlo checkpoints embed it to reject
incompatible resumes, and the service layer uses it to recognise
identical requests from different users.

The keying discipline (generalised from the checkpoint fingerprint the
streaming engine introduced in PR 5):

* **Everything that can change the numbers is in the key** -- the
  workload kind, the full canonical config (seed, sample count, chunk
  geometry, specs, PDK name, stopping rule...), the *evaluator
  identity* (a digest of the design under evaluation -- the fingerprint
  cannot see inside an opaque callable, so callers must name what it
  computes), and the library version (``repro.__version__``), so a code
  change can never serve stale numbers.
* **Nothing else is** -- notably the execution backend and worker
  count, which by the :mod:`repro.exec` determinism contract never
  affect results, so the same request parallelised differently still
  hits the cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

__all__ = ["canonical_fingerprint", "canonicalize", "fingerprint_key",
           "library_version"]


def library_version() -> str:
    """The running library's version (the fingerprint's code salt)."""
    # Late import and dynamic attribute read: the version must be
    # looked up at fingerprint time, never frozen at import time.
    import repro
    return repro.__version__


def canonicalize(value):
    """Reduce a configuration value to a canonical JSON-able form.

    Handles the shapes workload configs are made of: dataclasses
    (``asdict``), mappings (string keys, sorted by JSON emission),
    sequences (tuples/lists/sets -> lists; sets are sorted), numpy
    scalars (native Python numbers) and arrays (replaced by a
    ``sha256:`` digest of shape, dtype and bytes -- large design
    matrices key the cache without being copied into it), ``None``,
    ``bool``, ``int``, ``float`` and ``str`` as themselves.  Anything
    else must provide a ``describe()`` method (e.g.
    :class:`repro.measure.specs.SpecSet`) or be pre-converted by the
    caller.

    Raises
    ------
    TypeError
        For values with no canonical form (opaque objects, callables).
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr round-trips doubles exactly; JSON emission of the float
        # itself does too (json uses repr), so floats pass through.
        return value
    if isinstance(value, np.generic):
        return canonicalize(value.item())
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes())
        return (f"sha256:{digest.hexdigest()}"
                f":{value.dtype.str}:{list(value.shape)}")
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return canonicalize(dataclasses.asdict(value))
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"fingerprint mapping keys must be strings, "
                    f"got {key!r}")
            out[key] = canonicalize(item)
        return out
    if isinstance(value, (set, frozenset)):
        return sorted(canonicalize(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    describe = getattr(value, "describe", None)
    if callable(describe):
        return describe()
    raise TypeError(f"value has no canonical fingerprint form: {value!r} "
                    f"({type(value).__name__})")


def canonical_fingerprint(kind: str, config, *,
                          evaluator: str = "") -> str:
    """The canonical fingerprint text of one unit of work.

    Parameters
    ----------
    kind:
        The workload kind (``"mc-streaming"``, ``"yield-estimate"``,
        ...): two different computations over identical configs must
        never collide.
    config:
        The full canonical configuration (see :func:`canonicalize`).
    evaluator:
        Identity of the evaluator/design under computation -- typically
        a digest of the design parameters and testbench settings.  The
        evaluator itself is an opaque callable the fingerprint cannot
        inspect; an empty string means the config already determines it.

    The running ``repro.__version__`` salts the text, so upgrading the
    library invalidates every cached result rather than serving numbers
    an older algorithm produced.

    Returns
    -------
    A deterministic, process-independent JSON string (sorted keys, no
    whitespace).  Key the cache with :func:`fingerprint_key` of it.
    """
    payload = {
        "kind": kind,
        "version": library_version(),
        "evaluator": evaluator,
        "config": canonicalize(config),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fingerprint_key(fingerprint: str) -> str:
    """Content-address of a fingerprint: its SHA-256 hex digest."""
    return hashlib.sha256(fingerprint.encode()).hexdigest()
