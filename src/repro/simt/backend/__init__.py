"""Pluggable execution backends for the SIMT pipeline.

A backend owns instruction decode and the issue/scheduler loop of one
:class:`~repro.simt.pipeline.StreamingMultiprocessor`; the SM keeps the
shared plumbing (register files, memory system, capability checks) that
every backend drives.  Two backends exist:

- ``scalar`` — the reference per-lane interpreter (one Python-level loop
  over active lanes per instruction).
- ``vector`` — lane-vectorized execution: symbolic uniform/affine operand
  forms, NumPy lane arrays on wide SMs, fast-path capability checks and
  hot straight-line regions replayed from pre-decoded steps (full-warp
  or under a divergent thread group's mask), falling back to the scalar
  semantics per-op for rare cases.  Bit-identical to ``scalar`` by
  construction.

Backends are selected by :attr:`repro.simt.config.SMConfig.backend`,
whose default honours the ``REPRO_BACKEND`` environment variable.
"""

#: Every valid ``SMConfig.backend`` value; the only copy of the list.
BACKEND_NAMES = ("scalar", "vector")


def unknown_backend_error(name):
    """The ``ValueError`` for a backend name not in :data:`BACKEND_NAMES`."""
    return ValueError("unknown backend %r (choose %s)"
                      % (name, " or ".join(BACKEND_NAMES)))


def create_backend(name, sm):
    """Instantiate the backend ``name`` bound to ``sm``."""
    if name == "scalar":
        from repro.simt.backend.scalar import ScalarBackend
        return ScalarBackend(sm)
    if name == "vector":
        from repro.simt.backend.vector import VectorBackend
        return VectorBackend(sm)
    raise unknown_backend_error(name)
