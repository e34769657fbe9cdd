"""The benchmark's workloads, one module each.

Every module defines ``DECLARED_SITES`` (the probe sites its traced run
must reach, see ``tracing.SITES``), ``REFERENCE_OPS`` (how many operations
the reference at the seed of record holds), ``setup(seed, scale, workdir)``
returning inputs with ``trace_pass`` and ``item_at(i)``, and ``run``,
``check`` and ``verdict_correct`` for one operation.  ``item_at(i)`` names
the input of the timed loop's i-th operation; it never names one twice,
and makes more inputs from the seed when set-up's run out.  A module
imports only the parts of oilab it uses, so ``setup_s`` counts that import.
"""

SCALES = ("full", "smoke")
