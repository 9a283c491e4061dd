"""Set-up probe, run in a fresh interpreter by ``run.py``.

Imports ``quadrelax.cli`` and fills the program's one-time caches (the
per-order coefficient matrices, the normalization and the reference tables,
the last two through one conformance check), then prints the monotonic clock
at each stage as one JSON line.  The ``bench-ready`` line on stderr marks
where the ``-X importtime`` log of the program's own imports begins.
"""

import json
import sys
import time

sys.stderr.write("bench-ready: import\n")
sys.stderr.flush()
import quadrelax.cli  # noqa: E402,F401

imported = time.monotonic()
from quadrelax import redfield_core  # noqa: E402
from quadrelax.phys_params import SpectralDensities  # noqa: E402

if hasattr(redfield_core, "coefficient_matrices"):
    for q in range(8):
        redfield_core.coefficient_matrices(q)
redfield_core.validate_against_reference_tables(SpectralDensities(1.0, 0.5, 0.25))
print(json.dumps({"imported": imported, "ready": time.monotonic()}))
