"""The host's speed, measured beside the timed work, and timings scaled to it.

On a shared two-vCPU virtual machine the host's speed moves by itself:
within one series of runs, a fixed pure-Python loop went from 4.1 to
9.4 ms per call in a few minutes, and ``warm_replay`` from 1390 to 500
points/s alongside, with no steal time reported.  Wall-clock metrics taken
minutes apart then differ by more than any bound a change could be held
to.  So each run times a fixed unit of reference work next to its timed
work and scales its timings to the speed at which that unit takes
:data:`REFERENCE_MS`: a timing ``t`` measured while the unit took ``r`` ms
is reported as ``t * REFERENCE_MS / r``.

The unit uses the standard library and NumPy only, no code of the program
under test, so no change to the program moves it directly; readings taken
while a server runs compete with it for the CPUs, though (``DESIGN.md``).  It mixes the kinds of
work the program does (interpreter loops, JSON, hashing, array passes over
a 256² matrix) in comparable parts.  The raw timings are reported too.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import numpy as np

#: The unit time scaled timings refer to: a round value of the order of
#: the unit's time on a shared two-vCPU virtual machine (1.1-2.3 ms there,
#: in its slower state).  Any fixed value makes runs comparable.
REFERENCE_MS = 1.0

_DOCUMENT = {f"key{i}": [i, i * 0.5, f"value{i}"] for i in range(150)}
_MATRIX = np.random.default_rng(0).standard_normal((256, 256))


def _unit() -> None:
    total = 0
    for i in range(8_000):
        total += i * i
    text = json.dumps(_DOCUMENT, sort_keys=True)
    json.loads(text)
    hashlib.sha256(text.encode("utf-8") * 24).hexdigest()
    np.sort(_MATRIX * 1.0001, axis=1).sum()


def reference_ms(repeats: int = 15) -> float:
    """Median milliseconds of the reference unit over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _unit()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def scale(reference: float) -> float:
    """The factor that takes a timing measured while the unit took
    ``reference`` ms to the reference speed."""
    return REFERENCE_MS / reference
