"""A fixed reference loop that measures how fast this machine is running
right now.

On a shared machine the speed available to one process drifts by more
than half over minutes, which no amount of work per run averages out. The
loop below has the same profile as splatgrad's hot paths (Python-level
loops over numpy calls on arrays of a few hundred floats) and is timed
just before and just after every op, outside the op's own timing. The
benchmark scales each op by NOMINAL_S over the mean of its two reference
times, so times read as times on a machine where the loop takes
NOMINAL_S. On a shared two-core Intel Xeon virtual machine, the raw median
of a 10 ms render moved by 40% across four 20 s runs while its scaled
median moved by about 1%.
"""

from time import perf_counter

import numpy as np

NOMINAL_S = 0.003
_XS = np.arange(256, dtype=np.float64) + 0.5
_COLOR = np.array([0.2, 0.5, 0.7])


def reference_seconds():
    """Wall time of one pass of the reference loop."""
    start = perf_counter()
    trans = np.ones(_XS.size)
    color = np.zeros((_XS.size, 3))
    for j in range(150):
        dx = _XS - (j % 64) * 4.0
        sigma = 0.5 * 0.01 * dx * dx
        alpha = np.minimum(0.6 * np.exp(-sigma), 0.999)
        visible = (sigma <= 4.5) & (alpha >= 1.0 / 255.0)
        weight = np.where(visible, alpha * trans, 0.0)
        color += weight[:, None] * _COLOR
        trans = np.where(visible, trans * (1.0 - alpha), trans)
    if not np.all(np.isfinite(color)):
        raise FloatingPointError("reference loop produced a non-finite value")
    return perf_counter() - start
