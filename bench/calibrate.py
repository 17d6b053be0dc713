"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same call can take half as long again for minutes at a
time, in wall and in CPU time alike, while other tenants load the caches and
cores. The worker runs ``reference()`` between images, and each image's time
is divided by the reference's time measured around it. The ratio is the
image's cost in units of the reference; times the reference's nominal
duration ``NOMINAL_MS`` it reads as milliseconds at a fixed machine speed.

The kernel mixes what the pipeline spends its time on: a token-by-token
parse of ASCII integers, dict and list building, small numpy array ops and
one larger array pass. It does not touch mammocad, so a change to the
program cannot change it.
"""

import bisect
import statistics
import time

import numpy as np

NOMINAL_MS = 5.0  # the kernel's fastest wall time on a quiet 2-core VM, Python 3.11
SHARE = 0.2  # share of a phase's time spent on the reference
WINDOW = 16  # reference samples on each side of an image that set its speed

_TEXT = b" ".join(str((i * 7919) % 256).encode("ascii") for i in range(24000))
_SMALL = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) % 251
_LARGE = np.arange(512 * 512, dtype=np.int64).reshape(512, 512) % 253


def reference():
    """Run the kernel once; returns (wall ms, CPU ms) and checks its answer."""
    cpu = time.process_time()
    start = time.perf_counter()
    values = []
    for token in _TEXT.split():
        values.append(int(token))
    seen = {}
    for i, v in enumerate(values[:6000]):
        seen.setdefault(v, []).append(i)
    acc = 0.0
    for k in range(1, 120):
        block = _SMALL[k % 32 : k % 32 + 32, :32]
        acc += float(np.abs(np.diff(block, axis=0)).sum()) / k
    acc += float((_LARGE[::2, ::2] + _LARGE[1::2, 1::2]).sum() % 1000)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    if len(values) != 24000 or len(seen) != 256 or not acc > 0:
        raise RuntimeError("reference kernel gave a wrong answer")
    return wall * 1000.0, cpu * 1000.0


def local_speed(refs, at):
    """Median (wall ms, CPU ms) of the reference samples nearest in time to ``at``.

    ``refs`` is a list of (time, wall ms, CPU ms) sorted by time.
    """
    i = bisect.bisect_left(refs, (at,))
    near = refs[max(i - WINDOW, 0) : i + WINDOW]
    return (
        statistics.median(r[1] for r in near),
        statistics.median(r[2] for r in near),
    )
