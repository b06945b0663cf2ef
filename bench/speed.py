"""How fast the machine runs right now, from a fixed piece of Python work.

The 2-core VM the benchmark was built on changes speed by up to 1.8x over
tens of seconds: a job and this calibration slow down together (correlation
0.9 over 10-second windows), and CPU time slows with wall time.  run.py
times the calibration before and after every job and scales the job's
end-to-end times by REFERENCE_S over the mean of the two.  On ten runs of
the same inputs that cut the spread of wall_s from 20-27 % to 4-5 %, while
a faster program still reads faster: the calibration runs none of its
code.

The work is frozen: changing it changes every scaled figure.  It shares no
code with blocksched or with the oracle.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.018   # calibration time that scaled figures are quoted at

# a block of four patient types: (stage-1, stage-2, count), tenths of a minute
_KINDS = ((100, 0, 3), (150, 0, 2), (200, 250, 1), (150, 350, 3))


def _walk(left: list[int], depth: int, size: int, a_free: int, p_free: int,
          wait: int) -> int:
    """Least stage-2 wait over every distinct order of the remaining
    patients: a small exhaustive search like the ones the program runs."""
    if depth == size:
        return wait
    best = None
    for i, (lam, mu, _) in enumerate(_KINDS):
        if not left[i]:
            continue
        left[i] -= 1
        a_next = a_free + lam
        if mu:
            begin = a_next if a_next > p_free else p_free
            value = _walk(left, depth + 1, size, a_next, begin + mu,
                          wait + begin - a_next)
        else:
            value = _walk(left, depth + 1, size, a_next, p_free, wait)
        left[i] += 1
        if best is None or value < best:
            best = value
    return best


def calibrate() -> tuple[float, float]:
    """(wall s, CPU s) of a fixed exhaustive search, done twice."""
    left = [count for _, _, count in _KINDS]
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for _ in range(2):
        _walk(left, 0, sum(left), 0, 0, 0)
    return time.perf_counter() - t0, time.process_time() - cpu0
