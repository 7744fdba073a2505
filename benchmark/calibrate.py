"""A fixed reference computation that measures how fast the host runs now.

The benchmark shares a host whose speed drifts by a fifth or more over
minutes, and the drift slows this reference and the library alike.  A run
measures the reference between its passes (and between its set-up samples)
and scales its time metrics by ``REFERENCE_S / median(probe seconds)``: the
values read as if the host had run the reference in ``REFERENCE_S``.

The reference does the two kinds of work the library spends its time on,
Gaussian elimination over F_p with numpy row operations and over Q with
Fractions, in its own code: it never calls ``jordanblocks``, so a change to
the library cannot move it.  Changing this file rescales every time metric.
"""

import random
from fractions import Fraction
from time import perf_counter

import numpy as np

#: Seconds the reference takes on a 2-vCPU VM (Python 3.11, numpy 2.4).
REFERENCE_S = 0.035
#: Probes taken before every timed pass and after the last one.
PROBES_PER_PASS = 2


def _inputs() -> tuple:
    rng = random.Random("bench-reference")
    fp = np.array([[rng.randrange(7) for _ in range(128)] for _ in range(128)], dtype=np.int64)
    q = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(13)] for _ in range(13)]
    return fp, q


_FP, _Q = _inputs()


def _rank_fp(a: np.ndarray, p: int = 7) -> int:
    a = a.copy()
    r = 0
    for c in range(a.shape[1]):
        nonzero = np.nonzero(a[r:, c])[0]
        if not len(nonzero):
            continue
        piv = r + int(nonzero[0])
        a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        r += 1
        if r == a.shape[0]:
            break
    return r


def _rank_q(rows: list) -> int:
    rows = [list(row) for row in rows]
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def probe() -> float:
    """Seconds the reference computation takes now."""
    t0 = perf_counter()
    _rank_fp(_FP)
    _rank_q(_Q)
    return perf_counter() - t0
