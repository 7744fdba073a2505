"""Slow reference implementations that the fast linalg kernels are checked against.

``rref_rank_mod`` is full Gauss-Jordan elimination over F_p that scans for
each pivot row by row and rewrites the whole matrix at every pivot;
``full_power_partition`` reads a Jordan type off the ranks of the full
powers N, N^2, ... .  Both are deliberately plain so that they are easy to
trust.
"""

import numpy as np

from jordanblocks.errors import NotNilpotent
from jordanblocks.linalg import Partition


def rref_mod(a: np.ndarray, p: int, stop_col: int | None = None):
    """RREF over F_p with pivots before ``stop_col``; returns (reduced, pivots)."""
    a = a.copy() % p
    m, n = a.shape
    stop = n if stop_col is None else stop_col
    r = 0
    pivots = []
    for c in range(stop):
        piv = None
        for i in range(r, m):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


def rref_rank_mod(a: np.ndarray, p: int) -> int:
    return len(rref_mod(a, p)[1])


def full_power_partition(n_mat) -> Partition:
    """Jordan type from dim ker N^k, ranking every full power N^k from scratch."""
    n = n_mat.nrows
    p = n_mat.field.p
    if n == 0:
        return Partition(())
    kernel_dims = []
    power = n_mat
    prev = 0
    while True:
        d = n - (rref_rank_mod(power.a, p) if p else power.rank())
        if d == prev:
            raise NotNilpotent("matrix is not nilpotent")
        kernel_dims.append(d)
        if d == n:
            break
        prev = d
        power = power @ n_mat
    diffs = [kernel_dims[0]] + [b - a for a, b in zip(kernel_dims, kernel_dims[1:])]
    parts = [sum(1 for c in diffs if c >= i) for i in range(1, diffs[0] + 1)]
    return Partition(sorted(parts, reverse=True))
