"""Hot inner-loop scans over operation tables, vectorized with numpy.

Every kernel returns the indices of the *first* violation/witness in
row-major scan order (the order of nested loops over the index tuple,
last index fastest), or all -1 if none exists.  numpy's argwhere lists
hits in that order, so the first row of its result is the first hit.
"""

import numpy as np

BACKEND = "numpy"


def assoc_violation(table):
    """First (i, j, k) with (i*j)*k != i*(j*k), else (-1, -1, -1)."""
    n = table.shape[0]
    lhs = table[table]                                  # [i,j,k] = t[t[i,j],k]
    rhs = table[np.arange(n)[:, None, None], table[None, :, :]]
    bad = np.argwhere(lhs != rhs)
    if bad.size == 0:
        return (-1, -1, -1)
    return tuple(int(v) for v in bad[0])


def self_distrib_violation(table):
    """First (x, y, z) violating (x<|y)<|z == (x<|z)<|(y<|z)."""
    lhs = table[table]                                  # [x,y,z] = t[t[x,y],z]
    rhs = table[table[:, None, :], table[None, :, :]]   # t[t[x,z],t[y,z]]
    bad = np.argwhere(lhs != rhs)
    if bad.size == 0:
        return (-1, -1, -1)
    return tuple(int(v) for v in bad[0])


def hopf_witness_scan(table):
    """First (x, y) with x<|y == x and y<|x != y, else (-1, -1)."""
    n = table.shape[0]
    ar = np.arange(n)
    fixed = table == ar[:, None]                        # x<|y == x
    bad = np.argwhere(fixed & ~fixed.T)
    if bad.size == 0:
        return (-1, -1)
    return tuple(int(v) for v in bad[0])


def trefoil_witness_scan(table):
    """First (x, y) with (x<|y)<|x == y and (y<|x)<|y != x, else (-1, -1)."""
    n = table.shape[0]
    ar = np.arange(n)
    twist = table[table, ar[:, None]]                   # [x,y] = (x<|y)<|x
    cond = twist == ar[None, :]
    bad = np.argwhere(cond & ~cond.T)
    if bad.size == 0:
        return (-1, -1)
    return tuple(int(v) for v in bad[0])
