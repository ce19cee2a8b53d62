"""Hot inner-loop scans over operation tables, vectorized with numpy.

Every kernel returns the indices of the *first* violation/witness in
row-major scan order (the order of nested loops over the index tuple,
last index fastest), or all -1 if none exists.  numpy's argwhere lists
hits in that order, so the first row of its result is the first hit.
"""

import numpy as np

BACKEND = "numpy"


# Cube entries per x-slab of the n^3 scans (about 0.5 MB per int64 array).
# A slab holds at least one x, so memory is O(n^2 * max(1, _SLAB / n^2)).
_SLAB = 1 << 16


def _first_cube_mismatch(table, offsets):
    """First (x, y, z) in row-major order with
    t[t[x,y], z] != t.flat[offsets[x] + t[y,z]], else (-1, -1, -1).

    `offsets` broadcasts against an (x, y, z) cube.  Slabs of consecutive x
    are scanned in increasing order and the scan stops at the first slab
    with a mismatch, so the hit is the same as over the whole cube.
    """
    n = table.shape[0]
    flat = table.ravel()
    step = max(1, _SLAB // (n * n))
    for x0 in range(0, n, step):
        xs = slice(x0, x0 + step)
        lhs = np.take(table, table[xs], axis=0)          # t[t[x,y], z]
        rhs = np.take(flat, offsets[xs] + table[None])
        bad = lhs != rhs
        if bad.any():      # argwhere on a clean slab costs ~10x more
            x, y, z = np.argwhere(bad)[0]
            return (x0 + int(x), int(y), int(z))
    return (-1, -1, -1)


def assoc_violation(table):
    """First (i, j, k) with (i*j)*k != i*(j*k), else (-1, -1, -1)."""
    n = table.shape[0]                  # i*(j*k) = t.flat[i*n + t[j,k]]
    return _first_cube_mismatch(table, (np.arange(n) * n)[:, None, None])


def self_distrib_violation(table):
    """First (x, y, z) violating (x<|y)<|z == (x<|z)<|(y<|z)."""
    n = table.shape[0]        # (x<|z)<|(y<|z) = t.flat[t[x,z]*n + t[y,z]]
    return _first_cube_mismatch(table, (table * n)[:, None, :])


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
