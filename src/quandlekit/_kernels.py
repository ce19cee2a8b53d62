"""Hot inner-loop scans over operation tables, vectorized with numpy.

Every position the package reports (a violation, a witness, a repeat) is
the *first* one in row-major scan order: the order of nested loops over
the index tuple, last index fastest.  `first_hit` is the one place that
picks it, and the kernels return its None when there is no hit.
"""

import numpy as np

BACKEND = "numpy"


def first_hit(mask):
    """Index tuple of the first True of a nonempty boolean array in
    row-major order, or None.  argmax stops at the first True, so only a
    mask with no True is scanned to the end."""
    i = int(mask.argmax())
    if not mask.flat[i]:
        return None
    return tuple(int(v) for v in np.unravel_index(i, mask.shape))


# Cube entries per x-slab of the n^3 scans (about 0.5 MB per int64 array).
# A slab holds at least one x, so with k distinct columns memory is
# O(n * k * max(1, _SLAB / (n * k))).
_SLAB = 1 << 16


def _first_cube_mismatch(table, offsets):
    """First (x, y, z) in row-major order with
    t[t[x,y], z] != t.flat[offsets[x, :, z] + t[y,z]], else None.

    `offsets` is (n, 1, n), or (n, 1, 1) when it does not depend on z.
    Column c = t[:, z] decides z's part of the cube: lhs = c[t[x,y]] and
    the rhs of both axioms is t[c[x], c[y]] (self-distributivity) or
    t[x, c[y]] (associativity, offsets[x] = x * n).  So z and z' with equal
    columns fail at the same (x, y).  The scan visits only the least z of
    each distinct column, in increasing order.  Every bad z has a bad
    representative no larger than itself, so the first (x, y) with a bad z
    is the first with a bad representative, and its least bad z is the
    least bad representative.  Slabs of consecutive x, at most _SLAB
    entries each, are scanned in increasing order and the scan stops at
    the first slab with a mismatch.
    """
    n = table.shape[0]
    flat = table.ravel()
    cols = np.ascontiguousarray(table.T)      # one byte string per column
    _, first = np.unique(cols.view(np.dtype((np.void, cols.itemsize * n))),
                         return_index=True)
    zs = np.sort(first)
    tz = table[:, zs]
    if offsets.shape[2] != 1:
        offsets = offsets[:, :, zs]
    step = max(1, _SLAB // (n * zs.size))
    for x0 in range(0, n, step):
        xs = slice(x0, x0 + step)
        lhs = np.take(tz, table[xs], axis=0)             # t[t[x,y], z]
        rhs = np.take(flat, offsets[xs] + tz[None])
        hit = first_hit(lhs != rhs)
        if hit:
            x, y, k = hit
            return (x0 + x, y, int(zs[k]))
    return None


def assoc_violation(table):
    """First (i, j, k) with (i*j)*k != i*(j*k), else None."""
    n = table.shape[0]                  # i*(j*k) = t.flat[i*n + t[j,k]]
    return _first_cube_mismatch(table, (np.arange(n) * n)[:, None, None])


def self_distrib_violation(table):
    """First (x, y, z) violating (x<|y)<|z == (x<|z)<|(y<|z), else None."""
    n = table.shape[0]        # (x<|z)<|(y<|z) = t.flat[t[x,z]*n + t[y,z]]
    return _first_cube_mismatch(table, (table * n)[:, None, :])


def hopf_witness_scan(table):
    """First (x, y) with x<|y == x and y<|x != y, else None."""
    fixed = table == np.arange(table.shape[0])[:, None]     # x<|y == x
    return first_hit(fixed & ~fixed.T)


def trefoil_witness_scan(table):
    """First (x, y) with (x<|y)<|x == y and (y<|x)<|y != x, else None."""
    ar = np.arange(table.shape[0])
    cond = table[table, ar[:, None]] == ar[None, :]      # (x<|y)<|x == y
    return first_hit(cond & ~cond.T)


def cycle_lengths(table):
    """lens[z, y]: the length of the cycle through z of the column
    permutation S_y: z -> t[z, y].  Pointer doubling on the points (y, z),
    numbered y*n + z: after k steps lab[y, z] is the least number among z,
    S_y(z), ..., S_y^(2^k - 1)(z), so after ceil(log2 n) steps it numbers
    the least point of z's cycle, and counting the points per label gives
    the cycle's length."""
    n = table.shape[0]
    lab = np.arange(n * n).reshape(n, n)
    p = table.T + lab[:, :1]                  # p[y, z] numbers S_y(z)
    for _ in range((n - 1).bit_length()):
        lab = np.minimum(lab, np.take(lab, p))
        p = np.take(p, p)
    return np.bincount(lab.ravel(), minlength=n * n)[lab].T
