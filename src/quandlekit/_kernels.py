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
    row-major order, or None; argmax stops there, so only a miss reads it all."""
    i = int(mask.argmax())
    return tuple(int(v) for v in np.unravel_index(i, mask.shape)) if mask.flat[i] else None


# Cube entries per x-slab of `_first_cube_mismatch` (about 0.5 MB per
# int64 array).  A slab holds at least one x, so with k representatives the
# scan holds O(n * k * max(1, _SLAB / (n * k))) entries, and restricted to
# representative y (the certificate) O(k^2 * max(1, _SLAB / k^2)).
_SLAB = 1 << 16

# Weights of the column hash: the powers of an odd 64-bit constant, which
# wrap mod 2^64.  Any weights are sound: _column_classes checks the classes
# they give and falls back to one class per column when two differ.
_HASH_WEIGHTS = np.cumprod(np.full(1024, 0x5851F42D4C957F2D, dtype=np.int64))


def _column_classes(table):
    """(reps, rep): rep[y] is the least y' with t[:, y'] == t[:, y], and
    reps the ascending indices with rep[y] == y, one per distinct column.
    One matmul hashes the columns; in a stable argsort the first of equal
    hashes is the least index.  One n^2 compare checks the classes when a
    hash repeats, and on a collision every column is its own class, which
    every caller accepts: they need only equal columns within a class.
    """
    n = table.shape[0]
    w = _HASH_WEIGHTS[:n] if n <= _HASH_WEIGHTS.size else np.resize(_HASH_WEIGHTS, n)
    h = w @ table                                        # h[y] hashes t[:, y]
    order = h.argsort(kind="stable")
    rep = order[h[order].searchsorted(h)]
    ar = np.arange(n)
    reps = (rep == ar).nonzero()[0]
    if reps.size < n and not (table == table.take(rep, axis=1)).all():
        return ar, ar
    return reps, rep


def _first_cube_mismatch(table, offsets, zs, reps_only=False):
    """First (x, y, z) in row-major order with
    t[t[x,y], z] != t.flat[offsets[x, :, z] + t[y,z]], else None; with
    reps_only, the first with y in zs too.

    `zs` is the ascending least z of each distinct column
    (`_column_classes`), or every z, and `offsets` is (n, 1, zs.size), or
    (n, 1, 1) when it does not depend on z.  Column c = t[:, z] decides z's
    part of the cube: lhs = c[t[x,y]] and the rhs of both axioms is
    t[c[x], c[y]] (self-distributivity) or t[x, c[y]] (associativity,
    offsets[x] = x * n).  So z and z' with equal columns fail at the same
    (x, y).  The scan visits only the zs, in increasing order.  Every bad z
    has a bad representative no larger than itself, so the first (x, y)
    with a bad z is the first with a bad representative, and its least bad
    z is the least bad representative.  Slabs of consecutive x, at most
    _SLAB entries each, are scanned in increasing order and the scan stops
    at the first slab with a mismatch.
    """
    n = table.shape[0]
    flat = table.ravel()
    tz = table.take(zs, axis=1)                          # t[x, z]
    txy, tyz = (tz, tz[zs]) if reps_only else (table, tz)
    step = max(1, _SLAB // tyz.size)
    for x0 in range(0, n, step):
        xs = slice(x0, x0 + step)
        # rhs lives until the next slab's is made: freed within the slab,
        # malloc hands its pages back and R_101 takes 2x longer
        rhs = np.take(flat, offsets[xs] + tyz[None])
        hit = first_hit(np.take(tz, txy[xs], axis=0) != rhs)   # t[t[x,y], z]
        if hit:
            x, y, k = hit
            return (x0 + x, int(zs[y]) if reps_only else y, int(zs[k]))
    return None


def _self_distrib_certified(table, reps, rep):
    """True only if t[t[x,y],z] == t[t[x,z],t[y,z]] for all x, y, z, in
    O(n k^2) work for k distinct columns, not the scan's O(n^2 k).

    Write S_y for column y, the map x -> t[x,y].  The axiom for (y, z) is
    S_z S_y = S_{y<|z} S_z, which depends on z only through S_z, so take z
    a representative.  Let r = rep[y], so S_y = S_r.  Then
    S_z S_y = S_z S_r = S_{r<|z} S_z by the axiom for (r, z), and this is
    S_{y<|z} S_z when y<|z and r<|z have the same column.  So it suffices
    that rep[t[y,z]] == rep[t[rep[y],z]] for every y and representative z
    (the class check, n k entries) and that the axiom holds for every x and
    every pair of representatives (the scan restricted to representative
    y, n k^2 entries).  No column need be a bijection, so a pass always
    means the axiom holds; on a quandle both checks pass (the class check
    because S_z is invertible).
    """
    tz = table.take(reps, axis=1)                        # t[y, z], z a rep
    cls = rep[tz]
    return bool((cls == cls[rep]).all()) and _first_cube_mismatch(
        table, (tz * table.shape[0])[:, None, :], reps, True) is None


def assoc_violation(table):
    """First (i, j, k) with (i*j)*k != i*(j*k), else None.  It scans every
    z: after `validate_group`'s Latin-square check no two columns match."""
    n = table.shape[0]                  # i*(j*k) = t.flat[i*n + t[j,k]]
    ar = np.arange(n)
    return _first_cube_mismatch(table, (ar * n)[:, None, None], ar)


def self_distrib_violation(table, classes=None):
    """First (x, y, z) violating (x<|y)<|z == (x<|z)<|(y<|z), else None.
    A table that passes `_self_distrib_certified` has none; any other gets
    the scan, which reports the first violation.  With all columns distinct
    the certificate is the scan itself, so it is skipped.  `classes` is
    `_column_classes(table)` when the caller has computed it."""
    n = table.shape[0]        # (x<|z)<|(y<|z) = t.flat[t[x,z]*n + t[y,z]]
    reps, rep = _column_classes(table) if classes is None else classes
    if reps.size < n and _self_distrib_certified(table, reps, rep):
        return None
    return _first_cube_mismatch(table, (table.take(reps, axis=1) * n)[:, None, :], reps)


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
    """lens[z, y]: the length of the cycle through z of S_y: z -> t[z, y],
    for t an n x m array of permutation columns.  Pointer doubling on the
    points (y, z), numbered y*n + z: after k steps lab[y, z] is the least of z,
    S_y(z), ..., S_y^(2^k - 1)(z), so after ceil(log2 n) steps it numbers
    the least point of z's cycle; the points per label are its length."""
    n = table.shape[0]
    lab = np.arange(table.size).reshape(table.T.shape)
    p = table.T + lab[:, :1]                  # p[y, z] numbers S_y(z)
    for _ in range((n - 1).bit_length()):
        lab = np.minimum(lab, np.take(lab, p))
        p = np.take(p, p)
    return np.bincount(lab.ravel(), minlength=table.size)[lab].T


def _row_keys(rows):
    """One byte string per row of a 2-d array with entries in 0..65535:
    the row as big-endian 2-byte entries, so the keys compare as the rows
    do lexicographically."""
    return np.ascontiguousarray(rows, ">u2").view(f"S{2 * rows.shape[1]}").ravel()
