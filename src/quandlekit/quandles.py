"""Finite quandles as n x n operation tables.

Conventions: table[x][y] = x <| y, inv_table[x][y] = x <|~ y (the unique z
with z <| y = x).  Columns act on the left argument, so column y is the
permutation S_y.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

from . import _kernels
from .errors import (
    AutomorphismMismatch,
    ClosureViolation,
    ColumnNotBijective,
    NotASubgroup,
    NotIdempotent,
    NotNormal,
    NotSelfDistributive,
    OrderTooLarge,
    SizeMismatch,
)
from .groups import MAX_TABLE_ORDER, FiniteGroup, Subgroup
from .groups import _closure, _format_table_file, _parse_table_file, _square_table


@dataclass(frozen=True, eq=False)
class FiniteQuandle:
    order: int
    table: np.ndarray
    inv_table: np.ndarray
    label: str = ""

    def op(self, x, y):
        return int(self.table[x, y])

    def inv_op(self, x, y):
        return int(self.inv_table[x, y])

    def same_table(self, other):
        return self.order == other.order and np.array_equal(self.table, other.table)


def validate_quandle(table, label=""):
    """Check the three quandle axioms and precompute the inverse operation.

    Works on a copy, so the caller's array stays writable and unshared.
    Raises NotIdempotent / ColumnNotBijective / NotSelfDistributive with the
    first violating indices.

    Equal columns are bijective, and invert, together: the k classes of
    `_kernels._column_classes` are found once, only the k representative
    columns (each the least of its class) are sorted and inverted, and the
    self-distributivity kernel takes the classes.
    """
    t = _square_table(table)
    del table         # a parsed file's array is freed before the n^3 scan
    n = t.shape[0]
    ar = np.arange(n)

    hit = _kernels.first_hit(np.diagonal(t) != ar)
    if hit:
        raise NotIdempotent(*hit)

    reps, rep = classes = _kernels._column_classes(t)
    cols = t.T[reps]                    # (k, n) copy, sorted in place
    cols.sort(axis=1)
    hit = _kernels.first_hit((cols != ar).any(axis=1))
    del cols                            # freed before the n^3 scan
    if hit:
        raise ColumnNotBijective(int(reps[hit[0]]))

    hit = _kernels.self_distrib_violation(t, classes)
    if hit:
        raise NotSelfDistributive(*hit)
    inv = np.empty((n, n), dtype=np.int64)
    step = max(1, _kernels._SLAB // n)      # no temporary holds a whole table
    for c in range(0, reps.size, step):     # invert the representative columns
        r = reps[c:c + step]
        inv[t.take(r, axis=1), r] = ar[:, None]
    for x in range(0, n, step):             # and copy each over its class
        inv[x:x + step] = inv[x:x + step].take(rep, axis=1)
    t.setflags(write=False)
    inv.setflags(write=False)
    return FiniteQuandle(order=n, table=t, inv_table=inv, label=label)


def _quandle(t, label):
    """The quandle labelled label on a fresh (n, n) int64 table, frozen
    with its inverse table, built in one scatter.  No axiom is checked:
    callers pass only proved quandles."""
    ar = np.arange(len(t))
    inv = np.empty_like(t)
    inv[t, ar] = ar[:, None]
    t.setflags(write=False)
    inv.setflags(write=False)
    return FiniteQuandle(order=len(t), table=t, inv_table=inv, label=label)


def trivial_quandle(n):
    t = np.arange(n)[:, None] + 0 * np.arange(n)      # x <| y = x; empty for n < 1
    return _quandle(_square_table(t), f"trivial({n})")   # rejects n < 1


def dihedral_quandle(n):
    """x <| y = (2y - x) mod n."""
    t = (2 * np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return _quandle(_square_table(t), f"R{n}")           # rejects n < 1


# -- constructions from groups ------------------------------------------------

def conj_quandle(g: FiniteGroup):
    """Conjugation quandle: x <| y = y^-1 x y."""
    m = g.table
    tmp = m[g.inverse].T                       # tmp[x, y] = inv(y) * x
    t = m[tmp, np.arange(g.order)[None, :]]    # (inv(y) * x) * y
    return _quandle(t, f"Conj({g.name})")


def galex(g: FiniteGroup, sigma):
    """Generalized Alexander quandle: x <| y = sigma(x y^-1) y, for sigma a
    sequence of the n element indices, such as a row of `automorphisms(g)`.
    An automorphism of G gives a quandle; any other bijection gets the full
    check of its table, which may raise."""
    s = np.asarray(sigma)
    if s.shape != (g.order,):
        raise AutomorphismMismatch("map length does not match the group order")
    if not np.array_equal(np.sort(s), np.arange(g.order)):
        raise ValueError("map is not a permutation of the group elements")
    s = s.astype(np.int64)      # after the check: the cast truncates 1.5 to 1
    t = _galex_tables(g, s[None])[0]
    if not _homomorphisms(s[None], g.table, g.table[None])[0]:
        validate_quandle(t)
    return _quandle(t, f"GAlex({g.name},{''.join(map(str, s.tolist()))})")


def _galex_tables(g: FiniteGroup, s):
    """The (k, n, n) stack of the tables of GAlex(G, s[i]) for the (k, n)
    array of maps s; its temporaries are a few arrays the stack's size."""
    m, n = g.table, g.order
    u = m[:, g.inverse]                        # u[x, y] = x * inv(y)
    # t[i, x, y] = m[s_i(x y^-1), y], at flat index s_i(u[x, y]) n + y
    return np.take(m, np.take(s, u, axis=1) * n + np.arange(n))


def hopf_extension(g: FiniteGroup, n: Subgroup):
    """Quandle on G x N built from a normal subgroup N of G.

    Index encoding: (g, n) -> g * |N| + rank of n in sorted N.  With
    a = g1 n1 and b = g2 n2, (g1, n1) <| (g2, n2) applies c |-> b^-1 a c a^-1 b
    to both coordinates.

    Why the table is a quandle, so it is not re-checked: let phi(g, n) = g n
    and h = phi(x)^-1 phi(y).  Then x <| y = x^h, conjugation of both
    coordinates by h (`pre` c `post` = h^-1 c h).  Since
    phi(x^h) = h^-1 phi(x) h, phi(x <| y) = phi(y)^-1 phi(x) phi(y).
    Idempotency: h = e when x = y.  Self-distributivity: both
    (x <| y) <| z and (x <| z) <| (y <| z) conjugate x by
    phi(x)^-2 phi(y) phi(z).  S_y is injective: phi(x <| y) determines
    phi(x), hence h, hence x = (x <| y)^(h^-1).  So the formula is a quandle
    on G x G, and the ClosureViolation check proves G x N closed under <|,
    which makes it a subquandle.

    Raises NotASubgroup on empty, out-of-range or repeated elements of N,
    and OrderTooLarge when |G| * |N| exceeds MAX_TABLE_ORDER.
    """
    if n.group is not g and not n.group.same_table(g):
        raise NotNormal("subgroup is not over the given group")
    if not n.normal:
        raise NotNormal("subgroup is not normal")
    nelems = sorted(map(index, n.elements))
    if not nelems or nelems[0] < 0 or nelems[-1] >= g.order or len(set(nelems)) < len(nelems):
        raise NotASubgroup("subgroup elements must be nonempty, in range and distinct")
    nelems, nsize = np.array(nelems, dtype=np.int64), len(nelems)
    size = g.order * nsize
    if size > MAX_TABLE_ORDER:
        raise OrderTooLarge(f"order {size} exceeds bound {MAX_TABLE_ORDER}")
    m, inv = g.table, g.inverse
    rank = np.full(g.order, -1, dtype=np.int64)
    rank[nelems] = np.arange(nsize)

    b = m[:, nelems].reshape(-1)               # b[y] = g2 * n2 for y = (g2, n2)
    table = np.empty((size, size), dtype=np.int64)
    # one block of |N| rows per g1 keeps the temporaries at |N| * size
    for g1 in range(g.order):
        a = m[g1, nelems][:, None]             # a[n1] = g1 * n1
        pre = m[inv[b][None, :], a]            # b^-1 a
        post = m[inv[a], b[None, :]]           # a^-1 b
        first = m[m[pre, g1], post]
        second = m[m[pre, nelems[:, None]], post]
        hit = _kernels.first_hit(rank[second] < 0)
        if hit:
            raise ClosureViolation(f"second coordinate {second[hit]} left the subgroup")
        table[g1 * nsize:(g1 + 1) * nsize] = first * nsize + rank[second]
    return _quandle(table, f"HopfExt({g.name},N{nsize})")


# -- subquandles, homomorphisms, isomorphisms --------------------------------

def subquandle_closure(q: FiniteQuandle, seed):
    """Smallest subset containing seed closed under <| and <|~ in both
    operand positions.  Closing under <| suffices: S_y has finite order m,
    so x <|~ y = S_y^(m-1)(x) is reached by applying <| y again."""
    s = set(map(index, seed))
    if not s:
        raise ValueError("seed must be nonempty")
    if any(x < 0 or x >= q.order for x in s):
        raise ValueError("seed elements out of range")
    return _closure(q.table, s)


def restrict(q: FiniteQuandle, elements):
    """Subquandle on an explicit closed element set, reindexed by sorted
    position.  A closed subset of a finite quandle is a quandle."""
    elems = sorted(map(index, set(elements)))
    if not elems or elems[0] < 0 or elems[-1] >= q.order:
        raise ValueError("element set must be a nonempty subset of the elements")
    e = np.array(elems, dtype=np.int64)
    idx = np.full(q.order, -1, dtype=np.int64)
    idx[e] = np.arange(e.size)
    t = idx[q.table[np.ix_(e, e)]]
    if (t < 0).any():
        raise ValueError("element set is not closed under <|")
    return _quandle(t, f"{q.label}|{elems}")


def is_homomorphism(f, src: FiniteQuandle, dst: FiniteQuandle):
    """True iff f(x <| y) = f(x) <| f(y) for all pairs."""
    if len(f) != src.order:
        raise SizeMismatch(f"map has {len(f)} entries, source has {src.order}")
    fm = np.asarray(f)
    if fm.dtype.kind not in "iu":
        raise SizeMismatch("map values must be integers")
    if fm.min() < 0 or fm.max() >= dst.order:
        raise SizeMismatch("map values out of range for target quandle")
    return bool(_homomorphisms(fm[None], src.table, dst.table[None])[0])


def _homomorphisms(f, s, t):
    """Per map f_i of a (k, n) stack, whether f_i(s[i, x, y]) = t[i, f_i(x),
    f_i(y)] for all x, y; s may be one table for every i."""
    i = np.arange(len(f))[:, None, None]
    return (f[i, s] == t[i, f[:, :, None], f[:, None, :]]).reshape(len(f), -1).all(axis=1)


def invariant_profile(q: FiniteQuandle):
    """Per-element invariant used to prune isomorphism search: the sorted
    cycle lengths of the points under the column permutation S_x (a cycle
    of length l gives l entries l, so this is S_x's cycle type) plus the
    number of y with x <| y = x."""
    t = q.table
    lens = np.sort(_kernels.cycle_lengths(t), axis=0).T.tolist()
    fix = np.count_nonzero(t == np.arange(q.order)[:, None], axis=1).tolist()
    return [(tuple(c), f) for c, f in zip(lens, fix)]


def _list_isomorphisms(sa, sb, ca, cb, order, images):
    """Every bijection f of quandles with f(order[0]) in images, colors
    ca[x] == cb[f(x)], and f S_y = S_f(y) f for every y, given the columns
    sa[y][x] = S_y(x) and sb of the two operation tables (`t.T.tolist()`)
    and a sequence order of all the elements: first the maps with
    f(order[0]) = images[0], then those with f(order[0]) = images[1], and
    so on, each run in lexicographic order of (f(order[0]), f(order[1]),
    ...).

    order[0], and then the first unmapped element of order, images
    ascending, join the branch elements B.  Propagation maps S_b(y) to
    S_f(b)(f(y)) for every mapped y and b in B; a clash, a reused image or
    a color mismatch prunes the node.  So the mapped set D is closed under
    each S_b, hence under S_b^-1, as S_b permutes the finite set D: the
    inverse tables would add only implied equations.  Every mapped z is
    w(b) for some b in B and a word w in the S_b, so S_z = w S_b w^-1 and
    f S_z = S_f(z) f: a full map is a homomorphism.  The elements of order
    before the branch element are mapped, and so fixed in its subtrees,
    so subtrees of ascending images hold ascending maps.
    """
    n = len(ca)

    def extend(f, used, branch, queue):
        # branch holds the column pairs (S_b, S_f(b)) of B
        while queue:
            x, u = queue.pop()
            if f[x] == u:
                continue
            if f[x] != -1 or used[u] or ca[x] != cb[u]:
                return False
            f[x], used[u] = u, True
            for sc, tc in branch:
                y, v = sc[x], tc[u]
                if f[y] == -1:
                    queue.append((y, v))
                elif f[y] != v:
                    return False
        return True

    def search(f, used, branch, k, images):
        # y = order[k] is the first unmapped element of order
        y = order[k]
        sc, mapped = sa[y], [(z, fz) for z, fz in enumerate(f) if fz != -1]
        for u in images:
            if used[u] or cb[u] != ca[y]:
                continue
            f2, used2, tc = f.copy(), used.copy(), sb[u]
            branch2 = branch + [(sc, tc)]
            # (y, u) last, so it is popped and mapped first
            queue = [(sc[z], tc[fz]) for z, fz in mapped] + [(y, u)]
            if not extend(f2, used2, branch2, queue):
                continue
            j = k + 1
            while j < n and f2[order[j]] != -1:
                j += 1
            if j < n:
                yield from search(f2, used2, branch2, j, range(n))
            else:
                yield f2

    yield from search([-1] * n, [False] * n, [], 0, images)


def isomorphic(a: FiniteQuandle, b: FiniteQuandle):
    """A bijective homomorphism a -> b as a map list, or None: the
    lexicographically first, with images of equal invariant profile.  The
    map found gets the full recheck."""
    if a.order != b.order:
        return None
    pa, pb = invariant_profile(a), invariant_profile(b)
    if sorted(pa) != sorted(pb):
        return None
    ar = range(a.order)
    f = next(_list_isomorphisms(a.table.T.tolist(), b.table.T.tolist(), pa, pb, ar, ar),
             None)
    return f if f is not None and is_homomorphism(f, a, b) else None


def relabel(q: FiniteQuandle, perm):
    """Transport the table along a permutation: new[p x][p y] = p[x <| y]."""
    p = np.array(list(map(index, perm)), dtype=np.int64)
    if sorted(p.tolist()) != list(range(q.order)):
        raise ValueError("perm is not a permutation of the elements")
    inv = np.argsort(p)
    t = p[q.table[inv[:, None], inv[None, :]]]
    return _quandle(t, f"{q.label}~relabel")


# -- file format --------------------------------------------------------------

def parse_quandle_file(text, label=""):
    """Quandle table file: `quandle <n>`, then n rows of n integers
    (row x, column y = x <| y)."""
    return validate_quandle(_parse_table_file(text, "quandle"), label=label)


def format_quandle_file(q: FiniteQuandle):
    return _format_table_file("quandle", q.table)
