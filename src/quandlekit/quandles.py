"""Finite quandles as n x n operation tables.

Conventions: table[x][y] = x <| y, inv_table[x][y] = x <|~ y (the unique z
with z <| y = x).  Columns act on the left argument, so column y is the
permutation S_y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    AutomorphismMismatch,
    ClosureViolation,
    ColumnNotBijective,
    NotIdempotent,
    NotNormal,
    NotSelfDistributive,
    OrderTooLarge,
    SizeMismatch,
)
from .groups import MAX_TABLE_ORDER, FiniteGroup, GroupAutomorphism, Subgroup
from .groups import (
    _closure,
    _first_repeat,
    _format_table_file,
    _isomorphisms,
    _parse_table_file,
    _square_table,
)


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
    """
    t = _square_table(table)
    del table         # a parsed file's array is freed before the n^3 scan

    hit = _kernels.first_hit(np.diagonal(t) != np.arange(t.shape[0]))
    if hit:
        raise NotIdempotent(*hit)

    col = _first_repeat(t.T)
    if col is not None:
        raise ColumnNotBijective(col[0])

    hit = _kernels.self_distrib_violation(t)
    if hit:
        raise NotSelfDistributive(*hit)
    return _quandle(t, label)


def _quandle(t, label):
    """Wrap an int64 table that is a quandle by construction: build the
    inverse table and freeze both.  No axiom is checked; the constructors
    below call this only where their algebra proves the axioms, and `t`
    must be a fresh array that nothing else holds."""
    n = t.shape[0]
    ar = np.arange(n)
    inv = np.empty((n, n), dtype=np.int64)
    inv[t, ar[None, :]] = ar[:, None]
    t.setflags(write=False)
    inv.setflags(write=False)
    return FiniteQuandle(order=n, table=t, inv_table=inv, label=label)


def trivial_quandle(n):
    t = np.tile(np.arange(n)[:, None], (1, n))
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


def galex(g: FiniteGroup, sigma: GroupAutomorphism):
    """Generalized Alexander quandle: x <| y = sigma(x y^-1) y.

    GroupAutomorphism checks only that sigma is a bijection.  When sigma is
    also a homomorphism (an O(n^2) check) the table is a quandle; otherwise
    it gets the full check, which some such tables pass.
    """
    if sigma.group is not g and not sigma.group.same_table(g):
        raise AutomorphismMismatch("automorphism is not over the given group")
    m = g.table
    smap = np.asarray(sigma.map, dtype=np.int64)
    u = m[:, g.inverse]                        # u[x, y] = x * inv(y)
    t = m[smap[u], np.arange(g.order)[None, :]]
    label = f"GAlex({g.name},{''.join(map(str, sigma.map))})"
    if np.array_equal(smap[m], m[smap[:, None], smap[None, :]]):
        return _quandle(t, label)
    return validate_quandle(t, label)


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

    Raises OrderTooLarge when |G| * |N| exceeds MAX_TABLE_ORDER.
    """
    if n.group is not g and not n.group.same_table(g):
        raise NotNormal("subgroup is not over the given group")
    if not n.normal:
        raise NotNormal("subgroup is not normal")
    nelems = np.asarray(n.elements, dtype=np.int64)
    nsize = nelems.size
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
    operand positions."""
    s = set(int(x) for x in seed)
    if not s:
        raise ValueError("seed must be nonempty")
    if any(x < 0 or x >= q.order for x in s):
        raise ValueError("seed elements out of range")
    return _closure((q.table, q.inv_table), s)


def restrict(q: FiniteQuandle, elements, label=""):
    """Subquandle on an explicit closed element set, reindexed by sorted
    position.  A closed subset of a finite quandle is a quandle."""
    elems = sorted(int(x) for x in set(elements))
    if not elems or elems[0] < 0 or elems[-1] >= q.order:
        raise ValueError("element set must be a nonempty subset of the elements")
    e = np.array(elems, dtype=np.int64)
    idx = np.full(q.order, -1, dtype=np.int64)
    idx[e] = np.arange(e.size)
    t = idx[q.table[np.ix_(e, e)]]
    if (t < 0).any():
        raise ValueError("element set is not closed under <|")
    return _quandle(t, label or f"{q.label}|{elems}")


def is_homomorphism(f, src: FiniteQuandle, dst: FiniteQuandle):
    """True iff f(x <| y) = f(x) <| f(y) for all pairs."""
    if len(f) != src.order:
        raise SizeMismatch(f"map has {len(f)} entries, source has {src.order}")
    fm = np.asarray(f, dtype=np.int64)
    if fm.min() < 0 or fm.max() >= dst.order:
        raise SizeMismatch("map values out of range for target quandle")
    return bool(np.array_equal(fm[src.table], dst.table[fm[:, None], fm[None, :]]))


def invariant_profile(q: FiniteQuandle):
    """Per-element invariant used to prune isomorphism search: the sorted
    cycle lengths of the points under the column permutation S_x (a cycle
    of length l gives l entries l, so this is S_x's cycle type) plus the
    fixed-point count of row x."""
    t = q.table
    lens = np.sort(_kernels.cycle_lengths(t), axis=0).T.tolist()
    fix = np.count_nonzero(t == np.arange(q.order)[:, None], axis=1).tolist()
    return [(tuple(c), f) for c, f in zip(lens, fix)]


def isomorphic(a: FiniteQuandle, b: FiniteQuandle):
    """A bijective homomorphism a -> b as a map list, or None: the
    lexicographically first, with images of equal invariant profile."""
    if a.order != b.order:
        return None
    pa, pb = invariant_profile(a), invariant_profile(b)
    if sorted(pa) != sorted(pb):
        return None
    return _first_isomorphism(a, b, pa, pb)


def _first_isomorphism(a, b, pa, pb):
    """isomorphic(a, b), given invariant profiles equal as multisets."""
    f = next(_isomorphisms((a.table, a.inv_table), (b.table, b.inv_table),
                           pa, pb), None)
    if f is None or not is_homomorphism(f, a, b):     # full recheck
        return None
    return f


def relabel(q: FiniteQuandle, perm):
    """Transport the table along a permutation: new[p x][p y] = p[x <| y]."""
    p = np.asarray(perm, dtype=np.int64)
    if sorted(p.tolist()) != list(range(q.order)):
        raise ValueError("perm is not a permutation of the elements")
    inv = np.empty_like(p)
    inv[p] = np.arange(q.order)
    t = p[q.table[inv[:, None], inv[None, :]]]
    return _quandle(t, f"{q.label}~relabel")


# -- file format --------------------------------------------------------------

def parse_quandle_file(text, label=""):
    """Quandle table file: `quandle <n>`, then n rows of n integers
    (row x, column y = x <| y)."""
    return validate_quandle(_parse_table_file(text, "quandle"), label=label)


def format_quandle_file(q: FiniteQuandle):
    return _format_table_file("quandle", q.table)
