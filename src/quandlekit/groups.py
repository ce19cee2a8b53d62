"""Finite groups as Cayley tables.

Element orderings for the built-in families are frozen so that element
indices quoted elsewhere (witnesses, CLI output) stay stable:

  cyclic n                  indices 0..n-1, i*j = (i+j) mod n
  dihedral n   (order 2n)   0..n-1 are rotations r^i; n..2n-1 are r^i*s
  quaternion8               1, -1, i, -i, j, -j, k, -k  (indices 0..7)
  generalized_quaternion16  a^0..a^7 then a^0*b..a^7*b
  symmetric n / alternating 4   permutation tuples in lexicographic order;
                            (p*q)(t) = p[q[t]] (apply q first)
  direct_product(A, B)      (x, y) -> x*|B| + y
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (
    FileFormatError,
    NoIdentity,
    NotAssociative,
    NotASubgroup,
    NotLatinSquare,
    OrderTooLarge,
    UnknownFamily,
)

DEFAULT_MAX_ORDER = 64
# Largest table read from a file or built by hopf_extension: a file's
# check costs up to n^3, and an order-4096 table takes 128 MB per copy.
MAX_TABLE_ORDER = 1024


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    order: int
    table: np.ndarray
    identity: int
    inverse: np.ndarray
    name: str = "group"
    labels: tuple = ()

    def mul(self, i, j):
        return int(self.table[i, j])

    def inv(self, i):
        return int(self.inverse[i])

    def is_abelian(self):
        return bool(np.array_equal(self.table, self.table.T))

    def element_orders(self):
        # the cycle of e under right multiplication by x is e, x, x^2, ...
        return _kernels.cycle_lengths(self.table)[self.identity].tolist()

    def label(self, i):
        return self.labels[i] if self.labels else str(i)

    def same_table(self, other):
        return self.order == other.order and np.array_equal(self.table, other.table)


@dataclass(frozen=True)
class GroupAutomorphism:
    group: FiniteGroup
    map: tuple

    def __post_init__(self):
        n = self.group.order
        if len(self.map) != n or sorted(self.map) != list(range(n)):
            raise ValueError("map is not a permutation of the group elements")


@dataclass(frozen=True)
class Subgroup:
    group: FiniteGroup
    elements: tuple
    normal: bool

    @property
    def order(self):
        return len(self.elements)


def _square_table(table):
    """A fresh int64 copy of the table, checked to be a nonempty square
    matrix with entries in 0..n-1.  The validators freeze what this
    returns, so it never aliases the caller's array."""
    t = np.array(table, dtype=np.int64)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
        raise FileFormatError("table must be a nonempty square matrix")
    n = t.shape[0]
    if t.min() < 0 or t.max() >= n:
        raise FileFormatError(f"table entries must lie in 0..{n - 1}")
    return t


def _first_repeat(lines):
    """The first row of a table from `_square_table` (pass its transpose
    for columns) that is not a permutation, as (index, first entry
    repeated in scan order); None if every row is a permutation."""
    hit = _kernels.first_hit(
        (np.sort(lines, axis=1) != np.arange(lines.shape[0])).any(axis=1))
    if hit is None:
        return None
    i, = hit
    seen = set()
    for v in lines[i].tolist():
        if v in seen:
            return i, v
        seen.add(v)


def validate_group(table, name="group", labels=()):
    """Check all group axioms on an n x n table and build a FiniteGroup.

    Raises NotLatinSquare / NoIdentity / NotAssociative naming the first
    violation found; the Latin-square check visits row i before column i,
    for i = 0, 1, ...
    """
    t = _square_table(table)
    del table         # a parsed file's array is freed before the n^3 scan
    n = t.shape[0]

    row, col = _first_repeat(t), _first_repeat(t.T)
    if row is not None and (col is None or row[0] <= col[0]):
        raise NotLatinSquare("row", *row)
    if col is not None:
        raise NotLatinSquare("column", *col)

    ar = np.arange(n)
    hit = _kernels.first_hit((t == ar).all(axis=1) & (t == ar[:, None]).all(axis=0))
    if hit is None:
        raise NoIdentity()
    identity, = hit

    hit = _kernels.assoc_violation(t)
    if hit:
        raise NotAssociative(*hit)

    inverse = np.argmax(t == identity, axis=1)
    assert (t[inverse, ar] == identity).all()

    t.setflags(write=False)
    inverse.setflags(write=False)
    return FiniteGroup(order=n, table=t, identity=identity, inverse=inverse,
                       name=name, labels=tuple(labels))


# -- catalog families ---------------------------------------------------------

def _metacyclic(m, c):
    """Table of <a, b | a^m, b^2 = a^c, b^-1 a b = a^-1>.  Index i + m*j
    is a^i b^j, and a^i b^j * a^k b^l = a^(i + (-1)^j k + c j l) b^(j+l)."""
    k, l = np.arange(2 * m) % m, np.arange(2 * m) // m     # the right factor
    i, j = k[:, None], l[:, None]                           # the left factor
    return (i + (1 - 2 * j) * k + c * j * l) % m + m * ((j + l) % 2)


def _permutation_group(perms, name):
    """The group of the lexicographically sorted permutation tuples perms
    under (p*q)(t) = p[q[t]].  Sorted permutations have increasing base-n
    codes, so a search of the codes indexes each product."""
    p = np.array(perms, dtype=np.int64)
    place = p.shape[1] ** np.arange(p.shape[1] - 1, -1, -1)
    t = np.searchsorted(p @ place, p[:, p] @ place)      # p[:, p][a, b] = a*b
    return validate_group(t, name=name, labels=tuple(map(str, perms)))


def cyclic_group(n):
    t = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return validate_group(t, name=f"cyclic({n})",
                          labels=tuple(str(i) for i in range(n)))


def dihedral_group(n):
    labels = tuple(f"r{i}" if b == 0 else f"r{i}s" for b in (0, 1) for i in range(n))
    return validate_group(_metacyclic(n, 0), name=f"dihedral({n})", labels=labels)


def quaternion_group():
    # a = i, b = j: the frozen order is a^0, a^2, a, a^3, b, a^2 b, ab, a^3 b
    p = np.array([0, 2, 1, 3, 4, 6, 5, 7])        # an involution
    return validate_group(p[_metacyclic(4, 2)[np.ix_(p, p)]], name="quaternion8",
                          labels=("1", "-1", "i", "-i", "j", "-j", "k", "-k"))


def generalized_quaternion16():
    labels = tuple(f"a{i}" if j == 0 else f"a{i}b" for j in (0, 1) for i in range(8))
    return validate_group(_metacyclic(8, 4), name="generalized_quaternion16",
                          labels=labels)


def symmetric_group(n):
    if n > 4:
        raise UnknownFamily(f"symmetric({n}) not in catalog (n <= 4)")
    return _permutation_group(sorted(itertools.permutations(range(n))),
                              f"symmetric({n})")


def alternating_group(n):
    if n != 4:
        raise UnknownFamily(f"alternating({n}) not in catalog (only n = 4)")

    def parity(p):
        inv = sum(1 for a, b in itertools.combinations(range(4), 2) if p[a] > p[b])
        return inv % 2

    elements = sorted(p for p in itertools.permutations(range(4)) if parity(p) == 0)
    return _permutation_group(elements, "alternating(4)")


def direct_product(a: FiniteGroup, b: FiniteGroup):
    n = a.order * b.order
    if n > DEFAULT_MAX_ORDER:
        raise OrderTooLarge(f"product order {n} exceeds bound {DEFAULT_MAX_ORDER}")
    # t[(xa, xb), (ya, yb)] = a[xa, ya] * |B| + b[xb, yb]
    t = (a.table[:, None, :, None] * b.order
         + b.table[None, :, None, :]).reshape(n, n)
    labels = tuple(f"({a.label(xa)},{b.label(xb)})"
                   for xa in range(a.order) for xb in range(b.order))
    return validate_group(t, name=f"{a.name}x{b.name}", labels=labels)


# family -> (parameter count, order from the parameters, builder)
FAMILIES = {
    "cyclic": (1, lambda n: n, cyclic_group),
    "dihedral": (1, lambda n: 2 * n, dihedral_group),
    "quaternion8": (0, lambda: 8, quaternion_group),
    "generalized_quaternion16": (0, lambda: 16, generalized_quaternion16),
    "symmetric": (1, math.factorial, symmetric_group),
    "alternating": (1, lambda n: 12, alternating_group),
}


def catalog(name, *params):
    """Build a named group from the built-in catalog."""
    if name not in FAMILIES:
        raise UnknownFamily(f"unknown group family {name!r}")
    arity, order, builder = FAMILIES[name]
    if len(params) != arity:
        raise UnknownFamily(f"{name} takes {arity} parameter(s)")
    if params and (params[0] < 1):
        raise UnknownFamily(f"{name} parameter must be positive")
    est = order(*params)
    if est > DEFAULT_MAX_ORDER:
        raise OrderTooLarge(f"order {est} exceeds bound {DEFAULT_MAX_ORDER}")
    return builder(*params)


def parse_group_spec(spec):
    """Parse a textual group spec like 'cyclic:3', 'quaternion8',
    or a product 'cyclic:2*cyclic:4' (left-associated)."""
    parts = [p.strip() for p in spec.split("*")]
    groups = []
    for part in parts:
        if ":" in part:
            fam, _, arg = part.partition(":")
            try:
                params = tuple(int(v) for v in arg.split(","))
            except ValueError:
                raise UnknownFamily(f"bad parameters in {part!r}")
        else:
            fam, params = part, ()
        groups.append(catalog(fam, *params))
    g = groups[0]
    for h in groups[1:]:
        g = direct_product(g, h)
    return g


# (order, spec) of each census group: all catalog families plus a few
# abelian products, up to DEFAULT_MAX_ORDER
CENSUS_SPECS = (
    [(n, f"cyclic:{n}") for n in range(1, DEFAULT_MAX_ORDER + 1)]
    + [(2 * n, f"dihedral:{n}") for n in range(3, DEFAULT_MAX_ORDER // 2 + 1)]
    + [(8, "quaternion8"), (16, "generalized_quaternion16"),
       (6, "symmetric:3"), (24, "symmetric:4"), (12, "alternating:4"),
       (4, "cyclic:2*cyclic:2"), (8, "cyclic:2*cyclic:4"),
       (12, "cyclic:2*cyclic:6"), (16, "cyclic:2*cyclic:8"),
       (16, "cyclic:4*cyclic:4"), (8, "cyclic:2*cyclic:2*cyclic:2"),
       (16, "cyclic:2*cyclic:2*cyclic:4")])


def census_catalog(max_order):
    """The deterministic desk-scale group list used by the census and the
    acceptance suite: the CENSUS_SPECS groups with |G| <= max_order,
    sorted by (order, name).

    This is necessarily a subset of all groups of each order; no
    completeness is claimed.
    """
    gs = [parse_group_spec(spec) for n, spec in CENSUS_SPECS if n <= max_order]
    return sorted(gs, key=lambda g: (g.order, g.name))


# -- subgroups ----------------------------------------------------------------

def _closure(tables, seed):
    """Smallest superset of the nonempty index set seed closed under every
    n x n operation table in tables.  Indices must be in range already:
    numpy wraps negative ones silently."""
    mask = np.zeros(tables[0].shape[0], dtype=bool)
    mask[list(seed)] = True
    size = 0
    while np.count_nonzero(mask) > size:
        idx = np.flatnonzero(mask)
        size = idx.size
        for t in tables:
            mask[t[np.ix_(idx, idx)]] = True
    return frozenset(np.flatnonzero(mask).tolist())


def _is_normal(g: FiniteGroup, elems):
    h = np.array(list(elems), dtype=np.int64)
    inside = np.zeros(g.order, dtype=bool)
    inside[h] = True
    t = g.table
    conj = t[t[g.inverse][:, h], np.arange(g.order)[:, None]]   # x^-1 h x
    return bool(inside[conj].all())


def subgroups(g: FiniteGroup):
    """All subgroups, by BFS joins over the lattice seeded with the cyclic
    subgroups.  Complete because every subgroup is the join of the cyclic
    subgroups it contains.  Raises OrderTooLarge past DEFAULT_MAX_ORDER:
    the lattice grows fast, and (Z2)^6 of order 64 already has 2825."""
    if g.order > DEFAULT_MAX_ORDER:
        raise OrderTooLarge(
            f"subgroups of order {g.order} exceed bound {DEFAULT_MAX_ORDER}")
    cyclics = {_closure((g.table,), {x}) for x in range(g.order)}
    found = set(cyclics)
    queue = deque(found)
    while queue:
        s = queue.popleft()
        for c in cyclics:
            if c <= s:
                continue
            j = _closure((g.table,), s | c)
            if j not in found:
                found.add(j)
                queue.append(j)
    subs = sorted(found, key=lambda s: (len(s), sorted(s)))
    return [Subgroup(g, tuple(sorted(s)), _is_normal(g, s)) for s in subs]


def normal_subgroups(g: FiniteGroup):
    return [s for s in subgroups(g) if s.normal]


def center(g: FiniteGroup):
    t = g.table
    return Subgroup(g, tuple(np.flatnonzero((t == t.T).all(axis=1)).tolist()), True)


def subgroup_from_elements(g: FiniteGroup, elements):
    """Wrap an explicit element set, verifying closure."""
    s = frozenset(int(x) for x in elements)
    if not s or any(x < 0 or x >= g.order for x in s):
        raise NotASubgroup("subgroup elements out of range")
    if _closure((g.table,), s) != s:
        raise NotASubgroup("element set is not closed")
    return Subgroup(g, tuple(sorted(s)), _is_normal(g, s))


# -- automorphisms ------------------------------------------------------------

MAX_AUTOMORPHISMS = 10**5


def _isomorphisms(ta, tb, ca, cb, fixed=()):
    """Every bijection f with f(x) = u for each (x, u) in fixed, colors
    ca[x] == cb[f(x)], and f(s[x, y]) = t[f(x), f(y)] for each table pair
    (s, t) of ta and tb, in lexicographic order of the map.

    The search branches on the least unmapped x, images ascending, and x
    joins the branch elements B.  Propagation maps s[y, b] to t[f(y), f(b)]
    for every mapped y and b in B; a clash, a reused image or a color
    mismatch prunes the node.  So a full map commutes with the right action
    S_b of each b in B, and B generates the source from fixed: from e in a
    group, and through the inverse tables in a quandle.  In a group with
    f(e) = e this gives f(y b1 ... bk) = f(y) f(b1) ... f(bk).  In a
    quandle every z is w(b) for a word w in the S_b and their inverses, so
    S_z = w S_b w^-1 and f S_z = S_f(z) f.  Either way f is a homomorphism.
    Positions below the branch point are fixed, so subtrees of ascending
    images hold ascending maps.
    """
    n = len(ca)
    ops = [(s.tolist(), t.tolist()) for s, t in zip(ta, tb)]

    def extend(f, used, branch, queue):
        while queue:
            x, u = queue.pop()
            if f[x] == u:
                continue
            if f[x] != -1 or used[u] or ca[x] != cb[u]:
                return False
            f[x], used[u] = u, True
            for b in branch:
                for s, t in ops:
                    y, v = s[x][b], t[u][f[b]]
                    if f[y] == -1:
                        queue.append((y, v))
                    elif f[y] != v:
                        return False
        return True

    def search(f, used, branch, x):
        while x < n and f[x] != -1:
            x += 1
        if x == n:
            yield f
            return
        # s[y][x] must map to t[f(y)][u]; the rows t[f(y)] do not depend on u
        rows = [(s[y][x], t[f[y]]) for y in range(n) if f[y] != -1
                for s, t in ops]
        for u in range(n):
            if not used[u] and cb[u] == ca[x]:
                f2, used2, branch2 = f.copy(), used.copy(), branch + [x]
                # (x, u) last, so it is popped and mapped first
                queue = [(y, row[u]) for y, row in rows] + [(x, u)]
                if extend(f2, used2, branch2, queue):
                    yield from search(f2, used2, branch2, x + 1)

    f, used = [-1] * n, [False] * n
    if extend(f, used, [], list(fixed)):
        yield from search(f, used, [], 0)


def automorphisms(g: FiniteGroup):
    """The full automorphism group, sorted lexicographically by map.
    Raises OrderTooLarge past MAX_AUTOMORPHISMS maps."""
    orders = g.element_orders()
    out = []
    for m in _isomorphisms((g.table,), (g.table,), orders, orders,
                           [(g.identity, g.identity)]):
        if len(out) == MAX_AUTOMORPHISMS:
            raise OrderTooLarge(
                f"{g.name} has more than {MAX_AUTOMORPHISMS} automorphisms")
        out.append(GroupAutomorphism(g, tuple(m)))
    return out


def identity_automorphism(g: FiniteGroup):
    return GroupAutomorphism(g, tuple(range(g.order)))


# -- file format --------------------------------------------------------------

def _parse_table_file(text, kind):
    """Table format shared by groups and quandles: line 1 `<kind> <n>`,
    then n rows of n integers.  `#` starts a comment.  Returns the rows as
    an int64 array; the caller validates the axioms.  Raises OrderTooLarge
    past MAX_TABLE_ORDER before reading any row."""
    lines = [ln for ln in (raw.split("#")[0].strip() for raw in text.splitlines())
             if ln]
    if not lines:
        raise FileFormatError(f"empty {kind} file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != kind:
        raise FileFormatError(f"first line must be '{kind} <n>'")
    try:
        n = int(head[1])
    except ValueError:
        raise FileFormatError(f"first line must be '{kind} <n>'")
    if n > MAX_TABLE_ORDER:
        raise OrderTooLarge(f"{kind} order {n} exceeds bound {MAX_TABLE_ORDER}")
    if len(lines) != n + 1:
        raise FileFormatError(f"expected {n} table rows, got {len(lines) - 1}")
    table = np.empty((n, n), dtype=np.int64)
    for i, ln in enumerate(lines[1:]):
        try:
            row = np.array(ln.split(), dtype=np.int64)    # parses as int()
        except ValueError:
            raise FileFormatError(f"non-integer entry in row: {ln!r}")
        except OverflowError:
            raise FileFormatError(f"entry outside the int64 range in row: {ln!r}")
        if row.size != n:
            raise FileFormatError(f"row has {row.size} entries, expected {n}")
        table[i] = row
    return table


def _format_table_file(kind, table):
    # row by row: tolist() of a whole order-1024 table costs about 36 MB
    out = [f"{kind} {table.shape[0]}"]
    out += [" ".join(map(str, row.tolist())) for row in table]
    return "\n".join(out) + "\n"


def parse_group_file(text, name="group"):
    """Group table file: `group <n>`, then the n x n Cayley table."""
    return validate_group(_parse_table_file(text, "group"), name=name)


def format_group_file(g: FiniteGroup):
    return _format_table_file("group", g.table)
