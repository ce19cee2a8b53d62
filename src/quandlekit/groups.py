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
import warnings
from collections import deque
from dataclasses import dataclass
from operator import index

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
        return _powers(self)[1].tolist()

    def label(self, i):
        return self.labels[i] if self.labels else str(i)

    def same_table(self, other):
        return self.order == other.order and np.array_equal(self.table, other.table)


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
    matrix of an integer dtype with entries in 0..n-1: a float table is
    refused, not truncated.  The validators freeze what this returns, so
    it never aliases the caller's array."""
    t = np.asarray(table)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
        raise FileFormatError("table must be a nonempty square matrix")
    if t.dtype.kind not in "iu":
        raise FileFormatError("table entries must be integers")
    t = np.array(t, dtype=np.int64)
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


def validate_group(table, name="group"):
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
    if not ((t == ar).all(axis=1) & (t == ar[:, None]).all(axis=0)).any():
        raise NoIdentity()

    hit = _kernels.assoc_violation(t)
    if hit:
        raise NotAssociative(*hit)
    return _group(t, name, ())


def _group(t, name, labels):
    """The FiniteGroup of a fresh int64 table, frozen, with its identity
    (the row that is the identity permutation) and inverses.  No axiom is
    checked: callers pass only tables that a group law built, or that
    `validate_group` checked."""
    identity = int(np.argmax((t == np.arange(t.shape[0])).all(axis=1)))
    inverse = np.argmax(t == identity, axis=1)
    t.setflags(write=False)
    inverse.setflags(write=False)
    return FiniteGroup(order=t.shape[0], table=t, identity=identity,
                       inverse=inverse, name=name, labels=tuple(labels))


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
    return _group(t, name, tuple(map(str, perms)))


def _positive(family, n):
    # the builders refuse what catalog refuses, also when called directly
    if n < 1:
        raise UnknownFamily(f"{family} parameter must be positive")


def cyclic_group(n):
    _positive("cyclic", n)
    t = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return _group(t, f"cyclic({n})", tuple(str(i) for i in range(n)))


def dihedral_group(n):
    _positive("dihedral", n)
    labels = tuple(f"r{i}" if b == 0 else f"r{i}s" for b in (0, 1) for i in range(n))
    return _group(_metacyclic(n, 0), f"dihedral({n})", labels)


def quaternion_group():
    # a = i, b = j: the frozen order is a^0, a^2, a, a^3, b, a^2 b, ab, a^3 b
    p = np.array([0, 2, 1, 3, 4, 6, 5, 7])        # an involution
    return _group(p[_metacyclic(4, 2)[np.ix_(p, p)]], "quaternion8",
                  ("1", "-1", "i", "-i", "j", "-j", "k", "-k"))


def generalized_quaternion16():
    labels = tuple(f"a{i}" if j == 0 else f"a{i}b" for j in (0, 1) for i in range(8))
    return _group(_metacyclic(8, 4), "generalized_quaternion16", labels)


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
    return _group(t, f"{a.name}x{b.name}", labels)


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
    if params:
        _positive(name, params[0])
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

def _closure(table, seed):
    """Smallest superset of the nonempty index set seed closed under the
    n x n operation table.  Indices must be in range already: numpy wraps
    negative ones silently."""
    mask = np.zeros(table.shape[0], dtype=bool)
    mask[list(seed)] = True
    size = 0
    while np.count_nonzero(mask) > size:
        idx = np.flatnonzero(mask)
        size = idx.size
        mask[table[np.ix_(idx, idx)]] = True
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
    cyclics = {_closure(g.table, {x}) for x in range(g.order)}
    found = set(cyclics)
    queue = deque(found)
    while queue:
        s = queue.popleft()
        for c in cyclics:
            if c <= s:
                continue
            j = _closure(g.table, s | c)
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
    s = frozenset(map(index, elements))
    if not s or any(x < 0 or x >= g.order for x in s):
        raise NotASubgroup("subgroup elements out of range")
    if _closure(g.table, s) != s:
        raise NotASubgroup("element set is not closed")
    return Subgroup(g, tuple(sorted(s)), _is_normal(g, s))


# -- automorphisms ------------------------------------------------------------

MAX_AUTOMORPHISMS = 10**5


def _powers(g: FiniteGroup):
    """(pw, orders): pw[p, x] = x^p for p in 0..n, and orders[x] the least
    p >= 1 with x^p = e, which is at most n.  Doubling fills the table in
    about log2 n gathers, as x^(s+q) = x^s x^q."""
    m, n = g.table, g.order
    pw = np.empty((n + 1, n), dtype=np.int64)
    pw[0], pw[1], s = g.identity, np.arange(n), 1
    while s < n:
        t = min(s, n - s)
        pw[s + 1:s + t + 1] = m[pw[s], pw[1:t + 1]]
        s += t
    return pw, (pw[1:] == g.identity).argmax(axis=0) + 1


def _generation(g: FiniteGroup, pw, orders):
    """(seq, stages) for the greedy generating sequence of G: h_j is the
    least element outside H_(j-1) = <h_1, ..., h_(j-1)>.  seq lists e, then
    per j the elements of H_j - H_(j-1); stages[j - 1] = (|H_(j-1)|, |H_j|,
    ps, layers).  The stage opens with h_j^p for the ascending p in ps, the
    powers of h_j outside H_(j-1), so h_j = seq[|H_(j-1)|] (p = 1).  Each
    layer (i, y, w) appends seq[i:] = seq[y] seq[w], ascending, the new
    products with a factor in the block before it (the powers, then the
    last layer): products of two older elements lie in H_(j-1) or <h_j>, or
    the layer before holds them.  So the reached set R grows to R R."""
    m, n = g.table, g.order
    seq, stages, reached = np.array([g.identity]), [], np.zeros(n, dtype=bool)
    reached[g.identity] = True
    while seq.size < n:                 # seq lists the reached elements
        k, h = seq.size, int(np.argmin(reached))
        ps = 1 + np.flatnonzero(~reached[pw[1:orders[h], h]])
        seq, layers, a = np.append(seq, pw[ps, h]), [], k
        reached[seq[k:]] = True
        while k > 1 and seq.size < n:   # <h_1> is closed; at H_j = G, so is G
            fresh = np.arange(seq.size) >= a        # the block before the layer
            y, w = np.nonzero(fresh[:, None] | fresh)
            src = np.full(n, -1)            # a pair (y[i], w[i]) per product
            src[m[seq[y], seq[w]]] = np.arange(y.size)
            src[reached] = -1
            new = np.flatnonzero(src >= 0)
            if not new.size:
                break
            layers.append((seq.size, y[src[new]], w[src[new]]))
            reached[new], a = True, seq.size
            seq = np.append(seq, new)
        stages.append((k, seq.size, ps, layers))
    return seq, stages


def _partial_automorphisms(g: FiniteGroup):
    """Yield (seq[:|H_j|], f) for j = 0, 1, ...: the rows of f are the
    injective homomorphisms H_j -> G, row r mapping seq[i] to f[r, i], in
    lexicographic order.  See `automorphisms`."""
    m, n, e = g.table, g.order, g.identity
    pw, orders = _powers(g)
    seq, stages = _generation(g, pw, orders)
    pos, f, hs = np.argsort(seq), np.full((1, 1), e), []    # f[i]: map i on seq
    yield seq[:1], f
    for k, end, ps, layers in stages:
        hs.append(k)                                    # the h_i in seq
        cand = np.flatnonzero(orders == orders[seq[k]])
        if k == 1:      # stage 1, <h_1>, keeps every row: see `automorphisms`
            f = pw[np.arange(end), cand[:, None]]   # pw[0] = e; ps is 1..end-1
            _cap(g, end, len(f))
            yield seq[:end], f
            continue
        # the edges (x, h_i), i <= j, for x in H_j - H_(j-1)
        xs, gs = np.repeat(np.arange(k, end), len(hs)), np.tile(hs, end - k)
        c = pos[m[seq[xs], seq[gs]]]
        step, rows = max(1, _kernels._SLAB // xs.size), len(f) * cand.size
        kept, count = [], 0
        for r0 in range(0, rows, step):     # row r: f[r // |cand|], cand[r % |cand|]
            r, i = np.divmod(np.arange(r0, min(r0 + step, rows)), cand.size)
            x = np.empty((r.size, end), dtype=np.int64)
            x[:, :k], x[:, k:k + ps.size] = f[r], pw[ps, cand[i, None]]
            for col, y, w in layers:
                x[:, col:col + y.size] = np.take(m, x[:, y] * n + x[:, w])
            hom = (np.take(m, x[:, xs] * n + x[:, gs]) == x[:, c]).all(axis=1)
            kept.append(x[hom & (x[:, k:] != e).all(axis=1)])
            count += len(kept[-1])
            _cap(g, end, count)
        f = np.concatenate(kept)
        yield seq[:end], f


def _cap(g: FiniteGroup, end, count):
    """Raise OrderTooLarge if a stage ending at |H_j| = end keeps count >
    MAX_AUTOMORPHISMS rows: automorphisms at H_j = G, else partial maps."""
    if count > MAX_AUTOMORPHISMS:
        what = "automorphisms" if end == g.order else (
            f"partial automorphisms, on its order-{end} subgroup")
        raise OrderTooLarge(f"{g.name} has more than {MAX_AUTOMORPHISMS} {what}")


def automorphisms(g: FiniteGroup):
    """Aut(G) as a read-only (|Aut(G)|, n) int64 array: row r is the map
    x -> row[x] of one automorphism, and the rows are sorted
    lexicographically.

    They come out sorted with no sort: two automorphisms that first differ
    on h_j agree on H_(j-1), which holds every x < h_j, so as rows they
    first differ at index h_j; and each stage expands the rows in
    (earlier row, ascending candidate) order.

    Stage j extends each injective homomorphism H_(j-1) -> G (see
    `_generation`) by every image c of h = h_j of the same element order.
    One gather from the power table (`_powers`) sets f(h^p) = c^p on the
    powers of h outside H_(j-1), as every homomorphism must; product
    layers fill the rest of H_j by f(y w) = f(y) f(w).

    Stage 1, on the cyclic <h_1>, needs no product layer and no edge
    check: every row is kept.  Let h = h_1 have order d.  For each c of
    order d, f(h^p) = c^p is a homomorphism, as c^d = e gives
    f(h^p h^q) = c^(p+q) = c^p c^q, and injective, as c^p != e for
    0 < p < d; and every injective homomorphism <h> -> G is one of these.

    At a later stage a row is kept if f(x) != e and f(x h_i) = f(x) f(h_i)
    for every new x, in H_j - H_(j-1), and i <= j.  The old x need no
    edge.  For i < j the parent row, whose values the row copies, passed
    them.  For h, let d be the least p > 0 with h^d in H_(j-1): x h^p is
    new for 0 < p < d, so the new edges give f(x h^d) = f(x h) f(h)^(d-1),
    and at x = e f(h^d) = f(h)^d; on H_(j-1) f is a homomorphism, so
    f(x h^d) = f(x) f(h)^d and f(x h) = f(x) f(h).  This is also where
    c^d meets the parent's f(h^d).  The g with f(x g) = f(x) f(g) for all
    x in H_j are closed under products (f(e) = e), so f is a homomorphism
    on H_j with trivial kernel, at H_j = G an automorphism.  Rows are
    expanded in chunks of about _kernels._SLAB edge entries.

    Raises OrderTooLarge once a stage, stage 1 included, keeps more than
    MAX_AUTOMORPHISMS rows: at the last stage automorphisms, at an
    earlier one partial maps, which may outnumber Aut(G)."""
    seq, f = deque(_partial_automorphisms(g), maxlen=1).pop()
    maps = f.take(np.argsort(seq), axis=1)  # C order: f[:, pos] is in Fortran order
    maps.setflags(write=False)
    return maps


# -- file format --------------------------------------------------------------

def _parse_table_file(text, kind):
    """Table format shared by groups and quandles: line 1 `<kind> <n>`,
    then n rows of n integers.  `#` starts a comment.  Returns the rows as
    an int64 array; the caller validates the axioms.  Raises OrderTooLarge
    past MAX_TABLE_ORDER before reading any row.

    Entries are read by numpy's C text reader.  Rows it rejects, warns on
    or reads to the wrong shape are read again one by one with int(): only
    int() takes underscores and non-ASCII digits, and only the row loop
    names the first bad row and tells overflow from a non-integer."""
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
    if n < 1:
        raise FileFormatError("table must be a nonempty square matrix")
    if n > MAX_TABLE_ORDER:
        raise OrderTooLarge(f"{kind} order {n} exceeds bound {MAX_TABLE_ORDER}")
    if len(lines) != n + 1:
        raise FileFormatError(f"expected {n} table rows, got {len(lines) - 1}")
    try:
        # the list of lines, not one joined string, which would copy the text
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines[1:], dtype=np.int64, comments=None, ndmin=2)
        if table.shape == (n, n):
            return table
    except (ValueError, Warning):
        pass
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
