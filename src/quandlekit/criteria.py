"""Closed-form non-admissibility predicates and the census pipeline.

The two predicates correspond to the Hopf-link and trefoil tangles:

    hopf:     exists (x, y) with x <| y == x and y <| x != y
    trefoil:  exists (x, y) with (x <| y) <| x == y and (y <| x) <| y != x

Either witness certifies non-admissibility; absence of a hopf (resp.
trefoil) witness is exactly Hopf-link (resp. trefoil) admissibility.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import OrderTooLarge, OutputCapExceeded
from .groups import DEFAULT_MAX_ORDER, automorphisms, census_catalog
from .presentation import Presentation
from .quandles import FiniteQuandle, _galex_tables, _homomorphisms, _list_isomorphisms
from .tangles import DEFAULT_OUTPUT_CAP


@dataclass(frozen=True)
class Witness:
    x: int
    y: int
    kind: str    # "hopf" | "trefoil"

    def holds_in(self, q: FiniteQuandle):
        x, y = self.x, self.y
        if self.kind == "hopf":
            return q.op(x, y) == x and q.op(y, x) != y
        if self.kind == "trefoil":
            return (q.op(q.op(x, y), x) == y
                    and q.op(q.op(y, x), y) != x)
        raise ValueError(f"unknown witness kind {self.kind!r}")


class CensusRecord(NamedTuple):
    group_name: str
    group_order: int
    automorphism_index: int
    quandle_order: int
    isomorphism_class_representative: bool
    hopf_admissible: bool
    trefoil_admissible: bool


def hopf_witness(q: FiniteQuandle):
    """First (x, y) in lexicographic order with x <| y = x, y <| x != y;
    None exactly when q is Hopf-link admissible."""
    hit = _kernels.hopf_witness_scan(q.table)
    return None if hit is None else Witness(*hit, "hopf")


def trefoil_witness(q: FiniteQuandle):
    """First (x, y) in lexicographic order with (x <| y) <| x = y and
    (y <| x) <| y != x; None exactly when q is trefoil admissible."""
    hit = _kernels.trefoil_witness_scan(q.table)
    return None if hit is None else Witness(*hit, "trefoil")


def associated_group_presentation(q: FiniteQuandle):
    """Generators g0..g(n-1); for each ordered pair (x, y) the relation
    g_y^-1 g_x g_y = g_{x <| y}.  No simplification.  Past DEFAULT_OUTPUT_CAP
    generators and relations, OutputCapExceeded before building any."""
    n = q.order
    if n * n + n > DEFAULT_OUTPUT_CAP:
        raise OutputCapExceeded(
            f"more than {DEFAULT_OUTPUT_CAP} generators and relations: order {n}")
    gens = tuple(f"g{i}" for i in range(n))
    rels = tuple((f"{gy}^-1 {gx} {gy}", gens[v])
                 for gx, row in zip(gens, q.table.tolist()) for gy, v in zip(gens, row))
    return Presentation(generators=gens, relations=rels, kind="associated_group")


# -- census over generalized Alexander quandles ------------------------------

def census_galex(max_group_order, dedup=False):
    """One record per (catalog group, automorphism) pair with group order
    <= max_group_order, in (group order, group name, automorphism index)
    order; with dedup, only the first of each quandle isomorphism class.

    The records come from each group's (|Aut(G)|, n) array of maps, taken
    unchecked from `automorphisms`, which proves them.  Every right
    translation R_g(x) = x g is an automorphism of B = GAlex(G, sigma), as
    (x g) <| (y g) = sigma(x y^-1) y g = (x <| y) g.  So (x, y) is a
    witness iff (x y^-1, e) is one: `_galex_trefoil_admissible` reads the
    trefoil flags off the pairs (d, e), all Hopf flags are True, and the
    raw census builds no table.  The R_g act transitively, so B is
    homogeneous.  Dedup hands each group order's Aut(G)-class leaders
    (`_aut_class_leaders`), one (k, n, n) stack from `_galex_tables`, to
    `dedup_by_isomorphism`: no quandle object and no inverse table."""
    if max_group_order > DEFAULT_MAX_ORDER:
        raise OrderTooLarge(f"census limited to group order {DEFAULT_MAX_ORDER}")
    out = []
    for _, grps in groupby(census_catalog(max_group_order), key=lambda g: g.order):
        records, tables = [], []
        for grp in grps:
            s = automorphisms(grp)
            keep = _aut_class_leaders(s) if dedup else range(len(s))
            if dedup:           # raw, s itself: s[keep] would copy all of Aut(G)
                s = s[keep]
                tables.append(_galex_tables(grp, s))
            records += [CensusRecord(grp.name, grp.order, c, grp.order, dedup, True, trefoil)
                        for c, trefoil in zip(keep, _galex_trefoil_admissible(grp, s))]
        if dedup:   # rebinding tables frees the per-group stacks before the search
            records = dedup_by_isomorphism(records, tables := np.concatenate(tables))[0]
        out += records
    return out


def _galex_trefoil_admissible(g, s):
    """The trefoil admissibility flags of GAlex(G, sigma) per row sigma of
    s, from e <| d = sigma(d^-1) d, (d <| e) <| d = sigma(sigma(d) d^-1) d
    and (e <| d) <| e = sigma(e <| d).  Every GAlex quandle is Hopf
    admissible: d <| e = sigma(d) = d forces e <| d = e."""
    m, e, ar, i = g.table, g.identity, np.arange(g.order), np.arange(len(s))[:, None]
    ed = m[s[:, g.inverse], ar]
    trefoil = (m[s[i, m[s, g.inverse]], ar] == e) & (s[i, ed] != ar)
    return (~trefoil.any(axis=1)).tolist()


def _aut_class_leaders(maps):
    """The ascending indices of the Aut(G)-conjugacy class leaders, the
    least index of each class, among the rows of maps, all of Aut(G) in
    `automorphisms` order.  One gather per class builds each phi sigma
    phi^-1, whose key must be among the sorted row keys, or RuntimeError
    names the conjugator.  A non-leader's record may be dropped: phi, in
    Aut(G), maps GAlex(G, sigma) onto GAlex(G, tau), tau = phi sigma
    phi^-1, as phi(sigma(x y^-1) y) = tau(phi(x) phi(y)^-1) phi(y)."""
    keys, inverses = _kernels._row_keys(maps), np.argsort(maps, axis=1)
    flat, off = maps.ravel(), np.arange(len(maps))[:, None] * maps.shape[1]
    seen, leaders = np.zeros(len(maps), dtype=bool), []
    for i, sigma in enumerate(maps):
        if not seen[i]:         # row j of conj is phi_j sigma phi_j^-1
            conj = _kernels._row_keys(np.take(flat, sigma[inverses] + off))
            at = keys.searchsorted(conj)
            bad = (keys.take(at, mode="clip") != conj).nonzero()[0]
            if bad.size:
                raise RuntimeError(f"conjugator {bad[0]} maps aut {i} out of the rows")
            seen[at] = True     # all of sigma's class
            leaders.append(i)
    return leaders


def dedup_by_isomorphism(records, tables):
    """(kept records, kept tables), the first of each isomorphism class,
    for `tables` the (n, n) tables, all of one order (else ValueError), of
    proved homogeneous quandles, whose automorphisms move 0 to every
    element (see `census_galex`).  So if A and B are isomorphic, some
    isomorphism fixes 0, and every element has the invariant profile of 0:
    the cycle type of S_0 and the count of y with 0 <| y = 0, which is
    S_0's fixed-point count, as both are 1/n of the pairs with x <| y = x.
    Bucketed by the sorted S_0-cycle lengths, the search pins f(0) = 0 and
    colors x by its S_0-cycle's length.  An isomorphism f with f(0) = 0
    has f S_0 = S_0 f, so it maps x's S_0-cycle onto f(x)'s: the colors
    prune only non-isomorphisms.  One pass, in chunks of about _SLAB table
    entries, checks every map found as a homomorphism on the tables;
    RuntimeError names one that fails.

    The search from each kept A takes as its branch order A's Inn-orbit
    leaders (the least element of each orbit), then the rest, both
    ascending, so it branches on one element per orbit before a second
    one.  0 is a leader, so it comes first and is the pinned element.

    Two kinds of pair get no search.  A table byte-equal to an earlier
    one (one exact key per table) is in that one's class, so it is dropped
    first and never kept.  And the records name each table's group G, with
    the precondition that tables of one group are GAlex(G, sigma) for
    pairwise non-conjugate sigma in Aut(G), as `census_galex`'s Aut-class
    leaders are: two connected ones (a single Inn-orbit) are then not
    isomorphic (Hulpke, Stanovsky & Vojtechovsky, "Connected quandles and
    transitive groups", JPAA 2016; Nelson 2003 for abelian G).  Proof:
    with R_g(x) = x g, S_y = R_y sigma R_y^-1 and S_y S_e^-1 =
    R_(sigma(y)^-1 y), so Dis(Q(G, sigma)) = R(<sigma(y)^-1 y>), and Q is
    connected iff it is R(G).  By homogeneity an isomorphism
    f: Q(G, sigma) -> Q(G, tau) may fix e.  As f S_x S_y^-1 f^-1 =
    S_fx S_fy^-1, f conjugates the one Dis onto the other, both R(G):
    f R_g f^-1 = R_psi(g), psi in Aut(G).  So f(g) = f(R_g e) = psi(g),
    and f S_e f^-1 = S_e gives psi sigma psi^-1 = tau: sigma and tau are
    conjugate.  A table's columns are listed when it first enters a search.
    """
    t = np.asarray(tables)      # a stack as it is; numpy refuses mixed orders
    if not len(t):
        return [], []
    ar = np.arange(t.shape[-1])
    colors = _kernels.cycle_lengths(t[:, :, 0].T).T    # colors[a, x]: x's S_0-cycle
    profiles = list(map(tuple, np.sort(colors, axis=1).tolist()))
    first = np.sort(np.unique(_kernels._row_keys(t.reshape(len(t), -1)),
                              return_index=True)[1])    # one exact key per table
    lab, live = np.tile(ar, (len(t), 1)), first
    while live.size:            # least of each Inn-orbit; the loop drops settled rows
        new = lab[live[:, None, None], t[live]].min(axis=2)
        lab[live], live = new, live[(new != lab[live]).any(axis=1)]
    order = np.argsort(lab != ar, axis=1, kind="stable").tolist()
    # a connected table's group, else None: equal and not None means no search
    solo = [r.group_name if c else None for r, c in zip(records, (lab == 0).all(axis=1))]
    cols, colors = functools.cache(lambda i: t[i].T.tolist()), colors.tolist()
    keep, buckets, merges = [], defaultdict(list), []     # merges: (f, kept b, a)
    for a in first.tolist():
        bucket = buckets[profiles[a]]
        for b in bucket:
            if solo[a] is not None and solo[a] == solo[b]:
                continue
            f = next(_list_isomorphisms(cols(b), cols(a), colors[b], colors[a],
                                        order[b], [0]), None)
            if f is not None:
                merges.append((f, b, a))
                break
        else:
            bucket.append(a)
            keep.append(a)
    del cols                    # the listed columns go before the certificate's copies
    step = max(1, _kernels._SLAB // t[0].size)     # merges per certificate chunk
    for c in range(0, len(merges), step):
        f, b, a = map(np.array, zip(*merges[c:c + step]))
        bad = np.flatnonzero(~_homomorphisms(f, t[b], t[a]))
        if bad.size:
            raise RuntimeError(f"search map {f[bad[0]].tolist()} is no isomorphism")
    return [records[i] for i in keep], [tables[i] for i in keep]


def format_census(records):
    """Tab-separated census table with a #-prefixed header; bools print as True/False."""
    row = "%s\t%d\t%d\t%d\t%s\t%s\t%s\n"
    return "#" + "\t".join(CensusRecord._fields) + "\n" + "".join(row % r for r in records)
