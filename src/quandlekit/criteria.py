"""Closed-form non-admissibility predicates and the census pipeline.

The two predicates correspond to the Hopf-link and trefoil tangles:

    hopf:     exists (x, y) with x <| y == x and y <| x != y
    trefoil:  exists (x, y) with (x <| y) <| x == y and (y <| x) <| y != x

Either witness certifies non-admissibility; absence of a hopf (resp.
trefoil) witness is exactly Hopf-link (resp. trefoil) admissibility.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import OrderTooLarge
from .groups import DEFAULT_MAX_ORDER, automorphisms, census_catalog
from .presentation import Presentation
from .quandles import (
    FiniteQuandle,
    _any_isomorphism,
    _galex_tables,
    _homomorphisms,
    _quandles,
    invariant_profile,
    relabel,
)


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
    g_y^-1 g_x g_y = g_{x <| y}.  No simplification."""
    n = q.order
    gens = tuple(f"g{i}" for i in range(n))
    rels = tuple((f"g{y}^-1 g{x} g{y}", f"g{q.op(x, y)}")
                 for x in range(n) for y in range(n))
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
    witness iff (x y^-1, e) is one: `_galex_admissible` reads the flags
    off the pairs (d, e), and the raw census builds no table.  Dedup merges each Aut(G)-conjugacy
    class, checking the conjugator on the tables, then searches the class
    leaders with f(0) pinned to e: if f: A -> B is an isomorphism, so is
    R_h f with h = f(0)^-1."""
    if max_group_order > DEFAULT_MAX_ORDER:
        raise OrderTooLarge(f"census limited to group order {DEFAULT_MAX_ORDER}")
    records, quandles, pins = [], [], []
    for grp in census_catalog(max_group_order):
        s = automorphisms(grp)
        leaders = _aut_class_leaders(s) if dedup else [(c, None) for c in range(len(s))]
        keep = [c for c, (li, _) in enumerate(leaders) if li == c]
        records += [CensusRecord(grp.name, grp.order, c, grp.order, dedup, hopf, trefoil)
                    for c, hopf, trefoil in zip(keep, *_galex_admissible(grp, s[keep]))]
        if dedup:       # each other automorphism's conjugator, against its leader
            kept = dict(zip(keep, (q for _, t in _galex_tables(grp, s[keep])
                                   for q in _quandles(t))))
            quandles += kept.values()
            pins += [[grp.identity]] * len(keep)
            rest = [c for c, (li, _) in enumerate(leaders) if li != c]
            for a, t in _galex_tables(grp, s[rest]):
                cs = rest[a:a + len(t)]
                ok = _homomorphisms(np.array([leaders[c][1] for c in cs]),
                                    np.array([kept[leaders[c][0]].table for c in cs]), t)
                if not ok.all():
                    c = cs[int(np.argmin(ok))]
                    raise RuntimeError(f"conjugator does not map GAlex({grp.name}, aut "
                                       f"{leaders[c][0]}) onto GAlex({grp.name}, aut {c})")
    # A non-leader is isomorphic to its earlier leader, so the first record
    # of every isomorphism class is a leader.
    return dedup_by_isomorphism(records, quandles, pins)[0] if dedup else records


def _galex_admissible(g, s):
    """The (hopf, trefoil) admissibility flags of GAlex(G, sigma) per row
    sigma of s, from d <| e = sigma(d), e <| d = sigma(d^-1) d,
    (d <| e) <| d = sigma(sigma(d) d^-1) d and (e <| d) <| e = sigma(e <| d).
    sigma(d) = d forces e <| d = e, so no GAlex quandle is Hopf-witnessed."""
    m, e, ar, i = g.table, g.identity, np.arange(g.order), np.arange(len(s))[:, None]
    ed = m[s[:, g.inverse], ar]
    hopf = (s == ar) & (ed != e)
    trefoil = (m[s[i, m[s, g.inverse]], ar] == e) & (s[i, ed] != ar)
    return (~hopf.any(axis=1)).tolist(), (~trefoil.any(axis=1)).tolist()


def _aut_class_leaders(maps):
    """For each automorphism sigma_c of G (row c of maps, which holds all
    of Aut(G)), the pair (l, phi): l is the least index in the Aut(G)-
    conjugacy class of sigma_c and phi in Aut(G) has phi sigma_l phi^-1 =
    sigma_c, so phi is an isomorphism GAlex(G, sigma_l) -> GAlex(G, sigma_c)."""
    index = {row: i for i, row in enumerate(map(tuple, maps.tolist()))}
    inverses = np.argsort(maps, axis=1)
    out = [None] * len(maps)
    for i, sigma in enumerate(maps):
        if out[i] is None:      # row j of conj is phi_j sigma phi_j^-1
            conj = np.take_along_axis(maps, sigma[inverses], axis=1)
            for phi, row in zip(maps, conj.tolist()):
                c = index[tuple(row)]
                if out[c] is None:
                    out[c] = (i, phi)
    return out


def dedup_by_isomorphism(records, quandles, pins):
    """Keep the first record of each quandle isomorphism class.  Quandles
    of one order at a time are bucketed by invariant-profile multiset
    before the isomorphism search, which only asks whether a map exists;
    only that order's kept quandles hold their search columns.

    pins, aligned with quandles, gives for each B the images of 0 to try,
    a list such that some isomorphism A -> B sends 0 into it whenever one
    exists.  A list of every element of B always is one; `census_galex`
    passes the group identity alone.

    Each kept A is searched from relabelled with its Inn-orbit leaders (the
    least element of each orbit) first, then the rest, both ascending: the
    search branches on the least unmapped element, so on one element per
    orbit before a second one.  0 is a leader and keeps index 0, so the
    pins stay valid.
    """
    by_order = defaultdict(list)
    for i, q in enumerate(quandles):
        by_order[q.order].append(i)
    keep = []
    for indices in by_order.values():
        buckets = defaultdict(list)   # profiles -> [(kept quandle, profile, columns)]
        for i in indices:
            q = quandles[i]
            prof = invariant_profile(q)
            bucket = buckets[tuple(sorted(prof))]
            cols = q.table.T.tolist()
            if all(_any_isomorphism(k, q, pk, prof, pins[i], ck, cols) is None
                   for k, pk, ck in bucket):
                lab, prev = np.arange(q.order), None    # least of each Inn-orbit
                while not np.array_equal(lab, prev):
                    lab, prev = lab[q.table].min(axis=1), lab
                order = np.argsort(lab != np.arange(q.order), kind="stable")
                k = relabel(q, np.argsort(order))
                bucket.append((k, [prof[x] for x in order], k.table.T.tolist()))
                keep.append(i)
    keep.sort()
    return [records[i] for i in keep], [quandles[i] for i in keep]


def format_census(records):
    """Tab-separated census table with a #-prefixed header; bools print as True/False."""
    row = "%s\t%d\t%d\t%d\t%s\t%s\t%s\n"
    return "#" + "\t".join(CensusRecord._fields) + "\n" + "".join(row % r for r in records)
