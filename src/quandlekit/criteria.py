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
from .errors import OrderTooLarge, OutputCapExceeded
from .groups import DEFAULT_MAX_ORDER, _list_isomorphisms, automorphisms, census_catalog
from .presentation import Presentation
from .quandles import (
    FiniteQuandle,
    _galex_tables,
    _homomorphisms,
    _quandles,
    is_homomorphism,
    relabel,
)
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
    off the pairs (d, e), and the raw census builds no table.  The R_g act
    transitively, so B is homogeneous: dedup merges each Aut(G)-conjugacy
    class, checking the conjugator on the tables, and hands the class
    leaders to `dedup_by_isomorphism`."""
    if max_group_order > DEFAULT_MAX_ORDER:
        raise OrderTooLarge(f"census limited to group order {DEFAULT_MAX_ORDER}")
    records, quandles = [], []
    for grp in census_catalog(max_group_order):
        s = automorphisms(grp)
        idx = np.arange(len(s))
        leader, phi = _aut_class_leaders(s) if dedup else (idx, None)
        keep = idx[leader == idx].tolist()
        records += [CensusRecord(grp.name, grp.order, c, grp.order, dedup, hopf, trefoil)
                    for c, hopf, trefoil in zip(keep, *_galex_admissible(grp, s[keep]))]
        if dedup:       # each other automorphism's conjugator, against its leader
            kept = dict(zip(keep, (q for _, t in _galex_tables(grp, s[keep])
                                   for q in _quandles(t))))
            quandles += kept.values()
            rest = idx[leader != idx]
            for a, t in _galex_tables(grp, s[rest]):
                cs = rest[a:a + len(t)]
                ok = _homomorphisms(s[phi[cs]], np.array(
                    [kept[c].table for c in leader[cs].tolist()]), t)
                if not ok.all():
                    c = cs[int(np.argmin(ok))]
                    raise RuntimeError(f"conjugator does not map GAlex({grp.name}, aut "
                                       f"{leader[c]}) onto GAlex({grp.name}, aut {c})")
    # A non-leader is isomorphic to its earlier leader, so the first record
    # of every isomorphism class is a leader.
    return dedup_by_isomorphism(records, quandles)[0] if dedup else records


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
    """(leader, phi) for the rows of maps, all of Aut(G) in `automorphisms`
    order: leader[c] is the least index in the conjugacy class of sigma_c,
    and phi[c] indexes a phi with phi sigma_leader[c] phi^-1 = sigma_c, an
    isomorphism GAlex(G, sigma_leader[c]) -> GAlex(G, sigma_c).  Each
    conjugate's index is found by its row key among the sorted keys."""
    keys, inverses = _kernels._row_keys(maps), np.argsort(maps, axis=1)
    leader, phi = np.full(len(maps), -1), np.zeros(len(maps), dtype=np.int64)
    for i, sigma in enumerate(maps):
        if leader[i] < 0:       # row j of conj is phi_j sigma phi_j^-1
            conj = np.take_along_axis(maps, sigma[inverses], axis=1)
            c, j = np.unique(keys.searchsorted(_kernels._row_keys(conj)),
                             return_index=True)     # all of sigma's class, unseen
            leader[c], phi[c] = i, j
    return leader, phi


def dedup_by_isomorphism(records, quandles):
    """Keep the first record of each quandle isomorphism class, for
    homogeneous quandles, whose automorphisms move 0 to every element (see
    `census_galex`).  So if A and B are isomorphic, some isomorphism fixes
    0, and every element has the invariant profile of 0: the cycle type of
    S_0 and the fixed points of row 0.  Quandles of one order at a time are
    bucketed by that profile, and the search pins f(0) = 0 with no colors
    to match; only that order's kept quandles hold their search columns,
    and a map found counts once `is_homomorphism` passes it.

    Each kept A is searched from relabelled with its Inn-orbit leaders (the
    least element of each orbit) first, then the rest, both ascending: the
    search branches on the least unmapped element, so on one element per
    orbit before a second one.  0 is a leader and keeps index 0, so the
    pin stays valid.
    """
    by_order = defaultdict(list)
    for i, q in enumerate(quandles):
        by_order[q.order].append(i)
    keep = []
    for indices in by_order.values():
        buckets = defaultdict(list)   # profile of 0 -> [(kept quandle, columns)]
        for i in indices:
            q = quandles[i]
            t, ar = q.table, np.arange(q.order)
            cycle_type = np.sort(_kernels.cycle_lengths(t[:, :1]), axis=None).tolist()
            bucket = buckets[(tuple(cycle_type), int(np.count_nonzero(t[0] == ar)))]
            cols, same = t.T.tolist(), [0] * q.order
            for k, ck in bucket:
                f = next(_list_isomorphisms(ck, cols, same, same, 0, [0]), None)
                if f is not None and is_homomorphism(f, k, q):
                    break
            else:
                lab, prev = ar, None    # least of each Inn-orbit
                while not np.array_equal(lab, prev):
                    lab, prev = lab[t].min(axis=1), lab
                k = relabel(q, np.argsort(np.argsort(lab != ar, kind="stable")))
                bucket.append((k, k.table.T.tolist()))
                keep.append(i)
    keep.sort()
    return [records[i] for i in keep], [quandles[i] for i in keep]


def format_census(records):
    """Tab-separated census table with a #-prefixed header; bools print as True/False."""
    row = "%s\t%d\t%d\t%d\t%s\t%s\t%s\n"
    return "#" + "\t".join(CensusRecord._fields) + "\n" + "".join(row % r for r in records)
