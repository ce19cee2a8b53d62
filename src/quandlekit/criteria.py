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

import numpy as np

from . import _kernels
from .errors import OrderTooLarge
from .groups import DEFAULT_MAX_ORDER, automorphisms, census_catalog
from .presentation import Presentation
from .quandles import (
    FiniteQuandle,
    _first_isomorphism,
    galex,
    invariant_profile,
    is_homomorphism,
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


@dataclass(frozen=True)
class CensusRecord:
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
    rels = []
    for x in range(n):
        for y in range(n):
            rels.append((f"g{y}^-1 g{x} g{y}", f"g{q.op(x, y)}"))
    return Presentation(generators=gens, relations=tuple(rels),
                        kind="associated_group")


# -- census over generalized Alexander quandles ------------------------------

def census_galex(max_group_order, dedup=False):
    """One record per (catalog group, automorphism) pair with group order
    <= max_group_order, in (group order, group name, automorphism index)
    order.  With dedup, only the first representative of each quandle
    isomorphism class is kept (flagged as such).  Dedup first merges each
    Aut(G)-conjugacy class of automorphisms, checking the conjugator as the
    isomorphism, then scans witnesses and searches isomorphisms among the
    class leaders only.

    Returns (records, quandles) aligned lists.
    """
    if max_group_order > DEFAULT_MAX_ORDER:
        raise OrderTooLarge(
            f"census limited to group order {DEFAULT_MAX_ORDER}")
    records, quandles = [], []
    for grp in census_catalog(max_group_order):
        auts = automorphisms(grp)
        qs = [galex(grp, sigma) for sigma in auts]
        keep = range(len(auts))
        if dedup:
            keep = []
            for c, (li, phi) in enumerate(_aut_class_leaders(auts)):
                if li == c:
                    keep.append(c)
                elif not is_homomorphism(phi, qs[li], qs[c]):
                    raise RuntimeError(
                        f"conjugator does not map GAlex({grp.name}, aut {li}) "
                        f"onto GAlex({grp.name}, aut {c})")
        for ai in keep:
            q = qs[ai]
            records.append(CensusRecord(
                group_name=grp.name,
                group_order=grp.order,
                automorphism_index=ai,
                quandle_order=q.order,
                isomorphism_class_representative=dedup,
                hopf_admissible=hopf_witness(q) is None,
                trefoil_admissible=trefoil_witness(q) is None,
            ))
            quandles.append(q)
    if dedup:
        # A non-leader is isomorphic to its earlier leader, so the first
        # record of every isomorphism class is a leader.
        return dedup_by_isomorphism(records, quandles)
    return records, quandles


def _aut_class_leaders(auts):
    """For each automorphism sigma_c of G (index c into auts, which holds all
    of Aut(G)), the pair (l, phi): l is the least index in the Aut(G)-
    conjugacy class of sigma_c and phi in Aut(G) has phi sigma_l phi^-1 =
    sigma_c, so phi is an isomorphism GAlex(G, sigma_l) -> GAlex(G, sigma_c)."""
    index = {a.map: i for i, a in enumerate(auts)}
    maps = [np.asarray(a.map, dtype=np.int64) for a in auts]
    inverses = [np.argsort(m) for m in maps]
    out = [None] * len(auts)
    for i, sigma in enumerate(maps):
        if out[i] is not None:
            continue
        for phi, phi_inv in zip(maps, inverses):
            c = index[tuple(phi[sigma[phi_inv]].tolist())]
            if out[c] is None:
                out[c] = (i, phi)
    return out


def dedup_by_isomorphism(records, quandles):
    """Keep the first record of each quandle isomorphism class.  Quandles
    are bucketed by (order, invariant-profile multiset) before the full
    isomorphism search is attempted."""
    buckets = defaultdict(list)   # key -> [(kept quandle, its profile)]
    kept_r, kept_q = [], []
    for rec, q in zip(records, quandles):
        prof = invariant_profile(q)
        bucket = buckets[(q.order, tuple(sorted(prof)))]
        if all(_first_isomorphism(k, q, pk, prof) is None for k, pk in bucket):
            bucket.append((q, prof))
            kept_r.append(rec)
            kept_q.append(q)
    return kept_r, kept_q


CENSUS_FIELDS = ("group_name", "group_order", "automorphism_index",
                 "quandle_order", "isomorphism_class_representative",
                 "hopf_admissible", "trefoil_admissible")


def format_census(records):
    """Tab-separated census table with a #-prefixed header."""
    out = ["#" + "\t".join(CENSUS_FIELDS)]
    for r in records:
        out.append("\t".join(str(getattr(r, f)) for f in CENSUS_FIELDS))
    return "\n".join(out) + "\n"
