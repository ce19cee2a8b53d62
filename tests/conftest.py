import itertools
import random

import numpy as np
import pytest

from quandlekit.groups import automorphisms, census_catalog, normal_subgroups
from quandlekit.quandles import (
    conj_quandle,
    dihedral_quandle,
    galex,
    hopf_extension,
    relabel,
    restrict,
    subquandle_closure,
    trivial_quandle,
)
from quandlekit.tangles import Crossing, make_diagram


@pytest.fixture(scope="session")
def catalog16():
    return census_catalog(16)


@pytest.fixture(scope="session")
def random_quandles():
    """100 randomized valid quandles of order <= 6: catalog-built tables
    relabeled by random permutations (relabeling preserves validity)."""
    rng = random.Random(20240817)
    pool = []
    for n in range(1, 7):
        pool.append(trivial_quandle(n))
        pool.append(dihedral_quandle(n))
    for g in census_catalog(6):
        q = conj_quandle(g)
        pool.append(q)
        for x in range(q.order):
            sub = subquandle_closure(q, {x})
            if 1 < len(sub) < q.order:
                pool.append(restrict(q, sub))
    pool = [q for q in pool if q.order <= 6]
    out = []
    while len(out) < 100:
        q = pool[rng.randrange(len(pool))]
        p = list(range(q.order))
        rng.shuffle(p)
        out.append(relabel(q, p))
    return out


@pytest.fixture(scope="session")
def seeded_tables():
    """Tables of order <= 6: group and quandle tables under random
    relabelings (valid), each also with one random entry overwritten
    (mostly invalid, first hit anywhere), plus uniformly random tables."""
    rng = np.random.default_rng(20261017)
    groups = census_catalog(6)
    valid = [g.table for g in groups] + [conj_quandle(g).table for g in groups]
    for n in range(1, 7):
        valid += [trivial_quandle(n).table, dihedral_quandle(n).table]
    tables = []
    for t in valid:
        n = t.shape[0]
        for _ in range(5):
            p = rng.permutation(n)
            r = np.empty_like(t)
            r[np.ix_(p, p)] = p[t]
            m = r.copy()
            m[rng.integers(n), rng.integers(n)] = rng.integers(n)
            tables += [r, m]
    for n in range(1, 7):
        tables += [rng.integers(n, size=(n, n)) for _ in range(20)]
    return tables


@pytest.fixture(scope="session")
def repeated_column_tables():
    """Tables of order <= 8 built with fewer distinct columns than rows:
    quandles (trivial, Conj of a group with a nontrivial center,
    hopf_extension over N != 1) and associative tables (a group times a
    left-zero band, (g, a)(h, b) = (gh, a)) under random relabelings
    (valid), each also with one random entry overwritten, plus random
    tables whose n columns are copies of k < n random columns."""
    rng = np.random.default_rng(20261018)
    cat = census_catalog(8)
    valid = [trivial_quandle(n).table for n in range(2, 9)]
    valid += [conj_quandle(g).table for g in cat]
    valid += [hopf_extension(g, s).table for g in cat for s in normal_subgroups(g)
              if 1 < len(s.elements) and g.order * len(s.elements) <= 8]
    for g in census_catalog(4):
        for k in range(2, 8 // g.order + 1):
            band = g.table[:, None, :, None] * k + np.arange(k)[None, :, None, None]
            valid.append(np.broadcast_to(band, (g.order, k) * 2)
                         .reshape(g.order * k, g.order * k))
    tables = []
    for t in valid:
        n = t.shape[0]
        if len({col.tobytes() for col in np.array(t.T)}) == n:
            continue
        for _ in range(4):
            p = rng.permutation(n)
            r = np.empty_like(t)
            r[np.ix_(p, p)] = p[t]
            m = r.copy()
            m[rng.integers(n), rng.integers(n)] = rng.integers(n)
            tables += [r, m]
    for n in range(2, 9):
        for _ in range(15):
            k = rng.integers(1, n)
            tables.append(rng.integers(n, size=(n, k))[:, rng.integers(k, size=n)])
    return tables


def census_quandles(records):
    """The quandle of each census record, built apart from the census:
    `galex` of its catalog group and its automorphism."""
    groups = {g.name: (g, automorphisms(g))
              for g in census_catalog(max(r.group_order for r in records))}
    out = []
    for r in records:
        g, auts = groups[r.group_name]
        out.append(galex(g, auts[r.automorphism_index]))
    return out


def brute_force_colorings(d, q):
    """Independent oracle: try every assignment of quandle elements to
    arcs and keep those satisfying all crossing equations."""
    out = []
    for assign in itertools.product(range(q.order), repeat=d.arc_count):
        ok = True
        for c in d.crossings:
            want = (q.op(assign[c.under_in], assign[c.over]) if c.sign > 0
                    else q.inv_op(assign[c.under_in], assign[c.over]))
            if assign[c.under_out] != want:
                ok = False
                break
        if ok:
            out.append(assign)
    return out


def random_diagram(rng, max_arcs):
    """A seeded random constraint system of (1,1)-tangle shape: an
    under-strand chain from start to end, under-strand loops (a loop of one
    arc enters and leaves the same crossing), arcs in no crossing, over
    arcs drawn from all arcs and both signs.  Arc ids are shuffled, so an
    under-out arc often has a lower id than its under-in, and the crossings
    are listed in shuffled order."""
    n = rng.randint(2, max_arcs)
    ids = list(range(n))
    rng.shuffle(ids)
    chain = rng.randint(1, n - 1)
    strands, rest = [ids[:chain + 1]], ids[chain + 1:]
    while rest and rng.random() < 0.6:
        size = rng.randint(1, len(rest))
        strands.append(rest[:size] + [rest[0]])
        rest = rest[size:]
    crossings = [Crossing(rng.choice((1, -1)), rng.randrange(n), a, b)
                 for s in strands for a, b in zip(s, s[1:])]
    rng.shuffle(crossings)
    return make_diagram(n, strands[0][0], strands[0][-1], crossings)
