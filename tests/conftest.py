import itertools
import random

import numpy as np
import pytest

from quandlekit.groups import census_catalog
from quandlekit.quandles import (
    conj_quandle,
    dihedral_quandle,
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
