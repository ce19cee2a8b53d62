"""Acceptance suite: one test per contract-level criterion.

Each test prints a PASS line on success so `pytest -s tests/test_acceptance.py`
doubles as a checklist.  Regression values (census class counts) were frozen
only after the predicate verdicts were cross-checked against the independent
tangle-solver code path.
"""

import itertools

import pytest

from conftest import brute_force_colorings, census_quandles
from quandlekit.criteria import (
    Witness,
    census_galex,
    hopf_witness,
    trefoil_witness,
)
from quandlekit.groups import (
    automorphisms,
    catalog,
    census_catalog,
    center,
    normal_subgroups,
)
from quandlekit.quandles import (
    conj_quandle,
    dihedral_quandle,
    galex,
    hopf_extension,
    restrict,
    subquandle_closure,
    trivial_quandle,
    validate_quandle,
)
from quandlekit.tangles import builtin_tangle, check_coloring, enumerate_colorings

HOPF = builtin_tangle("hopf")
TREFOIL = builtin_tangle("trefoil")


def solver_admissible(d, q):
    return enumerate_colorings(d, q, "admissibility").admissible


@pytest.fixture(scope="module")
def galex_pool_16(catalog16):
    return [(g, aut, galex(g, aut))
            for g in catalog16 for aut in automorphisms(g)]


@pytest.fixture(scope="module")
def extension_pairs_64():
    pairs = []
    for g in census_catalog(32):
        for sub in normal_subgroups(g):
            if g.order * len(sub.elements) <= 64:
                pairs.append((g, sub))
    return pairs


def test_axiom_suite(catalog16, galex_pool_16, extension_pairs_64):
    """Every constructor output passes full quandle validation."""
    checked = 0
    for g in catalog16:
        validate_quandle(conj_quandle(g).table)
        checked += 1
    for _, _, q in galex_pool_16:
        validate_quandle(q.table)
        checked += 1
    for g, sub in extension_pairs_64:
        validate_quandle(hopf_extension(g, sub).table)
        checked += 1
    print(f"\nPASS axiom suite: {checked} constructed quandles validate")


def test_galex_q8_trefoil_reproduction():
    """The order-8 quaternion example is not trefoil-admissible, with the
    exact witness x=1 (index 0), y=i (index 2), both via the closed-form
    predicate and via the tangle solver."""
    g = catalog("quaternion8")
    sigma = next(a for a in automorphisms(g) if a.tolist() == [0, 1, 4, 5, 6, 7, 2, 3])
    q = galex(g, sigma)
    w = trefoil_witness(q)
    assert (w.x, w.y) == (0, 2)
    assert q.op(q.op(0, 2), 0) == 2          # (x <| y) <| x = y
    assert q.op(q.op(2, 0), 2) == 1          # (y <| x) <| y = -1 != x
    verdict = enumerate_colorings(TREFOIL, q, "admissibility")
    assert not verdict.admissible
    a = verdict.witness.assignment
    assert (a[0], a[1]) == (0, 2)
    assert check_coloring(TREFOIL, q, a)
    assert a[TREFOIL.start_arc] != a[TREFOIL.end_arc]
    print("\nPASS GAlex(Q8, sigma) trefoil witness (x=1, y=i) reproduced "
          "by predicate and solver")


def test_galex_hopf_admissible_everywhere(galex_pool_16):
    """No generalized Alexander quandle over the catalog (|G| <= 16) has
    a Hopf-link witness."""
    for g, aut, q in galex_pool_16:
        assert hopf_witness(q) is None, (g.name, aut.tolist())
    print(f"\nPASS hopf predicate admissible on all {len(galex_pool_16)} "
          "GAlex quandles (|G| <= 16)")


def test_extension_noncentral_witness(extension_pairs_64):
    """Extensions by a normal subgroup not inside the center always carry
    a Hopf witness; the construction's own witness pair re-validates for
    the order-36 symmetric-group case."""
    checked = 0
    for g, sub in extension_pairs_64:
        z = set(center(g).elements)
        if set(sub.elements) <= z:
            continue
        q = hopf_extension(g, sub)
        assert hopf_witness(q) is not None, (g.name, sub.elements)
        checked += 1
    s3 = catalog("symmetric", 3)
    full = next(s for s in normal_subgroups(s3) if len(s.elements) == 6)
    q = hopf_extension(s3, full)
    perms = sorted(itertools.permutations(range(3)))
    A, B = perms.index((1, 0, 2)), perms.index((2, 1, 0))
    assert Witness(0, A * 6 + B, "hopf").holds_in(q)
    print(f"\nPASS extension hopf witness on all {checked} non-central pairs; "
          "S3 proof pair re-validates")


def test_oracle_equivalence(catalog16, random_quandles):
    """Predicate verdict equals solver verdict on the matching builtin
    tangle, over catalog-generated quandles (n <= 8) and 100 randomized
    valid quandles (n <= 6)."""
    pool = [trivial_quandle(n) for n in range(1, 9)]
    pool += [dihedral_quandle(n) for n in range(1, 9)]
    for g in catalog16:
        if g.order <= 8:
            pool.append(conj_quandle(g))
            pool.extend(galex(g, aut) for aut in automorphisms(g))
        for sub in normal_subgroups(g):
            if g.order * len(sub.elements) <= 8:
                pool.append(hopf_extension(g, sub))
    pool += list(random_quandles)
    assert len(random_quandles) == 100
    for q in pool:
        assert (hopf_witness(q) is None) == solver_admissible(HOPF, q)
        assert (trefoil_witness(q) is None) == solver_admissible(TREFOIL, q)
    print(f"\nPASS oracle equivalence on {len(pool)} quandles, "
          "zero disagreements")


def test_conjugation_quandles_admissible(catalog16):
    """Conjugation quandles and their closed subquandles are admissible
    by both predicates and by the solver on both tangles."""
    seen = set()
    subquandles = []
    for g in catalog16:
        q = conj_quandle(g)
        subquandles.append(q)
        seeds = [{x} for x in range(q.order)]
        if g.order <= 12:
            seeds += [{x, y} for x in range(q.order)
                      for y in range(x + 1, q.order)]
        for seed in seeds:
            sub = frozenset(subquandle_closure(q, seed))
            key = (g.name, sub)
            if key in seen or len(sub) == q.order:
                continue
            seen.add(key)
            subquandles.append(restrict(q, sub))
    for q in subquandles:
        assert hopf_witness(q) is None
        assert trefoil_witness(q) is None
        assert solver_admissible(HOPF, q)
        assert solver_admissible(TREFOIL, q)
    print(f"\nPASS all {len(subquandles)} conjugation (sub)quandles "
          "admissible by predicates and solver")


def test_coloring_counts():
    """Exact coloring counts, checked against an exhaustive assignment
    scan as the independent oracle."""
    for n in range(1, 6):
        tq = trivial_quandle(n)
        assert enumerate_colorings(HOPF, tq, "count") == n * n
        assert enumerate_colorings(TREFOIL, tq, "count") == n
        assert len(brute_force_colorings(HOPF, tq)) == n * n
        assert len(brute_force_colorings(TREFOIL, tq)) == n
    r3 = dihedral_quandle(3)
    assert enumerate_colorings(HOPF, r3, "count") == 3
    assert len(brute_force_colorings(HOPF, r3)) == 3
    trefoil_cols = enumerate_colorings(TREFOIL, r3, "list")
    assert len(trefoil_cols) == 9
    assert len(brute_force_colorings(TREFOIL, r3)) == 9
    for c in trefoil_cols:
        assert c.assignment[TREFOIL.start_arc] == c.assignment[TREFOIL.end_arc]
    print("\nPASS coloring counts (hopf: n^2 / 3; trefoil: n / 9) "
          "match brute force")


# Frozen after cross-checking every representative's admissibility flags
# against the tangle solver (see test body); quandle order -> class count.
CENSUS_CLASSES_MAX16 = {
    1: 1, 2: 1, 3: 2, 4: 3, 5: 4, 6: 3, 7: 6, 8: 9,
    9: 5, 10: 5, 11: 10, 12: 11, 13: 12, 14: 7, 15: 8, 16: 19,
}
CENSUS_RAW_RECORDS_MAX16 = 784


def test_census_regression():
    """Desk-scale census: deterministic, contains the order-8 quaternion
    non-trefoil-admissible class, every flag cross-checks against the
    solver, and per-order class counts match frozen values."""
    raw_records = census_galex(16, dedup=False)
    assert len(raw_records) == CENSUS_RAW_RECORDS_MAX16
    records = census_galex(16, dedup=True)
    quandles = census_quandles(records)
    keys = [(r.group_order, r.group_name, r.automorphism_index) for r in records]
    assert keys == sorted(keys)
    assert all(r.isomorphism_class_representative for r in records)
    for r, q in zip(records, quandles):
        assert r.hopf_admissible == solver_admissible(HOPF, q)
        assert r.trefoil_admissible == solver_admissible(TREFOIL, q)
    bad = [r for r in records if not r.trefoil_admissible]
    assert any(r.group_name == "quaternion8" and r.quandle_order == 8
               for r in bad)
    per_order = {}
    for r in records:
        per_order[r.quandle_order] = per_order.get(r.quandle_order, 0) + 1
    assert per_order == CENSUS_CLASSES_MAX16
    print(f"\nPASS census: {len(records)} classes from "
          f"{len(raw_records)} records, counts match frozen regression, "
          "flags cross-checked against solver")
