import functools
import itertools
import tracemalloc
import types
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest

from conftest import census_quandles
from quandlekit import _kernels, criteria, tangles
from quandlekit.criteria import (
    CensusRecord,
    Witness,
    associated_group_presentation,
    census_galex,
    dedup_by_isomorphism,
    format_census,
    hopf_witness,
    trefoil_witness,
)
from quandlekit.errors import OrderTooLarge, OutputCapExceeded
from quandlekit.groups import (
    automorphisms,
    catalog,
    census_catalog,
    normal_subgroups,
    parse_group_spec,
)
from quandlekit.quandles import (
    _galex_tables,
    _homomorphisms,
    _list_isomorphisms,
    _quandle,
    conj_quandle,
    dihedral_quandle,
    galex,
    hopf_extension,
    invariant_profile,
    is_homomorphism,
    isomorphic,
    relabel,
    trivial_quandle,
    validate_quandle,
)


def galex_q8():
    g = catalog("quaternion8")
    sigma = next(a for a in automorphisms(g) if a.tolist() == [0, 1, 4, 5, 6, 7, 2, 3])
    return galex(g, sigma)


class TestHopfWitness:
    def test_trivial_none(self):
        assert hopf_witness(trivial_quandle(5)) is None

    def test_extension_s3_s3(self):
        g = catalog("symmetric", 3)
        full = next(s for s in normal_subgroups(g) if len(s.elements) == 6)
        q = hopf_extension(g, full)
        w = hopf_witness(q)
        assert w is not None
        assert w.holds_in(q)
        # the proof's own pair also witnesses
        perms = sorted(itertools.permutations(range(3)))
        A, B = perms.index((1, 0, 2)), perms.index((2, 1, 0))
        assert Witness(0, A * 6 + B, "hopf").holds_in(q)

    def test_galex_always_none(self, catalog16):
        for g in catalog16:
            if g.order > 8:
                continue
            for aut in automorphisms(g):
                assert hopf_witness(galex(g, aut)) is None

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown witness kind 'unknot'"):
            Witness(0, 1, "unknot").holds_in(trivial_quandle(2))

    def test_first_witness_is_lexicographic(self):
        g = catalog("symmetric", 3)
        full = next(s for s in normal_subgroups(g) if len(s.elements) == 6)
        q = hopf_witness(hopf_extension(g, full))
        brute = next((x, y) for x in range(36) for y in range(36)
                     if hopf_extension(g, full).op(x, y) == x
                     and hopf_extension(g, full).op(y, x) != y)
        assert (q.x, q.y) == brute


class TestTrefoilWitness:
    def test_galex_q8(self):
        q = galex_q8()
        w = trefoil_witness(q)
        assert (w.x, w.y) == (0, 2)        # x = 1, y = i
        assert q.op(0, 2) == 6             # 1 <| i = k
        assert q.op(6, 0) == 2             # (1 <| i) <| 1 = i = y
        assert q.op(2, 0) == 4             # i <| 1 = j
        assert q.op(4, 2) == 1             # (i <| 1) <| i = -1 != 1
        assert w.holds_in(q)

    def test_r3_none(self):
        q = dihedral_quandle(3)
        assert trefoil_witness(q) is None
        # both identities hold everywhere in R3
        for x in range(3):
            for y in range(3):
                assert q.op(q.op(x, y), x) == y

    def test_conj_always_none(self, catalog16):
        for g in catalog16:
            q = conj_quandle(g)
            assert trefoil_witness(q) is None
            assert hopf_witness(q) is None


class TestAssociatedGroupPresentation:
    def test_trivial_order2(self):
        p = associated_group_presentation(trivial_quandle(2))
        assert p.generators == ("g0", "g1")
        assert len(p.relations) == 4
        for (lhs, rhs) in p.relations:
            x = lhs.split()[1]
            assert rhs == x          # conjugation acts trivially

    def test_r3(self):
        p = associated_group_presentation(dihedral_quandle(3))
        assert len(p.generators) == 3
        assert len(p.relations) == 9
        assert p.relations[1] == ("g1^-1 g0 g1", "g2")

    def test_order1(self):
        p = associated_group_presentation(trivial_quandle(1))
        assert p.generators == ("g0",)
        assert p.relations == (("g0^-1 g0 g0", "g0"),)

    def test_format(self):
        text = associated_group_presentation(trivial_quandle(1)).format()
        assert text == "gen g0\nrel g0^-1 g0 g0 = g0\n"

    def test_output_cap(self, monkeypatch):
        # order 3: 3 generators and 9 relations, 12 lines of output
        monkeypatch.setattr(criteria, "DEFAULT_OUTPUT_CAP", 12)
        assert len(associated_group_presentation(dihedral_quandle(3)).relations) == 9
        monkeypatch.setattr(criteria, "DEFAULT_OUTPUT_CAP", 11)
        with pytest.raises(OutputCapExceeded, match="order 3"):
            associated_group_presentation(dihedral_quandle(3))

    def test_default_output_cap_from_order_1000(self):
        # n + n^2 lines pass 10^6 from order 1000 up; refused before any
        # line is built
        assert 999 + 999 ** 2 <= tangles.DEFAULT_OUTPUT_CAP < 1000 + 1000 ** 2
        q = trivial_quandle(1000)
        tracemalloc.start()
        try:
            with pytest.raises(OutputCapExceeded, match="order 1000"):
                associated_group_presentation(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


@functools.lru_cache
def _permutations(n):
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def _brute_force_isomorphic(a, b):
    """Whether some bijection f has f(a[x, y]) = b[f(x), f(y)]: all n!
    permutations at once, dropping those that fail row x, for each x."""
    f = _permutations(a.order)
    for x in range(a.order):
        f = f[(f[:, a.table[x]] == b.table[f[:, [x]], f]).all(axis=1)]
    return len(f) > 0


def _aut_class_leaders_by_dict(maps):
    """Oracle for `criteria._aut_class_leaders`, whose leaders are the rows
    c with l = c: per row c, the least index l of its Aut(G)-conjugacy
    class and the first phi in row order with phi sigma_l phi^-1 = sigma_c,
    looked up in a dict of row tuples."""
    index = {row: i for i, row in enumerate(map(tuple, maps.tolist()))}
    inverses = np.argsort(maps, axis=1)
    out = [None] * len(maps)
    for i, sigma in enumerate(maps):
        if out[i] is None:
            conj = np.take_along_axis(maps, sigma[inverses], axis=1)
            for phi, row in zip(maps, conj.tolist()):
                c = index[tuple(row)]
                if out[c] is None:
                    out[c] = (i, phi)
    return out


@functools.lru_cache
def _dedup_inputs(max_order):
    """The (records, tables) of each call census_galex(max_order,
    dedup=True) makes to dedup_by_isomorphism, one per group order: the
    Aut(G)-class leaders."""
    seen = []

    def capture(records, tables):
        seen.append((records, tables))
        return records, tables

    with mock.patch.object(criteria, "dedup_by_isomorphism", capture):
        census_galex(max_order, dedup=True)
    return seen


def _walk_buckets(records, tables, prune):
    """The dedup's walk over one order's inputs, rebuilt on validated
    quandles with its own S_0-cycle colors, Inn-orbits and branch orders:
    (quandles, colors, branch orders, steps, kept indices), with steps the
    (kind, b, a, f) in the order the walk meets them.  kind "search" has f
    the map of the pinned search from kept b to a, or None.  Without prune
    every pair of kept b and later a in one bucket is searched, as the
    dedup did before it skipped any.  With prune, a table equal to an
    earlier one is "same" (b its first occurrence), and a pair of connected
    quandles of one group is "skip"."""
    qs = [validate_quandle(t) for t in tables]
    colors, profiles, orders, connected = [], [], [], []
    for q in qs:
        s0, row0 = q.table[:, 0].tolist(), q.table[0].tolist()
        lengths = []
        for x in range(q.order):
            y, m = s0[x], 1
            while y != x:
                y, m = s0[y], m + 1
            lengths.append(m)
        colors.append(lengths)
        profiles.append((tuple(sorted(lengths)), sum(v == x for x, v in enumerate(row0))))
        lab, prev = np.arange(q.order), None
        while not np.array_equal(lab, prev):
            lab, prev = lab[q.table].min(axis=1), lab
        lab = lab.tolist()
        orders.append(tuple([x for x, v in enumerate(lab) if v == x]
                            + [x for x, v in enumerate(lab) if v != x]))
        connected.append(set(lab) == {0})
    first, steps, keep, buckets = {}, [], [], defaultdict(list)
    for a, q in enumerate(qs):
        b = first.setdefault(q.table.tobytes(), a)
        if prune and b != a:
            steps.append(("same", b, a, None))
            continue
        for b in buckets[profiles[a]]:
            if (prune and connected[a] and connected[b]
                    and records[a].group_name == records[b].group_name):
                steps.append(("skip", b, a, None))
                continue
            f = next(_list_isomorphisms(qs[b].table.T.tolist(), q.table.T.tolist(),
                                        colors[b], colors[a], orders[b], [0]), None)
            steps.append(("search", b, a, f))
            if f is not None:
                break
        else:
            buckets[profiles[a]].append(a)
            keep.append(a)
    return qs, colors, orders, steps, keep


def _pruned_walks(monkeypatch, max_order):
    """Per group order of census_galex(max_order, dedup=True): the
    (records, quandles, steps) of the pruned walk, after checking that the
    dedup keeps the walk's records and makes exactly the walk's searches,
    in the same order, with the same branch orders."""
    calls, search = [], _list_isomorphisms

    def capture(sa, sb, ca, cb, order, images):
        calls.append((np.array(sa).T.tobytes(), np.array(sb).T.tobytes(), tuple(order)))
        return search(sa, sb, ca, cb, order, images)

    monkeypatch.setattr(criteria, "_list_isomorphisms", capture)
    out = []
    for records, tables in _dedup_inputs(max_order):
        del calls[:]
        kept = dedup_by_isomorphism(records, tables)[0]
        qs, _, orders, steps, keep = _walk_buckets(records, tables, prune=True)
        assert kept == [records[i] for i in keep]
        assert calls == [(qs[b].table.tobytes(), qs[a].table.tobytes(), orders[b])
                         for kind, b, a, _ in steps if kind == "search"]
        out.append((records, qs, steps))
    return out


def _dedup_each_order(records, tables):
    """dedup_by_isomorphism over records sorted by order, one call per
    order, as census_galex makes them: the kept records and tables."""
    kept_r, kept_t = [], []
    for _, group in itertools.groupby(zip(records, tables), key=lambda p: len(p[1])):
        r, t = dedup_by_isomorphism(*map(list, zip(*group)))
        kept_r += r
        kept_t += t
    return kept_r, kept_t


class TestCensus:
    def test_max_order_1(self):
        records = census_galex(1)
        assert len(records) == 1
        assert records[0].hopf_admissible and records[0].trefoil_admissible

    def test_q8_record_present(self):
        records = census_galex(8)
        bad = [(r, q) for r, q in zip(records, census_quandles(records))
               if not r.trefoil_admissible]
        assert bad
        assert all(r.group_name == "quaternion8" for r, _ in bad)
        assert all(r.hopf_admissible for r, _ in bad)
        ref = galex_q8()
        assert any(isomorphic(q, ref) is not None for _, q in bad)

    def test_deterministic_ordering(self):
        records = census_galex(8)
        keys = [(r.group_order, r.group_name, r.automorphism_index)
                for r in records]
        assert keys == sorted(keys)

    def test_dedup_idempotent(self):
        records = census_galex(8, dedup=True)
        quandles = census_quandles(records)
        again_r, again_q = _dedup_each_order(records, [q.table for q in quandles])
        assert again_r == records
        assert len(again_q) == len(quandles)

    def test_dedup_computes_each_profile_once(self, monkeypatch):
        # one profile per quandle, that of element 0 from the cycle lengths
        # of its column alone: one call per order, on the (n, k) array of
        # the column 0s of its k quandles; no per-element profile
        from quandlekit import quandles
        calls, lengths = [], _kernels.cycle_lengths

        def counted(t):
            calls.append(t.copy())
            return lengths(t)

        def per_element(q):
            raise AssertionError("per-element profile computed")

        records = census_galex(8)
        qs = census_quandles(records)
        monkeypatch.setattr(_kernels, "cycle_lengths", counted)
        monkeypatch.setattr(quandles, "invariant_profile", per_element)
        _, kept_q = _dedup_each_order(records, [q.table for q in qs])
        columns = defaultdict(list)
        for q in qs:
            columns[q.order].append(q.table[:, 0])
        assert len(calls) == len(columns)
        for got, cols in zip(calls, columns.values()):
            assert np.array_equal(got, np.stack(cols, axis=1))
        assert len(kept_q) < len(qs)

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            census_galex(128)

    def test_dedup_matches_unmerged_pairwise_dedup(self):
        # The conjugacy merge and the dedup must keep exactly the first
        # record of each class under pairwise isomorphic() over every raw
        # record
        records = census_galex(12, dedup=True)
        raw_r = census_galex(12)
        ref = []
        for r, q in zip(raw_r, census_quandles(raw_r)):
            if all(p.order != q.order or isomorphic(p, q) is None for _, p in ref):
                ref.append((r, q))
        assert records == [
            r._replace(isomorphism_class_representative=True)
            for r, _ in ref]

    def test_dedup_of_nothing_is_nothing(self):
        assert dedup_by_isomorphism([], []) == ([], [])

    def test_stacked_tables_match_validated_per_map_tables(self):
        # every group up to order 32: the tables the dedup builds for all of
        # Aut(G) as one stack, and their inverse tables, equal what the full
        # validator gives for the table built from each automorphism alone,
        # and the tables galex builds for the raw records
        records = census_galex(32)
        stacks = {}
        for g in census_catalog(32):
            auts = automorphisms(g)
            qs = [_quandle(x, "") for x in _galex_tables(g, auts)]
            assert len(qs) == len(auts)
            for a, q in zip(auts, qs):
                # x <| y = sigma(x y^-1) y
                t = g.table[a[g.table[:, g.inverse]], np.arange(g.order)]
                v = validate_quandle(t)
                assert np.array_equal(q.table, v.table), (g.name, a.tolist())
                assert np.array_equal(q.inv_table, v.inv_table), (g.name, a.tolist())
            stacks[g.name] = (g, qs)
        for r, q in zip(records, census_quandles(records)):
            g, qs = stacks[r.group_name]
            smap = automorphisms(g)[r.automorphism_index].tolist()
            assert q.same_table(qs[r.automorphism_index]), q.label
            assert np.array_equal(q.inv_table, qs[r.automorphism_index].inv_table)
            assert q.label == f"GAlex({g.name},{''.join(map(str, smap))})"
        assert len(records) == 1792

    def test_flags_match_witnesses_on_galex_tables(self):
        # every raw record up to order 32: the flags read off the pairs
        # (d, e) over each group's stack of maps are those of the witness
        # scans over the whole galex table
        records = census_galex(32)
        found = set()
        for r, q in zip(records, census_quandles(records)):
            for kind, single, flag in (("hopf", hopf_witness, r.hopf_admissible),
                                       ("trefoil", trefoil_witness, r.trefoil_admissible)):
                assert flag == (single(q) is None), (q.label, kind)
                found.add((kind, flag))
        assert len(records) == 1792
        assert found == {("hopf", True), ("trefoil", True), ("trefoil", False)}

    def test_stacked_witnesses_match_holds_in_scan(self):
        # orders <= 8: the census flags, computed over each group's stack
        # of maps, and the single-table witnesses all agree with the first
        # pair in row-major order that a pure-Python holds_in scan finds
        records = census_galex(8)
        found = set()
        for r, q in zip(records, census_quandles(records)):
            n = q.order
            for kind, single, flag in (("hopf", hopf_witness, r.hopf_admissible),
                                       ("trefoil", trefoil_witness, r.trefoil_admissible)):
                want = next((Witness(x, y, kind) for x in range(n) for y in range(n)
                             if Witness(x, y, kind).holds_in(q)), None)
                assert single(q) == want, (q.label, kind)
                assert flag == (want is None), (q.label, kind)
                found.add((kind, flag))
        assert found == {("hopf", True), ("trefoil", True), ("trefoil", False)}

    @pytest.mark.parametrize("slab", [1, 2000])
    def test_chunk_size_does_not_change_the_census(self, slab, monkeypatch):
        # automorphisms expands its candidate rows in chunks of about
        # _SLAB entries: one row per chunk, or a few, give the same records
        # and hand the same table stack of each group order to the
        # isomorphism search
        handed = []

        def capture(records, tables):
            handed.append(tables)
            return dedup(records, tables)

        dedup = criteria.dedup_by_isomorphism
        monkeypatch.setattr(criteria, "dedup_by_isomorphism", capture)
        want = [census_galex(12, dedup=d) for d in (False, True)]
        monkeypatch.setattr(_kernels, "_SLAB", slab)
        assert [census_galex(12, dedup=d) for d in (False, True)] == want
        orders = len({g.order for g in census_catalog(12)})
        before, after = handed[:orders], handed[orders:]
        assert len(before) == len(after) == orders
        assert all(len(a) == len(b) > 0 for a, b in zip(before, after))
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_right_translations_are_automorphisms(self):
        # the premise of the census's pin and of its flags from the pairs
        # (d, e): x -> x g maps GAlex(G, sigma) onto itself, for every raw
        # record and every g in G
        groups = {g.name: g for g in census_catalog(16)}
        records = census_galex(16)
        assert len(records) == 784
        for r, q in zip(records, census_quandles(records)):
            table = groups[r.group_name].table
            for g in range(q.order):
                assert is_homomorphism(table[:, g], q, q), (q.label, g)

    def test_raw_census_memory_bounded(self):
        # the raw census keeps no table: at max order 64 (8908 records) it
        # holds the automorphism maps of one group at a time and the records
        tracemalloc.start()
        try:
            records = census_galex(64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 8908
        assert peak < 16 * 2 ** 20

    def test_dedup_census_memory_bounded(self):
        # the dedup census holds one group order's leader tables at a time,
        # as one stack: at max order 48 (789 classes) its traced peak is
        # near 4.3 MB; holding every order's tables at once, with a second
        # copy of each order's stack, takes about 14 MB
        tracemalloc.start()
        try:
            records = census_galex(48, dedup=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 789
        assert peak < 8 * 2 ** 20

    def test_one_dedup_call_per_group_order(self):
        # the census calls the dedup once per group order, ascending, with
        # that order's leader records and one (k, n, n) stack of their tables
        calls = _dedup_inputs(32)
        assert [t.shape[1] for _, t in calls] == sorted({g.order for g in census_catalog(32)})
        for records, tables in calls:
            n = tables.shape[1]
            assert isinstance(tables, np.ndarray) and tables.shape == (len(records), n, n)
            assert {r.group_order for r in records} == {n}
        assert sum(len(records) for records, _ in calls) == 558

    def test_dedup_refuses_mixed_orders(self):
        # one call takes one order's tables; mixed orders are an error, and
        # the same tables split by order dedup as the census does
        records = census_galex(4, dedup=True)
        tables = [q.table for q in census_quandles(records)]
        assert len({len(t) for t in tables}) == 4
        with pytest.raises(ValueError):
            dedup_by_isomorphism(records, tables)
        with pytest.raises(ValueError):
            dedup_by_isomorphism(records[-2:], [tables[-1], dihedral_quandle(3).table])
        assert _dedup_each_order(records, tables)[0] == records

    def test_identity_pinned_search_agrees_with_isomorphic(self, monkeypatch):
        # the dedup pins f(0) = 0, the identity of each catalog group, and
        # matches no colors; over every pair of its 198 inputs (the
        # Aut(G)-class leaders of census_galex(16)) that share the profile
        # of 0, in the order the dedup compares them, that search finds a
        # map exactly when isomorphic() does, and on orders <= 8 exactly
        # when a brute force over all n! bijections does
        seen = []

        def capture(records, tables):
            seen.extend(validate_quandle(t) for t in tables)
            return records, tables

        monkeypatch.setattr(criteria, "dedup_by_isomorphism", capture)
        census_galex(16, dedup=True)
        assert all(g.identity == 0 for g in census_catalog(16))
        buckets = defaultdict(list)
        for q in seen:
            buckets[(q.order, invariant_profile(q)[0])].append(q)
        assert len(seen) == 198
        outcomes, brute_forced = set(), set()
        for bucket in buckets.values():
            for a, b in itertools.combinations(bucket, 2):
                same = [0] * a.order
                f = next(_list_isomorphisms(a.table.T.tolist(), b.table.T.tolist(),
                                            same, same, range(a.order), [0]), None)
                g = isomorphic(a, b)
                assert (f is None) == (g is None), (a.label, b.label)
                for h in (f, g):
                    if h is not None:
                        assert sorted(h) == list(range(a.order))
                        assert is_homomorphism(h, a, b)
                if f is not None:
                    assert f[0] == 0
                if a.order <= 8:
                    assert (f is None) == (not _brute_force_isomorphic(a, b))
                    brute_forced.add(f is None)
                outcomes.add(f is None)
        assert outcomes == brute_forced == {False, True}

    def test_dedup_inputs_have_one_profile(self, monkeypatch):
        # the premise of bucketing by the profile of 0: in each quandle the
        # dedup gets up to max order 32, every element has that profile
        seen = []

        def capture(records, tables):
            seen.extend(validate_quandle(t) for t in tables)
            return records, tables

        monkeypatch.setattr(criteria, "dedup_by_isomorphism", capture)
        census_galex(32, dedup=True)
        for q in seen:
            profile = invariant_profile(q)
            assert profile == [profile[0]] * q.order, q.label
        assert len(seen) == 558

    @pytest.mark.parametrize("spec, classes", [
        ("quaternion8", 5),                     # Aut = S4
        ("cyclic:2*cyclic:2*cyclic:2", 6),      # Aut = GL(3, 2)
        ("symmetric:3", 3),
        ("dihedral:4", 5),
        ("cyclic:12", 4),                       # abelian Aut
    ])
    def test_aut_conjugacy_class_counts(self, spec, classes):
        auts = automorphisms(parse_group_spec(spec))
        leaders = criteria._aut_class_leaders(auts)
        assert len(leaders) == classes
        for c, (li, phi) in enumerate(_aut_class_leaders_by_dict(auts)):
            assert li <= c and li in leaders
            phi_inv = {int(v): x for x, v in enumerate(phi)}
            conj = tuple(int(phi[auts[li][phi_inv[y]]])
                         for y in range(len(phi)))
            assert conj == tuple(auts[c].tolist())

    def test_aut_class_leaders_match_row_dict(self):
        # the search over sorted row keys gives the leaders that a dict from
        # row tuples to indices gives, on every group of census_catalog(64)
        for g in census_catalog(64):
            auts = automorphisms(g)
            want = [c for c, (li, _) in enumerate(_aut_class_leaders_by_dict(auts)) if li == c]
            assert criteria._aut_class_leaders(auts) == want, g.name

    def test_failed_conjugation_certificate_raises(self, monkeypatch):
        # the conjugates of a class are certified as one array of row keys;
        # one missing from the rows in the last place of its class is
        # enough, whether its key falls before a row (b"") or past the last
        # one.  Only criteria's _row_keys is patched, and automorphisms
        # returns read-only maps, so only the conjugates' keys change
        def last_missing(fill):
            def row_keys(rows):
                keys = _kernels._row_keys(rows)
                if rows.flags.writeable:
                    keys[-1] = fill
                return keys
            return types.SimpleNamespace(**{**vars(_kernels), "_row_keys": row_keys})

        for fill in (b"", b"\xff" * 8):
            monkeypatch.setattr(criteria, "_kernels", last_missing(fill))
            with pytest.raises(RuntimeError, match="conjugator"):
                census_galex(4, dedup=True)

    def test_dedup_builds_no_quandle_object(self, monkeypatch):
        # the dedup takes the leaders' table slices as they are built: no
        # FiniteQuandle and no inverse table
        from quandlekit import quandles

        def no_quandles(t, label):
            raise AssertionError("quandle objects built")

        want = census_galex(16, dedup=True)
        monkeypatch.setattr(quandles, "_quandle", no_quandles)
        assert census_galex(16, dedup=True) == want
        with pytest.raises(AssertionError, match="quandle objects built"):
            galex(catalog("quaternion8"), automorphisms(catalog("quaternion8"))[1])

    def test_failed_search_map_raises(self, monkeypatch):
        # every map the search finds is checked on the tables; the identity
        # map between two distinct leaders' tables is no homomorphism, and
        # that is an error, not "no isomorphism"
        def identity(sa, sb, ca, cb, order, images):
            yield list(range(len(ca)))

        monkeypatch.setattr(criteria, "_list_isomorphisms", identity)
        with pytest.raises(RuntimeError, match="is no isomorphism"):
            census_galex(8, dedup=True)

    def test_conjugators_are_isomorphisms_on_the_tables(self):
        # the census certifies each Aut(G)-class merge on the maps; this
        # checks it on the tables: for every non-leader c of every group up
        # to order 32, the oracle's conjugator phi maps GAlex(G, sigma_l),
        # sigma_l its class leader, homomorphically (and, as an automorphism
        # of G, bijectively) onto GAlex(G, sigma_c)
        checked = 0
        for g in census_catalog(32):
            s = automorphisms(g)
            rest = [(c, li, phi) for c, (li, phi) in enumerate(_aut_class_leaders_by_dict(s))
                    if li != c]
            assert {li for _, li, _ in rest} <= set(criteria._aut_class_leaders(s))
            if rest:
                c, li, phi = map(np.array, zip(*rest))
                src, dst = _galex_tables(g, s[li]), _galex_tables(g, s[c])
                assert _homomorphisms(phi, src, dst).all(), g.name
                checked += len(rest)
        assert checked == 1234

    def test_branch_order_search_matches_relabelled_search(self):
        # the search on a relabelled copy is the oracle: for every pair the
        # dedup searched at max order 32 before it skipped or pre-merged any
        # (the unpruned bucket walk), the search with the kept quandle q's
        # branch order, its Inn-orbit leaders first, finds a map exactly
        # when the search from 0 on relabel(q, perm), whose identity order
        # is that branch order, does; the two maps agree through perm.
        # _pruned_walks checks the dedup's own searches against the walk
        outcomes, moved, searched = set(), set(), 0
        for records, tables in _dedup_inputs(32):
            qs, colors, orders, steps, _ = _walk_buckets(records, tables, prune=False)
            for _, b, a, f in steps:
                q, ar = qs[b], np.arange(qs[b].order)
                perm = np.argsort(orders[b])    # x's place in the branch order
                relabelled = np.empty(q.order, dtype=np.int64)
                relabelled[perm] = colors[b]    # perm(x) gets x's color
                want = next(_list_isomorphisms(
                    relabel(q, perm).table.T.tolist(), qs[a].table.T.tolist(),
                    relabelled.tolist(), colors[a], range(q.order), [0]), None)
                assert (f is None) == (want is None), (records[b], records[a])
                if f is not None:
                    assert f == [want[p] for p in perm.tolist()]
                searched += 1
                outcomes.add(f is None)
                moved.add(not np.array_equal(perm, ar))
        assert outcomes == moved == {False, True}
        assert searched == 699

    def test_skipped_pairs_have_no_isomorphism(self, monkeypatch):
        # the proof in dedup_by_isomorphism's docstring, checked: at max
        # order 32 no pair the dedup skips, two connected quandles of one
        # group, has an isomorphism, by the pinned search with constant
        # colors or by isomorphic()
        skipped = searched = 0
        for records, qs, steps in _pruned_walks(monkeypatch, 32):
            for kind, b, a, _ in steps:
                if kind == "skip":
                    same = [0] * qs[a].order
                    assert next(_list_isomorphisms(
                        qs[b].table.T.tolist(), qs[a].table.T.tolist(), same, same,
                        range(qs[a].order), [0]), None) is None, (records[b], records[a])
                    assert isomorphic(qs[b], qs[a]) is None, (records[b], records[a])
                    assert records[b].group_name == records[a].group_name
                skipped += kind == "skip"
                searched += kind == "search"
        assert (skipped, searched) == (407, 244)

    def test_skip_needs_both_records_to_name_one_group(self):
        # the two automorphisms of order 3 of (Z2)^2 are conjugate, and their
        # connected quandles isomorphic: the dedup searches and merges them
        # when the records name two groups, and skips the pair, keeping
        # both as the docstring's precondition warns, when they name one
        g = parse_group_spec("cyclic:2*cyclic:2")
        auts = automorphisms(g)
        c = np.flatnonzero((auts[:, 1:] != np.arange(1, 4)).all(axis=1)).tolist()
        classes = _aut_class_leaders_by_dict(auts)
        assert len(c) == 2 and [classes[x][0] for x in c] == [c[0]] * 2
        tables = _galex_tables(g, auts[c])
        assert isomorphic(validate_quandle(tables[0]), validate_quandle(tables[1]))
        for names, kept in ((("a", "b"), 1), (("a", "a"), 2)):
            records = [CensusRecord(name, 4, i, 4, True, True, True) for name, i in zip(names, c)]
            assert len(dedup_by_isomorphism(records, tables)[0]) == kept

    def test_premerged_tables_equal_their_first_occurrence(self, monkeypatch):
        # at max order 32 every table the dedup drops before any search is
        # byte-equal to the first table of its order with those bytes, which
        # is not itself dropped
        merged = 0
        for records, qs, steps in _pruned_walks(monkeypatch, 32):
            dropped = {a for kind, _, a, _ in steps if kind == "same"}
            for kind, b, a, _ in steps:
                if kind == "same":
                    assert b < a and b not in dropped
                    assert np.array_equal(qs[a].table, qs[b].table), (records[b], records[a])
                    assert not any(np.array_equal(qs[a].table, q.table) for q in qs[:b])
                    merged += 1
        assert merged == 46

    def test_colored_dedup_keeps_what_constant_colors_keep(self, monkeypatch):
        # the S_0-cycle colors prune only maps that are no isomorphism: on
        # the dedup inputs at max order 32, a search with constant colors
        # keeps the same records; the colors were not all constant
        inputs = _dedup_inputs(32)
        colored = [dedup_by_isomorphism(records, qs)[0] for records, qs in inputs]
        search, varied = _list_isomorphisms, []

        def constant(sa, sb, ca, cb, order, images):
            varied.append(len(set(ca)) > 1)
            same = [0] * len(ca)
            return search(sa, sb, same, same, order, images)

        monkeypatch.setattr(criteria, "_list_isomorphisms", constant)
        assert [dedup_by_isomorphism(records, qs)[0] for records, qs in inputs] == colored
        assert any(varied)
        assert sum(map(len, colored)) < sum(len(records) for records, _ in inputs)

    def test_format(self):
        records = [CensusRecord("cyclic(1)", 1, 0, 1, True, True, True)]
        text = format_census(records)
        lines = text.splitlines()
        assert lines[0].startswith("#group_name\t")
        assert lines[1] == "cyclic(1)\t1\t0\t1\tTrue\tTrue\tTrue"

    def test_record_fields_are_the_header(self):
        header = format_census(census_galex(4)).splitlines()[0]
        assert header == "#" + "\t".join(CensusRecord._fields)
        assert CensusRecord._fields == (
            "group_name", "group_order", "automorphism_index", "quandle_order",
            "isomorphism_class_representative", "hopf_admissible",
            "trefoil_admissible")

    def test_record_is_immutable(self):
        r = census_galex(3)[0]
        with pytest.raises(AttributeError):
            r.hopf_admissible = False
        assert r._replace(hopf_admissible=False).hopf_admissible is False
        assert r.hopf_admissible is True
