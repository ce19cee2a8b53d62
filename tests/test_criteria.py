import dataclasses
import itertools
from collections import defaultdict

import pytest

from quandlekit import criteria
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
from quandlekit.errors import OrderTooLarge
from quandlekit.groups import (
    automorphisms,
    catalog,
    census_catalog,
    normal_subgroups,
    parse_group_spec,
)
from quandlekit.quandles import (
    _any_isomorphism,
    conj_quandle,
    dihedral_quandle,
    galex,
    hopf_extension,
    invariant_profile,
    is_homomorphism,
    isomorphic,
    relabel,
    trivial_quandle,
)


def galex_q8():
    g = catalog("quaternion8")
    sigma = next(a for a in automorphisms(g) if a.map == (0, 1, 4, 5, 6, 7, 2, 3))
    return galex(g, sigma)


def every_element(quandles):
    """Dedup pins that need no argument: every element of each quandle
    is a candidate image of 0."""
    return [range(q.order) for q in quandles]


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


class TestCensus:
    def test_max_order_1(self):
        records, _ = census_galex(1)
        assert len(records) == 1
        assert records[0].hopf_admissible and records[0].trefoil_admissible

    def test_q8_record_present(self):
        records, quandles = census_galex(8)
        bad = [(r, q) for r, q in zip(records, quandles)
               if not r.trefoil_admissible]
        assert bad
        assert all(r.group_name == "quaternion8" for r, _ in bad)
        assert all(r.hopf_admissible for r, _ in bad)
        ref = galex_q8()
        assert any(isomorphic(q, ref) is not None for _, q in bad)

    def test_deterministic_ordering(self):
        records, _ = census_galex(8)
        keys = [(r.group_order, r.group_name, r.automorphism_index)
                for r in records]
        assert keys == sorted(keys)

    def test_dedup_idempotent(self):
        records, quandles = census_galex(8, dedup=True)
        again_r, again_q = dedup_by_isomorphism(records, quandles,
                                                every_element(quandles))
        assert again_r == records
        assert len(again_q) == len(quandles)

    def test_dedup_computes_each_profile_once(self, monkeypatch):
        from quandlekit import quandles
        calls, profile = [], quandles.invariant_profile

        def counted(q):
            calls.append(q)
            return profile(q)

        monkeypatch.setattr(criteria, "invariant_profile", counted)
        monkeypatch.setattr(quandles, "invariant_profile", counted)
        records, qs = census_galex(8)
        _, kept_q = dedup_by_isomorphism(records, qs, every_element(qs))
        assert len(calls) == len(qs)
        assert len(kept_q) < len(qs)

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            census_galex(128)

    def test_dedup_matches_unmerged_pairwise_dedup(self):
        # The conjugacy merge must keep exactly what pairwise isomorphism
        # search over every raw record keeps.
        records, quandles = census_galex(12, dedup=True)
        raw_r, raw_q = census_galex(12)
        ref_r, ref_q = dedup_by_isomorphism(raw_r, raw_q, every_element(raw_q))
        assert records == [
            dataclasses.replace(r, isomorphism_class_representative=True)
            for r in ref_r]
        assert all(a.same_table(b) for a, b in zip(quandles, ref_q))
        assert len(quandles) == len(ref_q)

    def test_existence_search_agrees_with_isomorphic(self):
        # every pair of Aut(G)-class leaders of census_galex(16) that share
        # an invariant bucket, in the order the dedup compares them
        buckets = defaultdict(list)
        for g in census_catalog(16):
            auts = automorphisms(g)
            for c, (li, _) in enumerate(criteria._aut_class_leaders(auts)):
                if li == c:
                    q = galex(g, auts[c])
                    p = invariant_profile(q)
                    buckets[(q.order, tuple(sorted(p)))].append((q, p))
        outcomes = set()
        for bucket in buckets.values():
            for (a, pa), (b, pb) in itertools.combinations(bucket, 2):
                f = _any_isomorphism(a, b, pa, pb, range(b.order))
                assert (f is None) == (isomorphic(a, b) is None), (a.label, b.label)
                if f is not None:
                    assert sorted(f) == list(range(a.order))
                    assert is_homomorphism(f, a, b)
                outcomes.add(f is None)
        assert outcomes == {False, True}

    def test_right_translations_are_automorphisms(self):
        # the premise of the census's pin: x -> x g maps GAlex(G, sigma)
        # onto itself, for every raw record and every g in G
        groups = {g.name: g for g in census_catalog(16)}
        records, quandles = census_galex(16)
        assert len(records) == 784
        for r, q in zip(records, quandles):
            table = groups[r.group_name].table
            for g in range(q.order):
                assert is_homomorphism(table[:, g], q, q), (q.label, g)

    def test_identity_pinned_search_agrees_with_isomorphic(self, monkeypatch):
        # the pins census_galex hands to the dedup are {e}, and over the
        # bucket pairs of test_existence_search_agrees_with_isomorphic the
        # search pinned there finds a map exactly when isomorphic() does
        seen = {}

        def capture(records, quandles, pins):
            seen.update(records=records, quandles=quandles, pins=pins)
            return records, quandles

        monkeypatch.setattr(criteria, "dedup_by_isomorphism", capture)
        census_galex(16, dedup=True)
        identity = {g.name: g.identity for g in census_catalog(16)}
        buckets = defaultdict(list)
        for r, q, pin in zip(seen["records"], seen["quandles"], seen["pins"]):
            assert pin == [identity[r.group_name]], q.label
            p = invariant_profile(q)
            buckets[(q.order, tuple(sorted(p)))].append((q, p, pin))
        assert len(seen["quandles"]) == 198
        outcomes = set()
        for bucket in buckets.values():
            for (a, pa, _), (b, pb, pin) in itertools.combinations(bucket, 2):
                f = _any_isomorphism(a, b, pa, pb, pin)
                assert (f is None) == (isomorphic(a, b) is None), (a.label, b.label)
                if f is not None:
                    assert f[0] == pin[0]
                    assert sorted(f) == list(range(a.order))
                    assert is_homomorphism(f, a, b)
                outcomes.add(f is None)
        assert outcomes == {False, True}

    def test_dedup_without_pins_searches_every_orbit(self):
        # in Conj(S3) the identity 0 is an Inn-orbit of its own, so an
        # isomorphism onto a relabeling must send 0 where that puts it,
        # which pins of every element allow; the input is not sorted by order
        q = conj_quandle(catalog("symmetric", 3))
        pool = [q, trivial_quandle(3), relabel(q, [5, 1, 2, 3, 4, 0]),
                relabel(trivial_quandle(3), [2, 0, 1]), dihedral_quandle(3)]
        kept_r, kept_q = dedup_by_isomorphism(list(range(5)), pool,
                                              every_element(pool))
        assert kept_r == [0, 1, 4]
        assert kept_q == [pool[0], pool[1], pool[4]]

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
        assert sum(li == c for c, (li, _) in enumerate(leaders)) == classes
        for c, (li, phi) in enumerate(leaders):
            assert li <= c and leaders[li][0] == li
            phi_inv = {int(v): x for x, v in enumerate(phi)}
            conj = tuple(int(phi[auts[li].map[phi_inv[y]]])
                         for y in range(len(phi)))
            assert conj == auts[c].map

    def test_failed_conjugation_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(criteria, "is_homomorphism", lambda *a: False)
        with pytest.raises(RuntimeError, match="conjugator"):
            census_galex(4, dedup=True)

    def test_format(self):
        records = [CensusRecord("cyclic(1)", 1, 0, 1, True, True, True)]
        text = format_census(records)
        lines = text.splitlines()
        assert lines[0].startswith("#group_name\t")
        assert lines[1] == "cyclic(1)\t1\t0\t1\tTrue\tTrue\tTrue"
