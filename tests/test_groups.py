import itertools
import math
import tracemalloc

import numpy as np
import pytest

from quandlekit import _kernels, groups
from quandlekit.errors import (
    FileFormatError,
    GroupValidationError,
    NoIdentity,
    NotASubgroup,
    NotAssociative,
    NotLatinSquare,
    OrderTooLarge,
    UnknownFamily,
)
from quandlekit.groups import (
    GroupAutomorphism,
    Subgroup,
    automorphisms,
    catalog,
    census_catalog,
    center,
    cyclic_group,
    dihedral_group,
    direct_product,
    format_group_file,
    normal_subgroups,
    parse_group_file,
    parse_group_spec,
    subgroup_from_elements,
    subgroups,
    validate_group,
)


def z_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _validate_group_loop(t):
    """Reference for validate_group on an in-range square table: the row i,
    then column i set scans, the first two-sided identity, associativity,
    then each inverse by a row search.  Returns (identity, inverses) or
    raises the first violation."""
    n = len(t)
    for i in range(n):
        for axis, line in (("row", t[i]), ("column", [r[i] for r in t])):
            seen = set()
            for v in line:
                if v in seen:
                    raise NotLatinSquare(axis, i, v)
                seen.add(v)
    ar = list(range(n))
    identity = next((e for e in range(n)
                     if t[e] == ar and [r[e] for r in t] == ar), None)
    if identity is None:
        raise NoIdentity()
    hit = _kernels.assoc_violation(np.array(t))
    if hit:
        raise NotAssociative(*hit)
    inverse = [t[x].index(identity) for x in range(n)]
    assert all(t[y][x] == identity for x, y in enumerate(inverse))
    return identity, inverse


def _outcome(validate, t):
    try:
        return validate(t)
    except GroupValidationError as exc:
        return type(exc).__name__, str(exc)


# a Latin square with identity 0 (a loop of order 5, the least order of
# a non-group loop) where (1*1)*2 = 2 but 1*(1*2) = 4
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 3, 4, 0, 1],
         [3, 4, 1, 2, 0],
         [4, 2, 0, 1, 3]]


def _latin_tables():
    """Z_n Cayley tables with rows or columns shuffled (Latin squares,
    mostly without an identity) and relabelings of LOOP5 (not
    associative)."""
    rng = np.random.default_rng(5)
    out = []
    for n in range(2, 8):
        t = np.array(z_table(n))
        for _ in range(4):
            out += [t[rng.permutation(n)], t[:, rng.permutation(n)]]
    for _ in range(4):
        p = rng.permutation(5)
        r = np.empty((5, 5), dtype=np.int64)
        r[np.ix_(p, p)] = p[np.array(LOOP5)]
        out.append(r)
    return out


class TestValidateGroup:
    def test_cyclic3(self):
        g = validate_group(z_table(3))
        assert g.order == 3
        assert g.identity == 0
        assert g.inv(1) == 2

    def test_not_latin_square(self):
        with pytest.raises(NotLatinSquare) as exc:
            validate_group([[0, 1], [1, 1]])
        assert exc.value.index == 1

    def test_no_identity(self):
        # Latin square without identity: subtraction mod 3
        t = [[(i - j) % 3 for j in range(3)] for i in range(3)]
        with pytest.raises(NoIdentity):
            validate_group(t)

    def test_not_associative(self):
        with pytest.raises(NotAssociative) as exc:
            validate_group(LOOP5)
        assert exc.value.triple == (1, 1, 2)

    def test_leaves_caller_array_alone(self):
        b = np.array(z_table(3), dtype=np.int64)
        g = validate_group(b)
        b[0, 0] = 1                      # still writable
        assert not np.shares_memory(g.table, b)
        assert g.table[0, 0] == 0

    def test_s3_brute_force_associativity(self):
        g = catalog("symmetric", 3)
        assert g.order == 6
        assert not g.is_abelian()
        t = g.table
        for i, j, k in itertools.product(range(6), repeat=3):
            assert t[t[i, j], k] == t[i, t[j, k]]

    def test_matches_loop_oracle(self, seeded_tables):
        def vectorized(t):
            g = validate_group(np.array(t))
            return g.identity, g.inverse.tolist()

        outcomes = set()
        for t in seeded_tables + _latin_tables():
            want = _outcome(_validate_group_loop, t.tolist())
            assert _outcome(vectorized, t.tolist()) == want, t.tolist()
            outcomes.add(want[0] if isinstance(want[0], str) else "ok")
        assert outcomes == {"ok", "NotLatinSquare", "NoIdentity", "NotAssociative"}

    def test_file_validation_holds_one_table(self, monkeypatch):
        n = 512
        ar = np.arange(n)
        text = f"group {n}\n" + "".join(
            " ".join(map(str, row)) + "\n" for row in ((ar[:, None] + ar) % n).tolist())
        held = []

        def record(t):
            held.append(tracemalloc.get_traced_memory()[0])
            return None

        monkeypatch.setattr(_kernels, "assoc_violation", record)
        tracemalloc.start()
        try:
            parse_group_file(text)
        finally:
            tracemalloc.stop()
        assert held[0] < 1.5 * n * n * 8          # one int64 table, not two

    def test_identity_detected_not_assumed(self):
        # relabel Z3 so the identity is element 2
        p = [2, 0, 1]
        t = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                t[p[i]][p[j]] = p[(i + j) % 3]
        g = validate_group(t)
        assert g.identity == 2


class TestCatalog:
    def test_quaternion8(self):
        g = catalog("quaternion8")
        assert g.order == 8
        assert tuple(g.labels) == ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
        # center by brute-force commutation
        z = [x for x in range(8)
             if all(g.mul(x, y) == g.mul(y, x) for y in range(8))]
        assert z == [0, 1]
        assert center(g).elements == (0, 1)
        # i*j = k, j*i = -k
        assert g.mul(2, 4) == 6
        assert g.mul(4, 2) == 7

    def test_trivial(self):
        g = catalog("cyclic", 1)
        assert g.order == 1

    def test_product_s3_z2(self):
        g = direct_product(catalog("symmetric", 3), catalog("cyclic", 2))
        assert g.order == 12
        t = g.table
        for i, j, k in itertools.product(range(12), repeat=3):
            assert t[t[i, j], k] == t[i, t[j, k]]

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            catalog("sporadic", 1)
        with pytest.raises(UnknownFamily):
            catalog("quaternion8", 3)

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            direct_product(catalog("cyclic", 32), catalog("cyclic", 3))
        with pytest.raises(OrderTooLarge):
            catalog("cyclic", 100)

    def test_generalized_quaternion16(self):
        g = catalog("generalized_quaternion16")
        assert g.order == 16
        # b^2 = a^4 and b^-1 a b = a^-1
        a, b = 1, 8
        assert g.mul(b, b) == 4
        assert g.mul(g.mul(g.inv(b), a), b) == g.inv(a)

    def test_dihedral(self):
        g = catalog("dihedral", 4)
        assert g.order == 8
        assert not g.is_abelian()
        # reflections are involutions
        for i in range(4, 8):
            assert g.mul(i, i) == g.identity

    @pytest.mark.parametrize("build, message", [
        (lambda: groups.symmetric_group(5), r"symmetric\(5\) not in catalog \(n <= 4\)"),
        (lambda: parse_group_spec("cyclic:a"), "bad parameters in 'cyclic:a'"),
    ])
    def test_rejections(self, build, message):
        with pytest.raises(UnknownFamily, match=f"^{message}$"):
            build()

    def test_parse_group_spec(self):
        assert parse_group_spec("cyclic:6").order == 6
        assert parse_group_spec("cyclic:2*cyclic:4").order == 8
        with pytest.raises(UnknownFamily):
            parse_group_spec("nope:3")


def _table_of(elements, mul, key=tuple):
    """Cayley table of explicit elements in a fixed order; key(x) is a
    hashable form of x."""
    index = {key(x): k for k, x in enumerate(elements)}
    return [[index[key(mul(x, y))] for y in elements] for x in elements]


def _matrix_key(m):
    return tuple(np.round(m, 6).ravel().tolist())


def _compose(p, q):                      # apply q first
    return tuple(p[t] for t in q)


class TestFamiliesMatchExplicitElements:
    """Each catalog family against its table built from explicit elements
    in the frozen order of the groups module docstring."""

    def test_quaternion8(self):
        i, j = np.diag([1j, -1j]), np.array([[0, 1], [-1, 0]])
        units = [np.eye(2), i, j, i @ j]                  # 1, i, j, k
        elements = [s * u for u in units for s in (1, -1)]
        g = catalog("quaternion8")
        assert g.table.tolist() == _table_of(elements, np.matmul, _matrix_key)
        assert g.labels == ("1", "-1", "i", "-i", "j", "-j", "k", "-k")

    def test_generalized_quaternion16(self):
        w = np.exp(2j * np.pi / 8)
        a, b = np.diag([w, 1 / w]), np.array([[0, 1], [-1, 0]])   # a^8, b^2 = a^4
        elements = [np.linalg.matrix_power(a, i) @ np.linalg.matrix_power(b, j)
                    for j in (0, 1) for i in range(8)]
        g = catalog("generalized_quaternion16")
        assert g.table.tolist() == _table_of(elements, np.matmul, _matrix_key)
        assert g.labels == tuple(f"a{i}" + "b" * j for j in (0, 1) for i in range(8))

    def test_dihedral(self):
        for n in range(1, 33):
            # r^i s^j acts on Z_2n as t -> (-1)^j t - j + 2i, faithful for all n
            elements = [tuple((t * (1 - 2 * j) - j + 2 * i) % (2 * n)
                              for t in range(2 * n)) for j in (0, 1) for i in range(n)]
            g = catalog("dihedral", n)
            assert g.table.tolist() == _table_of(elements, _compose), n
            assert g.labels == tuple(f"r{i}" + "s" * j
                                     for j in (0, 1) for i in range(n))

    @pytest.mark.parametrize("family, n", [("symmetric", 1), ("symmetric", 2),
                                           ("symmetric", 3), ("symmetric", 4),
                                           ("alternating", 4)])
    def test_permutations(self, family, n):
        def even(p):
            return sum(p[x] > p[y] for x, y in itertools.combinations(range(n), 2)) % 2 == 0

        elements = [p for p in itertools.permutations(range(n))
                    if family == "symmetric" or even(p)]
        g = catalog(family, n)
        assert g.table.tolist() == _table_of(elements, _compose)
        assert g.labels == tuple(map(str, elements))


class TestAutomorphisms:
    def test_z2(self):
        assert len(automorphisms(cyclic_group(2))) == 1

    def test_z4(self):
        auts = automorphisms(cyclic_group(4))
        assert len(auts) == 2
        assert [a.map for a in auts] == [(0, 1, 2, 3), (0, 3, 2, 1)]

    def test_q8_count_and_sigma(self):
        auts = automorphisms(catalog("quaternion8"))
        assert len(auts) == 24
        # the 3-cycle i -> j -> k -> i
        sigma = (0, 1, 4, 5, 6, 7, 2, 3)
        assert sigma in {a.map for a in auts}

    # exactly the groups of census_catalog(8)
    CATALOG8 = ["cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5",
                "cyclic:6", "symmetric:3", "cyclic:2*cyclic:2", "cyclic:7",
                "cyclic:8", "dihedral:3", "dihedral:4", "quaternion8",
                "cyclic:2*cyclic:4", "cyclic:2*cyclic:2*cyclic:2"]

    def test_specs_are_census_catalog8(self):
        built = [parse_group_spec(spec) for spec in self.CATALOG8]
        cat = census_catalog(8)
        assert len(built) == len(cat)
        assert all(any(b.same_table(g) for b in built) for g in cat)

    @pytest.mark.parametrize("spec", CATALOG8)
    def test_matches_full_permutation_search(self, spec):
        """Same list: itertools.permutations is in lexicographic order."""
        g = parse_group_spec(spec)
        n = g.order
        t = g.table
        brute = []
        for p in itertools.permutations(range(n)):
            if all(p[t[i, j]] == t[p[i], p[j]]
                   for i in range(n) for j in range(n)):
                brute.append(p)
        assert [a.map for a in automorphisms(g)] == brute

    def test_closed_form_counts(self):
        def phi(n):
            return sum(math.gcd(k, n) == 1 for k in range(1, n + 1))

        cases = [(cyclic_group(n), phi(n)) for n in range(1, 65)]
        cases += [(dihedral_group(n), n * phi(n)) for n in range(3, 33)]
        cases += [(parse_group_spec(spec), count) for spec, count in [
            ("quaternion8", 24), ("symmetric:3", 6), ("symmetric:4", 24),
            ("alternating:4", 24), ("generalized_quaternion16", 32),
            ("cyclic:2*cyclic:2*cyclic:2", 168),
            ("cyclic:2*cyclic:2*cyclic:4", 192), ("cyclic:4*cyclic:4", 96),
            ("cyclic:2*cyclic:2*cyclic:2*cyclic:2", 20160)]]
        for g, count in cases:
            maps = [a.map for a in automorphisms(g)]
            assert len(maps) == count, g.name
            assert all(a < b for a, b in zip(maps, maps[1:])), g.name

    def test_cap_raises(self, monkeypatch):
        z2cubed = parse_group_spec("cyclic:2*cyclic:2*cyclic:2")   # 168 maps
        monkeypatch.setattr(groups, "MAX_AUTOMORPHISMS", 100)
        with pytest.raises(OrderTooLarge, match="more than 100 automorphisms"):
            automorphisms(z2cubed)
        assert len(automorphisms(catalog("symmetric", 4))) == 24
        monkeypatch.setattr(groups, "MAX_AUTOMORPHISMS", 168)
        assert len(automorphisms(z2cubed)) == 168

    @pytest.mark.parametrize("m", [(0, 0, 0), (0, 1), (0, 1, 3)])
    def test_map_must_be_a_permutation(self, m):
        with pytest.raises(ValueError, match="not a permutation"):
            GroupAutomorphism(cyclic_group(3), m)

    def test_pointwise_validity(self, catalog16):
        for g in catalog16:
            if g.order > 8:
                continue
            for a in automorphisms(g):
                assert sorted(a.map) == list(range(g.order))
                for i in range(g.order):
                    for j in range(g.order):
                        assert a.map[g.mul(i, j)] == g.mul(a.map[i], a.map[j])
                assert a.map[g.identity] == g.identity


def test_element_orders_match_repeated_multiplication():
    for g in census_catalog(64):
        want = []
        for x in range(g.order):
            k, p = 1, x
            while p != g.identity:
                k, p = k + 1, g.mul(p, x)
            want.append(k)
        assert g.element_orders() == want, g.name


class TestSubgroups:
    def test_s3_normal(self):
        g = catalog("symmetric", 3)
        ns = normal_subgroups(g)
        assert [len(s.elements) for s in ns] == [1, 3, 6]
        assert all(s.normal for s in ns)

    def test_z4(self):
        assert [len(s.elements) for s in normal_subgroups(cyclic_group(4))] \
            == [1, 2, 4]

    def test_trivial_group(self):
        assert len(subgroups(cyclic_group(1))) == 1

    def test_order_bound(self, monkeypatch):
        assert len(subgroups(cyclic_group(64))) == 7      # one per divisor
        g = validate_group(z_table(65))
        closures = []
        monkeypatch.setattr(groups, "_closure", lambda *a: closures.append(a))
        with pytest.raises(OrderTooLarge, match="order 65"):
            subgroups(g)
        with pytest.raises(OrderTooLarge):
            normal_subgroups(g)
        assert closures == []

    def test_s3_all_subgroups(self):
        # 1 trivial + 3 of order 2 + 1 of order 3 + full = 6
        subs = subgroups(catalog("symmetric", 3))
        assert len(subs) == 6

    def test_closure_and_normality_recheck(self, catalog16):
        for g in catalog16:
            if g.order > 12:
                continue
            for s in subgroups(g):
                elems = set(s.elements)
                assert g.identity in elems
                for a in elems:
                    assert g.inv(a) in elems
                    for b in elems:
                        assert g.mul(a, b) in elems
                is_n = all(g.mul(g.mul(g.inv(x), h), x) in elems
                           for x in range(g.order) for h in elems)
                assert is_n == s.normal

    def test_non_normal_flag(self):
        g = catalog("symmetric", 3)
        order2 = [s for s in subgroups(g) if len(s.elements) == 2]
        assert order2 and all(not s.normal for s in order2)

    def test_subgroup_from_elements_rejects_open_set(self):
        g = catalog("symmetric", 3)
        with pytest.raises(ValueError):
            subgroup_from_elements(g, [0, 1, 2])

    @pytest.mark.parametrize("elements", [[-1], [6], [0, 6], []])
    def test_subgroup_from_elements_out_of_range(self, elements):
        with pytest.raises(NotASubgroup, match="subgroup elements out of range"):
            subgroup_from_elements(catalog("symmetric", 3), elements)


class TestCenter:
    def test_q8(self):
        assert center(catalog("quaternion8")).elements == (0, 1)

    def test_abelian_is_whole_group(self):
        g = cyclic_group(6)
        assert center(g).elements == tuple(range(6))

    def test_s3_trivial_center(self):
        g = catalog("symmetric", 3)
        assert center(g).elements == (g.identity,)

    def test_center_is_normal(self, catalog16):
        for g in catalog16:
            if g.order > 12:
                continue
            z = center(g)
            assert z.normal
            # the center shows up in the normal-subgroup lattice
            assert any(set(z.elements) == set(s.elements)
                       for s in normal_subgroups(g))


class TestGroupFiles:
    def test_roundtrip(self):
        g = catalog("dihedral", 3)
        g2 = parse_group_file(format_group_file(g))
        assert np.array_equal(g.table, g2.table)

    def test_comments_and_blank_lines(self):
        text = "# a cyclic group\ngroup 2\n\n0 1  # row 0\n1 0\n"
        assert parse_group_file(text).order == 2

    @pytest.mark.parametrize("text, message", [
        ("# nothing but a comment\n", "empty group file"),
        ("group two\n0 1\n1 0\n", "first line must be 'group <n>'"),
        ("group 2\n0 1\n", "expected 2 table rows, got 1"),
        ("group 2\n0 1\n1 x\n", "non-integer entry in row: '1 x'"),
        ("group 2\n0 1\n1\n", "row has 1 entries, expected 2"),
        ("group 2\n0 1\nx\n", "non-integer entry in row: 'x'"),   # both faults
        ("group 2\n0 1\n1 1.0\n", "non-integer entry in row: '1 1.0'"),
    ])
    def test_rejects_malformed_file(self, text, message):
        with pytest.raises(FileFormatError, match=message):
            parse_group_file(text)

    def test_catalog_groups_all_validate(self, catalog16):
        for g in catalog16:
            g2 = validate_group(np.array(g.table))
            assert g2.identity == g.identity
