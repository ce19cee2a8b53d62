import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import _kernels, quandles
from quandlekit.criteria import census_galex
from quandlekit.errors import (
    AutomorphismMismatch,
    ClosureViolation,
    ColumnNotBijective,
    NotIdempotent,
    NotNormal,
    NotSelfDistributive,
    OrderTooLarge,
    QuandleValidationError,
    SizeMismatch,
)
from quandlekit.groups import (
    MAX_TABLE_ORDER,
    GroupAutomorphism,
    Subgroup,
    automorphisms,
    catalog,
    census_catalog,
    center,
    cyclic_group,
    dihedral_group,
    direct_product,
    identity_automorphism,
    normal_subgroups,
    parse_group_file,
    subgroups,
)
from quandlekit.quandles import (
    conj_quandle,
    dihedral_quandle,
    format_quandle_file,
    galex,
    hopf_extension,
    is_homomorphism,
    isomorphic,
    parse_quandle_file,
    relabel,
    restrict,
    subquandle_closure,
    trivial_quandle,
    validate_quandle,
)


@pytest.fixture(scope="module")
def hopf1024():
    """HopfExt(D16, D16), the order-1024 example of the README."""
    g = dihedral_group(16)
    return hopf_extension(g, Subgroup(g, tuple(range(g.order)), True))


def q8_sigma():
    g = catalog("quaternion8")
    sigma = next(a for a in automorphisms(g) if a.map == (0, 1, 4, 5, 6, 7, 2, 3))
    return g, sigma


class TestValidateQuandle:
    def test_trivial_order4(self):
        q = trivial_quandle(4)
        assert q.order == 4
        assert q.op(2, 3) == 2

    def test_r3_rows(self):
        q = dihedral_quandle(3)
        assert q.table.tolist() == [[0, 2, 1], [2, 1, 0], [1, 0, 2]]
        # brute-force axiom oracle, all 27 triples
        t = q.table
        for x, y, z in itertools.product(range(3), repeat=3):
            assert t[t[x, y], z] == t[t[x, z], t[y, z]]
        for x in range(3):
            assert t[x, x] == x
            assert sorted(t[:, x]) == [0, 1, 2]

    def test_column_not_bijective(self):
        with pytest.raises(ColumnNotBijective) as exc:
            validate_quandle([[0, 0], [0, 1]])
        assert exc.value.y == 0

    def test_not_idempotent(self):
        with pytest.raises(NotIdempotent) as exc:
            validate_quandle([[1, 0], [0, 1]])
        assert exc.value.x == 0

    def test_not_self_distributive(self):
        # columns are permutations, diagonal fixed, but distributivity fails
        t = [[0, 2, 0],
             [2, 1, 1],
             [1, 0, 2]]
        with pytest.raises(NotSelfDistributive) as exc:
            validate_quandle(t)
        assert exc.value.triple == (0, 1, 0)

    def test_leaves_caller_array_alone(self):
        b = (2 * np.arange(3)[None, :] - np.arange(3)[:, None]) % 3
        q = validate_quandle(b)
        b[0, 0] = 1                      # still writable
        assert not np.shares_memory(q.table, b)
        assert q.table[0, 0] == 0

    def test_file_validation_holds_one_table(self, monkeypatch):
        n = 512
        text = format_quandle_file(dihedral_quandle(n))
        held = []

        def record(t):
            held.append(tracemalloc.get_traced_memory()[0])
            return None

        monkeypatch.setattr(_kernels, "self_distrib_violation", record)
        tracemalloc.start()
        try:
            parse_quandle_file(text)
        finally:
            tracemalloc.stop()
        assert held[0] < 1.5 * n * n * 8          # one int64 table, not two

    def test_inverse_table(self):
        q = dihedral_quandle(5)
        for x in range(5):
            for y in range(5):
                assert q.inv_op(q.op(x, y), y) == x
                assert q.op(q.inv_op(x, y), y) == x


def _assoc_loop(t):
    n = len(t)
    for i in range(n):
        for j in range(n):
            ij = t[i][j]
            for k in range(n):
                if t[ij][k] != t[i][t[j][k]]:
                    return (i, j, k)
    return None


def _self_distrib_loop(t):
    n = len(t)
    for x in range(n):
        for y in range(n):
            xy = t[x][y]
            for z in range(n):
                if t[xy][z] != t[t[x][z]][t[y][z]]:
                    return (x, y, z)
    return None


def _hopf_loop(t):
    n = len(t)
    for x in range(n):
        for y in range(n):
            if t[x][y] == x and t[y][x] != y:
                return (x, y)
    return None


def _trefoil_loop(t):
    n = len(t)
    for x in range(n):
        for y in range(n):
            if t[t[x][y]][x] == y and t[t[y][x]][y] != x:
                return (x, y)
    return None


def dihedral_quandle_table(n):
    ar = np.arange(n)
    return (2 * ar[None, :] - ar[:, None]) % n


def cyclic_group_table(n):
    ar = np.arange(n)
    return (ar[:, None] + ar[None, :]) % n


# kernel name -> independent row-major loop giving the expected first hit
LOOP_ORACLES = {
    "assoc_violation": _assoc_loop,
    "self_distrib_violation": _self_distrib_loop,
    "hopf_witness_scan": _hopf_loop,
    "trefoil_witness_scan": _trefoil_loop,
}


class TestKernelsMatchLoops:
    """Each kernel reports exactly the first hit of the plain row-major
    loop, or None when the loop finds none."""

    @pytest.mark.parametrize("name", sorted(LOOP_ORACLES))
    def test_seeded_tables(self, name, seeded_tables):
        kernel = getattr(_kernels, name)
        for t in seeded_tables:
            assert kernel(t) == LOOP_ORACLES[name](t.tolist()), t.tolist()

    # A slab holds max(1, _SLAB // n^2) x-values.  _SLAB = 1 gives one x
    # per slab; _SLAB = 50 gives 3 for n = 4 and 2 for n = 5, so the last
    # slab is partial.  Both put many first hits past the first slab.
    @pytest.mark.parametrize("slab", [1, 50])
    @pytest.mark.parametrize("name", ["assoc_violation", "self_distrib_violation"])
    def test_seeded_tables_across_slabs(self, name, slab, seeded_tables,
                                        monkeypatch):
        monkeypatch.setattr(_kernels, "_SLAB", slab)
        kernel = getattr(_kernels, name)
        for t in seeded_tables:
            assert kernel(t) == LOOP_ORACLES[name](t.tolist()), t.tolist()

    # The cube kernels scan one z per distinct column and map the hit back
    # to the least bad z; these tables repeat columns, so a hit mapped to
    # the wrong member of its class, or classes scanned out of order, show.
    @pytest.mark.parametrize("slab", [None, 1, 50])
    @pytest.mark.parametrize("name", ["assoc_violation", "self_distrib_violation"])
    def test_repeated_columns(self, name, slab, repeated_column_tables,
                              monkeypatch):
        if slab:
            monkeypatch.setattr(_kernels, "_SLAB", slab)
        kernel = getattr(_kernels, name)
        hits = set()
        for t in repeated_column_tables:
            want = LOOP_ORACLES[name](t.tolist())
            assert kernel(t) == want, t.tolist()
            hits.add(want is not None)
        assert hits == {False, True}

    def test_order_1024_hopf_extension_under_3_seconds(self, hopf1024):
        # 1024 columns but only 32 distinct ones: column y of HopfExt(G, N)
        # depends on phi(y) alone.  A scan of all n^3 triples takes about
        # 8.5 s on a 2-vCPU Xeon, the distinct columns about 0.2 s.
        start = time.perf_counter()
        assert _kernels.self_distrib_violation(hopf1024.table) is None
        assert time.perf_counter() - start < 3

    @pytest.mark.parametrize("name,build", [
        ("self_distrib_violation", dihedral_quandle_table),
        ("assoc_violation", cyclic_group_table),
    ])
    def test_memory_bounded(self, name, build):
        # full scans (no violation); the whole n^3 cube would be ~1 GB
        table = build(400)
        tracemalloc.start()
        try:
            assert getattr(_kernels, name)(table) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_first_hit_is_first_true_in_row_major_order(self):
        rng = np.random.default_rng(9)
        for shape in [(1,), (7,), (3, 4), (2, 3, 5)]:
            for density in (0.0, 0.05, 0.5):
                mask = rng.random(shape) < density
                for m in (mask, mask.T):
                    hits = [tuple(int(v) for v in h) for h in np.argwhere(m)]
                    assert _kernels.first_hit(m) == (hits[0] if hits else None)

    def test_tables_have_hits_and_misses(self, seeded_tables):
        for oracle in LOOP_ORACLES.values():
            hits = {oracle(t.tolist()) for t in seeded_tables}
            assert None in hits and len({h[0] for h in hits - {None}}) > 1

    def test_assoc_first_violation(self):
        # i - j mod 3: (0-0)-1 = 2 but 0-(0-1) = 1
        t = np.array([[(i - j) % 3 for j in range(3)] for i in range(3)])
        assert _kernels.assoc_violation(t) == (0, 0, 1)


def _cycle_type_loop(t, y):
    """The cycle lengths of column permutation z -> t[z][y], each cycle
    walked once, with the cycle of each point."""
    n = len(t)
    cycle_of, lens = [None] * n, []
    for z in range(n):
        if cycle_of[z] is not None:
            continue
        w, length = z, 0
        while cycle_of[w] is None:
            cycle_of[w] = len(lens)
            w, length = t[w][y], length + 1
        lens.append(length)
    return lens, cycle_of


def _alexander_table(p, a):
    """Alexander quandle on Z_p: x <| y = a x + (1 - a) y."""
    ar = np.arange(p)
    return (a * ar[:, None] + (1 - a) * ar[None, :]) % p


class TestCycleLengths:
    # a is a primitive root mod p: every column of the Alexander quandle
    # is one fixed point and one cycle of length p - 1
    PRIMITIVE = [(61, 2), (101, 2), (251, 6)]

    @pytest.fixture(scope="class")
    def quandle_list(self, random_quandles, catalog16):
        out = list(random_quandles)
        out += [galex(g, s) for g in catalog16 for s in automorphisms(g)[:4]]
        out += [validate_quandle(_alexander_table(p, a)) for p, a in self.PRIMITIVE]
        return out

    def test_matches_cycle_walk(self, quandle_list):
        rng = np.random.default_rng(20261019)
        tables = [q.table for q in quandle_list]
        # random column permutations, so long and mixed cycles
        tables += [np.argsort(rng.random((n, n)), axis=0) for n in range(1, 41)]
        for t in tables:
            rows = t.tolist()
            want = np.empty(t.shape, dtype=np.int64)
            for y in range(t.shape[0]):
                lens, cycle_of = _cycle_type_loop(rows, y)
                want[:, y] = [lens[c] for c in cycle_of]
            assert np.array_equal(_kernels.cycle_lengths(t), want), rows

    @pytest.mark.parametrize("p, a", PRIMITIVE)
    def test_primitive_root_has_one_long_cycle(self, p, a):
        assert len({pow(a, k, p) for k in range(p - 1)}) == p - 1
        lens = _kernels.cycle_lengths(_alexander_table(p, a))
        assert np.array_equal(lens, np.where(np.eye(p, dtype=bool), 1, p - 1))

    def test_profile_sorts_the_cycle_type(self, quandle_list):
        # each cycle of length l contributes l entries l to the sorted column
        for q in quandle_list:
            rows = q.table.tolist()
            for x, (col, fix) in enumerate(quandles.invariant_profile(q)):
                lens, _ = _cycle_type_loop(rows, x)
                assert col == tuple(sorted(l for l in lens for _ in range(l)))
                assert fix == rows[x].count(x)


def _validate_quandle_loop(t):
    """Reference for validate_quandle on an in-range square table: the
    inverse table, or the first violation in the order the axioms are
    checked."""
    n = len(t)
    for x in range(n):
        if t[x][x] != x:
            raise NotIdempotent(x)
    for y in range(n):
        if len({t[x][y] for x in range(n)}) != n:
            raise ColumnNotBijective(y)
    hit = _self_distrib_loop(t)
    if hit:
        raise NotSelfDistributive(*hit)
    inv = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            inv[t[x][y]][y] = x
    return inv


def test_validate_quandle_matches_loop_oracle(seeded_tables):
    def outcome(validate, t):
        try:
            return validate(t)
        except QuandleValidationError as exc:
            return type(exc).__name__, str(exc)

    kinds = set()
    for t in seeded_tables:
        want = outcome(_validate_quandle_loop, t.tolist())
        got = outcome(lambda t: validate_quandle(t).inv_table.tolist(), t.tolist())
        assert got == want, t.tolist()
        kinds.add(want[0] if isinstance(want, tuple) else "ok")
    # the tables reach every check that runs before the kernel, whose
    # first hits TestKernelsMatchLoops pins
    assert kinds == {"ok", "NotIdempotent", "ColumnNotBijective"}


class TestConjQuandle:
    def test_abelian_gives_trivial(self):
        q = conj_quandle(cyclic_group(3))
        assert q.same_table(trivial_quandle(3))

    def test_s3_transpositions_closed(self):
        g = catalog("symmetric", 3)
        q = conj_quandle(g)
        perms = sorted(itertools.permutations(range(3)))
        transpositions = {i for i, p in enumerate(perms)
                          if sorted(p) == [0, 1, 2] and
                          sum(p[a] != a for a in range(3)) == 2}
        two = sorted(transpositions)[:2]
        assert subquandle_closure(q, set(two)) == transpositions

    def test_q8_center_columns_fixed(self):
        g = catalog("quaternion8")
        q = conj_quandle(g)
        for y in center(g).elements:
            assert all(q.op(x, y) == x for x in range(8))

    def test_fixed_pair_symmetry(self, catalog16):
        # in any conjugation quandle, x <| y = x implies y <| x = y
        for g in catalog16:
            q = conj_quandle(g)
            t = q.table
            ar = np.arange(q.order)
            fixed = t == ar[:, None]
            assert np.array_equal(fixed, fixed.T)


class TestGalex:
    def test_identity_automorphism_gives_trivial(self):
        g = catalog("dihedral", 3)
        q = galex(g, identity_automorphism(g))
        assert q.same_table(trivial_quandle(6))

    def test_q8_sigma_value(self):
        g, sigma = q8_sigma()
        q = galex(g, sigma)
        # 1 <| i = sigma(-i) * i = (-j) * i = k
        assert q.op(0, 2) == 6

    def test_z4_inversion_is_dihedral(self):
        g = cyclic_group(4)
        inv_aut = next(a for a in automorphisms(g) if a.map == (0, 3, 2, 1))
        q = galex(g, inv_aut)
        assert q.same_table(dihedral_quandle(4))

    def test_mismatch(self):
        g = cyclic_group(4)
        aut = identity_automorphism(cyclic_group(5))
        with pytest.raises(AutomorphismMismatch):
            galex(g, aut)

    def test_map_not_a_permutation(self):
        g = cyclic_group(3)
        with pytest.raises(ValueError, match="not a permutation"):
            galex(g, GroupAutomorphism(g, (0, 0, 0)))

    def test_non_automorphism_matches_validator(self):
        """galex on a bijection that is not an automorphism does what
        validate_quandle does on the same table: the same table back, or
        the same error class with the same indices."""
        def outcome(fn):
            try:
                return "ok", fn().table.tolist()
            except QuandleValidationError as e:
                return type(e).__name__, str(e)

        groups = [catalog("symmetric", 3), cyclic_group(4), cyclic_group(5),
                  direct_product(cyclic_group(2), cyclic_group(2))]
        accepted = {}
        for g in groups:
            auts = {a.map for a in automorphisms(g)}
            for perm in itertools.permutations(range(g.order)):
                if perm in auts:
                    continue
                # x <| y = sigma(x y^-1) y, one product at a time
                t = [[g.mul(perm[g.mul(x, g.inv(y))], y) for y in range(g.order)]
                     for x in range(g.order)]
                sigma = GroupAutomorphism(g, perm)
                got = outcome(lambda: galex(g, sigma))
                assert got == outcome(lambda: validate_quandle(t)), (g.name, perm)
                if got[0] == "ok":
                    accepted[g.name] = accepted.get(g.name, 0) + 1
        assert accepted == {"symmetric(3)": 10}


def _hopf_extension_loop(g, n):
    """Reference for hopf_extension's table: one group product at a time,
    entries in row-major order."""
    nelems = list(n.elements)
    rank = {v: r for r, v in enumerate(nelems)}
    nsize = len(nelems)
    mul = g.mul
    table = [[0] * (g.order * nsize) for _ in range(g.order * nsize)]
    for g1 in range(g.order):
        for r1, n1 in enumerate(nelems):
            a = mul(g1, n1)
            for g2 in range(g.order):
                for r2, n2 in enumerate(nelems):
                    b = mul(g2, n2)
                    # c |-> b^-1 a c a^-1 b
                    pre, post = mul(g.inv(b), a), mul(g.inv(a), b)
                    first = mul(mul(pre, g1), post)
                    second = mul(mul(pre, n1), post)
                    if second not in rank:
                        raise ClosureViolation(
                            f"second coordinate {second} left the subgroup")
                    table[g1 * nsize + r1][g2 * nsize + r2] = \
                        first * nsize + rank[second]
    return table


class TestHopfExtension:
    def test_matches_loop_oracle(self):
        for g in census_catalog(8):
            for n in normal_subgroups(g):
                assert hopf_extension(g, n).table.tolist() == \
                    _hopf_extension_loop(g, n), (g.name, n.elements)

    def test_non_normal_flagged_normal_leaves_subgroup(self):
        g = catalog("symmetric", 3)
        with pytest.raises(ClosureViolation,
                           match="^second coordinate 5 left the subgroup$"):
            hopf_extension(g, Subgroup(g, (0, 1), True))

    def test_closure_violation_matches_loop_oracle(self):
        seen = 0
        for g in census_catalog(8):
            for s in subgroups(g):
                if s.normal:
                    continue
                flagged = Subgroup(g, s.elements, True)
                with pytest.raises(ClosureViolation) as want:
                    _hopf_extension_loop(g, flagged)
                with pytest.raises(ClosureViolation) as got:
                    hopf_extension(g, flagged)
                assert str(got.value) == str(want.value)
                seen += 1
        assert seen == 10

    def test_z2_z2_trivial(self):
        g = cyclic_group(2)
        full = next(s for s in normal_subgroups(g) if len(s.elements) == 2)
        q = hopf_extension(g, full)
        assert q.order == 4
        assert q.same_table(trivial_quandle(4))

    def test_s3_a3_order18(self):
        g = catalog("symmetric", 3)
        a3 = next(s for s in normal_subgroups(g) if len(s.elements) == 3)
        q = hopf_extension(g, a3)
        assert q.order == 18
        # axioms re-checked by brute force
        t = q.table
        for x, y, z in itertools.product(range(0, 18, 5), range(18), range(18)):
            assert t[t[x, y], z] == t[t[x, z], t[y, z]]

    def test_s3_s3_proof_witness_pair(self):
        g = catalog("symmetric", 3)
        full = next(s for s in normal_subgroups(g) if len(s.elements) == 6)
        q = hopf_extension(g, full)
        perms = sorted(itertools.permutations(range(3)))
        A = perms.index((1, 0, 2))    # swap 0,1
        B = perms.index((2, 1, 0))    # swap 0,2
        x = 0                         # (e, e)
        y = A * 6 + B                 # (A, B)
        assert q.op(x, y) == x
        assert q.op(y, x) != y

    def test_order_bound(self, hopf1024):
        assert hopf1024.order == MAX_TABLE_ORDER
        g = cyclic_group(33)                  # 33 * 33 = 1089
        with pytest.raises(OrderTooLarge, match="order 1089 exceeds bound 1024"):
            hopf_extension(g, Subgroup(g, tuple(range(33)), True))

    def test_not_normal(self):
        g = catalog("symmetric", 3)
        bad = next(s for s in subgroups(g) if len(s.elements) == 2)
        with pytest.raises(NotNormal):
            hopf_extension(g, bad)

    def test_subgroup_of_another_group(self):
        # all of Z6, normal there; as an element set it is all of S3 too
        full = normal_subgroups(cyclic_group(6))[-1]
        with pytest.raises(NotNormal, match="not over the given group"):
            hopf_extension(catalog("symmetric", 3), full)


class TestSubquandleClosure:
    def test_trivial_singleton(self):
        assert subquandle_closure(trivial_quandle(4), {1}) == {1}

    def test_r3_pair(self):
        assert subquandle_closure(dihedral_quandle(3), {0, 1}) == {0, 1, 2}

    def test_empty_seed(self):
        with pytest.raises(ValueError, match="^seed must be nonempty$"):
            subquandle_closure(dihedral_quandle(4), set())

    @pytest.mark.parametrize("seed", [{-1}, {4}, {0, 4}])
    def test_out_of_range_seed(self, seed):
        with pytest.raises(ValueError, match="seed elements out of range"):
            subquandle_closure(dihedral_quandle(4), seed)

    def test_closure_revalidates(self, catalog16):
        for g in catalog16:
            if g.order > 8:
                continue
            q = conj_quandle(g)
            for x in range(q.order):
                sub = subquandle_closure(q, {x})
                validate_quandle(np.array(restrict(q, sub).table))

    @pytest.mark.parametrize("elements", [[], [-1, 2], [0, 3]])
    def test_restrict_out_of_range(self, elements):
        with pytest.raises(ValueError, match="nonempty subset of the elements"):
            restrict(dihedral_quandle(3), elements)

    def test_restrict_not_closed(self):
        with pytest.raises(ValueError, match=r"not closed under <\|"):
            restrict(dihedral_quandle(3), [0, 1])


class TestHomomorphisms:
    def test_identity(self):
        q = dihedral_quandle(3)
        assert is_homomorphism([0, 1, 2], q, q)

    def test_constant(self):
        q = dihedral_quandle(3)
        assert is_homomorphism([1, 1, 1], q, q)

    def test_collapsing_map_not_hom(self):
        # f(1 <| 2) = f(0) = 0 but f(1) <| f(2) = 0 <| 1 = 2
        q = dihedral_quandle(3)
        assert not is_homomorphism([0, 0, 1], q, q)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            is_homomorphism([0, 1], dihedral_quandle(3), dihedral_quandle(3))

    @pytest.mark.parametrize("f", [[0, 1, 3], [-1, 0, 1]])
    def test_values_out_of_range(self, f):
        with pytest.raises(SizeMismatch, match="out of range"):
            is_homomorphism(f, dihedral_quandle(3), dihedral_quandle(3))


class TestIsomorphic:
    def test_relabeled_r3(self):
        q = dihedral_quandle(3)
        q2 = relabel(q, [1, 2, 0])
        m = isomorphic(q, q2)
        assert m is not None
        assert is_homomorphism(m, q, q2)
        assert sorted(m) == [0, 1, 2]

    def test_r3_vs_trivial(self):
        assert isomorphic(dihedral_quandle(3), trivial_quandle(3)) is None

    def test_different_orders(self):
        assert isomorphic(dihedral_quandle(3), trivial_quandle(4)) is None

    def test_reflexive_and_symmetric(self, random_quandles):
        for q in random_quandles[:20]:
            m = isomorphic(q, q)
            assert m is not None
            q2 = relabel(q, list(reversed(range(q.order))))
            fwd = isomorphic(q, q2)
            assert fwd is not None
            inv = [0] * q.order
            for i, v in enumerate(fwd):
                inv[v] = i
            assert is_homomorphism(inv, q2, q)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_agrees_with_exhaustive_search(self, n, random_quandles):
        pool = [q for q in random_quandles if q.order == n][:4]
        pool.append(trivial_quandle(n))
        pool.append(dihedral_quandle(n))
        for a, b in itertools.combinations_with_replacement(pool, 2):
            # p is an isomorphism a -> relabel(a, p); the first in
            # lexicographic order is the one isomorphic returns
            first = next((list(p) for p in itertools.permutations(range(n))
                          if relabel(a, list(p)).same_table(b)), None)
            assert isomorphic(a, b) == first


class TestConstructorsValidate:
    """Independent oracle for the constructors that skip the axiom check:
    the full validator, run on a fresh copy of each output, agrees."""

    @staticmethod
    def check(q):
        v = validate_quandle(np.array(q.table))
        assert np.array_equal(v.inv_table, q.inv_table), q.label

    def test_all_catalog_constructions_pass(self, catalog16):
        hopf = 0
        for g in catalog16:
            self.check(conj_quandle(g))
            for aut in automorphisms(g):
                self.check(galex(g, aut))
            for n in normal_subgroups(g):
                self.check(hopf_extension(g, n))
                hopf += 1
        assert hopf == 190

    def test_families_and_subquandles_pass(self, catalog16):
        rng = np.random.default_rng(20261018)
        pool = [f(n) for n in range(1, 65)
                for f in (trivial_quandle, dihedral_quandle)]
        for g in catalog16:
            q = conj_quandle(g)
            pool += [restrict(q, subquandle_closure(q, {x}))
                     for x in range(q.order)]
        for q in pool:
            self.check(q)
            self.check(relabel(q, rng.permutation(q.order)))


def test_fast_path_skips_self_distributivity_scan(monkeypatch):
    """Constructors proven by algebra never reach the n^3 scan; file and
    validator input still does."""
    def boom(table):
        raise AssertionError("self_distrib_violation called")

    monkeypatch.setattr(quandles._kernels, "self_distrib_violation", boom)
    for dedup in (False, True):
        census_galex(24, dedup=dedup)
    g = catalog("symmetric", 3)
    q = conj_quandle(g)
    for n in normal_subgroups(g):
        hopf_extension(g, n)
    trivial_quandle(5)
    dihedral_quandle(6)
    restrict(q, subquandle_closure(q, {3}))
    relabel(q, list(reversed(range(q.order))))
    with pytest.raises(AssertionError, match="self_distrib_violation"):
        parse_quandle_file(format_quandle_file(q))
    with pytest.raises(AssertionError, match="self_distrib_violation"):
        validate_quandle(np.array(q.table))


@pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1], [1, 2, 3]])
def test_relabel_rejects_non_permutation(perm):
    with pytest.raises(ValueError, match="not a permutation"):
        relabel(dihedral_quandle(3), perm)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.randoms())
def test_relabel_preserves_validity(n, rnd):
    q = dihedral_quandle(n)
    p = list(range(n))
    rnd.shuffle(p)
    q2 = relabel(q, p)
    validate_quandle(np.array(q2.table))
    assert isomorphic(q, q2) is not None


class TestQuandleFiles:
    def test_roundtrip(self):
        q = dihedral_quandle(5)
        q2 = parse_quandle_file(format_quandle_file(q))
        assert q.same_table(q2)

    def test_comment_lines(self):
        q = parse_quandle_file("# R3\nquandle 3\n0 2 1\n2 1 0\n1 0 2\n")
        assert q.same_table(dihedral_quandle(3))

    def test_bad_header(self):
        from quandlekit.errors import FileFormatError
        with pytest.raises(FileFormatError):
            parse_quandle_file("group 3\n0 0 0\n")

    @pytest.mark.parametrize("text, message", [
        ("quandle 0\n", "nonempty square matrix"),
        ("quandle 2\n0 5\n1 1\n", "entries must lie in 0..1"),
        ("quandle 2\n0 0\n1 99999999999999999999\n",
         "entry outside the int64 range in row: '1 99999999999999999999'"),
        ("quandle 2\n0 0\n1 -9223372036854775809\n",
         "entry outside the int64 range in row: '1 -9223372036854775809'"),
    ])
    def test_rejects_bad_table(self, text, message):
        from quandlekit.errors import FileFormatError
        with pytest.raises(FileFormatError, match=message):
            parse_quandle_file(text)

    def test_order_bound(self, hopf1024):
        assert parse_quandle_file(format_quandle_file(hopf1024)).same_table(hopf1024)
        # rejected from the header alone, before the row count is checked
        for parse, kind in [(parse_quandle_file, "quandle"), (parse_group_file, "group")]:
            with pytest.raises(OrderTooLarge, match=f"{kind} order 1025 exceeds bound 1024"):
                parse(f"{kind} {MAX_TABLE_ORDER + 1}\n0\n")

    def test_rows_parse_as_int(self):
        # a token is read as int() reads it: signs, zero padding,
        # underscores and Unicode digits (U+0661 is ARABIC-INDIC DIGIT ONE)
        q = parse_quandle_file("quandle 2\n+0 0_0\n\u0661 01\n")
        assert q.same_table(trivial_quandle(2))
