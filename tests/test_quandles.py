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
    FileFormatError,
    NotASubgroup,
    NotIdempotent,
    NotNormal,
    NotSelfDistributive,
    OrderTooLarge,
    QuandleValidationError,
    SizeMismatch,
)
from quandlekit.groups import (
    MAX_TABLE_ORDER,
    Subgroup,
    _first_repeat,
    _parse_table_file,
    automorphisms,
    catalog,
    census_catalog,
    center,
    cyclic_group,
    dihedral_group,
    direct_product,
    normal_subgroups,
    parse_group_file,
    parse_group_spec,
    subgroups,
    validate_group,
)
from quandlekit.quandles import (
    _list_isomorphisms,
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
    sigma = next(a for a in automorphisms(g) if a.tolist() == [0, 1, 4, 5, 6, 7, 2, 3])
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

        def record(t, classes=None):
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

    # self_distrib_violation scans one z per distinct column, and its
    # first hit must be at the least bad z; assoc_violation scans every z.
    # These tables repeat columns, so a hit at the wrong member of its
    # class, or classes scanned out of order, show.
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
        # 8.5 s on a 2-vCPU Xeon, the distinct columns about 0.2 s and the
        # column-class certificate about 0.02 s.
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


def _columns_loop(t):
    """rep[y]: the least y' whose column equals column y, by comparing
    column byte strings."""
    first = {}
    cols = [np.ascontiguousarray(t[:, y]).tobytes() for y in range(t.shape[0])]
    return [first.setdefault(c, y) for y, c in enumerate(cols)]


def _certified(t):
    reps, rep = _kernels._column_classes(t)
    return _kernels._self_distrib_certified(t, reps, rep)


class TestSelfDistribCertificate:
    """`_self_distrib_certified` against the row-major loop: it passes only
    on self-distributive tables, on every one whose columns are bijections,
    and the kernel's first hit is the loop's either way."""

    # Every table here has order <= 16, so at the default _SLAB the
    # certificate holds it in one slab; at _SLAB 1 and 50 it also fails
    # past its first slab.
    def check(self, tables, monkeypatch):
        for slab in (_kernels._SLAB, 1, 50):
            monkeypatch.setattr(_kernels, "_SLAB", slab)
            outcomes = set()
            for t in tables:
                want = _self_distrib_loop(t.tolist())
                assert _certified(t) == (want is None), (slab, t.tolist())
                assert _kernels.self_distrib_violation(t) == want, (slab, t.tolist())
                outcomes.add(want is None)
            assert outcomes == {False, True}

    def test_all_order_3_tables_with_bijective_columns(self, monkeypatch):
        perms = list(itertools.permutations(range(3)))
        tables = [np.array(cols).T for cols in itertools.product(perms, repeat=3)]
        assert len(tables) == 216
        self.check(tables, monkeypatch)

    def test_few_permutation_columns(self, monkeypatch):
        rng = np.random.default_rng(20261019)
        tables = []
        for n in (4, 5, 6):
            for _ in range(60):
                perms = np.array([rng.permutation(n) for _ in range(rng.integers(1, 4))])
                tables.append(perms[rng.integers(len(perms), size=n)].T)
        assert all(len(set(_columns_loop(t))) < t.shape[0] for t in tables)
        self.check(tables, monkeypatch)

    def test_column_swap_mutations(self, monkeypatch):
        rng = np.random.default_rng(20261020)
        cat = census_catalog(8)
        quandle_list = [galex(g, s) for g in cat for s in automorphisms(g)[:3]]
        quandle_list += [conj_quandle(g) for g in cat]
        quandle_list += [hopf_extension(g, s) for g in cat for s in normal_subgroups(g)
                         if g.order * len(s.elements) <= 16]
        tables = []
        for q in quandle_list:
            tables.append(q.table)
            for _ in range(2 if q.order > 1 else 0):
                a, b = rng.choice(q.order, size=2, replace=False)
                t = q.table.copy()
                t[:, [a, b]] = t[:, [b, a]]
                tables.append(t)
        assert any(len(set(_columns_loop(t))) < t.shape[0] for t in tables)
        self.check(tables, monkeypatch)

    def test_class_check_alone_catches(self):
        # columns 0 and 2 are (2, 1, 3, 0), columns 1 and 3 the identity
        t = np.array([[2, 0, 2, 0], [1, 1, 1, 1], [3, 2, 3, 2], [0, 3, 0, 3]])
        reps, rep = _kernels._column_classes(t)
        assert reps.tolist() == [0, 1] and rep.tolist() == [0, 1, 0, 1]
        rows = t.tolist()
        for x, r, z in itertools.product(range(4), [0, 1], [0, 1]):
            assert rows[rows[x][r]][z] == rows[rows[x][z]][rows[r][z]]
        # but 2 <| 0 = 3 and 0 <| 0 = 2 lie in different column classes
        assert rep[t[2, 0]] != rep[t[0, 0]]
        assert not _certified(t)
        assert _kernels.self_distrib_violation(t) == (0, 2, 0)
        assert _self_distrib_loop(rows) == (0, 2, 0)

    def test_classes_match_column_bytes(self, seeded_tables, repeated_column_tables):
        # past the weight vector's length the weights repeat; still exact
        wide = (np.arange(1100)[:, None] + np.arange(1100) % 7) % 1100
        for t in seeded_tables + repeated_column_tables + [wide]:
            reps, rep = _kernels._column_classes(t)
            want = _columns_loop(t)
            assert rep.tolist() == want
            assert reps.tolist() == sorted(set(want))

    def test_colliding_hashes_fall_back_to_singletons(
            self, seeded_tables, repeated_column_tables, monkeypatch):
        tables = seeded_tables + repeated_column_tables
        want = [(_kernels.self_distrib_violation(t), _kernels.assoc_violation(t))
                for t in tables]
        monkeypatch.setattr(_kernels, "_HASH_WEIGHTS", np.zeros(1024, dtype=np.int64))
        for t, w in zip(tables, want):
            n = t.shape[0]
            reps, rep = _kernels._column_classes(t)
            if len(set(_columns_loop(t))) > 1:       # every hash is 0
                assert reps.tolist() == rep.tolist() == list(range(n))
            assert (_kernels.self_distrib_violation(t),
                    _kernels.assoc_violation(t)) == w, t.tolist()


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

    def test_only_y_equal_to_x_has_x_op_y_equal_y(self, quandle_list, class_tables):
        # x <| x = x, and x <| y = y = y <| y forces x = y as S_y is
        # injective: the count of y with 0 <| y = y is 1 on every quandle,
        # so the census dedup does not bucket by it
        for t in [q.table for q in quandle_list] + class_tables:
            assert np.array_equal(t == np.arange(len(t)), np.eye(len(t), dtype=bool))


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


# the hopf-ext quandles of the queries benchmark deck, orders 16 to 288:
# (group spec, order of the normal subgroup, None for the whole group)
DECK_HOPF = [("symmetric:4", 12), ("dihedral:12", 12), ("dihedral:8", None),
             ("cyclic:2*cyclic:4", None), ("symmetric:3", None), ("quaternion8", 2)]


@pytest.fixture(scope="module")
def class_tables():
    """Quandle tables with few distinct columns (trivial, R_n for even n,
    the deck's hopf-ext quandles) and with all columns distinct (R_n for
    odd n, Conj(S4))."""
    qs = [trivial_quandle(7), dihedral_quandle(10), dihedral_quandle(64),
          dihedral_quandle(11), dihedral_quandle(63), conj_quandle(catalog("symmetric", 4))]
    for spec, order in DECK_HOPF:
        g = parse_group_spec(spec)
        qs.append(hopf_extension(g, next(s for s in normal_subgroups(g)
                                         if s.order == (order or g.order))))
    return [np.array(q.table) for q in qs]


@pytest.mark.parametrize("collide", [False, True], ids=["hashed", "colliding"])
class TestColumnClassValidation:
    """`validate_quandle` checks and inverts one column per column class;
    the per-column computations are the oracle: `_first_repeat` over every
    column, and the scatter of `_quandle` over every entry.  With
    colliding hashes every column is its own class."""

    @staticmethod
    def weights(collide, monkeypatch):
        if collide:
            monkeypatch.setattr(_kernels, "_HASH_WEIGHTS", np.zeros(1024, dtype=np.int64))

    def test_reported_column_is_first_repeat(self, class_tables, collide, monkeypatch):
        self.weights(collide, monkeypatch)
        rng = np.random.default_rng(20261020)
        kinds = set()
        for t in class_tables:
            n, rep = t.shape[0], np.array(_columns_loop(t))
            size = np.bincount(rep, minlength=n)[rep]
            # a column in a class with several members, and one in the last class
            for kind, pool in (("shared", np.flatnonzero(size > 1)),
                               ("last", np.flatnonzero(rep == rep.max()))):
                for y in rng.choice(pool, size=min(3, pool.size), replace=False):
                    x, x2 = rng.choice(np.setdiff1d(np.arange(n), [y]), size=2, replace=False)
                    m = t.copy()
                    m[x, y] = m[x2, y]           # the diagonal stays, column y repeats
                    with pytest.raises(ColumnNotBijective) as exc:
                        validate_quandle(m)
                    assert exc.value.y == _first_repeat(m.T)[0] == y
                    kinds.add((kind, bool(rep[y] == y)))
        # the mutated column was a class's representative and a later member
        assert {k for _, k in kinds} == {True, False}
        assert {k for k, _ in kinds} == {"shared", "last"}

    def test_inverse_matches_scatter(self, class_tables, collide, monkeypatch):
        self.weights(collide, monkeypatch)
        for t in class_tables:
            q = validate_quandle(t)
            want = quandles._quandle(t.copy(), "")
            assert q.same_table(want)
            assert np.array_equal(q.inv_table, want.inv_table)
            assert not q.inv_table.flags.writeable and not q.table.flags.writeable

    def test_inverse_in_small_blocks(self, class_tables, collide, monkeypatch):
        # the inverse is built in blocks of at most _SLAB entries: here one
        # to fourteen columns or rows each, where tier-1 tables fit in one
        monkeypatch.setattr(_kernels, "_SLAB", 100)
        self.test_inverse_matches_scatter(class_tables, collide, monkeypatch)


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
        q = galex(g, range(g.order))
        assert q.same_table(trivial_quandle(6))

    def test_q8_sigma_value(self):
        g, sigma = q8_sigma()
        q = galex(g, sigma)
        # 1 <| i = sigma(-i) * i = (-j) * i = k
        assert q.op(0, 2) == 6

    def test_z4_inversion_is_dihedral(self):
        g = cyclic_group(4)
        inv_aut = next(a for a in automorphisms(g) if a.tolist() == [0, 3, 2, 1])
        q = galex(g, inv_aut)
        assert q.same_table(dihedral_quandle(4))

    def test_mismatch(self):
        # a map carries no group: only its length can disagree with g
        for g, m in [(cyclic_group(3), (0, 1)), (cyclic_group(4), range(5))]:
            with pytest.raises(AutomorphismMismatch):
                galex(g, m)

    def test_map_not_a_permutation(self):
        for m in [(0, 0, 0), (0, 1, 3), (0, 1.5, 2)]:
            with pytest.raises(ValueError, match="not a permutation"):
                galex(cyclic_group(3), m)

    def test_non_automorphism_matches_validator(self):
        """galex on a bijection that is not an automorphism does what
        validate_quandle does on the same table: the same table back, or
        the same error class with the same indices."""
        def outcome(fn):
            try:
                q = fn()
                return "ok", q.table.tolist(), q.inv_table.tolist()
            except QuandleValidationError as e:
                return type(e).__name__, str(e)

        groups = [catalog("symmetric", 3), cyclic_group(4), cyclic_group(5),
                  direct_product(cyclic_group(2), cyclic_group(2))]
        accepted = {}
        for g in groups:
            auts = set(map(tuple, automorphisms(g).tolist()))
            for perm in itertools.permutations(range(g.order)):
                if perm in auts:
                    continue
                # x <| y = sigma(x y^-1) y, one product at a time
                t = [[g.mul(perm[g.mul(x, g.inv(y))], y) for y in range(g.order)]
                     for x in range(g.order)]
                got = outcome(lambda: galex(g, perm))
                assert got == outcome(lambda: validate_quandle(t)), (g.name, perm)
                if got[0] == "ok":
                    accepted[g.name] = accepted.get(g.name, 0) + 1
        assert accepted == {"symmetric(3)": 10}

    def test_full_check_exactly_for_non_homomorphisms(self, monkeypatch):
        """galex hands validate_quandle the table of each bijection that
        fails sigma(x y) = sigma(x) sigma(y) for some pair, and no other."""
        sent = []      # GAlex(G, sigma)[x, e] = sigma(x), so a table names its map
        monkeypatch.setattr(quandles, "validate_quandle",
                            lambda t: sent.append(tuple(t[:, g.identity].tolist())))
        fails = total = 0
        for g in census_catalog(6):
            sent.clear()
            perms = list(itertools.permutations(range(g.order)))
            for perm in perms:
                galex(g, perm)
            want = [p for p in perms
                    if any(p[g.mul(x, y)] != g.mul(p[x], p[y])
                           for x in range(g.order) for y in range(g.order))]
            assert sent == want, g.name
            fails, total = fails + len(want), total + len(perms)
        assert 0 < fails < total


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

    def test_hand_built_subgroup_elements_are_checked(self):
        # a Subgroup built by hand may list its elements empty, out of
        # range, repeated or unsorted; they are ranked in sorted order, which
        # shows on the non-abelian S3 (all HopfExt(C4, N) are trivial)
        g = cyclic_group(4)
        for bad in [(0, 2, 2), (), (0, 5), (-1,)]:
            with pytest.raises(NotASubgroup, match="nonempty, in range and distinct"):
                hopf_extension(g, Subgroup(g, bad, True))
        assert hopf_extension(g, Subgroup(g, (2, 0), True)).same_table(
            hopf_extension(g, Subgroup(g, (0, 2), True)))
        s3 = catalog("symmetric", 3)
        assert hopf_extension(s3, Subgroup(s3, (4, 3, 0), True)).same_table(
            hopf_extension(s3, Subgroup(s3, (0, 3, 4), True)))

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

    @pytest.mark.parametrize("elements", [[0.5, 1], [1.0], np.array([0.0, 2.0])])
    def test_restrict_rejects_non_integer_indices(self, elements):
        # refused, not truncated; the same indices cast to an integer
        # dtype give the truncated subquandle
        q = trivial_quandle(3)
        with pytest.raises(TypeError):
            restrict(q, elements)
        cast = np.asarray(elements).astype(np.int32)
        assert restrict(q, cast).order == len(set(cast.tolist()))

    @pytest.mark.parametrize("seed", [[0.5, 1], [2.9], np.array([1.0])])
    def test_closure_rejects_non_integer_indices(self, seed):
        q = trivial_quandle(3)
        with pytest.raises(TypeError):
            subquandle_closure(q, seed)
        cast = np.asarray(seed).astype(np.int32)
        assert subquandle_closure(q, cast) == set(cast.tolist())


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

    @pytest.mark.parametrize("f, message", [
        pytest.param([0, 1, 3], "out of range", id="f0"),
        pytest.param([-1, 0, 1], "out of range", id="f1"),
        # refused by dtype, not truncated to [0, 1, 2]
        pytest.param([0, 1.9, 2.5], "must be integers", id="float"),
        pytest.param(np.array([0.0, 1.0, 2.0]), "must be integers", id="float_array"),
    ])
    def test_values_out_of_range(self, f, message):
        with pytest.raises(SizeMismatch, match=message):
            is_homomorphism(f, dihedral_quandle(3), dihedral_quandle(3))


    @pytest.mark.parametrize("f, src, dst", [
        ([0, 1], trivial_quandle(2), trivial_quandle(3)),
        ([1, 1, 1], dihedral_quandle(3), trivial_quandle(2)),
        ([0, 2, 4, 1, 3], dihedral_quandle(5), dihedral_quandle(5)),
    ])
    def test_known_homomorphisms(self, f, src, dst):
        assert is_homomorphism(f, src, dst)

    def test_every_map_between_orders_matches_loop(self):
        qs = [trivial_quandle(2), dihedral_quandle(3), trivial_quandle(3),
              dihedral_quandle(4), dihedral_quandle(5)]
        for src in qs:
            for dst in qs:
                if dst.order ** src.order > 1000:
                    continue
                for f in itertools.product(range(dst.order), repeat=src.order):
                    want = all(f[src.op(x, y)] == dst.op(f[x], f[y])
                               for x in range(src.order) for y in range(src.order))
                    assert is_homomorphism(list(f), src, dst) == want, (f, src.label, dst.label)


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


def _isomorphisms_brute(a, b):
    """Every isomorphism a -> b, in lexicographic order."""
    return [p for p in itertools.permutations(range(a.order))
            if relabel(a, list(p)).same_table(b)]


def _point_over_trivial4():
    """Order 5: trivial(4) on 1..4 plus the point 0, which every element
    fixes and which acts on 1..4 by swapping 1 and 2.  The subquandle
    generated by 1..4 leaves 0 out, so a search that pins f(0) and
    branches on 1..4 never sees S_0."""
    t = np.tile(np.arange(5)[:, None], (1, 5))
    t[1:, 0] = [2, 1, 3, 4]
    q = validate_quandle(t)
    assert subquandle_closure(q, {1, 2, 3, 4}) == {1, 2, 3, 4}
    return q


class TestPinnedSearch:
    """`quandles._list_isomorphisms` with a branch order, whose first
    element is pinned to its candidate images, and `isomorphic`, built on
    it, against permutation brute force."""

    @staticmethod
    def lists(q):
        return q.table.T.tolist()

    @pytest.fixture(scope="class")
    def pairs(self, random_quandles):
        rng = np.random.default_rng(20261020)
        pool = [q for q in random_quandles if q.order <= 5][:12]
        pool += [trivial_quandle(4), dihedral_quandle(4), _point_over_trivial4()]
        pool += [relabel(q, rng.permutation(q.order)) for q in pool]
        return [(a, b, _isomorphisms_brute(a, b))
                for a in pool for b in pool if a.order == b.order]

    def test_fixed_pair_yields_the_pinned_isomorphisms(self, pairs):
        pinned = both = 0
        for a, b, brute in pairs:
            la, lb = self.lists(a), self.lists(b)
            colors = [0] * a.order    # no pruning by color
            for x0, u in itertools.product(range(a.order), repeat=2):
                order = [x0] + [x for x in range(a.order) if x != x0]
                run = [p for p in brute if p[x0] == u]
                got = [tuple(f) for f in _list_isomorphisms(
                    la, lb, colors, colors, order, [u])]
                assert got == run
                pinned += bool(run)
                if u > 0:
                    # two candidates, descending: the f(x0) = u run comes first
                    below = [p for p in brute if p[x0] == u - 1]
                    got = [tuple(f) for f in _list_isomorphisms(
                        la, lb, colors, colors, order, [u, u - 1])]
                    assert got == run + below
                    both += bool(run and below)
        assert pinned > 100 and both > 100

    def test_shuffled_orders_yield_maps_in_order_lex_order(self, pairs):
        # seeded random branch orders: the maps with f(order[0]) among the
        # images, images in the order given, each run sorted by
        # (f(order[0]), f(order[1]), ...)
        rng = np.random.default_rng(20261020)
        found = moved = 0
        for a, b, brute in pairs:
            la, lb = self.lists(a), self.lists(b)
            colors = [0] * a.order
            for _ in range(3):
                order = rng.permutation(a.order).tolist()
                images = rng.permutation(a.order)[:2].tolist()
                want = [p for u in images for p in sorted(
                    (p for p in brute if p[order[0]] == u),
                    key=lambda p: [p[x] for x in order])]
                got = [tuple(f) for f in _list_isomorphisms(
                    la, lb, colors, colors, order, images)]
                assert got == want, (a.label, b.label, order, images)
                found += len(want) > 1
                moved += want != sorted(want)
        assert found > 100 and moved > 20

    def test_point_outside_the_branch_subquandle(self):
        q = _point_over_trivial4()
        lq = self.lists(q)
        maps = [tuple(f) for f in _list_isomorphisms(
            lq, lq, [0] * 5, [0] * 5, range(5), [0])]
        # the centralizer of the swap (1 2) in Sym({1, 2, 3, 4})
        assert maps == [(0, 1, 2, 3, 4), (0, 1, 2, 4, 3),
                        (0, 2, 1, 3, 4), (0, 2, 1, 4, 3)]

    def test_any_isomorphism_matches_brute_force(self, pairs):
        # isomorphic() finds a map exactly when some bijection is one, and
        # profiles that differ as multisets rule every bijection out
        found = 0
        for a, b, brute in pairs:
            pa, pb = quandles.invariant_profile(a), quandles.invariant_profile(b)
            if sorted(pa) != sorted(pb):
                assert brute == []
            f = isomorphic(a, b)
            assert (f is None) == (brute == [])
            if f is not None:
                # every element a candidate, ascending: the first map
                assert tuple(f) == brute[0]
                found += 1
        assert found > 50


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
    def boom(table, classes=None):
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


@pytest.mark.parametrize("perm", [[0, 1.5, 2], [0.0, 1.0, 2.0], np.array([2.0, 0.0, 1.0])])
def test_relabel_rejects_non_integer_indices(perm):
    # refused, not truncated: [0, 1.5, 2] is not the permutation [0, 1, 2]
    q = dihedral_quandle(3)
    with pytest.raises(TypeError):
        relabel(q, perm)
    assert relabel(q, np.asarray(perm).astype(np.int32)).order == 3


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
        ("quandle -1\n", "nonempty square matrix"),
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

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: trivial_quandle(0), "must be a nonempty square matrix",
                     id="trivial0"),
        pytest.param(lambda: dihedral_quandle(0), "must be a nonempty square matrix",
                     id="dihedral0"),
        pytest.param(lambda: validate_quandle(np.zeros((2, 3), dtype=np.int64)),
                     "must be a nonempty square matrix", id="quandle2x3"),
        pytest.param(lambda: validate_group(np.zeros((0, 0), dtype=np.int64)),
                     "must be a nonempty square matrix", id="group0x0"),
        # refused by dtype, not truncated to trivial(2) and Z2
        pytest.param(lambda: validate_quandle([[0, 0.9], [1.7, 1]]),
                     "entries must be integers", id="quandle_float"),
        pytest.param(lambda: validate_group([[0, 1.2], [1, 0]]),
                     "entries must be integers", id="group_float"),
        pytest.param(lambda: validate_quandle(np.eye(2, dtype=bool)),
                     "entries must be integers", id="quandle_bool"),
    ])
    def test_rejects_empty_or_nonsquare_table(self, build, message):
        with pytest.raises(FileFormatError, match=f"^table {message}$"):
            build()

    @pytest.mark.parametrize("n", [0, -1, -5])
    def test_trivial_builder_refuses_nonpositive(self, n):
        # the same typed error at every n < 1, not numpy's reshape error
        with pytest.raises(FileFormatError, match="^table must be a nonempty square matrix$"):
            trivial_quandle(n)

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

    # (lines, the table or the FileFormatError text of the clean file)
    DECORATED_CASES = [
        (["quandle 3", "0 2 1", "2 1 0", "1 0 2"], [[0, 2, 1], [2, 1, 0], [1, 0, 2]]),
        (["quandle 3", "0 2 1", "2 x 0", "1 0 2"], "non-integer entry in row: '2 x 0'"),
        (["quandle 3", "0 2 1", "2 1", "1 0 2"], "row has 2 entries, expected 3"),
        (["quandle 2", "0 0", "1 99999999999999999999"],
         "entry outside the int64 range in row: '1 99999999999999999999'"),
        (["quandle 3", "0 2 1", "2 1 0"], "expected 3 table rows, got 2"),
        (["quandle x", "0"], "first line must be 'quandle <n>'"),
    ]

    @pytest.mark.parametrize("decorate", [
        lambda ln: ln,
        lambda ln: ln + "   ",
        lambda ln: "\t" + ln + " \t",
        lambda ln: ln + "\r",                     # CRLF line ends
        lambda ln: ln + "  # note",
        lambda ln: "# note\n" + ln,
        lambda ln: " \t \n" + ln,                 # a whitespace-only line
        lambda ln: "\n" + ln + " ",                # a blank line, trailing space
    ], ids=["clean", "trailing-spaces", "tabs", "crlf", "comment", "comment-line",
            "whitespace-line", "blank-line"])
    def test_blank_lines_comments_and_outer_whitespace(self, decorate):
        """Lines with or without outer whitespace, comments and blank
        lines give the clean file's table or error text: the filter runs
        only when the text has a `#` or a blank line, and the row loop
        quotes a row stripped."""
        for lines, want in self.DECORATED_CASES:
            text = "\n".join(map(decorate, lines)) + "\n"
            if isinstance(want, str):
                with pytest.raises(FileFormatError) as exc:
                    _parse_table_file(text, "quandle")
                assert str(exc.value) == want, text
            else:
                assert _parse_table_file(text, "quandle").tolist() == want, text

    @staticmethod
    def _rows_by_int(rows, n):
        """The row loop alone: every token through int(), first bad row named."""
        table = np.empty((n, n), dtype=np.int64)
        for i, ln in enumerate(rows):
            try:
                row = np.array(ln.split(), dtype=np.int64)
            except ValueError:
                raise FileFormatError(f"non-integer entry in row: {ln!r}")
            except OverflowError:
                raise FileFormatError(f"entry outside the int64 range in row: {ln!r}")
            if row.size != n:
                raise FileFormatError(f"row has {row.size} entries, expected {n}")
            table[i] = row
        return table

    def test_rows_match_int_oracle(self):
        # tokens the C reader takes, tokens only int() takes (underscores,
        # U+0661 and U+FF11 digits, values past int64) and tokens both
        # reject ('.', 'e', NUL, stray signs); a few rows one entry off
        rng = np.random.default_rng(13)
        int_only = ["00", "0_0", "\u0661", "\uff11"]
        pieces = [[], int_only, int_only + ["+", "-", "_", ".", "e", "\x00"]]
        bounds = [2**63 - 1, 2**63, -2**63, -2**63 - 1]
        seps = [" ", "  ", "\t", "\u00a0"]

        def token(odd):
            if rng.random() < 0.05:
                return str(bounds[rng.integers(len(bounds))])
            sign = ["", "+", "-"][rng.integers(3)]
            digits = [str(d) for d in rng.integers(0, 10, rng.integers(1, 4))]
            while odd and rng.random() < 0.15:
                digits.insert(rng.integers(len(digits) + 1), odd[rng.integers(len(odd))])
            return sign + "".join(digits)

        outcomes = {"plain": 0, "int only": 0, "error": 0}
        for _ in range(3000):
            n = int(rng.integers(1, 5))
            odd = pieces[rng.integers(len(pieces))]
            rows = []
            for _ in range(n):
                k = n + int(rng.choice([-1, 1])) if rng.random() < 0.05 else n
                seq = [token(odd) for _ in range(max(k, 1))]
                ln = "".join(seps[rng.integers(len(seps))] + t for t in seq)
                rows.append(ln.strip())
            text = f"quandle {n}\n" + "\n".join(rows) + "\n"
            try:
                want = self._rows_by_int(rows, n)
            except FileFormatError as exc:
                with pytest.raises(FileFormatError) as got:
                    _parse_table_file(text, "quandle")
                assert str(got.value) == str(exc)
                outcomes["error"] += 1
                continue
            got = _parse_table_file(text, "quandle")
            assert got.dtype == np.int64 and np.array_equal(got, want)
            by_int = any(not t.isascii() or "_" in t for t in text.split())
            outcomes["int only" if by_int else "plain"] += 1
        assert min(outcomes.values()) > 100, outcomes
