import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_colorings, random_diagram
from quandlekit import tangles
from quandlekit.errors import (
    DanglingArc,
    DisconnectedStrand,
    DuplicateUnderOut,
    OutputCapExceeded,
    TangleSyntaxError,
    UnknownName,
)
from quandlekit.groups import automorphisms, catalog
from quandlekit.presentation import Presentation
from quandlekit.quandles import (
    conj_quandle,
    dihedral_quandle,
    galex,
    trivial_quandle,
)
from quandlekit.tangles import (
    Crossing,
    builtin_tangle,
    check_coloring,
    enumerate_colorings,
    format_tangle,
    fundamental_quandle_presentation,
    make_diagram,
    parse_tangle,
)


def torus_tangle(k):
    """T(2, k) cut open on standard arc 0, the slow case of lowest-id
    branching.  Crossing a has over arc a and takes arc a - 1 to a + 1.
    Ids follow the under-strand from the start (the even arcs), then the
    odd ones; the end piece of arc 0 gets id k."""
    ids = {a: i for i, a in enumerate([*range(0, k, 2), *range(1, k, 2)])}
    return make_diagram(k + 1, 0, k, [
        Crossing(+1, ids[a], ids[(a - 1) % k], ids[(a + 1) % k] or k)
        for a in range(k)])


def chain_tangle(c, rng):
    """Crossing j takes arc j to j + 1 under an arc <= j; shuffled.  By
    idempotency every arc carries arc 0's color."""
    crossings = [Crossing(rng.choice((1, -1)), rng.randrange(j + 1), j, j + 1)
                 for j in range(c)]
    rng.shuffle(crossings)
    return make_diagram(c + 1, 0, c, crossings)


def best_seconds(fn, repeat=3):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


HOPF_TEXT = """\
arcs 3
start 0
end 2
crossing + 1 0 2
crossing + 2 1 1
"""


class TestParse:
    def test_hopf_file(self):
        d = parse_tangle(HOPF_TEXT)
        assert d.arc_count == 3
        assert len(d.crossings) == 2
        assert d == builtin_tangle("hopf")

    def test_roundtrip_bit_exact(self):
        for name in ("hopf", "trefoil", "unknot"):
            d = builtin_tangle(name)
            text = format_tangle(d)
            assert parse_tangle(text) == d
            assert format_tangle(parse_tangle(text)) == text

    def test_skips_comment_and_blank_lines(self):
        text = "# Hopf link\n\n" + HOPF_TEXT.replace("\n", "  # note\n\n   \n", 1)
        assert parse_tangle(text) == builtin_tangle("hopf")

    def test_syntax_error_names_line(self):
        with pytest.raises(TangleSyntaxError) as exc:
            parse_tangle("arcs 2\nstart 0\nend 1\nxing + 0 0 1\n")
        assert exc.value.line_no == 4

    def test_missing_header(self):
        with pytest.raises(TangleSyntaxError):
            parse_tangle("arcs 2\nstart 0\n")

    def test_dangling_arc(self):
        with pytest.raises(DanglingArc):
            parse_tangle("arcs 2\nstart 0\nend 1\ncrossing + 5 0 1\n")

    def test_duplicate_under_out(self):
        with pytest.raises(DuplicateUnderOut):
            make_diagram(4, 0, 3, [Crossing(1, 1, 0, 2),
                                   Crossing(1, 1, 3, 2)])

    def test_start_equals_end_with_crossing(self):
        with pytest.raises(DisconnectedStrand):
            parse_tangle("arcs 2\nstart 0\nend 0\ncrossing + 1 0 1\n")

    def test_disconnected_chain(self):
        # start arc never enters a crossing, end is elsewhere
        with pytest.raises(DisconnectedStrand):
            make_diagram(3, 0, 2, [Crossing(1, 0, 1, 2)])

    @pytest.mark.parametrize("build, error, message", [
        (lambda: make_diagram(0, 0, 0, []), DanglingArc,
         "diagram must have at least one arc"),
        (lambda: make_diagram(2, 0, 2, []), DanglingArc, "endpoint arc 2 out of range"),
        (lambda: make_diagram(3, 0, 2, [Crossing(2, 1, 0, 2)]), TangleSyntaxError,
         "line 0: bad crossing sign 2"),
        (lambda: make_diagram(3, 0, 2, [Crossing(1, 1, 2, 0)]), DisconnectedStrand,
         "start arc exits a crossing"),
        (lambda: make_diagram(3, 0, 2, [Crossing(1, 2, 0, 1), Crossing(1, 1, 0, 2)]),
         DisconnectedStrand, "arc 0 enters two crossings"),
        (lambda: make_diagram(3, 0, 0, [Crossing(1, 0, 1, 2)]), DisconnectedStrand,
         "start and end coincide on a crossed diagram"),
        (lambda: parse_tangle("arcs 2\nstart 0\nend 1\ncrossing * 0 0 1\n"),
         TangleSyntaxError, "line 4: bad sign '*'"),
        (lambda: parse_tangle("arcs two\n"), TangleSyntaxError,
         "line 1: non-integer field in 'arcs two'"),
        (lambda: enumerate_colorings(builtin_tangle("hopf"), trivial_quandle(2), "sum"),
         ValueError, "unknown mode 'sum'"),
    ])
    def test_rejections(self, build, error, message):
        with pytest.raises(error) as exc:
            build()
        assert str(exc.value) == message

    def test_empty_diagram_unknot(self):
        d = parse_tangle("arcs 1\nstart 0\nend 0\n")
        assert d.crossings == ()


class TestBuiltins:
    def test_hopf_structure(self):
        d = builtin_tangle("hopf")
        assert (d.arc_count, d.start_arc, d.end_arc) == (3, 0, 2)
        c1, c2 = d.crossings
        assert (c1.over, c1.under_in, c1.under_out) == (1, 0, 2)
        assert (c2.over, c2.under_in, c2.under_out) == (2, 1, 1)

    def test_trefoil_structure(self):
        d = builtin_tangle("trefoil")
        assert (d.arc_count, d.start_arc, d.end_arc) == (4, 0, 3)

    def test_unknown(self):
        with pytest.raises(UnknownName):
            builtin_tangle("figure8")

    def test_hopf_constraints_match_closed_form(self):
        # colorings are exactly the pairs (y, x) with x <| y = x,
        # the constraint shape used by the closed-form criterion
        q = dihedral_quandle(5)
        d = builtin_tangle("hopf")
        cols = enumerate_colorings(d, q, "list")
        got = {(c.assignment[0], c.assignment[1]) for c in cols}
        want = {(y, x) for x in range(5) for y in range(5)
                if q.op(x, y) == x}
        assert got == want

    def test_trefoil_constraints_match_closed_form(self):
        q = dihedral_quandle(5)
        d = builtin_tangle("trefoil")
        cols = enumerate_colorings(d, q, "list")
        got = {(c.assignment[0], c.assignment[1]) for c in cols}
        want = {(x, y) for x in range(5) for y in range(5)
                if q.op(q.op(x, y), x) == y}
        assert got == want
        for c in cols:
            x, y = c.assignment[0], c.assignment[1]
            assert c.assignment[2] == q.op(x, y)
            assert c.assignment[3] == q.op(y, q.op(x, y))


class TestSolver:
    @pytest.mark.parametrize("name", ["hopf", "trefoil", "unknot"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts_vs_brute_force_trivial(self, name, n):
        d = builtin_tangle(name)
        q = trivial_quandle(n)
        assert enumerate_colorings(d, q, "count") == len(brute_force_colorings(d, q))

    @pytest.mark.parametrize("name", ["hopf", "trefoil"])
    def test_counts_vs_brute_force_r3(self, name):
        d = builtin_tangle(name)
        q = dihedral_quandle(3)
        assert enumerate_colorings(d, q, "count") == len(brute_force_colorings(d, q))

    def test_list_matches_brute_force(self, random_quandles):
        for q in random_quandles[:10]:
            for name in ("hopf", "trefoil"):
                d = builtin_tangle(name)
                got = sorted(c.assignment for c in enumerate_colorings(d, q, "list"))
                assert got == sorted(brute_force_colorings(d, q))

    def test_every_listed_coloring_rechecks(self, random_quandles):
        d = builtin_tangle("trefoil")
        for q in random_quandles[:10]:
            for c in enumerate_colorings(d, q, "list"):
                assert check_coloring(d, q, c.assignment)

    def test_count_invariant_under_arc_relabeling(self):
        # permute the non-endpoint arcs of the trefoil diagram
        q = dihedral_quandle(3)
        d = builtin_tangle("trefoil")
        base = enumerate_colorings(d, q, "count")
        perm = {0: 0, 1: 2, 2: 1, 3: 3}   # swap the interior arcs
        d2 = make_diagram(4, 0, 3,
                          [Crossing(c.sign, perm[c.over], perm[c.under_in],
                                    perm[c.under_out]) for c in d.crossings])
        assert enumerate_colorings(d2, q, "count") == base

    def test_opposite_sign_inverts_constraint(self):
        # a + crossing followed by a - crossing with the same over color
        # must return the under color to its starting value
        q = dihedral_quandle(5)
        d = make_diagram(4, 0, 2, [Crossing(+1, 3, 0, 1),
                                   Crossing(-1, 3, 1, 2)])
        for c in enumerate_colorings(d, q, "list"):
            assert c.assignment[0] == c.assignment[2]

    def test_negative_crossing_uses_inverse_op(self):
        q = dihedral_quandle(5)
        d = make_diagram(3, 0, 2, [Crossing(-1, 1, 0, 2)])
        for c in enumerate_colorings(d, q, "list"):
            a = c.assignment
            assert a[2] == q.inv_op(a[0], a[1])

    def test_random_diagrams_in_brute_force_order(self, random_quandles):
        # itertools.product makes the brute-force list lexicographic, so the
        # solver's list, first witness and count must match it exactly.
        # GAlex(Z5, x -> 2x) and (x -> 3x) are not involutory: their
        # inverse tables differ from their tables.
        z5 = catalog("cyclic", 5)
        pool = random_quandles[:40] + [galex(z5, a) for a in automorphisms(z5)[1:3]]
        rng = random.Random(20261018)
        for _ in range(300):
            d = random_diagram(rng, 5)
            q = pool[rng.randrange(len(pool))]
            want = brute_force_colorings(d, q)
            got = [c.assignment for c in enumerate_colorings(d, q, "list")]
            assert got == want, (d, q.label)
            assert enumerate_colorings(d, q, "count") == len(want)
            witness = next((a for a in want if a[d.start_arc] != a[d.end_arc]),
                           None)
            v = enumerate_colorings(d, q, "admissibility")
            assert v.admissible == (witness is None)
            assert (v.witness and v.witness.assignment) == witness

    def test_check_coloring_rejects_every_single_arc_change(self):
        r5 = dihedral_quandle(5)
        z5 = catalog("cyclic", 5)
        alex = galex(z5, automorphisms(z5)[1])          # x <| y = 2x - y
        cases = [(builtin_tangle("hopf"), r5), (builtin_tangle("trefoil"), r5),
                 (make_diagram(3, 0, 2, [Crossing(-1, 1, 0, 2)]), alex)]
        for d, q in cases:
            cols = enumerate_colorings(d, q, "list")
            assert cols
            for c in cols:
                a = c.assignment
                assert check_coloring(d, q, a)
                for arc, v in itertools.product(range(d.arc_count), range(q.order)):
                    if v != a[arc]:
                        b = a[:arc] + (v,) + a[arc + 1:]
                        assert not check_coloring(d, q, b), (d, a, b)

    def test_torus_2_13_over_r9_under_a_tenth_of_a_second(self):
        d, q = torus_tangle(13), dihedral_quandle(9)
        assert enumerate_colorings(d, q, "count") == 9     # n gcd(n, k)
        assert best_seconds(lambda: enumerate_colorings(d, q, "count")) < 0.1

    def test_chain_of_1500_over_conj_s4_under_half_a_second(self):
        d = chain_tangle(1500, random.Random(7))
        q = conj_quandle(catalog("symmetric", 4))
        assert enumerate_colorings(d, q, "count") == 24
        assert best_seconds(lambda: enumerate_colorings(d, q, "count")) < 0.5

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(2, 21), n=st.integers(1, 9), c=st.integers(1, 600),
           seed=st.integers(0, 2 ** 32))
    def test_long_chains_and_torus_tangles(self, k, n, c, seed):
        q = dihedral_quandle(n)
        assert (enumerate_colorings(torus_tangle(k), q, "count")
                == n * math.gcd(n, k))              # Fox colorings of T(2, k)
        d = chain_tangle(c, random.Random(seed))
        assert ([col.assignment for col in enumerate_colorings(d, q, "list")]
                == [(v,) * (c + 1) for v in range(n)])

    def test_cell_bound_raises_before_allocating(self, monkeypatch):
        # hopf over R5 branches twice: to 3 x 5 cells, then to 3 x 25
        sizes, repeat = [], np.repeat

        def spy(a, k, axis):
            out = repeat(a, k, axis=axis)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(np, "repeat", spy)
        d, q = builtin_tangle("hopf"), dihedral_quandle(5)
        monkeypatch.setattr(tangles, "MAX_CELLS", 75)
        assert enumerate_colorings(d, q, "count") == 5
        assert sizes == [15, 75]
        sizes.clear()
        monkeypatch.setattr(tangles, "MAX_CELLS", 74)
        for mode in ("count", "list", "admissibility"):
            with pytest.raises(OutputCapExceeded, match="74 solver cells"):
                enumerate_colorings(d, q, mode)
        assert sizes == [15, 15, 15]

    def test_output_cap(self):
        d = builtin_tangle("hopf")                     # 9 colorings
        with pytest.raises(OutputCapExceeded, match="more than 8 colorings"):
            enumerate_colorings(d, trivial_quandle(3), "list", cap=8)
        assert len(enumerate_colorings(d, trivial_quandle(3), "list", cap=9)) == 9

    def test_unknot_admissible(self):
        d = builtin_tangle("unknot")
        v = enumerate_colorings(d, dihedral_quandle(3), "admissibility")
        assert v.admissible
        assert enumerate_colorings(d, dihedral_quandle(3), "count") == 3

    def test_galex_q8_trefoil_witness(self):
        g = catalog("quaternion8")
        sigma = next(a for a in automorphisms(g)
                     if a.map == (0, 1, 4, 5, 6, 7, 2, 3))
        q = galex(g, sigma)
        v = enumerate_colorings(builtin_tangle("trefoil"), q, "admissibility")
        assert not v.admissible
        a = v.witness.assignment
        assert (a[0], a[1]) == (0, 2)      # x = 1, y = i
        assert check_coloring(builtin_tangle("trefoil"), q, a)
        assert a[0] != a[3]


class TestPresentation:
    def test_unknot(self):
        p = fundamental_quandle_presentation(builtin_tangle("unknot"))
        assert p.generators == ("a0",)
        assert p.relations == ()

    def test_hopf(self):
        p = fundamental_quandle_presentation(builtin_tangle("hopf"))
        assert p.generators == ("a0", "a1", "a2")
        assert p.relations == (("a0 <| a1", "a2"), ("a1 <| a2", "a1"))
        assert p.format() == ("gen a0\ngen a1\ngen a2\n"
                              "rel a0 <| a1 = a2\nrel a1 <| a2 = a1\n")

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown generator 'a2'"):
            Presentation(("a0", "a1"), (("a0 <| a2", "a1"),), "fundamental_quandle")

    def test_trefoil(self):
        p = fundamental_quandle_presentation(builtin_tangle("trefoil"))
        assert len(p.generators) == 4
        assert len(p.relations) == 3
