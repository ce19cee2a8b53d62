import itertools

import pytest

from conftest import brute_force_colorings
from quandlekit.errors import (
    BadSetting,
    DanglingArc,
    DisconnectedStrand,
    DuplicateUnderOut,
    OutputCapExceeded,
    TangleSyntaxError,
    UnknownName,
)
from quandlekit.groups import automorphisms, catalog
from quandlekit.quandles import dihedral_quandle, galex, trivial_quandle
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

    def test_output_cap(self, monkeypatch):
        monkeypatch.setenv("QUANDLE_OUTPUT_CAP", "3")
        d = builtin_tangle("hopf")
        with pytest.raises(OutputCapExceeded):
            enumerate_colorings(d, trivial_quandle(3), "list")

    @pytest.mark.parametrize("value", ["abc", "-1", "2.5", ""])
    def test_bad_output_cap(self, monkeypatch, value):
        monkeypatch.setenv("QUANDLE_OUTPUT_CAP", value)
        d = builtin_tangle("hopf")
        with pytest.raises(BadSetting, match="QUANDLE_OUTPUT_CAP"):
            enumerate_colorings(d, trivial_quandle(3), "list")

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

    def test_trefoil(self):
        p = fundamental_quandle_presentation(builtin_tangle("trefoil"))
        assert len(p.generators) == 4
        assert len(p.relations) == 3
