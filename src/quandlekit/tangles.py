"""(1,1)-tangle diagrams and the coloring constraint solver.

A diagram is purely algebraic data: arcs are integer ids, each crossing
relates three of them.  The crossing sign selects which operation carries
the under-strand color:

    sign +1:  under_out = under_in <|  over
    sign -1:  under_out = under_in <|~ over

No geometry, planarity, or Reidemeister machinery is involved; any
constraint system in this shape is accepted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import (
    BadSetting,
    DanglingArc,
    DisconnectedStrand,
    DuplicateUnderOut,
    OutputCapExceeded,
    TangleSyntaxError,
    UnknownName,
)
from .presentation import Presentation
from .quandles import FiniteQuandle

DEFAULT_OUTPUT_CAP = 10 ** 6


@dataclass(frozen=True)
class Crossing:
    sign: int
    over: int
    under_in: int
    under_out: int


@dataclass(frozen=True)
class TangleDiagram:
    arc_count: int
    start_arc: int
    end_arc: int
    crossings: tuple


@dataclass(frozen=True)
class Coloring:
    assignment: tuple


@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    witness: Coloring | None


def make_diagram(arc_count, start_arc, end_arc, crossings):
    """Build and structurally validate a diagram."""
    crossings = tuple(crossings)
    if arc_count < 1:
        raise DanglingArc("diagram must have at least one arc")
    for a in (start_arc, end_arc):
        if not 0 <= a < arc_count:
            raise DanglingArc(f"endpoint arc {a} out of range")
    for c in crossings:
        if c.sign not in (1, -1):
            raise TangleSyntaxError(0, f"bad crossing sign {c.sign}")
        for a in (c.over, c.under_in, c.under_out):
            if not 0 <= a < arc_count:
                raise DanglingArc(f"arc {a} out of range")
    seen_out = set()
    for c in crossings:
        if c.under_out in seen_out:
            raise DuplicateUnderOut(f"arc {c.under_out} exits two crossings")
        seen_out.add(c.under_out)
    if start_arc in seen_out:
        raise DisconnectedStrand("start arc exits a crossing")
    under_in_of = {}
    for c in crossings:
        if c.under_in in under_in_of:
            raise DisconnectedStrand(f"arc {c.under_in} enters two crossings")
        under_in_of[c.under_in] = c
    if end_arc in under_in_of:
        raise DisconnectedStrand("end arc enters a crossing")
    if crossings and start_arc == end_arc:
        raise DisconnectedStrand("start and end coincide on a crossed diagram")
    # the under-strand relation must chain start to end
    cur, visited = start_arc, set()
    while cur != end_arc:
        if cur in visited:
            raise DisconnectedStrand("under-strand chain loops before the end arc")
        visited.add(cur)
        c = under_in_of.get(cur)
        if c is None:
            raise DisconnectedStrand(f"under-strand chain dead-ends at arc {cur}")
        cur = c.under_out
    return TangleDiagram(arc_count, start_arc, end_arc, crossings)


def builtin_tangle(name):
    """The canonical (1,1)-tangles cut from the Hopf link, the trefoil,
    and the unknot."""
    if name == "hopf":
        return make_diagram(3, 0, 2, [
            Crossing(+1, over=1, under_in=0, under_out=2),
            Crossing(+1, over=2, under_in=1, under_out=1),
        ])
    if name == "trefoil":
        return make_diagram(4, 0, 3, [
            Crossing(+1, over=1, under_in=0, under_out=2),
            Crossing(+1, over=0, under_in=2, under_out=1),
            Crossing(+1, over=2, under_in=1, under_out=3),
        ])
    if name == "unknot":
        return make_diagram(1, 0, 0, [])
    raise UnknownName(f"unknown builtin tangle {name!r}")


# -- solver -------------------------------------------------------------------

def _propagate(d, q, assign):
    """Run crossing constraints to a fixed point.  Returns False on
    conflict.  Forced colors come from a colored (under_in, over) pair, or
    backward from a colored (under_out, over) pair."""
    changed = True
    while changed:
        changed = False
        for c in d.crossings:
            o = assign[c.over]
            if o < 0:
                continue
            i = assign[c.under_in]
            u = assign[c.under_out]
            if i >= 0:
                val = q.op(i, o) if c.sign > 0 else q.inv_op(i, o)
                if u < 0:
                    assign[c.under_out] = val
                    changed = True
                elif u != val:
                    return False
            elif u >= 0:
                val = q.inv_op(u, o) if c.sign > 0 else q.op(u, o)
                assign[c.under_in] = val
                changed = True
    return True


def _colorings(d, q):
    """Yield all colorings, deterministically: free arcs are branched in
    increasing id order with values ascending, forced arcs propagated."""
    n = d.arc_count

    def rec(assign):
        a = list(assign)
        if not _propagate(d, q, a):
            return
        free = next((x for x in range(n) if a[x] < 0), None)
        if free is None:
            yield Coloring(tuple(a))
            return
        for v in range(q.order):
            a[free] = v
            yield from rec(a)
        a[free] = -1

    yield from rec([-1] * n)


def check_coloring(d, q, assignment):
    """Independent re-check of every crossing equation."""
    for c in d.crossings:
        i, o, u = assignment[c.under_in], assignment[c.over], assignment[c.under_out]
        want = q.op(i, o) if c.sign > 0 else q.inv_op(i, o)
        if u != want:
            return False
    return True


def _output_cap():
    raw = os.environ.get("QUANDLE_OUTPUT_CAP")
    if raw is None:
        return DEFAULT_OUTPUT_CAP
    try:
        cap = int(raw)
        if cap >= 0:
            return cap
    except ValueError:
        pass
    raise BadSetting(
        f"QUANDLE_OUTPUT_CAP must be a non-negative integer, got {raw!r}")


def enumerate_colorings(d: TangleDiagram, q: FiniteQuandle, mode="count", cap=None):
    """Solve the coloring constraint system.

    mode "count"        -> number of colorings
    mode "list"         -> list of Coloring (capped; OutputCapExceeded beyond)
    mode "admissibility"-> AdmissibilityVerdict; the witness, if any, is the
                           first coloring with C(start) != C(end) in
                           free-variable assignment order
    """
    if mode == "count":
        return sum(1 for _ in _colorings(d, q))
    if mode == "list":
        if cap is None:
            cap = _output_cap()
        out = []
        for col in _colorings(d, q):
            if len(out) >= cap:
                raise OutputCapExceeded(f"more than {cap} colorings")
            out.append(col)
        return out
    if mode == "admissibility":
        for col in _colorings(d, q):
            if col.assignment[d.start_arc] != col.assignment[d.end_arc]:
                return AdmissibilityVerdict(False, col)
        return AdmissibilityVerdict(True, None)
    raise ValueError(f"unknown mode {mode!r}")


def fundamental_quandle_presentation(d: TangleDiagram):
    """One generator per arc, one relation per crossing, in diagram order."""
    gens = tuple(f"a{i}" for i in range(d.arc_count))
    rels = []
    for c in d.crossings:
        op = "<|" if c.sign > 0 else "<|~"
        rels.append((f"a{c.under_in} {op} a{c.over}", f"a{c.under_out}"))
    return Presentation(generators=gens, relations=tuple(rels),
                        kind="fundamental_quandle")


# -- file format --------------------------------------------------------------

def parse_tangle(text):
    """Line-oriented tangle format:

        arcs <n>
        start <id>
        end <id>
        crossing <+|-> <over> <under_in> <under_out>   (zero or more)

    `#` starts a comment."""
    arcs = start = end = None
    crossings = []
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        ln = raw.split("#")[0].strip()
        if not ln:
            continue
        parts = ln.split()
        key = parts[0]
        try:
            if key == "arcs" and len(parts) == 2:
                arcs = int(parts[1])
            elif key == "start" and len(parts) == 2:
                start = int(parts[1])
            elif key == "end" and len(parts) == 2:
                end = int(parts[1])
            elif key == "crossing" and len(parts) == 5:
                if parts[1] not in ("+", "-"):
                    raise TangleSyntaxError(ln_no, f"bad sign {parts[1]!r}")
                sign = 1 if parts[1] == "+" else -1
                crossings.append(Crossing(sign, int(parts[2]), int(parts[3]),
                                          int(parts[4])))
            else:
                raise TangleSyntaxError(ln_no, f"unrecognized line {ln!r}")
        except ValueError:
            raise TangleSyntaxError(ln_no, f"non-integer field in {ln!r}")
    if arcs is None or start is None or end is None:
        raise TangleSyntaxError(0, "missing arcs/start/end header")
    return make_diagram(arcs, start, end, crossings)


def format_tangle(d: TangleDiagram):
    out = [f"arcs {d.arc_count}", f"start {d.start_arc}", f"end {d.end_arc}"]
    for c in d.crossings:
        s = "+" if c.sign > 0 else "-"
        out.append(f"crossing {s} {c.over} {c.under_in} {c.under_out}")
    return "\n".join(out) + "\n"
