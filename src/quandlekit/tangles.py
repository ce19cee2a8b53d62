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

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
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
    # The under-strand relation must chain start to end.  The chain cannot
    # repeat an arc: each arc on it after the start is the under_out of one
    # crossing (under_outs are unique), hence has one predecessor, and the
    # start arc exits no crossing.
    cur = start_arc
    while cur != end_arc:
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

MAX_CELLS = 2 ** 24     # int64 entries the solver may hold: 128 MiB


def _colorings(d, q):
    """Every coloring, as the columns of an (arc_count, colorings) int64
    array in branching order.  All columns know the same arcs.  A
    crossing with its over arc and one under arc known forces the other
    (one gather); with all three known it drops the columns that break it.
    A crossing is looked at again when one of its arcs becomes known.
    When nothing is forced, each column is repeated once per color of the
    lowest-id over arc of a crossing with a known under arc, which forces
    at once, else of the lowest unknown arc; the arcs of no crossing come
    last, in one step.  Past MAX_CELLS entries a step raises
    OutputCapExceeded before allocating, and so does the start when one
    column alone would pass it."""
    n, k = d.arc_count, q.order
    if n > MAX_CELLS:           # every coloring column holds n entries
        raise OutputCapExceeded(f"more than {MAX_CELLS} solver cells: {n} arcs")
    m = np.zeros((n, 1), dtype=np.int64)
    known = [False] * n
    touching = {}               # arc -> its crossings, for arcs in one
    for i, c in enumerate(d.crossings):
        for a in {c.over, c.under_in, c.under_out}:
            touching.setdefault(a, []).append(i)
    pending, work = set(range(len(d.crossings))), []
    crossed = sorted(touching)
    low = 0                     # the arcs crossed[:low] are known

    def learn(a):
        known[a] = True
        work.extend(touching.get(a, ()))

    def bound(reps, colors):
        if n * m.shape[1] * reps > MAX_CELLS:
            raise OutputCapExceeded(f"more than {MAX_CELLS} solver cells: {n} arcs x "
                                    f"{m.shape[1]} partial colorings x {colors} colors")

    while True:
        while work:
            i = work.pop()
            c = d.crossings[i]
            if (i not in pending or not known[c.over]
                    or not (known[c.under_in] or known[c.under_out])):
                continue
            fwd, back = (q.table, q.inv_table)[::c.sign]   # -1 swaps them
            if known[c.under_in] and known[c.under_out]:
                m = m[:, fwd[m[c.under_in], m[c.over]] == m[c.under_out]]
            elif known[c.under_in]:
                m[c.under_out] = fwd[m[c.under_in], m[c.over]]
                learn(c.under_out)
            else:
                m[c.under_in] = back[m[c.under_out], m[c.over]]
                learn(c.under_in)
            pending.discard(i)
        while low < len(crossed) and known[crossed[low]]:
            low += 1
        crossings = (d.crossings[i] for i in pending)
        arc = min((c.over for c in crossings if not known[c.over]
                   and (known[c.under_in] or known[c.under_out])),
                  default=crossed[low] if low < len(crossed) else None)
        cols = m.shape[1]
        if arc is None or cols == 0:
            break
        bound(k, k)
        m = np.repeat(m, k, axis=1)
        m[arc] = np.tile(np.arange(k), cols)
        learn(arc)
    if cols and len(crossed) < n:       # the arcs of no crossing are all unknown
        free = np.setdiff1d(np.arange(n), crossed, assume_unique=True)
        # combination j gives free[i] digit i of j in base k; reps is
        # k^len(free) exactly unless the bound is passed anyway
        reps = k ** min(len(free), MAX_CELLS.bit_length())
        bound(reps, f"{k}^{len(free)}")
        m = np.repeat(m, reps, axis=1)
        m[free] = np.tile(np.arange(reps) // k ** np.arange(len(free))[:, None] % k, cols)
    return m


def check_coloring(d, q, assignment):
    """Independent re-check of every crossing equation."""
    for c in d.crossings:
        i, o, u = assignment[c.under_in], assignment[c.over], assignment[c.under_out]
        want = q.op(i, o) if c.sign > 0 else q.inv_op(i, o)
        if u != want:
            return False
    return True


def enumerate_colorings(d: TangleDiagram, q: FiniteQuandle, mode="count"):
    """Solve the coloring constraint system.  Mode "count" returns the
    number of colorings, "list" the colorings in lexicographic order of the
    assignment (OutputCapExceeded past DEFAULT_OUTPUT_CAP, read at call
    time), and "admissibility" an AdmissibilityVerdict whose witness, if
    any, is the first of them with C(start) != C(end)."""
    if mode not in ("count", "list", "admissibility"):
        raise ValueError(f"unknown mode {mode!r}")
    m = _colorings(d, q)
    if mode == "count":
        return m.shape[1]
    if mode == "list":
        if m.shape[1] > DEFAULT_OUTPUT_CAP:
            raise OutputCapExceeded(f"more than {DEFAULT_OUTPUT_CAP} colorings")
        m = m[:, _kernels._row_keys(m.T).argsort()]
        return [Coloring(tuple(col)) for col in m.T.tolist()]
    w = m[:, m[d.start_arc] != m[d.end_arc]]    # the witnesses
    if not w.shape[1]:
        return AdmissibilityVerdict(True, None)
    first = w[:, _kernels._row_keys(w.T).argmin()]     # the least, as list sorts
    return AdmissibilityVerdict(False, Coloring(tuple(first.tolist())))


def fundamental_quandle_presentation(d: TangleDiagram):
    """One generator per arc, one relation per crossing, in diagram order.
    Past DEFAULT_OUTPUT_CAP of them, OutputCapExceeded before building any."""
    if d.arc_count + len(d.crossings) > DEFAULT_OUTPUT_CAP:
        raise OutputCapExceeded(f"more than {DEFAULT_OUTPUT_CAP} generators and relations: "
                                f"{d.arc_count} arcs and {len(d.crossings)} crossings")
    rels = tuple((f"a{c.under_in} {'<|' if c.sign > 0 else '<|~'} a{c.over}",
                  f"a{c.under_out}") for c in d.crossings)
    return Presentation(tuple(f"a{i}" for i in range(d.arc_count)), rels,
                        "fundamental_quandle")


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
