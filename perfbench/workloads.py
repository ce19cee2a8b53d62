"""Workload inputs and output oracles.

Every op is one call of the in-process CLI entry point
`quandlekit.cli.main(argv)`.  A workload is a list of ops (one pass); the
benchmark repeats passes for the run's duration.

- census-dedup: `census --max-order 16 --dedup`, one op per pass, worth
  784 records.  The only workload that calls `quandles.isomorphic`.
- census-raw: `census --max-order 48`, one op per pass, worth 4232
  records.  Many small tables: galex + validation + automorphisms.
- queries: a seeded deck of `check` / `color` calls over quandle and
  tangle files written during set-up.  The only workload that runs the
  tangle solver and the file loader.

Oracles use a path other than the one measured: frozen class counts,
closed-form coloring counts, the solver for `check` verdicts, the witness
predicates for solver verdicts, and `Witness.holds_in` / `check_coloring`
re-checks of every witness.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

import numpy as np

from quandlekit import cli, groups, quandles, tangles
from quandlekit.criteria import Witness, hopf_witness, trefoil_witness

# Quandle order -> isomorphism classes over the census catalog at max
# order 16; the same frozen values as the acceptance suite.
CENSUS_CLASSES_MAX16 = {
    1: 1, 2: 1, 3: 2, 4: 3, 5: 4, 6: 3, 7: 6, 8: 9,
    9: 5, 10: 5, 11: 10, 12: 11, 13: 12, 14: 7, 15: 8, 16: 19,
}
CENSUS_RAW_RECORDS = {16: 784, 48: 4232}
CENSUS_HEADER = ("#group_name\tgroup_order\tautomorphism_index\tquandle_order\t"
                 "isomorphism_class_representative\thopf_admissible\t"
                 "trefoil_admissible")

DECK_FILE = "deck.json"


def call_cli(argv):
    """(exit code, stdout) of one in-process CLI call, outside the timed
    passes."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# -- census -------------------------------------------------------------------

def _census_rows(out):
    lines = out.splitlines()
    if not lines or lines[0] != CENSUS_HEADER:
        raise AssertionError("census header differs")
    return [ln.split("\t") for ln in lines[1:]]


def census_ops(workload):
    if workload == "census-dedup":
        return [{"argv": ["census", "--max-order", "16", "--dedup"],
                 "weight": CENSUS_RAW_RECORDS[16], "oracle": {"kind": "dedup16"}}]
    return [{"argv": ["census", "--max-order", "48"],
             "weight": CENSUS_RAW_RECORDS[48], "oracle": {"kind": "raw48"}}]


def check_census(oracle, rc, out):
    """Raise AssertionError unless a census output is correct."""
    assert rc == 0, f"exit code {rc}"
    rows = _census_rows(out)
    if oracle["kind"] == "dedup16":
        per_order = {}
        for r in rows:
            per_order[int(r[3])] = per_order.get(int(r[3]), 0) + 1
        assert per_order == CENSUS_CLASSES_MAX16, f"class counts {per_order}"
        assert all(r[4] == "True" for r in rows), "non-representative row"
        keys = [(int(r[1]), r[0], int(r[2])) for r in rows]
        assert keys == sorted(keys), "rows out of census order"
    else:
        assert len(rows) == CENSUS_RAW_RECORDS[48], f"{len(rows)} rows"
        # GAlex quandles are always Hopf-admissible.
        assert all(r[5] == "True" for r in rows), "hopf_admissible=False row"
        assert all(int(r[1]) <= 48 for r in rows), "group order above 48"


def census_preflight(workload):
    """The dedup workload promises 784 raw records behind its 106 classes;
    check that once per run on the raw census."""
    if workload != "census-dedup":
        return
    rc, out = call_cli(["census", "--max-order", "16"])
    assert rc == 0 and len(_census_rows(out)) == CENSUS_RAW_RECORDS[16], \
        "raw census at max order 16 is not 784 records"


# -- queries: set-up ------------------------------------------------------------

# (file stem, group, normal subgroup): the subgroup is "full" or its order,
# resolved to element indices at set-up.
HOPF_EXT = [
    ("hx-s4-a4", "symmetric:4", 12),       # order 288
    ("hx-d12-c12", "dihedral:12", 12),     # order 288
    ("hx-d8", "dihedral:8", "full"),       # order 256
    ("hx-c2c4", "cyclic:2*cyclic:4", "full"),  # order 64
    ("hx-s3", "symmetric:3", "full"),      # order 36
    ("hx-q8-z2", "quaternion8", 2),        # order 16
]
GALEX_GROUPS = ["quaternion8", "dihedral:5", "alternating:4", "symmetric:4",
                "cyclic:2*cyclic:4", "generalized_quaternion16", "dihedral:6"]
CONJ_GROUPS = ["symmetric:4", "dihedral:6", "quaternion8", "alternating:4"]
DIHEDRAL_ORDERS = [3, 5, 7, 9, 15]
# Torus tail (k, n): torus(2, k) over R_n.  Lowest-id branching makes the
# solver cost grow about n^(k/2); these finish, larger ones do not.
TORUS = [(7, 9), (9, 9), (11, 9), (11, 5), (13, 5), (15, 3), (19, 3), (21, 3)]
# Long chains (crossings, quandle file, mode).
CHAINS = [(150, "dihedral-3", "count"), (300, "conj-quaternion8", "count"),
          (450, "dihedral-5", "admissible"), (300, "galex-quaternion8", "admissible"),
          (450, "conj-quaternion8", "admissible"), (200, "dihedral-7", "count")]


def _normal_indices(spec, order):
    g = groups.parse_group_spec(spec)
    if order == "full":
        return "full"
    sub = next(s for s in groups.normal_subgroups(g) if s.order == order)
    return ",".join(str(x) for x in sub.elements)


def torus_tangle(k):
    """(1,1)-tangle of the torus link T(2, k), cut open on one arc.

    Standard arcs a_0..a_{k-1}; crossing i has over-arc a_i and under-strand
    a_{i-1} -> a_{i+1}.  a_0 is cut before crossing 0: the start piece
    passes over crossing 0, the end piece (id k) leaves crossing k-1.  Arc
    ids follow the under-strand from the start, then the second component
    when k is even."""
    order, seen, j = [], set(), 0
    while j not in seen:
        order.append(j)
        seen.add(j)
        j = (j + 2) % k
    order += [a for a in range(k) if a not in seen]
    ids = {a: pos for pos, a in enumerate(order)}
    crossings = []
    for i in range(k):
        out = k if (i + 1) % k == 0 else ids[(i + 1) % k]
        crossings.append(("+", ids[i], ids[(i - 1) % k], out))
    return k + 1, ids[0], k, crossings


def chain_tangle(c, rng):
    """Arcs 0..c along the under-strand; crossing j takes arc j to j+1
    under an earlier arc, crossings listed in shuffled order.  Every arc is
    forced from arc 0, and by idempotency all carry arc 0's color."""
    crossings = [(rng.choice("+-"), rng.randrange(j + 1), j, j + 1)
                 for j in range(c)]
    rng.shuffle(crossings)
    return c + 1, 0, c, crossings


def _write_tangle(path, tangle):
    arcs, start, end, crossings = tangle
    lines = [f"arcs {arcs}", f"start {start}", f"end {end}"]
    lines += [f"crossing {s} {o} {i} {u}" for s, o, i, u in crossings]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def setup_queries(outdir, seed):
    """Write the quandle and tangle files and the deck of queries."""
    rng = random.Random(seed)
    os.makedirs(outdir, exist_ok=True)
    qfiles, orders = {}, {}

    def construct(stem, argv):
        path = os.path.join(outdir, stem + ".txt")
        rc, _ = call_cli(["construct", *argv, "-o", path])
        if rc != 0:
            raise RuntimeError(f"construct {argv} exited {rc}")
        with open(path) as f:
            orders[stem] = int(f.readline().split()[1])
        qfiles[stem] = path

    for stem, spec, normal in HOPF_EXT:
        construct(stem, ["hopf-ext", "--group", spec,
                         "--normal", _normal_indices(spec, normal)])
    for spec in GALEX_GROUPS:
        n_aut = len(groups.automorphisms(groups.parse_group_spec(spec)))
        construct(f"galex-{spec.replace('*', 'x').replace(':', '')}",
                  ["galex", "--group", spec, "--aut", str(rng.randrange(n_aut))])
    for spec in CONJ_GROUPS:
        construct(f"conj-{spec.replace(':', '')}", ["conj", "--group", spec])
    for n in DIHEDRAL_ORDERS:
        construct(f"dihedral-{n}", ["catalog-quandle", "--name", f"dihedral:{n}"])

    deck = []

    def add(argv, **oracle):
        deck.append({"argv": argv, "weight": 1, "oracle": oracle})

    for stem, path in qfiles.items():
        for kind in ("hopf", "trefoil"):
            add(["check", kind, "--quandle", path], kind="check", knot=kind,
                quandle=path)
            add(["color", "--tangle", f"builtin:{kind}", "--quandle", path,
                 "--admissible"], kind="admissible", knot=kind, quandle=path)
            if orders[stem] <= 36:
                add(["color", "--tangle", f"builtin:{kind}", "--quandle", path,
                     "--count"], kind="count", knot=kind, quandle=path)
    for k, n in TORUS:
        path = os.path.join(outdir, f"torus-2-{k}.tangle")
        _write_tangle(path, torus_tangle(k))
        add(["color", "--tangle", path, "--quandle", qfiles[f"dihedral-{n}"],
             "--count"], kind="torus", k=k, n=n)
    for i, (c, stem, mode) in enumerate(CHAINS):
        path = os.path.join(outdir, f"chain-{i}-{c}.tangle")
        _write_tangle(path, chain_tangle(c, rng))
        add(["color", "--tangle", path, "--quandle", qfiles[stem], f"--{mode}"],
            kind="chain-" + mode, quandle=qfiles[stem])
    rng.shuffle(deck)
    with open(os.path.join(outdir, DECK_FILE), "w") as f:
        json.dump(deck, f, indent=0)
    return deck


def load_deck(outdir):
    with open(os.path.join(outdir, DECK_FILE)) as f:
        return json.load(f)


# -- queries: oracles -----------------------------------------------------------

def read_table(path):
    """Quandle table read without the library's parser or validation."""
    with open(path) as f:
        head = f.readline().split()
        n = int(head[1])
        t = np.array([int(v) for v in f.read().split()], dtype=np.int64)
    t = t.reshape(n, n)
    inv = np.empty_like(t)
    inv[t, np.arange(n)[None, :]] = np.arange(n)[:, None]
    return quandles.FiniteQuandle(order=n, table=t, inv_table=inv, label=path)


def closed_form_count(knot, t):
    """Colorings of the builtin tangles, counted over (x, y) = colors of
    arcs 0 and 1, which determine the rest."""
    n = t.shape[0]
    ar = np.arange(n)
    if knot == "hopf":         # arc 2 = x <| y, then y <| (x <| y) = y
        return int(np.count_nonzero(t[ar[None, :], t] == ar[None, :]))
    # trefoil: arc 2 = x <| y, then (x <| y) <| x = y
    return int(np.count_nonzero(t[t, ar[:, None]] == ar[None, :]))


class QueryOracle:
    """Expected results for a deck; solver and predicate results are
    computed once per (file, knot) and reused across passes."""

    def __init__(self):
        self._q = {}
        self._solver = {}

    def quandle(self, path):
        if path not in self._q:
            self._q[path] = read_table(path)
        return self._q[path]

    def solver_admissible(self, knot, path):
        key = (knot, path)
        if key not in self._solver:
            d = tangles.builtin_tangle(knot)
            self._solver[key] = tangles.enumerate_colorings(
                d, self.quandle(path), "admissibility").admissible
        return self._solver[key]

    def check(self, oracle, rc, out):
        """Raise AssertionError unless a query's output is correct."""
        kind = oracle["kind"]
        if kind == "check":
            q = self.quandle(oracle["quandle"])
            if self.solver_admissible(oracle["knot"], oracle["quandle"]):
                assert (rc, out) == (0, "ADMISSIBLE\n"), f"check: {rc} {out!r}"
                return
            assert rc == 2, f"check exit {rc}"
            words = out.split()
            assert words[:2] == ["NON-ADMISSIBLE", "witness"], out
            w = Witness(int(words[2][2:]), int(words[3][2:]), oracle["knot"])
            assert w.holds_in(q), f"witness {w} does not hold"
            return
        assert rc == 0, f"exit code {rc}"
        if kind == "torus":
            n, k = oracle["n"], oracle["k"]
            assert int(out) == n * math.gcd(n, k), f"torus count {out!r}"
        elif kind == "chain-count":
            assert int(out) == self.quandle(oracle["quandle"]).order, out
        elif kind == "chain-admissible":
            assert out == "ADMISSIBLE\n", out
        elif kind == "count":
            want = closed_form_count(oracle["knot"],
                                     self.quandle(oracle["quandle"]).table)
            assert int(out) == want, f"count {out!r} != {want}"
        elif kind == "admissible":
            knot, q = oracle["knot"], self.quandle(oracle["quandle"])
            pred = hopf_witness if knot == "hopf" else trefoil_witness
            if pred(q) is None:
                assert out == "ADMISSIBLE\n", out
                return
            words = out.split()
            assert words[:2] == ["NON-ADMISSIBLE", "witness"], out
            d = tangles.builtin_tangle(knot)
            colors = tuple(int(v) for v in words[2:])
            assert colors[d.start_arc] != colors[d.end_arc], "endpoints agree"
            assert tangles.check_coloring(d, q, colors), "witness is no coloring"
        else:
            raise AssertionError(f"unknown oracle {kind!r}")
