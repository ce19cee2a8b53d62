"""Command-line front end.

Exit codes: 0 success; 1 validation verdict "invalid"; 2 check verdict
"non-admissible"; 64 usage error; 65 file/parse error; 70 internal error.
Data output goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys

from . import criteria, groups, quandles, tangles
from .errors import (
    FileFormatError,
    GroupValidationError,
    OrderTooLarge,
    QuandleKitError,
    QuandleValidationError,
)

EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70


def _read(path):
    try:
        if path == "-":
            stream = sys.stdin
            if hasattr(stream, "buffer"):
                # sys.stdin may decode with surrogateescape (C locale), so
                # its bytes are decoded strictly, as open() decodes a path
                stream = io.TextIOWrapper(io.BytesIO(stream.buffer.read()),
                                          encoding="utf-8")
            return stream.read()
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text ({exc})")


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _load_group(spec):
    """A group spec is a catalog name ('cyclic:3', 'quaternion8',
    'cyclic:2*cyclic:4') or a table file path."""
    try:
        return groups.parse_group_spec(spec)
    except groups.UnknownFamily:
        families = {part.partition(":")[0].strip() for part in spec.split("*")}
        if not families.isdisjoint(groups.FAMILIES):
            raise
    return groups.parse_group_file(_read(spec), name=spec)


def _load_quandle(path):
    return quandles.parse_quandle_file(_read(path), label=path)


def _load_tangle(spec):
    if spec.startswith("builtin:"):
        return tangles.builtin_tangle(spec[len("builtin:"):])
    return tangles.parse_tangle(_read(spec))


def _parse_normal_spec(g, spec):
    if spec == "full":
        elems = range(g.order)
    else:
        try:
            elems = [int(v) for v in spec.split(",")]
        except ValueError:
            raise QuandleKitError(f"bad subgroup spec {spec!r}")
    return groups.subgroup_from_elements(g, elems)


@functools.cache
def _build_parser():
    p = argparse.ArgumentParser(prog="quandlekit", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)

    v = sub.add_parser("validate", help="validate a table file")
    v.add_argument("kind", choices=["quandle", "group"])
    v.add_argument("file")

    c = sub.add_parser("construct", help="construct a quandle table")
    c.add_argument("construction",
                   choices=["conj", "galex", "hopf-ext", "catalog-quandle"])
    c.add_argument("--group", help="group spec or table file")
    c.add_argument("--aut", type=int, default=None,
                   help="automorphism index (galex)")
    c.add_argument("--normal", help="subgroup: comma-separated indices or 'full'")
    c.add_argument("--name", help="named quandle, e.g. trivial:4 or dihedral:3")
    c.add_argument("-o", "--output", default="-")

    col = sub.add_parser("color", help="solve the coloring system of a tangle")
    col.add_argument("--tangle", required=True, help="file or builtin:<name>")
    col.add_argument("--quandle", required=True)
    mode = col.add_mutually_exclusive_group(required=True)
    mode.add_argument("--count", action="store_true")
    mode.add_argument("--list", action="store_true")
    mode.add_argument("--admissible", action="store_true")

    ch = sub.add_parser("check", help="closed-form admissibility predicate")
    ch.add_argument("kind", choices=["hopf", "trefoil"])
    ch.add_argument("--quandle", required=True)

    pr = sub.add_parser("present", help="emit a presentation")
    pr.add_argument("kind", choices=["as", "fundamental"])
    pr.add_argument("--quandle")
    pr.add_argument("--tangle")

    ce = sub.add_parser("census", help="census of generalized Alexander quandles")
    ce.add_argument("--max-order", type=int, required=True)
    ce.add_argument("--dedup", action="store_true")

    sub.add_parser("catalog", help="list built-in groups") \
       .add_argument("--group", help="print the index->label map of one group")
    return p


def _cmd_validate(args):
    text = _read(args.file)
    try:
        if args.kind == "quandle":
            quandles.parse_quandle_file(text)
        else:
            groups.parse_group_file(text)
    except (QuandleValidationError, GroupValidationError) as exc:
        print(f"INVALID {exc}")
        return 1
    print("OK")
    return 0


def _cmd_construct(args):
    if args.construction == "catalog-quandle":
        if not args.name:
            raise UsageError("catalog-quandle requires --name")
        fam, _, arg = args.name.partition(":")
        builders = {"trivial": quandles.trivial_quandle,
                    "dihedral": quandles.dihedral_quandle}
        if fam not in builders:
            raise QuandleKitError(f"unknown quandle family {fam!r}")
        try:
            n = int(arg)
        except ValueError:
            raise UsageError(f"--name {args.name!r} needs an integer parameter")
        if n < 1:
            raise QuandleKitError(f"{fam} parameter must be positive")
        if n > groups.DEFAULT_MAX_ORDER:
            raise OrderTooLarge(
                f"order {n} exceeds bound {groups.DEFAULT_MAX_ORDER}")
        q = builders[fam](n)
    else:
        if not args.group:
            raise UsageError(f"{args.construction} requires --group")
        g = _load_group(args.group)
        if args.construction == "conj":
            q = quandles.conj_quandle(g)
        elif args.construction == "galex":
            if args.aut is None:
                raise UsageError("galex requires --aut <index>")
            auts = groups.automorphisms(g)
            if not 0 <= args.aut < len(auts):
                raise QuandleKitError(
                    f"--aut {args.aut} out of range (group has {len(auts)})")
            q = quandles.galex(g, auts[args.aut])
        else:
            if not args.normal:
                raise UsageError("hopf-ext requires --normal")
            sub = _parse_normal_spec(g, args.normal)
            q = quandles.hopf_extension(g, sub)
    _write(args.output, quandles.format_quandle_file(q))
    return 0


def _cmd_color(args):
    d = _load_tangle(args.tangle)
    q = _load_quandle(args.quandle)
    if args.count:
        print(tangles.enumerate_colorings(d, q, "count"))
    elif args.list:
        for col in tangles.enumerate_colorings(d, q, "list"):
            print(" ".join(str(v) for v in col.assignment))
    else:
        verdict = tangles.enumerate_colorings(d, q, "admissibility")
        if verdict.admissible:
            print("ADMISSIBLE")
        else:
            cols = " ".join(str(v) for v in verdict.witness.assignment)
            print(f"NON-ADMISSIBLE witness {cols}")
    return 0


def _cmd_check(args):
    q = _load_quandle(args.quandle)
    pred = criteria.hopf_witness if args.kind == "hopf" else criteria.trefoil_witness
    w = pred(q)
    if w is None:
        print("ADMISSIBLE")
        return 0
    print(f"NON-ADMISSIBLE witness x={w.x} y={w.y}")
    return 2


def _cmd_present(args):
    if args.kind == "as":
        if not args.quandle:
            raise UsageError("present as requires --quandle")
        pres = criteria.associated_group_presentation(_load_quandle(args.quandle))
    else:
        if not args.tangle:
            raise UsageError("present fundamental requires --tangle")
        pres = tangles.fundamental_quandle_presentation(_load_tangle(args.tangle))
    sys.stdout.write(pres.format())
    return 0


def _cmd_census(args):
    records = criteria.census_galex(args.max_order, dedup=args.dedup)
    sys.stdout.write(criteria.format_census(records))
    return 0


def _cmd_catalog(args):
    if args.group:
        g = _load_group(args.group)
        print(f"# {g.name} order {g.order}")
        for i in range(g.order):
            print(f"{i}\t{g.label(i)}")
        return 0
    print("#name\torder\tautomorphisms")
    for g in groups.census_catalog(16):
        print(f"{g.name}\t{g.order}\t{len(groups.automorphisms(g))}")
    return 0


class UsageError(Exception):
    pass


_DISPATCH = {
    "validate": _cmd_validate,
    "construct": _cmd_construct,
    "color": _cmd_color,
    "check": _cmd_check,
    "present": _cmd_present,
    "census": _cmd_census,
    "catalog": _cmd_catalog,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            return EX_USAGE
        return 0
    try:
        return _DISPATCH[args.verb](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (QuandleKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except Exception as exc:   # internal invariant violation
        print(f"internal error: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
