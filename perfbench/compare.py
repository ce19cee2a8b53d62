"""Compare two result files written by run.py (in .perfbench_out/).

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both results and the relative change.  Refuses
(exit 3) to compare results from different kernel backends, workloads or
trace modes, because their numbers measure different code.
"""

import json
import sys


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 64
    with open(argv[0]) as f:
        base = json.load(f)
    with open(argv[1]) as f:
        new = json.load(f)
    for what, old, cur in (("backend", base["facts"]["backend"], new["facts"]["backend"]),
                           ("workload", base["workload"], new["workload"]),
                           ("trace", base["trace"], new["trace"])):
        if old != cur:
            print(f"refusing to compare: {what} {old!r} vs {cur!r}", file=sys.stderr)
            return 3
    for fact in ("nproc", "cpu", "python", "numpy", "commit", "seed"):
        if base["facts"][fact] != new["facts"][fact]:
            print(f"# note: {fact} differs: {base['facts'][fact]} vs "
                  f"{new['facts'][fact]}")
    for name, m in base["metrics"].items():
        b = m["value"]
        n = new["metrics"].get(name, {}).get("value")
        if n is None:
            print(f"{name:48s} {b:>14.6g}  (missing in new)")
            continue
        change = f"{(n - b) / b:+.1%}" if b else "n/a"
        print(f"{name:48s} {b:>14.6g} {n:>14.6g} {change:>8s} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
