"""Compare run records written by run.py.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a record file or a directory of them (a copy of
.perfbench_out/ made on each commit).  Records are grouped by workload and
trace mode; each metric is shown as the median over the group's seeds on
both sides, with the ratio NEW/BASE.  The comparison is refused (exit 2)
when the records were made on different kernel backends: a compiled run
is never set against a pure-Python one.
"""

import json
import statistics
import sys
from pathlib import Path


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups = {}
    for f in files:
        rec = json.loads(f.read_text())
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def medians(records):
    names = records[0]["metrics"]
    return {n: (statistics.median(r["metrics"][n]["value"] for r in records),
                records[0]["metrics"][n]["unit"]) for n in names}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    backends = {str(r["backend"]) for g in (base, new) for rs in g.values()
                for r in rs}
    if len(backends) != 1:
        print(f"refusing to compare runs made on different kernel backends: "
              f"{sorted(backends)}", file=sys.stderr)
        return 2
    backend = backends.pop()
    for key in sorted(set(base) & set(new)):
        a, b = medians(base[key]), medians(new[key])
        print(f"{key[0]} trace={key[1]} backend={backend}  "
              f"({len(base[key])} vs {len(new[key])} runs)")
        for name, (va, unit) in a.items():
            if name not in b:
                continue
            vb = b[name][0]
            ratio = f"x{vb / va:.3f}" if va else "-"
            print(f"  {name:34s} {va:12.6g} {vb:12.6g} {unit:6s} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
