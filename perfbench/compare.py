#!/usr/bin/env python3
"""Compare two benchmark artifacts, refusing runs of different shape.

    python3 perfbench/compare.py BEFORE.json AFTER.json

The artifacts are the per-run JSON files perfbench/run.py leaves in
<build dir>/perfbench-out/. Two runs are compared only when they share the
machine and workload shape recorded in their metadata (worker count, SIMD
tier, build type, cache sizes, workload, scale, η, κ, tuple and attribute
counts) and, for the same seed, the same data (ε, inlier and outlier
counts, working-set bytes). Otherwise the script names the differing keys
and exits 2 without comparing anything.
"""

import json
import sys

SHAPE_KEYS = ("workload", "scale", "nproc", "simd_tier", "build_type",
              "l2_bytes", "l3_bytes", "eta", "kappa", "tuples", "attributes",
              "index")
DATA_KEYS = ("epsilon", "inliers", "outliers", "working_set_bytes")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    before, after = (json.load(open(path)) for path in sys.argv[1:3])
    mb, ma = before["meta"], after["meta"]
    keys = SHAPE_KEYS + (DATA_KEYS if mb.get("seed") == ma.get("seed") else ())
    differing = [k for k in keys if mb.get(k) != ma.get(k)]
    if differing:
        for k in differing:
            print(f"refused: {k} differs ({mb.get(k)!r} vs {ma.get(k)!r})")
        return 2
    for name, b in before["metrics"].items():
        a = after["metrics"].get(name)
        if a is None or b["value"] is None or a["value"] is None:
            print(f"{name:34s} not comparable")
            continue
        change = (a["value"] / b["value"] - 1) if b["value"] else float("nan")
        print(f"{name:34s} {b['value']:.6g} -> {a['value']:.6g} {b['unit']} "
              f"({change:+.2%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
