#!/usr/bin/env python3
"""Regenerate ``kat.json``: the known answers the benchmark checks.

    python3 perfbench/pin.py

The values are regression values computed by the package's compiled
path, not published vectors.  They were generated once and pinned; run
this only to extend the seed range, on a commit whose digests are known
to be right.
"""

import json
import sys

from run import ANCHOR, KAT_FILE, load_package

PINNED_SEEDS = range(20)


def main() -> int:
    if not load_package():
        print("pin: no hfhash package under src/", file=sys.stderr)
        return 2
    from hfhash import core

    from workloads import WORKLOADS

    params = core.default_params()
    if core.hash_bytes(b"a", params).hex() != ANCHOR:
        print("pin: the digest of 'a' is not the anchor; refusing to pin", file=sys.stderr)
        return 1

    def kat(workload, seed):
        inputs = workload.inputs(seed)
        return workload.kat([workload.fingerprint(workload.run(x, params)) for x in inputs])

    workloads = [cls() for cls in WORKLOADS.values()]
    seeded = [w for w in workloads if w.seeded]
    out = {w.name: kat(w, None) for w in workloads if not w.seeded}
    out["seeded"] = {str(seed): {w.name: kat(w, seed) for w in seeded} for seed in PINNED_SEEDS}
    KAT_FILE.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
