"""Rewrite digests.json: the exact-output digest of one pass per workload and seed.

    python3 perfbench/record_digests.py

Records seeds 0-31 (0 is run.py's default) and the held-out seed named in
baseline.json.  Run it only for a change that is meant to alter linetrp's
exact outputs, and say so in the change: the digests are what the benchmark
holds every later run to.  Refuses to record a pass in which any unit fails
its own check.
"""

import hashlib
import json
import sys

import run

SEEDS = range(32)


def main() -> int:
    run.import_linetrp()
    from workloads import WORKLOADS

    with open(run.HERE / "baseline.json") as fh:
        held_out = json.load(fh)["held_out_seed"]
    digests = {}
    for name, workload in WORKLOADS.items():
        digests[name] = {}
        for seed in [*SEEDS, held_out]:
            h = hashlib.sha256()
            for inp in workload.inputs(seed):
                ok, out = run.attempt(workload.run, inp.payload)
                if not ok:
                    print(f"error: {name} seed {seed}: a unit failed its check", file=sys.stderr)
                    return 1
                h.update(run.digest_line(workload, out))
            digests[name][str(seed)] = h.hexdigest()
            print(name, seed, digests[name][str(seed)], flush=True)
    with open(run.HERE / "digests.json", "w") as fh:
        json.dump({"digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
