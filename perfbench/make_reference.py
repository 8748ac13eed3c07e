"""Record the artifact digests that later benchmark runs are compared against.

    python3 perfbench/make_reference.py --seeds 0-10,910,920,930

Runs every workload's commands once per seed, in-process, and merges one
digest per command into ``perfbench/reference.json`` together with the
MANIFEST stamp (code version and seed scheme) they were made under.  Make
the reference only at a commit whose outputs are trusted: afterwards a byte
change under the same stamp fails the benchmark, and a bumped stamp leaves
the commands unreferenced until the reference is made again.
"""

from __future__ import annotations

import argparse
import json
import sys

import checks
import run
from workloads import WORKLOADS


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 0-10,910")
    args = ap.parse_args(argv)

    run.prepare()
    import kbrw.cli as cli

    ref = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    ref.setdefault("workloads", {})
    for name in sorted(WORKLOADS):
        wl = WORKLOADS[name]
        for seed in parse_seeds(args.seeds):
            cmds = wl.build(seed, wl.root())
            p = run.run_inprocess(cli, cmds, wl.root())
            digests = {}
            for c in cmds:
                out = c.out(wl.root())
                if p.codes[c.name] != 0 or not checks.manifest_consistent(out):
                    print(f"{name} seed {seed}: {c.name} failed", file=sys.stderr)
                    return 1
                stamp = checks.stamp(out)
                if ref.setdefault("stamp", stamp) != stamp:
                    print(f"{name}: stamp {stamp} differs from {ref['stamp']}; "
                          "remove reference.json to start a new one", file=sys.stderr)
                    return 1
                digests[c.name] = checks.dir_digest(out)
            ref["workloads"].setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} digests", flush=True)
            run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
