"""Progeny tail laws at 10^7 trees: subcritical slope, critical plateau.

Simulates both model forests with the `simulate` subcommand, then fits the
regime tail law from the written records with `estimate`.  The quarter-decade
grid spans [10^2, 10^4]; points starved below the minimum exceedance count
drop out of the fit automatically.  At the default 10^7 trees the subcritical
fit ends at n = 562: P(Z > 1000) leaves about 12 exceedances, under the 20 a
point needs.
"""

import argparse
import sys
from pathlib import Path

from kbrw.cli import main
from kbrw.models import two_point_subcritical

GRID = "100,178,316,562,1000,1780,3160,5620,10000"


def run(out: Path, replicas: int, seed: int, workers: int) -> int:
    an = two_point_subcritical().analytics()
    ratio = -an.rho_plus / an.rho_minus
    jobs = [
        ("two-point", "subcritical", ["--rho-ratio", repr(ratio)]),
        ("critical-gaussian", "critical", []),
    ]
    for model, regime, extra in jobs:
        sim = out / f"{model}_forest"
        argv = ["simulate", "--model", model, "--x", "0",
                "--replicas", str(replicas), "--seed", str(seed),
                "--workers", str(workers), "--out", str(sim)]
        print(f"-> kbrw {' '.join(argv)}")
        code = main(argv)
        if code != 0:
            return code
        argv = ["estimate", "--records", str(sim / "records.csv"),
                "--statistic", "Z", "--regime", regime, "--grid", GRID,
                "--out", str(out / f"{model}_fit")] + extra
        print(f"-> kbrw {' '.join(argv)}")
        code = main(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("runs/tails"))
    ap.add_argument("--replicas", type=int, default=10_000_000)
    ap.add_argument("--seed", type=int, default=930)
    ap.add_argument("--workers", type=int, default=4)
    args = ap.parse_args()
    sys.exit(run(args.out, args.replicas, args.seed, args.workers))
