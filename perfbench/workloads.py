"""The benchmark workloads: kbrw command sequences at one fixed size each.

Every path handed to kbrw is relative to the checkout root, which is the
working directory of every command, so the artifacts (the ``estimate``
config records its input path) do not depend on where the checkout lives.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

RUNS = Path(".perfbench_runs")

TAIL_GRID = "10,18,32,56,100"
# the critical plateau ratio must stay below 2.0 (criterion 10) on every
# seed: at 2^18 trees it reached 1.997 on 20 seeds, at 2^19 its spread
# shrinks by a further sqrt(2)
TAIL_TREES = {"two-point": 1 << 17, "critical-gaussian": 1 << 19}
WALK_REPLICAS = 100_000
# the renewal table's passage steps swing by +-16% from seed to seed, as a
# few walks run to max_steps, while the off-spine forest's particles stay
# within 2%: the table is kept small so the seed moves wall_s little
SPINE_REPLICAS = 5_000
SPINE_TABLE_REPLICAS = 2_500


@dataclass(frozen=True)
class Command:
    name: str                  # output directory under the workload's root
    argv: tuple[str, ...]      # kbrw arguments, --out excluded
    replicas: int              # replicas the command requests

    def out(self, root: Path) -> Path:
        return root / self.name


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int          # the seed of the matching study script
    models: tuple[str, ...]    # models resolved and classified by set-up
    build: Callable[[int, Path], list[Command]]
    headline: Callable[[Path], tuple[float, float]]   # (value, stderr)

    def root(self) -> Path:
        return RUNS / self.name


def _summary(path: Path) -> dict:
    return json.loads((path / "summary.json").read_text())


def _tail_forest(seed: int, root: Path) -> list[Command]:
    cmds = []
    for model, regime in (("two-point", "subcritical"),
                          ("critical-gaussian", "critical")):
        n = TAIL_TREES[model]
        sim = Command(f"{model}_forest",
                      ("simulate", "--model", model, "--x", "0",
                       "--replicas", str(n), "--seed", str(seed),
                       "--workers", "1"), n)
        # no --rho-ratio: at this budget the subcritical slope is
        # pre-asymptotic, so it is recorded as information, not judged
        fit = Command(f"{model}_fit",
                      ("estimate", "--records",
                       str(sim.out(root) / "records.csv"), "--statistic", "Z",
                       "--regime", regime, "--grid", TAIL_GRID), 0)
        cmds += [sim, fit]
    return cmds


def _tail_headline(root: Path) -> tuple[float, float]:
    fit = _summary(root / "critical-gaussian_fit")["fit"]
    return fit["value"], fit["stderr"]


def _renewal_walk(seed: int, root: Path) -> list[Command]:
    base = ("walk", "--grid", "0:9:1", "--replicas", str(WALK_REPLICAS),
            "--seed", str(seed))
    return [
        Command("critical_star", base + ("--model", "critical-lattice",
                                         "--tilt", "star",
                                         "--cr-reference", "1.0"),
                WALK_REPLICAS),
        Command("two_point_plus", base + ("--model", "two-point",
                                          "--tilt", "plus"), WALK_REPLICAS),
    ]


def _walk_headline(root: Path) -> tuple[float, float]:
    with open(root / "critical_star" / "records.csv", newline="") as fh:
        last = list(csv.DictReader(fh))[-1]          # R(9), the grid's top
    return float(last["visit"]), float(last["visit_stderr"])


def _deep_spine(seed: int, root: Path) -> list[Command]:
    return [Command("spine_t8",
                    ("spine", "--model", "critical-gaussian", "--x", "0.5",
                     "--t", "8", "--replicas", str(SPINE_REPLICAS),
                     "--renewal-grid", "0:16:0.5",
                     "--renewal-replicas", str(SPINE_TABLE_REPLICAS),
                     "--band-eps", "1e-4", "--seed", str(seed)),
                    SPINE_REPLICAS + SPINE_TABLE_REPLICAS)]


def _spine_headline(root: Path) -> tuple[float, float]:
    est = _summary(root / "spine_t8")["estimate"]
    return est["value"], est["stderr"]


WORKLOADS = {w.name: w for w in (
    Workload("tail-forest", 930, ("two-point", "critical-gaussian"),
             _tail_forest, _tail_headline),
    Workload("renewal-walk", 910, ("critical-lattice", "two-point"),
             _renewal_walk, _walk_headline),
    Workload("deep-spine", 920, ("critical-gaussian",),
             _deep_spine, _spine_headline),
)}
