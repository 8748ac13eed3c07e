"""Experiment harness: reproducible runs over the simulation modules.

Every run writes into its output directory:

  records.csv    per-replica records (simulate) or per-grid-point tables
  summary.json   the estimates, keys sorted, no timestamps
  MANIFEST.json  config hash, code version, seed + scheme, truncation
                 accounting, and a sha256 per emitted file

The config hash covers the command, the model, the seed and every flag but
`--out` and `--workers`, as argparse parsed it: one grid in two spellings
gets one hash.  Reruns with identical config and seed are byte-identical.
The worker count never enters the artifacts: replicas are cut into
fixed-size blocks, block i is seeded by a versioned split of (seed, i), and
results merge in block order, so `--workers 1` and `--workers 8` produce
identical files.  Only `simulate` (up to `--workers`) and `walk` (its three
estimators) fork worker processes, never more than the usable CPUs;
`taskset -c 0` runs all inline.

Exit codes: 0 success, 2 bad configuration, 3 run dominated by cap breaches
(truncated fraction above one half).  Bad input takes one path to exit 2:
argparse parses and checks each flag (a bad, missing or unknown one), the
library raises ValueError on input it refuses, and `main` alone turns either
into a ``config error`` message and returns 2, never raising SystemExit.
Every command makes all its draws before it creates its run directory, so a
refused run leaves none behind.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, models, oracle, spines, stats, trees, walks
from .estimates import binomial_estimate, pooled_z
from .seeds import SEED_SCHEME, rng_for_block

BLOCK = 1 << 14     # replicas per seed block; fixed so layout is worker-free
CSV_BLOCK = 1 << 16  # CSV rows formatted in numpy and hashed per write


class ConfigError(ValueError):
    """Bad input the CLI finds itself; `main` reports it as any ValueError."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# artifact plumbing


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fmt(v) -> str:
    """Deterministic cell formatting: shortest round-trip repr for floats."""
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return ""
    return repr(float(v))


# two ASCII digits per uint16: "00".."99", then the same pairs as the
# leading pair of a number, a leading zero as NUL ("\0\0", "\0" "1", .., "99")
_PAIRS = np.frombuffer(
    b"".join(b"%02d" % i for i in range(100)) + b"\0\0"
    + b"".join(b"%2d" % i for i in range(1, 100)).replace(b" ", b"\0"),
    np.uint16)


def _digits(column: np.ndarray) -> np.ndarray:
    """Decimal cells of an integer or bool column, right-aligned in a
    NUL-padded (rows, width) uint8 array, by divide-by-100 passes over the
    uint64 magnitudes."""
    neg = np.flatnonzero(column < 0)
    if column.dtype.kind == "i":
        mag = column.astype(np.int64).view(np.uint64)
        mag[neg] = -mag[neg]  # two's complement: 2**63 for -2**63 too
    else:
        mag = column.astype(np.uint64)
    zero = mag == 0
    pairs = (len(str(mag.max())) + (len(neg) > 0) + 1) // 2
    cells = np.empty((len(mag), pairs), np.uint16)
    for j in range(pairs - 1, -1, -1):
        q = mag // 100
        cells[:, j] = _PAIRS.take(np.where(q, mag - 100 * q, mag + 100))
        mag = q
    cells = cells.view(np.uint8)
    cells[zero, -1] = ord("0")
    if len(neg):
        first = (cells[neg] != 0).argmax(axis=1)
        cells[neg, first - 1] = ord("-")
    return cells


def _cells(column) -> np.ndarray:
    """`_fmt` of every value of a column, as a NUL-padded (rows, width)
    uint8 array: integers and bools by `_digits`, floats by `repr` and
    anything else by `_fmt`, cell by cell (grid-sized tables only)."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
    if kind in "biu":
        return _digits(column)
    text = list(map(repr, column.tolist())) if kind == "f" \
        else [_fmt(v) for v in column]
    return np.array(text, dtype=bytes).view(np.uint8).reshape(len(text), -1)


def _rows(cells: list[np.ndarray]) -> np.ndarray:
    """One uint8 buffer of CSV rows from each column's `_cells`: the cells,
    a comma after each but the last, a newline per row, padding dropped."""
    sep = np.full((len(cells[0]), 1), ord(","), np.uint8)
    table = np.hstack([part for c in cells for part in (c, sep)])
    table[:, -1] = ord("\n")
    return table[table != 0]


def _fmt_level(t: float) -> str:
    return format(float(t), "g")


class Run:
    """One command invocation: its config, the artifacts it writes into
    ``output_dir``, then a sealed MANIFEST."""

    def __init__(self, command: str, model_doc: dict | None, flags: dict,
                 seed: int | None, output_dir):
        self.config_doc = {"command": command, "flags": flags,
                           "model": model_doc, "seed": seed}
        self.output_dir = Path(output_dir)
        self.outputs: dict[str, str] = {}
        self.output_dir.mkdir(parents=True, exist_ok=True)

    @property
    def config(self) -> "Run":
        """The run itself; perfbench/layers.py reads ``run.config.output_dir``."""
        return self

    def write_text(self, name: str, text: str) -> None:
        data = text.encode()
        (self.output_dir / name).write_bytes(data)
        self.outputs[name] = _sha256(data)

    def write_json(self, name: str, obj) -> None:
        self.write_text(name, json.dumps(obj, sort_keys=True, indent=2) + "\n")

    def write_csv(self, name: str, header: list[str], columns) -> None:
        """One array or sequence per column, written and hashed CSV_BLOCK
        rows at a time as one byte buffer (`_rows` of `_cells`): no Python
        object per integer cell, no temporary wider than a block, and the
        bytes of `_fmt` applied row by row."""
        n = len(columns[0]) if columns else 0
        if any(len(c) != n for c in columns):
            raise ValueError(f"{name}: columns differ in length")
        digest = hashlib.sha256()
        with open(self.output_dir / name, "wb") as fh:
            def put(data) -> None:
                fh.write(data)
                digest.update(data)

            put((",".join(header) + "\n").encode())
            for lo in range(0, n, CSV_BLOCK):
                put(_rows([_cells(c[lo:lo + CSV_BLOCK]) for c in columns]))
        self.outputs[name] = digest.hexdigest()

    def finish(self, truncation: dict) -> int:
        manifest = {
            "code_version": __version__,
            "command": self.config_doc["command"],
            "config_sha256": _sha256(_canonical(self.config_doc).encode()),
            "outputs": dict(sorted(self.outputs.items())),
            "seed": self.config_doc["seed"],
            "seed_scheme": SEED_SCHEME,
            "truncation": truncation,
        }
        data = (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode()
        (self.output_dir / "MANIFEST.json").write_bytes(data)
        worst = max([0.0, *truncation.values()])
        return 3 if worst > 0.5 else 0


def _estimate_doc(e) -> dict:
    doc = {"value": float(e.value), "stderr": float(e.stderr),
           "n_effective": float(e.n_effective),
           "truncated_fraction": float(e.truncated_fraction)}
    for k, v in e.extra.items():
        doc[k] = float(v) if isinstance(v, (int, float, np.floating)) else v
    return doc


def _model_doc(model) -> dict:
    return json.loads(models.model_to_json(model))


# parsed values that are not config flags: out and workers must not change
# results, func is code, and the config holds command, model and seed apart
_NOT_FLAGS = {"command", "func", "model", "out", "seed", "workers"}


def _open_run(args) -> Run:
    """The run of a parsed command line.  Its config holds every parsed flag
    but _NOT_FLAGS, so a new flag enters the config hash by itself."""
    model = getattr(args, "model", None)
    return Run(args.command, None if model is None else _model_doc(model),
               {k: v for k, v in vars(args).items() if k not in _NOT_FLAGS},
               getattr(args, "seed", None), args.out)


# ---------------------------------------------------------------------------
# flag converters: argparse parses every flag's text here


def _flag_text(what: str):
    """An argparse ``type=`` from a parser whose refusal names ``what``."""
    def wrap(parse):
        def convert(text: str):
            try:
                return parse(text)
            except (ValueError, KeyError, OSError) as exc:
                raise argparse.ArgumentTypeError(f"{what} {text!r}: {exc}") from exc
        return convert
    return wrap


_model = _flag_text("model spec")(models.resolve_model)


@_flag_text("seed")
def _seed(text: str) -> int:
    seed = int(text, 0)
    if not 0 <= seed < 2 ** 64:
        raise ValueError("must fit in 64 unsigned bits")
    return seed


@_flag_text("levels")
def _levels(text: str) -> list[float]:
    levels = sorted(float(v) for v in text.split(",")) if text else []
    if len(set(levels)) != len(levels):
        raise ValueError("duplicate levels")
    return levels


@_flag_text("grid")
def _grid(spec: str) -> list[float]:
    """Either 'a:b:step' (inclusive endpoints) or 'v1,v2,...'; finite and
    strictly increasing values."""
    vals = [float(v) for v in spec.split(":" if ":" in spec else ",")]
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    if ":" in spec:
        a, b, step = vals
        if step <= 0 or b < a:
            raise ValueError("need a <= b and step > 0")
        vals = np.arange(a, b + 1e-9 * max(step, 1.0), step)
    if np.any(np.diff(vals) <= 0):
        raise ValueError("values must be strictly increasing")
    return [float(v) for v in vals]


def _paths(text: str) -> list[str]:
    return [str(Path(p)) for p in text.split(",")]


def _flag_type(parse, ok, need: str):
    """An argparse ``type=``: ``parse`` the text, then require ``ok`` of it."""
    def convert(text: str):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r}: need {need}")
        return value
    convert.__name__ = parse.__name__  # argparse: "invalid int value: 'x'"
    return convert


_count = _flag_type(int, lambda v: v >= 1, "a positive integer")
_nonnegative_count = _flag_type(int, lambda v: v >= 0, "a nonnegative integer")
_finite = _flag_type(float, math.isfinite, "a finite number")
_positive = _flag_type(float, lambda v: 0 < v < math.inf,
                       "a positive finite number")
_negative = _flag_type(float, lambda v: -math.inf < v < 0,
                       "a negative finite number")
_band_eps = _flag_type(float, lambda v: 0 <= v < 1, "a number in [0, 1)")


# ---------------------------------------------------------------------------
# the task runner, and simulate


def _exit_with_parent() -> None:
    """Pool initializer: a worker exits once its parent process is gone, so
    a killed `kbrw` leaves no worker waiting on the pool's queue."""
    import threading
    from multiprocessing import connection, parent_process
    def watch(sentinel=parent_process().sentinel):
        connection.wait([sentinel])  # returns once the parent has exited
        os._exit(1)
    threading.Thread(target=watch, daemon=True).start()


def _run(tasks: list, workers: int, order=None):
    """Yield the results of ``tasks``, picklable zero-argument calls, in list
    order, raising a task's error at its turn.  They run inline with one
    task, worker or usable CPU, else on min(workers, tasks, usable CPUs)
    forked processes that take them in ``order`` (default: list order) and
    exit when this process does."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    procs = min(workers, len(tasks), cpus)
    if procs < 2:
        yield from (task() for task in tasks)
        return
    import multiprocessing  # here: an inline run never loads it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(procs, multiprocessing.get_context("fork"),
                             initializer=_exit_with_parent) as pool:
        futures = {i: pool.submit(tasks[i]) for i in order or range(len(tasks))}
        for i in range(len(tasks)):
            yield futures.pop(i).result()


def cmd_simulate(args) -> int:
    model, levels, seed, n = args.model, args.levels, args.seed, args.replicas
    caps = trees.SimCaps(args.max_particles, args.max_generations)
    tasks = [partial(trees.simulate_killed_forest, model, args.x, levels,
                     min(BLOCK, n - i * BLOCK), rng_for_block(seed, i), caps)
             for i in range((n + BLOCK - 1) // BLOCK)]
    # the forest checks the start, the levels and the regime before a draw
    merged = {}
    for i, forest in enumerate(_run(tasks, args.workers)):
        for k in ("Z", "leaves", "Y", "truncated", "generations", "H"):
            part = getattr(forest, k)  # replicas on the last axis
            if k not in merged:
                merged[k] = np.empty(part.shape[:-1] + (n,), part.dtype)
            merged[k][..., i * BLOCK:i * BLOCK + part.shape[-1]] = part
        # merged; one block at a time is alive beside the merged fields, so
        # the records write, not the merge, sets peak memory
        del forest, part
    Z, leaves, Y, trunc, gens, H = merged.values()

    # the identity between the exploration count and the leaf count holds
    # for fully explored trees only: crossers freeze at the top probe level,
    # so trees that reached it are stopped, not complete
    ok = ~trunc
    full = ok & (H[-1] == 0) if levels else ok
    violations = int(((Y != leaves) & full).sum())
    tf = float(trunc.mean())
    summary = {
        "kind": "simulate",
        "model": _model_doc(model),
        "x": args.x,
        "levels": levels,
        "n_replicas": n,
        "truncated_fraction": tf,
        "identity": {"checked": int(full.sum()), "violations": violations},
        "mean_Z_nontruncated": float(Z[ok].mean()) if ok.any() else None,
        "mean_leaves_nontruncated": float(leaves[ok].mean()) if ok.any() else None,
    }
    reach = {}
    for j, t in enumerate(levels):
        e = binomial_estimate(int((H[j] > 0).sum()), n,
                              truncated_fraction=tf)
        reach[_fmt_level(t)] = {"value": e.value, "stderr": e.stderr}
    summary["p_reach"] = reach

    if args.survival_curve is not None:
        for name, counts in (("Z", Z), ("leaves", leaves)):
            tab = stats.survival_curve(counts, args.survival_curve, truncated=trunc)
            summary[f"survival_{name}"] = {
                "grid": args.survival_curve,
                "p": tab.values.tolist(),
                "stderr": tab.stderr.tolist(),
                "exceedances": [int(k) for k in tab.exceedances],
                "flagged": [bool(f) for f in tab.flagged],
            }

    run = _open_run(args)
    header = ["replica", "Z", "leaves", "Y", "truncated", "generations"] \
        + [f"H_{_fmt_level(t)}" for t in levels]
    run.write_csv("records.csv", header,
                  [np.arange(n), Z, leaves, Y, trunc, gens, *H])
    run.write_json("summary.json", summary)
    return run.finish({"simulate": tf})


# ---------------------------------------------------------------------------
# analyze-model


def cmd_analyze_model(args) -> int:
    an = args.model.analytics()
    doc = {
        "kind": "analyze-model",
        "model": _model_doc(args.model),
        "regime": an.regime.value,
        "mean_offspring": float(args.model.mean_offspring),
        "rho_star": an.rho_star,
        "rho_plus": an.rho_plus,
        "rho_minus": an.rho_minus,
    }
    drift = {}
    for name, rho in an.tilts().items():
        if rho is not None:
            psi, dpsi, _ = models.log_laplace(args.model, rho)
            drift[name] = {"rho": float(rho), "psi": float(psi),
                           "tilted_drift": float(dpsi)}
    doc["tilts"] = drift
    text = json.dumps(doc, sort_keys=True, indent=2)
    print(text)
    if args.out:
        run = _open_run(args)
        run.write_text("summary.json", text + "\n")
        return run.finish({})
    return 0


# ---------------------------------------------------------------------------
# walk


def cmd_walk(args) -> int:
    model, grid, seed = args.model, args.grid, args.seed
    tw = walks.make_tilted_walk(model, args.tilt)
    # one stream per stage, C_R (the longest) handed out first; a refusal
    # surfaces in list order, and drift and grid are checked before a draw
    renewal = partial(walks.renewal_function, tw, grid, args.replicas,
                      max_steps=args.max_steps)
    visit, ladder, cr = _run(
        [partial(renewal, rng_for_block(seed, 0), method="VisitCount"),
         partial(renewal, rng_for_block(seed, 1), method="LadderDuality"),
         partial(walks.estimate_C_R, tw, args.replicas, rng_for_block(seed, 2),
                 probe_t=args.probe_t, max_steps=args.max_steps)],
        3, order=(2, 1, 0))
    try:
        closed = walks.closed_form_renewal(tw, grid)
    except ValueError:
        closed = None

    vv, vs, lv, ls = visit.values, visit.stderr, ladder.values, ladder.stderr
    z = pooled_z(vv, vs, lv, ls)
    rel_err = None
    cf = [None] * len(grid)
    if closed is not None:
        cf = closed.values
        rel_err = float(max(np.max(np.abs(vv - cf) / cf),
                            np.max(np.abs(lv - cf) / cf)))

    summary = {
        "kind": "walk",
        "model": _model_doc(model),
        "tilt": args.tilt,
        "rho": tw.rho,
        "grid": grid,
        "max_method_z": float(np.max(z)) if grid else 0.0,
        "max_closed_form_rel_err": rel_err,
        "C_R": _estimate_doc(cr),
        "cr_reference": args.cr_reference,
        "cr_rel_err": (abs(cr.value - args.cr_reference) / args.cr_reference
                       if args.cr_reference is not None else None),
        "renewal_truncated_fraction": max(visit.truncated_fraction,
                                          ladder.truncated_fraction),
    }

    run = _open_run(args)
    run.write_csv("records.csv",
                  ["x", "closed_form", "visit", "visit_stderr",
                   "ladder", "ladder_stderr", "pooled_z"],
                  [grid, cf, vv, vs, lv, ls, z])
    run.write_json("summary.json", summary)
    return run.finish({"renewal": summary["renewal_truncated_fraction"],
                       "first_passage": cr.truncated_fraction})


# ---------------------------------------------------------------------------
# spine


def cmd_spine(args) -> int:
    model, seed = args.model, args.seed
    an = model.analytics()
    if args.x < 0:
        raise ConfigError("start must sit at or above the barrier")
    if args.t <= args.x:
        raise ConfigError("level must lie above the start")

    renewal = None
    if args.renewal_grid is not None:
        tw = walks.make_tilted_walk(model)
        renewal = walks.renewal_function(tw, args.renewal_grid,
                                         args.renewal_replicas,
                                         rng_for_block(seed, 1),
                                         method="LadderDuality")
    est = spines.estimate_survival_spine(model, args.x, args.t, args.replicas,
                                         rng_for_block(seed, 0),
                                         renewal=renewal,
                                         band_eps=args.band_eps)
    scale = stats.survival_scale(args.t, est.extra["rho"], an.regime)
    summary = {
        "kind": "spine",
        "model": _model_doc(model),
        "regime": an.regime.value,
        "x": args.x,
        "t": args.t,
        "n_replicas": args.replicas,
        "band_eps": args.band_eps,
        "estimate": _estimate_doc(est),
        "scaled": {"value": scale * est.value, "stderr": scale * est.stderr},
        "naive": None,
        "z_spine_vs_naive": None,
        # the Monte Carlo --renewal-grid table; the default table is exact
        "renewal_truncated_fraction":
            renewal.truncated_fraction if renewal is not None else 0.0,
    }
    if args.naive_replicas:
        fwd = trees.simulate_killed_forest(model, args.x, [args.t],
                                           args.naive_replicas,
                                           rng_for_block(seed, 2))
        hits = int((fwd.H[0] > 0).sum())
        naive = binomial_estimate(hits, args.naive_replicas,
                                  truncated_fraction=fwd.truncated_fraction)
        summary["naive"] = _estimate_doc(naive)
        # a count of 0 or n has binomial stderr 0; judge it by the rule of
        # three instead, the 95% bound 3/n on an unseen (or certain) event
        naive_se = naive.stderr if 0 < hits < args.naive_replicas \
            else 3.0 / args.naive_replicas
        summary["z_spine_vs_naive"] = float(pooled_z(est.value, est.stderr,
                                                     naive.value, naive_se))

    run = _open_run(args)
    run.write_json("summary.json", summary)
    return run.finish({"spine": est.truncated_fraction,
                       "renewal": summary["renewal_truncated_fraction"]})


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> int:
    model = args.model
    res = oracle.tree_expectations(model, args.x, args.depth, level=args.level)
    summary = {
        "kind": "oracle",
        "model": _model_doc(model),
        "x": args.x,
        "depth": args.depth,
        "level": args.level,
        "alive_final": float(res.alive[args.depth]),
        "leaves_total": float(np.sum(res.leaves)),
        "expected_crossers_total": res.expected_crossers_total,
    }

    run = _open_run(args)
    run.write_csv("records.csv", ["generation", "alive", "leaves", "crossers"],
                  [np.arange(args.depth + 1), res.alive, res.leaves,
                   res.crossers])
    run.write_json("summary.json", summary)
    return run.finish({})


# ---------------------------------------------------------------------------
# estimate


def cmd_estimate(args) -> int:
    counts, trunc = [], []
    for p in args.records:
        if not os.path.exists(p):
            raise ConfigError(f"records file {p} does not exist")
        with open(p) as fh:
            header = [name.strip() for name in fh.readline().split(",")]
        if args.statistic not in header:
            raise ConfigError(f"{p} has no column {args.statistic!r}")
        cols = [header.index(args.statistic)]
        if "truncated" in header:
            cols.append(header.index("truncated"))
        try:
            with warnings.catch_warnings():
                # a header-only file is zero replicas, not a fault
                warnings.filterwarnings("ignore", "loadtxt: input contained")
                data = np.loadtxt(p, delimiter=",", skiprows=1, usecols=cols,
                                  ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{p}: {exc}") from exc
        if np.isnan(data).any():
            raise ConfigError(f"{p}: a {args.statistic} or truncated cell "
                              "is nan")
        counts.append(data[:, 0])
        trunc.append(data[:, 1] > 0.5 if len(cols) == 2
                     else np.zeros(len(data), bool))
    counts = np.concatenate(counts)
    trunc = np.concatenate(trunc)
    table = stats.survival_curve(counts, args.grid, truncated=trunc)
    rep = stats.tail_fit(table, args.regime, rho_ratio=args.rho_ratio)

    fit = rep.fitted_exponent_or_constant
    ps = rep.values
    if rep.mode == "CriticalPlateau":
        normalized = rep.grid * np.log(rep.grid) ** 2 * ps
    else:
        expo = -args.rho_ratio if args.rho_ratio is not None else -fit.value
        normalized = ps * rep.grid ** expo
    summary = {
        "kind": "estimate",
        "statistic": args.statistic,
        "regime": args.regime,
        "mode": rep.mode,
        "grid": [float(g) for g in rep.grid],
        "n_replicas": int(table.n_replicas),
        "fit": _estimate_doc(fit),
        "diagnostics": float(rep.diagnostics),
        "extra": {k: v for k, v in rep.extra.items()},
        "flagged_points": int(np.sum(table.flagged)),
        "truncated_fraction": float(trunc.mean()) if trunc.size else 0.0,
    }
    if args.reference_constant is not None and rep.mode == "CriticalPlateau":
        ratio = fit.value / args.reference_constant
        summary["reference_constant"] = args.reference_constant
        summary["constant_factor"] = float(max(ratio, 1.0 / ratio))

    run = _open_run(args)
    run.write_csv("curve.csv",
                  ["n", "exceedances", "survival", "stderr", "normalized"],
                  [rep.grid, np.rint(ps * table.n_replicas).astype(np.int64),
                   ps, rep.stderr, normalized])
    run.write_json("summary.json", summary)
    return run.finish({"input_records": summary["truncated_fraction"]})


# ---------------------------------------------------------------------------
# report


# number -> (title, the note of a SKIP row when the runs allow no check)
CRITERIA = {
    1: ("exploration identity", "no simulate runs supplied"),
    2: ("oracle equivalence matrix", "runs in the test suite (oracle matrix)"),
    3: ("many-to-one functionals", "runs in the test suite (many-to-one)"),
    4: ("additive martingale means", "runs in the test suite (martingale means)"),
    5: ("renewal estimators vs closed forms", "no walk runs supplied"),
    6: ("first-passage constant band", "no walk runs supplied"),
    7: ("conditioned-walk consistency", "runs in the test suite (conditioned walks)"),
    8: ("survival scaling across levels", "no spine runs supplied"),
    9: ("subcritical progeny tail slope", "no subcritical tail fits supplied"),
    10: ("critical progeny tail plateau", "no critical tail fits supplied"),
    11: ("weighted-sum tail constant", "runs in the test suite (weighted-sum tails)"),
    12: ("reproducibility across worker counts",
         "no repeated config hash among supplied runs"),
}

# Every bound that turns a measured number into PASS/FAIL.  `kbrw report`
# and the acceptance suite (tests/test_acceptance.py) both read them here.
TOLERANCES = {
    "z": 4.0,                   # |z| of an estimate vs its reference (2-5, 8)
    "identity_gap": 1e-12,      # exact identities (3, 4, 7)
    "closed_form_rel": 0.01,    # renewal tables vs closed form (5)
    "cr_rel": 0.02,             # C_R vs closed form (5)
    "probe_band": (0.9, 1.1),   # first-passage probe product (6)
    "ks_p": 0.01,               # Tanaka vs h-transform, KS p-value floor (7)
    "truncated_share": 0.01,    # walks or trees cut by a cap (1, 7)
    "gauss_weight": 0.15,       # gaussian min-record weight mean vs 1 (7)
    "lattice_se": 3.0,          # lattice min-record weight mean vs 1, in SE (7)
    "critical_factor": 1.5,     # scaled survival ratio, critical (8)
    "subcritical_rel": 0.25,    # scaled survival ratio, subcritical (8)
    "slope_rel": 0.15,          # tail slope vs -rho_plus/rho_minus (9)
    "decade_ratio": 2.0,        # plateau max/min over the top decade (10)
    "constant_factor": 2.0,     # plateau constant vs c_crit (10)
    "weighted_tail_rel": 0.10,  # weighted-sum tail constant (11)
}

def _load_runs(dirs):
    loaded = []
    for d in dirs:
        d = Path(d)
        sp, mp = d / "summary.json", d / "MANIFEST.json"
        if not sp.exists():
            raise ConfigError(f"{d} has no summary.json")
        summary = json.loads(sp.read_text())
        manifest = json.loads(mp.read_text()) if mp.exists() else None
        loaded.append((str(d), summary, manifest))
    return loaded


def _criterion_rows(runs):
    """One row per criterion from its (ok, note) checks over ``runs``: SKIP
    with its reason when there are none, PASS when all hold, else FAIL; the
    notes are joined by "; "."""
    kinds: dict[str, list] = {}
    for _, s, _ in runs:
        kinds.setdefault(s.get("kind", "?"), []).append(s)
    checks = {num: [] for num in CRITERIA}
    skip = {}          # SKIP notes more precise than the table's
    tol = TOLERANCES

    sims = kinds.get("simulate", [])
    if sims:
        checked = sum(s["identity"]["checked"] for s in sims)
        viol = sum(s["identity"]["violations"] for s in sims)
        checks[1].append((checked > 0 and viol == 0,
                          f"{viol} violations over {checked} non-truncated trees"))
        # the gate's truncated-share bound, on the pooled tree count
        cut = sum(s["truncated_fraction"] * s["n_replicas"] for s in sims)
        share = tol["truncated_share"]
        if not cut <= share * sum(s["n_replicas"] for s in sims):
            checks[1].append((False, f"{cut:g} trees truncated, over {share:.0%}"))

    wks = kinds.get("walk", [])
    if wks:
        z = max(s["max_method_z"] for s in wks)
        rels = [s["max_closed_form_rel_err"] for s in wks
                if s["max_closed_form_rel_err"] is not None]
        crs = [s["cr_rel_err"] for s in wks if s["cr_rel_err"] is not None]
        checks[5] += [
            (z <= tol["z"], f"max method z {z:.2f}"),
            (all(r <= tol["closed_form_rel"] for r in rels),
             f"closed-form rel err {max(rels):.4f}" if rels else "no closed form"),
            (all(r <= tol["cr_rel"] for r in crs),
             f"C_R rel err {max(crs):.4f}" if crs else "no --cr-reference")]
        probes = [s["C_R"]["probe_product"] for s in wks
                  if s["C_R"].get("probe_product") is not None]
        if probes:
            band_lo, band_hi = tol["probe_band"]
            checks[6].append((all(band_lo <= p <= band_hi for p in probes),
                              "probe products "
                              + ", ".join(f"{p:.4f}" for p in probes)))
        skip[6] = "no first-passage probe in walk runs"

    sps = kinds.get("spine", [])
    for s in sps:
        z = s.get("z_spine_vs_naive")
        if z is not None:
            checks[8].append((z <= tol["z"],
                              f"naive overlap z {z:.2f} at t={s['t']:g}"))
    for i, a in enumerate(sps):
        for b in sps[i + 1:]:
            lo, hi = sorted((a, b), key=lambda s: s["t"])
            # the scaled value carries R(x) e^{rho x}: pair equal starts only
            if (lo["model"] == hi["model"] and lo["regime"] == hi["regime"]
                    and lo.get("x") == hi.get("x")
                    and abs(hi["t"] - 2.0 * lo["t"]) < 1e-9 * hi["t"]):
                ratio = hi["scaled"]["value"] / lo["scaled"]["value"]
                if lo["regime"] == "critical":
                    f = tol["critical_factor"]
                    ok, band = 1.0 / f <= ratio <= f, f"factor {f:g}"
                else:
                    r = tol["subcritical_rel"]
                    ok, band = abs(ratio - 1.0) <= r, f"{100 * r:g}%"
                checks[8].append((ok, f"scaled ratio t={lo['t']:g}->{hi['t']:g}: "
                                      f"{ratio:.3f} ({band})"))
    if sps:
        skip[8] = "no doubled-level pair and no naive overlap"

    for s in kinds.get("estimate", []):
        if s["mode"] == "SubcriticalSlope":
            skip[9] = "slope fits lack a reference exponent"
            dev = s["extra"].get("relative_deviation")
            if dev is not None:
                checks[9].append((dev <= tol["slope_rel"],
                                  f"slope {s['fit']['value']:.4f} vs "
                                  f"{s['extra']['reference_exponent']:.4f} "
                                  f"({100 * dev:.1f}%)"))
        elif s["mode"] == "CriticalPlateau":
            ok = s["diagnostics"] <= tol["decade_ratio"]
            note = f"top-decade ratio {s['diagnostics']:.3f}"
            if "constant_factor" in s:
                ok = ok and s["constant_factor"] <= tol["constant_factor"]
                note += f", constant factor {s['constant_factor']:.3f}"
            checks[10].append((ok, note))

    # summary digests per config hash, code version and seed scheme, over
    # the runs that carry a MANIFEST: only reruns of one code are compared
    digests: dict[tuple, list] = {}
    for _, _, m in runs:
        if m is not None and "summary.json" in m.get("outputs", {}):
            key = (m["config_sha256"], m.get("code_version"), m.get("seed_scheme"))
            digests.setdefault(key, []).append(m["outputs"]["summary.json"])
    repeated = [len(set(d)) == 1 for d in digests.values() if len(d) >= 2]
    if repeated:
        checks[12].append((all(repeated),
                           f"{len(repeated)} repeated config(s); summaries "
                           + ("all byte-identical" if all(repeated) else "DIFFER")))

    rows = []
    for num, (title, note) in CRITERIA.items():
        got = checks[num]
        status = "PASS" if all(ok for ok, _ in got) else "FAIL"
        rows.append({"criterion": num, "title": title,
                     "status": status if got else "SKIP",
                     "note": "; ".join(n for _, n in got) if got
                     else skip.get(num, note)})
    return rows


def cmd_report(args) -> int:
    runs = _load_runs(args.runs)
    rows = _criterion_rows(runs)
    width = max(len(r["title"]) for r in rows)
    lines = [f"{r['criterion']:>2}  {r['title']:<{width}}  {r['status']:<4}  "
             f"{r['note']}" for r in rows]
    text = "\n".join(lines)
    print(text)
    if args.out:
        run = _open_run(args)
        run.write_json("summary.json", {"kind": "report", "rows": rows})
        run.write_text("report.txt", text + "\n")
        return run.finish({})
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="kbrw",
        description="Branching random walk with killing at the origin: "
                    "simulation, estimation, and verification runs.")
    sub = p.add_subparsers(dest="command", required=True)

    def model_arg(sp):
        sp.add_argument("--model", type=_model, required=True,
                        help="builtin name, inline JSON, or a JSON file path")

    sp = sub.add_parser("analyze-model",
                        help="regime classification and tilt parameters")
    model_arg(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_analyze_model)

    sp = sub.add_parser("simulate", help="forward killed-forest replicas")
    model_arg(sp)
    sp.add_argument("--x", type=_finite, default=0.0)
    sp.add_argument("--levels", type=_levels, default=[],
                    help="comma-separated crossing levels")
    sp.add_argument("--replicas", type=_count, required=True)
    sp.add_argument("--seed", type=_seed, required=True)
    sp.add_argument("--workers", type=_count, default=1)
    sp.add_argument("--max-particles", type=int,
                    default=trees.SimCaps().max_particles)
    sp.add_argument("--max-generations", type=int,
                    default=trees.SimCaps().max_generations)
    sp.add_argument("--survival-curve", type=_grid, default=None,
                    help="thresholds n1,n2,...: emit P(Z>n) and P(leaves>n)")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("walk", help="renewal tables and first-passage probes "
                                     "for a tilted step walk")
    model_arg(sp)
    sp.add_argument("--tilt", choices=models.TILT_NAMES, required=True)
    sp.add_argument("--grid", type=_grid, required=True,
                    help="'a:b:step' or 'v1,v2,...'")
    sp.add_argument("--replicas", type=_count, required=True)
    sp.add_argument("--seed", type=_seed, required=True)
    sp.add_argument("--probe-t", type=_positive, default=50.0)
    sp.add_argument("--max-steps", type=_count, default=10 ** 6)
    sp.add_argument("--cr-reference", type=_positive, default=None,
                    help="closed-form first-passage constant, if known")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_walk)

    sp = sub.add_parser("spine", help="rare-event survival probability via "
                                      "the conditioned spine")
    model_arg(sp)
    sp.add_argument("--x", type=_finite, default=0.0)
    sp.add_argument("--t", type=_finite, required=True)
    sp.add_argument("--replicas", type=_count, required=True)
    sp.add_argument("--seed", type=_seed, required=True)
    sp.add_argument("--band-eps", type=_band_eps, default=1e-3)
    sp.add_argument("--naive-replicas", type=_nonnegative_count, default=0,
                    help="also run a forward-forest estimate for comparison")
    sp.add_argument("--renewal-grid", type=_grid, default=None,
                    help="grid for a Monte Carlo renewal table "
                         "(required for continuous steps)")
    sp.add_argument("--renewal-replicas", type=_count, default=200_000)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_spine)

    sp = sub.add_parser("oracle", help="exact small-depth expectation tables")
    model_arg(sp)
    sp.add_argument("--x", type=_finite, default=0.0)
    sp.add_argument("--depth", type=_nonnegative_count, required=True)
    sp.add_argument("--level", type=_finite, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("estimate", help="tail fit over recorded replicas")
    sp.add_argument("--records", type=_paths, required=True,
                    help="comma-separated records.csv paths")
    sp.add_argument("--statistic", choices=("Z", "leaves"), default="Z")
    sp.add_argument("--regime", choices=("critical", "subcritical"),
                    required=True)
    sp.add_argument("--grid", type=_grid, required=True)
    sp.add_argument("--rho-ratio", type=_negative, default=None,
                    help="reference tail exponent (negative)")
    sp.add_argument("--reference-constant", type=_positive, default=None,
                    help="predicted plateau constant for the critical mode")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_estimate)

    sp = sub.add_parser("report", help="criterion table over completed runs")
    sp.add_argument("--runs", type=_paths, required=True,
                    help="comma-separated run directories")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_report)

    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
