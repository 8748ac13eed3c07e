"""Experiment harness: reproducible runs over the simulation modules.

Every run writes into its output directory:

  records.csv    per-replica records (simulate) or per-grid-point tables
  summary.json   the estimates, keys sorted, no timestamps
  MANIFEST.json  config hash, code version, seed + scheme, truncation
                 accounting, and a sha256 per emitted file

Reruns with identical config and seed are byte-identical.  The worker count
never enters the artifacts: replicas are cut into fixed-size blocks, block i
is seeded by a versioned split of (seed, i), and results merge in block
order, so `--workers 1` and `--workers 8` produce identical files.  Only
`simulate` (up to `--workers`) and `walk` (its three estimators) fork worker
processes, never more than the usable CPUs; `taskset -c 0` runs all inline.

Exit codes: 0 success, 2 bad configuration, 3 run dominated by cap breaches
(truncated fraction above one half).  Bad input takes one path to exit 2:
argparse checks each flag's value (a bad, missing or unknown flag), the
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
        # workers and output path stay out: they must not change results
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


# ---------------------------------------------------------------------------
# shared flag handling


def _load_model(spec: str):
    try:
        return models.resolve_model(spec)
    except (ValueError, KeyError, OSError) as exc:
        raise ConfigError(f"model spec {spec!r}: {exc}") from exc


def _model_doc(model) -> dict:
    return json.loads(models.model_to_json(model))


def _parse_seed(text: str) -> int:
    try:
        seed = int(text, 0)
    except ValueError as exc:
        raise ConfigError(f"seed {text!r}: {exc}") from exc
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("seed must fit in 64 unsigned bits")
    return seed


def _parse_grid(spec: str) -> np.ndarray:
    """Either 'a:b:step' (inclusive endpoints) or 'v1,v2,...'; finite and
    strictly increasing values."""
    try:
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
        return np.asarray(vals)
    except ValueError as exc:
        raise ConfigError(f"grid {spec!r}: {exc}") from exc


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


def _run(tasks: list, workers: int, order=None):
    """Yield the results of ``tasks``, picklable zero-argument calls, in list
    order, raising a task's error at its turn.  They run inline with one
    task, worker or usable CPU, else on min(workers, tasks, usable CPUs)
    forked processes that take them in ``order`` (default: list order)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    procs = min(workers, len(tasks), cpus)
    if procs < 2:
        yield from (task() for task in tasks)
        return
    import multiprocessing  # here: an inline run never loads it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(procs, multiprocessing.get_context("fork")) as pool:
        futures = {i: pool.submit(tasks[i]) for i in order or range(len(tasks))}
        for i in range(len(tasks)):
            yield futures.pop(i).result()


def _sim_block(model_json, x, levels, count, seed, block, max_particles,
               max_gens):
    model = models.model_from_json(model_json)
    caps = trees.SimCaps(max_particles=max_particles, max_generations=max_gens)
    return trees.simulate_killed_forest(model, x, list(levels), count,
                                        rng_for_block(seed, block), caps)


def cmd_simulate(args) -> int:
    model = _load_model(args.model)
    try:
        levels = sorted(float(v) for v in args.levels.split(",")) if args.levels else []
    except ValueError as exc:
        raise ConfigError(f"levels {args.levels!r}: {exc}") from exc
    if len(set(levels)) != len(levels):
        raise ConfigError("duplicate levels")
    seed = _parse_seed(args.seed)
    n = args.replicas
    curve_grid = _parse_grid(args.survival_curve) if args.survival_curve else None

    model_json = models.model_to_json(model)
    tasks = [partial(_sim_block, model_json, args.x, tuple(levels),
                     min(BLOCK, n - i * BLOCK), seed, i, args.max_particles,
                     args.max_generations)
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

    if curve_grid is not None:
        for name, counts in (("Z", Z), ("leaves", leaves)):
            tab = stats.survival_curve(counts, curve_grid, truncated=trunc)
            summary[f"survival_{name}"] = {
                "grid": [float(g) for g in curve_grid],
                "p": tab.values.tolist(),
                "stderr": tab.stderr.tolist(),
                "exceedances": [int(k) for k in tab.exceedances],
                "flagged": [bool(f) for f in tab.flagged],
            }

    flags = {"x": args.x, "levels": levels, "replicas": n,
             "max_particles": args.max_particles,
             "max_generations": args.max_generations,
             "survival_curve": args.survival_curve}
    run = Run("simulate", summary["model"], flags, seed, args.out)
    header = ["replica", "Z", "leaves", "Y", "truncated", "generations"] \
        + [f"H_{_fmt_level(t)}" for t in levels]
    run.write_csv("records.csv", header,
                  [np.arange(n), Z, leaves, Y, trunc, gens, *H])
    run.write_json("summary.json", summary)
    return run.finish({"simulate": tf})


# ---------------------------------------------------------------------------
# analyze-model


def cmd_analyze_model(args) -> int:
    model = _load_model(args.model)
    an = model.analytics()
    doc = {
        "kind": "analyze-model",
        "model": _model_doc(model),
        "regime": an.regime.value,
        "mean_offspring": float(model.mean_offspring),
        "rho_star": an.rho_star,
        "rho_plus": an.rho_plus,
        "rho_minus": an.rho_minus,
    }
    drift = {}
    for name, rho in (("star", an.rho_star), ("plus", an.rho_plus),
                      ("minus", an.rho_minus)):
        if rho is not None:
            psi, dpsi, _ = models.log_laplace(model, rho)
            drift[name] = {"rho": float(rho), "psi": float(psi),
                           "tilted_drift": float(dpsi)}
    doc["tilts"] = drift
    text = json.dumps(doc, sort_keys=True, indent=2)
    print(text)
    if args.out:
        run = Run("analyze-model", doc["model"], {}, None, args.out)
        run.write_text("summary.json", text + "\n")
        return run.finish({})
    return 0


# ---------------------------------------------------------------------------
# walk


def cmd_walk(args) -> int:
    model = _load_model(args.model)
    grid = _parse_grid(args.grid)
    seed = _parse_seed(args.seed)
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
    cf = [None] * grid.size
    if closed is not None:
        cf = closed.values
        rel_err = float(max(np.max(np.abs(vv - cf) / cf),
                            np.max(np.abs(lv - cf) / cf)))

    summary = {
        "kind": "walk",
        "model": _model_doc(model),
        "tilt": args.tilt,
        "rho": tw.rho,
        "grid": [float(g) for g in grid],
        "max_method_z": float(np.max(z)) if grid.size else 0.0,
        "max_closed_form_rel_err": rel_err,
        "C_R": _estimate_doc(cr),
        "cr_reference": args.cr_reference,
        "cr_rel_err": (abs(cr.value - args.cr_reference) / args.cr_reference
                       if args.cr_reference is not None else None),
        "renewal_truncated_fraction": max(visit.truncated_fraction,
                                          ladder.truncated_fraction),
    }

    flags = {"tilt": args.tilt, "grid": summary["grid"],
             "replicas": args.replicas, "probe_t": args.probe_t,
             "max_steps": args.max_steps, "cr_reference": args.cr_reference}
    run = Run("walk", summary["model"], flags, seed, args.out)
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
    model = _load_model(args.model)
    seed = _parse_seed(args.seed)
    an = model.analytics()
    if args.x < 0:
        raise ConfigError("start must sit at or above the barrier")
    if args.t <= args.x:
        raise ConfigError("level must lie above the start")

    renewal = None
    if args.renewal_grid:
        tw = walks.make_tilted_walk(model)
        renewal = walks.renewal_function(tw, _parse_grid(args.renewal_grid),
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

    flags = {"x": args.x, "t": args.t, "replicas": args.replicas,
             "band_eps": args.band_eps, "naive_replicas": args.naive_replicas,
             "renewal_grid": args.renewal_grid,
             "renewal_replicas": args.renewal_replicas}
    run = Run("spine", summary["model"], flags, seed, args.out)
    run.write_json("summary.json", summary)
    return run.finish({"spine": est.truncated_fraction,
                       "renewal": summary["renewal_truncated_fraction"]})


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> int:
    model = _load_model(args.model)
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

    flags = {"x": args.x, "depth": args.depth, "level": args.level}
    run = Run("oracle", summary["model"], flags, None, args.out)
    run.write_csv("records.csv", ["generation", "alive", "leaves", "crossers"],
                  [np.arange(args.depth + 1), res.alive, res.leaves,
                   res.crossers])
    run.write_json("summary.json", summary)
    return run.finish({})


# ---------------------------------------------------------------------------
# estimate


def cmd_estimate(args) -> int:
    paths = [Path(p) for p in args.records.split(",")]
    counts, trunc = [], []
    for p in paths:
        if not p.exists():
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
    grid = _parse_grid(args.grid)
    table = stats.survival_curve(counts, grid, truncated=trunc)
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

    flags = {"statistic": args.statistic, "regime": args.regime,
             "grid": [float(g) for g in grid], "rho_ratio": args.rho_ratio,
             "reference_constant": args.reference_constant,
             "records": [str(p) for p in paths]}
    run = Run("estimate", None, flags, None, args.out)
    run.write_csv("curve.csv",
                  ["n", "exceedances", "survival", "stderr", "normalized"],
                  [rep.grid, np.rint(ps * table.n_replicas).astype(np.int64),
                   ps, rep.stderr, normalized])
    run.write_json("summary.json", summary)
    return run.finish({"input_records": summary["truncated_fraction"]})


# ---------------------------------------------------------------------------
# report


CRITERIA = [
    (1, "exploration identity"),
    (2, "oracle equivalence matrix"),
    (3, "many-to-one functionals"),
    (4, "additive martingale means"),
    (5, "renewal estimators vs closed forms"),
    (6, "first-passage constant band"),
    (7, "conditioned-walk consistency"),
    (8, "survival scaling across levels"),
    (9, "subcritical progeny tail slope"),
    (10, "critical progeny tail plateau"),
    (11, "weighted-sum tail constant"),
    (12, "reproducibility across worker counts"),
]

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

_SUITE_ONLY = {2: "runs in the test suite (oracle matrix)",
               3: "runs in the test suite (many-to-one)",
               4: "runs in the test suite (martingale means)",
               7: "runs in the test suite (conditioned walks)",
               11: "runs in the test suite (weighted-sum tails)"}


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
    by_kind: dict[str, list] = {}
    for name, summary, manifest in runs:
        by_kind.setdefault(summary.get("kind", "?"), []).append(
            (name, summary, manifest))
    rows = []

    def add(num, status, note):
        title = dict(CRITERIA)[num]
        rows.append({"criterion": num, "title": title, "status": status,
                     "note": note})

    sims = by_kind.get("simulate", [])
    if sims:
        checked = sum(s["identity"]["checked"] for _, s, _ in sims)
        viol = sum(s["identity"]["violations"] for _, s, _ in sims)
        # the gate's truncated-share bound, on the pooled tree count
        cut = sum(s["truncated_fraction"] * s["n_replicas"] for _, s, _ in sims)
        share = TOLERANCES["truncated_share"]
        few_cut = cut <= share * sum(s["n_replicas"] for _, s, _ in sims)
        add(1, "PASS" if checked > 0 and viol == 0 and few_cut else "FAIL",
            f"{viol} violations over {checked} non-truncated trees"
            + ("" if few_cut else f"; {cut:g} trees truncated, over {share:.0%}"))
    else:
        add(1, "SKIP", "no simulate runs supplied")

    for num in (2, 3, 4, 7, 11):
        add(num, "SKIP", _SUITE_ONLY[num])

    wks = by_kind.get("walk", [])
    if wks:
        zs = [s["max_method_z"] for _, s, _ in wks]
        rels = [s["max_closed_form_rel_err"] for _, s, _ in wks
                if s["max_closed_form_rel_err"] is not None]
        crs = [s["cr_rel_err"] for _, s, _ in wks if s["cr_rel_err"] is not None]
        ok = max(zs) <= TOLERANCES["z"] \
            and all(r <= TOLERANCES["closed_form_rel"] for r in rels) \
            and all(r <= TOLERANCES["cr_rel"] for r in crs)
        add(5, "PASS" if ok else "FAIL",
            f"max method z {max(zs):.2f}; "
            + (f"closed-form rel err {max(rels):.4f}" if rels
               else "no closed form") + "; "
            + (f"C_R rel err {max(crs):.4f}" if crs else "no --cr-reference"))
        probes = [s["C_R"].get("probe_product") for _, s, _ in wks]
        probes = [p for p in probes if p is not None]
        if probes:
            band_lo, band_hi = TOLERANCES["probe_band"]
            ok6 = all(band_lo <= p <= band_hi for p in probes)
            add(6, "PASS" if ok6 else "FAIL",
                "probe products " + ", ".join(f"{p:.4f}" for p in probes))
        else:
            add(6, "SKIP", "no first-passage probe in walk runs")
    else:
        add(5, "SKIP", "no walk runs supplied")
        add(6, "SKIP", "no walk runs supplied")

    sps_runs = by_kind.get("spine", [])
    if sps_runs:
        notes, ok8 = [], True
        for _, s, _ in sps_runs:
            z = s.get("z_spine_vs_naive")
            if z is not None:
                notes.append(f"naive overlap z {z:.2f} at t={s['t']:g}")
                ok8 &= z <= TOLERANCES["z"]
        for i, (_, a, _) in enumerate(sps_runs):
            for _, b, _ in sps_runs[i + 1:]:
                lo, hi = sorted((a, b), key=lambda s: s["t"])
                if (lo["model"] == hi["model"] and lo["regime"] == hi["regime"]
                        and abs(hi["t"] - 2.0 * lo["t"]) < 1e-9 * hi["t"]):
                    ratio = hi["scaled"]["value"] / lo["scaled"]["value"]
                    if lo["regime"] == "critical":
                        f = TOLERANCES["critical_factor"]
                        good = 1.0 / f <= ratio <= f
                        band = f"factor {f:g}"
                    else:
                        r = TOLERANCES["subcritical_rel"]
                        good = abs(ratio - 1.0) <= r
                        band = f"{100 * r:g}%"
                    ok8 &= good
                    notes.append(f"scaled ratio t={lo['t']:g}->{hi['t']:g}: "
                                 f"{ratio:.3f} ({band})")
        if notes:
            add(8, "PASS" if ok8 else "FAIL", "; ".join(notes))
        else:
            add(8, "SKIP", "no doubled-level pair and no naive overlap")
    else:
        add(8, "SKIP", "no spine runs supplied")

    ests = by_kind.get("estimate", [])
    slopes = [(n, s) for n, s, _ in ests if s["mode"] == "SubcriticalSlope"]
    if slopes:
        notes, ok9 = [], True
        for _, s in slopes:
            dev = s["extra"].get("relative_deviation")
            if dev is None:
                continue
            ref = s["extra"]["reference_exponent"]
            ok9 &= dev <= TOLERANCES["slope_rel"]
            notes.append(f"slope {s['fit']['value']:.4f} vs {ref:.4f} "
                         f"({100 * dev:.1f}%)")
        if notes:
            add(9, "PASS" if ok9 else "FAIL", "; ".join(notes))
        else:
            add(9, "SKIP", "slope fits lack a reference exponent")
    else:
        add(9, "SKIP", "no subcritical tail fits supplied")

    plateaus = [(n, s) for n, s, _ in ests if s["mode"] == "CriticalPlateau"]
    if plateaus:
        notes, ok10 = [], True
        for _, s in plateaus:
            ok10 &= s["diagnostics"] <= TOLERANCES["decade_ratio"]
            note = f"top-decade ratio {s['diagnostics']:.3f}"
            if "constant_factor" in s:
                ok10 &= s["constant_factor"] <= TOLERANCES["constant_factor"]
                note += f", constant factor {s['constant_factor']:.3f}"
            notes.append(note)
        add(10, "PASS" if ok10 else "FAIL", "; ".join(notes))
    else:
        add(10, "SKIP", "no critical tail fits supplied")

    groups: dict[str, set] = {}
    for _, s, m in runs:
        if m is not None and "summary.json" in m.get("outputs", {}):
            groups.setdefault(m["config_sha256"], set()).add(
                m["outputs"]["summary.json"])
    repeated = {h: v for h, v in groups.items()
                if sum(1 for _, _, m in runs
                       if m and m["config_sha256"] == h) >= 2}
    if repeated:
        ok12 = all(len(v) == 1 for v in repeated.values())
        add(12, "PASS" if ok12 else "FAIL",
            f"{len(repeated)} repeated config(s); summaries "
            + ("all byte-identical" if ok12 else "DIFFER"))
    else:
        add(12, "SKIP", "no repeated config hash among supplied runs")

    rows.sort(key=lambda r: r["criterion"])
    return rows


def cmd_report(args) -> int:
    runs = _load_runs(args.runs.split(","))
    rows = _criterion_rows(runs)
    width = max(len(r["title"]) for r in rows)
    lines = [f"{r['criterion']:>2}  {r['title']:<{width}}  {r['status']:<4}  "
             f"{r['note']}" for r in rows]
    text = "\n".join(lines)
    print(text)
    if args.out:
        run = Run("report", None, {"runs": sorted(args.runs.split(","))},
                  None, args.out)
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
        sp.add_argument("--model", required=True,
                        help="builtin name, inline JSON, or a JSON file path")

    sp = sub.add_parser("analyze-model",
                        help="regime classification and tilt parameters")
    model_arg(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_analyze_model)

    sp = sub.add_parser("simulate", help="forward killed-forest replicas")
    model_arg(sp)
    sp.add_argument("--x", type=_finite, default=0.0)
    sp.add_argument("--levels", default=None,
                    help="comma-separated crossing levels")
    sp.add_argument("--replicas", type=_count, required=True)
    sp.add_argument("--seed", required=True)
    sp.add_argument("--workers", type=_count, default=1)
    sp.add_argument("--max-particles", type=int,
                    default=trees.SimCaps().max_particles)
    sp.add_argument("--max-generations", type=int,
                    default=trees.SimCaps().max_generations)
    sp.add_argument("--survival-curve", default=None,
                    help="thresholds n1,n2,...: emit P(Z>n) and P(leaves>n)")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("walk", help="renewal tables and first-passage probes "
                                     "for a tilted step walk")
    model_arg(sp)
    sp.add_argument("--tilt", choices=("star", "plus", "minus"), required=True)
    sp.add_argument("--grid", required=True, help="'a:b:step' or 'v1,v2,...'")
    sp.add_argument("--replicas", type=_count, required=True)
    sp.add_argument("--seed", required=True)
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
    sp.add_argument("--seed", required=True)
    sp.add_argument("--band-eps", type=_band_eps, default=1e-3)
    sp.add_argument("--naive-replicas", type=_nonnegative_count, default=0,
                    help="also run a forward-forest estimate for comparison")
    sp.add_argument("--renewal-grid", default=None,
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
    sp.add_argument("--records", required=True,
                    help="comma-separated records.csv paths")
    sp.add_argument("--statistic", choices=("Z", "leaves"), default="Z")
    sp.add_argument("--regime", choices=("critical", "subcritical"),
                    required=True)
    sp.add_argument("--grid", required=True)
    sp.add_argument("--rho-ratio", type=_negative, default=None,
                    help="reference tail exponent (negative)")
    sp.add_argument("--reference-constant", type=_positive, default=None,
                    help="predicted plateau constant for the critical mode")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_estimate)

    sp = sub.add_parser("report", help="criterion table over completed runs")
    sp.add_argument("--runs", required=True,
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
