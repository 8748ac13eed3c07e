"""Which kbrw functions the traced run wraps, and the per-layer metrics.

Layers are the modules of ``src/kbrw``.  ``oracle`` (millisecond DPs at
depth 200), ``seeds`` and ``estimates`` (bookkeeping) carry no workload and
are not wrapped.  A name bound by ``from ... import`` is a separate
attribute of the importing module and gets its own wrapper.
"""

from __future__ import annotations

from tracing import Span, Tracer, self_times


def _arg(fn_args, kwargs, pos: int, name: str):
    return fn_args[pos] if len(fn_args) > pos else kwargs[name]


def _count_csv(counts, args, kwargs, result):
    run, name = args[0], _arg(args, kwargs, 1, "name")
    path = run.config.output_dir / name
    counts["bytes"] = path.stat().st_size
    with open(path, "rb") as fh:
        lines = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))
    counts["rows"] = lines - 1                    # header line excluded


def _count_draws(counts, args, kwargs, result):
    counts["draws"] = int(_arg(args, kwargs, 2, "n"))


def _count_forest(counts, args, kwargs, result):
    counts["roots"] = int(result.Z.size)
    counts["particles"] = int(result.Z.sum() + result.leaves.sum())
    counts["generations_max"] = int(result.generations.max(initial=0))
    counts["truncated"] = int(result.truncated.sum())


def _count_passage(counts, args, kwargs, result):
    steps = result.n_steps
    counts["steps"] = int(steps.sum())
    counts["capped_steps"] = int(steps[result.truncated].sum())


def _count_truncation(n_pos: int):
    def count(counts, args, kwargs, result):
        n = int(_arg(args, kwargs, n_pos, "n_replicas"))
        counts["replicas"] = n
        counts["truncated"] = float(result.truncated_fraction) * n
    return count


def _count_spine(counts, args, kwargs, result):
    counts["replicas"] = int(_arg(args, kwargs, 3, "n_replicas"))
    for key in ("ess", "invalid_fraction", "bias_bound"):
        counts[key] = float(result.extra[key])


def targets(kbrw) -> list[tuple[object, str, str, object]]:
    """``(owner, attribute, span name, counter)`` for every wrapped function;
    ``kbrw`` is the imported package with its submodules loaded."""
    cli, models, trees = kbrw.cli, kbrw.models, kbrw.trees
    walks, spines, stats = kbrw.walks, kbrw.spines, kbrw.stats
    out = [(cli, f"cmd_{c}", f"cli.cmd_{c}", None)
           for c in ("simulate", "walk", "spine", "estimate", "report")]
    out += [
        (cli.Run, "write_csv", "cli.write_csv", _count_csv),
        (cli.Run, "write_json", "cli.write_json", None),
        (models._ModelBase, "analytics", "models.analytics", None),
        (trees, "simulate_killed_forest", "trees.forest", _count_forest),
        (walks.TiltedWalk, "sample", "walks.draw", _count_draws),
        (walks, "renewal_function", "walks.renewal", _count_truncation(2)),
        (walks, "_renewal_visit_count", "walks.renewal_visit", None),
        (walks, "_renewal_duality", "walks.renewal_ladder", None),
        (spines, "estimate_survival_spine", "spines.survival", _count_spine),
        (stats, "survival_curve", "stats.survival_curve", None),
        (stats, "tail_fit", "stats.tail_fit", None),
    ]
    out += [(cls, "sample", "models.sample", _count_draws)
            for cls in (models.TwoPointStep, models.GaussianStep,
                        models.FiniteStep, models.FixedOffspring,
                        models.PmfOffspring)]
    out += [(mod, "passage_ensemble", "walks.passage", _count_passage)
            for mod in (walks, spines, stats)]
    out += [(mod, "estimate_C_R", "walks.cr", _count_truncation(1))
            for mod in (walks, stats)]
    return out


def install(tracer: Tracer, kbrw) -> None:
    for owner, attr, name, counter in targets(kbrw):
        tracer.install(owner, attr, name, counter)


# name -> unit, in print order; BENCHMARK.json lists the same names
METRICS = {
    "cli.csv_write_s": "s",
    "cli.csv_rows": "count",
    "cli.csv_bytes": "bytes",
    "cli.records_read_s": "s",
    "models.sample_s": "s",
    "models.draws": "count",
    "models.analytics_calls": "count",
    "models.analytics_s": "s",
    "trees.forest_s": "s",
    "trees.forest_calls": "count",
    "trees.roots": "count",
    "trees.particles": "count",
    "trees.particles_per_s": "1/s",
    "trees.generations_max": "count",
    "trees.truncated_fraction": "fraction",
    "walks.passage_s": "s",
    "walks.passage_calls": "count",
    "walks.passage_steps": "count",
    "walks.passage_steps_per_s": "1/s",
    "walks.drawn_steps": "count",
    "walks.useful_step_ratio": "ratio",
    "walks.capped_step_share": "fraction",
    "walks.truncated_fraction": "fraction",
    "walks.renewal_visit_s": "s",
    "walks.renewal_ladder_s": "s",
    "walks.cr_s": "s",
    "spines.self_s": "s",
    "spines.forest_share": "fraction",
    "spines.ess": "count",
    "spines.invalid_fraction": "fraction",
    "spines.bias_bound": "probability",
    "stats.survival_curve_s": "s",
    "stats.tail_fit_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(a: float, b: float) -> float:
    """a / b, and 0 where the layer did no work (b == 0)."""
    return a / b if b else 0.0


def layer_metrics(spans: list[Span], overhead_s: float) -> dict[str, float]:
    """Reduce the spans of one traced workload to the METRICS values.

    A layer the workload never enters reports 0 for each of its metrics.
    """
    own = self_times(spans)
    by: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by.setdefault(s.name, []).append(i)

    def total(name: str) -> float:
        return sum(spans[i].duration for i in by.get(name, ()))

    def self_total(name: str) -> float:
        return sum(own[i] for i in by.get(name, ()))

    def count(name: str, key: str) -> float:
        return sum(spans[i].counts.get(key, 0) for i in by.get(name, ()))

    def inside(i: int, name: str) -> bool:
        p = spans[i].parent
        while p >= 0:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    forest_s = total("trees.forest")
    particles = count("trees.forest", "particles")
    roots = count("trees.forest", "roots")
    passage_s = total("walks.passage")
    steps = count("walks.passage", "steps")
    drawn_in_passage = sum(spans[i].counts.get("draws", 0)
                           for i in by.get("walks.draw", ())
                           if spans[i].parent >= 0
                           and spans[spans[i].parent].name == "walks.passage")
    est_replicas = count("walks.renewal", "replicas") + count("walks.cr", "replicas")
    est_truncated = count("walks.renewal", "truncated") + count("walks.cr", "truncated")
    spine = by.get("spines.survival", [])
    spine_s = total("spines.survival")
    spine_forest_s = sum(spans[i].duration for i in by.get("trees.forest", ())
                         if inside(i, "spines.survival"))

    def spine_mean(key: str) -> float:
        return _ratio(sum(spans[i].counts.get(key, 0.0) for i in spine), len(spine))

    values = {
        "cli.csv_write_s": total("cli.write_csv"),
        "cli.csv_rows": count("cli.write_csv", "rows"),
        "cli.csv_bytes": count("cli.write_csv", "bytes"),
        "cli.records_read_s": self_total("cli.cmd_estimate"),
        "models.sample_s": total("models.sample"),
        "models.draws": count("models.sample", "draws"),
        "models.analytics_calls": len(by.get("models.analytics", ())),
        "models.analytics_s": total("models.analytics"),
        "trees.forest_s": forest_s,
        "trees.forest_calls": len(by.get("trees.forest", ())),
        "trees.roots": roots,
        "trees.particles": particles,
        "trees.particles_per_s": _ratio(particles, forest_s),
        "trees.generations_max": max((spans[i].counts.get("generations_max", 0)
                                      for i in by.get("trees.forest", ())), default=0),
        "trees.truncated_fraction": _ratio(count("trees.forest", "truncated"), roots),
        "walks.passage_s": passage_s,
        "walks.passage_calls": len(by.get("walks.passage", ())),
        "walks.passage_steps": steps,
        "walks.passage_steps_per_s": _ratio(steps, passage_s),
        "walks.drawn_steps": count("walks.draw", "draws"),
        "walks.useful_step_ratio": _ratio(steps, drawn_in_passage),
        "walks.capped_step_share": _ratio(count("walks.passage", "capped_steps"), steps),
        "walks.truncated_fraction": _ratio(est_truncated, est_replicas),
        "walks.renewal_visit_s": self_total("walks.renewal_visit"),
        "walks.renewal_ladder_s": self_total("walks.renewal_ladder"),
        "walks.cr_s": self_total("walks.cr"),
        "spines.self_s": self_total("spines.survival"),
        "spines.forest_share": _ratio(spine_forest_s, spine_s),
        "spines.ess": spine_mean("ess"),
        "spines.invalid_fraction": spine_mean("invalid_fraction"),
        "spines.bias_bound": spine_mean("bias_bound"),
        "stats.survival_curve_s": total("stats.survival_curve"),
        "stats.tail_fit_s": total("stats.tail_fit"),
        "trace.overhead_s": overhead_s,
    }
    assert values.keys() == METRICS.keys()
    return values
