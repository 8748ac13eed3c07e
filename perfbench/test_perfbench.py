"""Tests of the benchmark's own machinery: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
from tracing import Span, Tracer, self_times, still_wrapped  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),       # overlaps a: covered once, not twice
        Span("a.x", 2.0, 3.0, 1),
        Span("c", 9.5, 12.0, 0),      # runs past its parent: clipped at 10
    ]
    assert self_times(spans) == [10.0 - 5.0 - 0.5, 2.0, 3.0, 1.0, 2.5]


def test_tracer_records_nesting_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda n: n * 2,
                        counter=lambda counts, args, kw, res: counts.update(out=res))
    outer = tracer.wrap("outer", lambda: inner(3) + inner(4))
    assert outer() == 14
    names = [(s.name, s.parent, s.counts) for s in tracer.spans]
    assert names == [("outer", -1, {}), ("inner", 0, {"out": 6}),
                     ("inner", 0, {"out": 8})]
    # clock ticks: outer enters at 0, spans 1..10 and leaves at 11; the
    # inner calls enter at 2 and 6, span 3..4 and 7..8, leave at 5 and 9
    assert self_times(tracer.spans) == [7.0, 1.0, 1.0]
    assert tracer.overhead_s == 3 * 2.0


def test_every_wrapper_is_removed_after_a_traced_call():
    import kbrw
    import kbrw.cli  # noqa: F401  loads every wrapped submodule
    found = layers.targets(kbrw)
    originals = [vars(owner)[attr] for owner, attr, _, _ in found]
    tracer = Tracer()
    try:
        layers.install(tracer, kbrw)
        assert len(still_wrapped(found)) == len(found)
        walk = kbrw.walks.make_tilted_walk(kbrw.models.critical_lattice_binary(), "star")
        ens = kbrw.spines.passage_ensemble(walk, 0.0, 64, np.random.default_rng(1))
    finally:
        tracer.uninstall()
    assert still_wrapped(found) == []
    assert all(vars(owner)[attr] is orig
               for (owner, attr, _, _), orig in zip(found, originals))
    passage = [s for s in tracer.spans if s.name == "walks.passage"]
    assert len(passage) == 1 and passage[0].counts["steps"] == int(ens.n_steps.sum())
    draws = [s for s in tracer.spans if s.name == "walks.draw"]
    assert draws and all(tracer.spans[s.parent].name == "walks.passage" for s in draws)


def test_layer_metrics_cover_every_listed_name():
    values = layers.layer_metrics([], overhead_s=0.25)
    assert list(values) == list(layers.METRICS)
    assert values["trace.overhead_s"] == 0.25
    assert values["walks.useful_step_ratio"] == 0.0      # no walk layer entered


def _run_dir(tmp_path: Path, payload: bytes, version: str) -> Path:
    d = tmp_path / "run"
    d.mkdir(exist_ok=True)
    (d / "records.csv").write_bytes(payload)
    (d / "MANIFEST.json").write_text(json.dumps({
        "code_version": version, "seed_scheme": "scheme-v1",
        "outputs": {"records.csv": checks._sha256(payload)}}))
    return d


def test_hash_check_tells_changed_bytes_from_a_declared_bump(tmp_path):
    d = _run_dir(tmp_path, b"x\n1\n", "0.1.0")
    reference = {"stamp": checks.stamp(d),
                 "workloads": {"w": {"7": {"run": checks.dir_digest(d)}}}}

    def verdict(path, seed=7):
        return checks.compare(reference, "w", seed, "run",
                              checks.dir_digest(path), checks.stamp(path))

    assert verdict(d) == checks.MATCH
    assert verdict(d, seed=8) == checks.UNREFERENCED
    changed = _run_dir(tmp_path, b"x\n2\n", "0.1.0")
    assert checks.manifest_consistent(changed)
    assert verdict(changed) == checks.CHANGED
    bumped = _run_dir(tmp_path, b"x\n2\n", "0.2.0")
    assert verdict(bumped) == checks.UNREFERENCED


def test_criterion5_closed_form_clause_alone_is_not_counted():
    row = {"criterion": 5, "status": "FAIL", "note": "n"}
    walk = {"kind": "walk", "max_method_z": 1.0, "cr_rel_err": 0.0}
    sims = {"a": walk, "s": {"kind": "simulate"}}
    assert checks.report_failure([row], sims, {}) is None
    bad = dict(walk, max_method_z=4.5)
    assert checks.report_failure([row], {"a": bad}, {}) == "criterion 5 FAIL: n"
    plateau = {"criterion": 10, "status": "FAIL", "note": "n"}
    assert checks.report_failure([row, plateau], sims, {}) == "criterion 10 FAIL: n"


def test_criterion6_is_judged_with_the_probe_standard_error():
    row = {"criterion": 6, "status": "FAIL", "note": "n"}

    def walk(product, p):
        return {"a": {"kind": "walk", "C_R": {
            "value": 1.0, "stderr": 0.0, "probe_product": product, "probe_p": p}}}

    # 0.89 = 50 * 0.0178: the product's standard error is about 0.021 at
    # 10^5 replicas and 0.0021 at 10^7, so the excursion below 0.9 is inside
    # 3 of them at the first budget and outside at the second
    assert checks.report_failure([row], walk(0.89, 0.0178), {"a": 10 ** 5}) is None
    assert checks.report_failure([row], walk(0.89, 0.0178), {"a": 10 ** 7}) \
        == "criterion 6 FAIL: n"
    assert checks.report_failure([row], walk(0.5, 0.01), {"a": 10 ** 5}) \
        == "criterion 6 FAIL: n"
    assert checks.report_failure([row], walk(0.0, 0.0), {"a": 10 ** 5}) \
        == "criterion 6 FAIL: n"
