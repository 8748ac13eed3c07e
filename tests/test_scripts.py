"""Smoke runs of the study scripts in scripts/, end to end at tiny budgets."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_renewal_study(tmp_path):
    assert load("run_renewal_study").run(tmp_path, 10, 910) == 0
    assert {p.name for p in tmp_path.iterdir()} == {"critical_star", "two_point_plus"}


def test_survival_study(tmp_path):
    # replicas, naive replicas, gaussian table replicas
    assert load("run_survival_study").run(tmp_path, 10, 10, 10, 920) == 0
    s = json.loads((tmp_path / "two-point_t4" / "summary.json").read_text())
    assert s["naive"] is not None and s["estimate"]["value"] > 0.0


def test_tail_study(tmp_path, monkeypatch):
    # the study's grid starts at n = 100, which takes millions of trees to
    # fill; on the benchmark's grid both fits pass from about 70,000 trees
    study = load("run_tail_study")
    monkeypatch.setattr(study, "GRID", "10,18,32,56,100")
    assert study.run(tmp_path, 100_000, 930, 1) == 0
    for model in ("two-point", "critical-gaussian"):
        assert (tmp_path / f"{model}_fit" / "summary.json").exists()


def test_every_study_has_a_smoke_run():
    assert {p.stem for p in SCRIPTS.glob("run_*_study.py")} == {
        "run_renewal_study", "run_survival_study", "run_tail_study"}
