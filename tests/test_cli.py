"""End-to-end checks of the experiment harness."""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kbrw import cli, oracle, models


SRC = Path(cli.__file__).resolve().parents[1]


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def assert_rerun_identical(root, *argv):
    """Two runs of one command write the same files, byte for byte."""
    for name in ("a", "b"):
        assert run_cli(*argv, "--out", root / name) == 0
    files = sorted(p.name for p in (root / "a").iterdir())
    assert files == sorted(p.name for p in (root / "b").iterdir())
    for f in files:
        assert (root / "a" / f).read_bytes() == (root / "b" / f).read_bytes(), f


@pytest.fixture(scope="session")
def sim_runs(tmp_path_factory):
    """Two identical critical-lattice runs (different worker counts) plus a
    two-point run big enough for a tail fit downstream."""
    root = tmp_path_factory.mktemp("runs")
    base = ["simulate", "--model", "critical-lattice", "--replicas", 30_000,
            "--seed", 7, "--levels", "2,4", "--survival-curve", "4,16,64"]
    assert run_cli(*base, "--workers", 1, "--out", root / "w1") == 0
    assert run_cli(*base, "--workers", 2, "--out", root / "w2") == 0
    assert run_cli("simulate", "--model", "two-point", "--replicas", 120_000,
                   "--seed", 21, "--out", root / "tp") == 0
    return root


class TestSimulate:
    def test_worker_count_does_not_change_bytes(self, sim_runs):
        for name in ("records.csv", "summary.json", "MANIFEST.json"):
            a = (sim_runs / "w1" / name).read_bytes()
            b = (sim_runs / "w2" / name).read_bytes()
            assert a == b, name

    def test_rerun_is_byte_identical(self, sim_runs, tmp_path):
        assert run_cli("simulate", "--model", "two-point", "--replicas",
                       120_000, "--seed", 21, "--out", tmp_path / "again") == 0
        for name in ("records.csv", "summary.json", "MANIFEST.json"):
            assert (tmp_path / "again" / name).read_bytes() == \
                (sim_runs / "tp" / name).read_bytes(), name

    def test_identity_scoped_to_fully_explored_trees(self, sim_runs):
        s = json.loads((sim_runs / "w1" / "summary.json").read_text())
        assert s["identity"]["violations"] == 0
        assert 0 < s["identity"]["checked"] <= s["n_replicas"]
        # frozen crossers and truncated trees are excluded from the check
        d = np.genfromtxt(sim_runs / "w1" / "records.csv", delimiter=",",
                          names=True)
        assert d.dtype.names == ("replica", "Z", "leaves", "Y", "truncated",
                                 "generations", "H_2", "H_4")
        full = (d["H_4"] == 0) & (d["truncated"] == 0)
        assert s["identity"]["checked"] == int(full.sum())
        assert np.all(d["Y"][full] == d["leaves"][full])

    def test_manifest_hashes_match_files(self, sim_runs):
        man = json.loads((sim_runs / "w1" / "MANIFEST.json").read_text())
        for name, digest in man["outputs"].items():
            data = (sim_runs / "w1" / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest
        assert man["seed"] == 7
        assert man["truncation"]["simulate"] < 0.01

    def test_survival_curve_block(self, sim_runs):
        s = json.loads((sim_runs / "w1" / "summary.json").read_text())
        for key in ("survival_Z", "survival_leaves"):
            block = s[key]
            assert block["grid"] == [4.0, 16.0, 64.0]
            assert block["p"] == sorted(block["p"], reverse=True)
        assert set(s["p_reach"]) == {"2", "4"}

    # sha256 of (records.csv, summary.json), written by kbrw 0.6.0, whose
    # records write made one Python string per cell: the tail-forest
    # models at 2^15 trees, one with the H_* columns and the survival curves
    @pytest.mark.parametrize("extra, pins", [
        (["--model", "two-point"],
         ("5b0a779e805dd9ee7f6bf7e427af4ef75cfca4a22dc0fed9b0bd12ace450cd72",
          "20524374abcca1aafbc7955564f7e4f09133af6c24f8f2b508e9b3df454c4f71")),
        (["--model", "critical-gaussian", "--levels", "2,4",
          "--survival-curve", "10,32,100"],
         ("d3dceb912c33f5d63e854dab561c2bb8e9f883017a39abf20c50b154694e06ff",
          "599aa32c1a636c8eb30fdce9f02c3f7e52d116ecdab03c9d8b3caacba04bb133")),
    ], ids=["two-point", "critical-gaussian-levels"])
    def test_bytes_are_pinned(self, tmp_path, extra, pins):
        out = tmp_path / "sim"
        assert run_cli("simulate", *extra, "--replicas", 1 << 15,
                       "--seed", 930, "--out", out) == 0
        got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("records.csv", "summary.json"))
        assert got == pins


# binary offspring with N(0,1) steps: drift up, outside both regimes
SUPERCRITICAL = json.dumps({"kind": "iid",
                            "nu": {"type": "deterministic", "value": 2},
                            "x": {"type": "gaussian", "mu": 0.0, "sigma": 1.0}})


class TestExitCodes:
    def test_bad_model_is_config_error(self, tmp_path, capsys):
        cases = [("--model", "no-such-model"),
                 ("--levels", "1,2,3,4,5,6,7,8,9"),
                 ("--x", 3, "--levels", 2),
                 ("--x", -1),
                 ("--model", SUPERCRITICAL),
                 ("--seed", "abc"),
                 ("--levels", "2,x"),
                 ("--levels", "nan"),
                 ("--levels", "2,inf"),
                 ("--survival-curve", "4,nan"),
                 ("--survival-curve", "16,4"),
                 ("--survival-curve", "3,3,5"),
                 ("--x", "nan")]
        for k, extra in enumerate(cases):
            out = tmp_path / f"x{k}"
            code = run_cli("simulate", "--model", "critical-lattice",
                           "--replicas", 10, "--seed", 1, *extra, "--out", out)
            assert code == 2, extra
            assert "config error" in capsys.readouterr().err
            assert not out.exists(), extra

    def test_cap_dominated_run_exits_3(self, tmp_path):
        code = run_cli("simulate", "--model", "critical-lattice", "--replicas",
                       500, "--seed", 5, "--max-particles", 1,
                       "--out", tmp_path / "cap")
        assert code == 3
        s = json.loads((tmp_path / "cap" / "summary.json").read_text())
        assert s["truncated_fraction"] > 0.5

    def test_console_entry_point(self, tmp_path):
        # one true subprocess pass through the installed module path
        proc = subprocess.run(
            [sys.executable, "-m", "kbrw.cli", "analyze-model",
             "--model", "two-point"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["regime"] == "subcritical"
        assert doc["rho_minus"] == pytest.approx(0.9362934400221681, abs=1e-12)
        assert doc["rho_plus"] == pytest.approx(2.0081455391442722, abs=1e-12)


# (argv without --out, a word the message must hold): a bad value of each
# checked flag, a missing and an unknown flag, and an unknown subcommand
WALK = ["walk", "--model", "two-point", "--tilt", "plus", "--grid", "0:9:1",
        "--seed", 910]
SPINE = ["spine", "--model", "critical-lattice", "--t", 2, "--replicas", 10,
         "--seed", 1]
ORACLE = ["oracle", "--model", "critical-lattice", "--depth", 3]
ESTIMATE = ["estimate", "--records", "missing.csv", "--regime", "critical",
            "--grid", "2,4"]
SIM = ["simulate", "--model", "critical-lattice", "--seed", 1]
BAD_INPUT = [
    (["analyze-model"], "--model"),
    (["analyze-model", "--model", "two-point", "--depth", 3], "--depth"),
    ([*SIM], "--replicas"),
    ([*SIM, "--replicas", 0], "--replicas"),
    ([*SIM, "--replicas", "1e3"], "--replicas"),
    ([*SIM, "--replicas", 10, "--workers", 0], "--workers"),
    ([*SIM, "--replicas", 10, "--x", "nan"], "--x"),
    # no walk of one escapes the drift-up tilt's cutoff: C_R is 1/0
    ([*WALK, "--replicas", 1], "--replicas"),
    # one zero-drift walk, one step: no undershoot to average
    (["walk", "--model", "critical-gaussian", "--tilt", "star", "--grid",
      "0:2:1", "--replicas", 1, "--max-steps", 1, "--seed", 1], "--max-steps"),
    ([*WALK, "--replicas", 0], "--replicas"),
    ([*WALK, "--replicas", 10, "--max-steps", 0], "--max-steps"),
    ([*WALK, "--replicas", 10, "--probe-t", "inf"], "--probe-t"),
    ([*WALK, "--replicas", 10, "--cr-reference=-3"], "--cr-reference"),
    ([*WALK, "--replicas", 10, "--tilt", "up"], "--tilt"),
    ([*SPINE, "--t", "nan"], "--t"),
    ([*SPINE, "--x", "inf"], "--x"),
    ([*SPINE, "--replicas", 0], "--replicas"),
    ([*SPINE, "--band-eps", 1], "--band-eps"),
    ([*SPINE, "--naive-replicas=-5"], "--naive-replicas"),
    ([*SPINE, "--renewal-replicas", 0], "--renewal-replicas"),
    (["spine", "--model", "critical-lattice", "--replicas", 10, "--seed", 1],
     "--t"),
    ([*ORACLE, "--depth", -1], "--depth"),
    ([*ORACLE, "--level", "nan"], "--level"),
    ([*ORACLE, "--x", "inf"], "--x"),
    ([*ESTIMATE, "--rho-ratio", 0], "--rho-ratio"),
    ([*ESTIMATE, "--reference-constant", "inf"], "--reference-constant"),
    ([*ESTIMATE, "--regime", "supercritical"], "--regime"),
    (["report"], "--runs"),
    (["no-such-command"], "command"),
    ([], "command"),
]


class TestBadInput:
    @pytest.mark.parametrize("argv, flag", BAD_INPUT,
                             ids=[" ".join(map(str, a)) for a, _ in BAD_INPUT])
    def test_returns_2_without_a_run_directory(self, tmp_path, capsys, argv,
                                               flag):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert "config error" in err and flag in err
        assert not out.exists()

    def test_drift_up_walk_runs_at_two_replicas(self, tmp_path):
        assert run_cli(*WALK, "--replicas", 2, "--out", tmp_path / "w") == 0


def config_hash(out) -> str:
    return json.loads((out / "MANIFEST.json").read_text())["config_sha256"]


class TestConfig:
    """The config hash covers each parsed flag but --out and --workers."""

    # parsed values the config's flags leave out: they must not change
    # results, or the config records them on their own
    EXCLUDED = {"out", "workers", "model", "seed"}

    def test_report_run_order_moves_the_hash(self, tmp_path):
        # the notes follow the order of --runs, so the config must as well
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "summary.json").write_text('{"kind": "oracle"}')
        a, b = tmp_path / "a", tmp_path / "b"
        for runs, out in ((f"{a},{b}", "ab"), (f"{b},{a}", "ba")):
            assert run_cli("report", "--runs", runs,
                           "--out", tmp_path / out) == 0
        assert config_hash(tmp_path / "ab") != config_hash(tmp_path / "ba")

    @pytest.mark.parametrize("argv, flag, spellings", [
        (["simulate", "--model", "two-point", "--replicas", 1000,
          "--seed", 3], "--survival-curve", ("4:16:4", "4,8,12,16")),
        (["spine", "--model", "critical-gaussian", "--t", 2, "--replicas", 50,
          "--renewal-replicas", 200, "--seed", 4], "--renewal-grid",
         ("0:10:0.5", ",".join(f"{0.5 * i:g}" for i in range(21)))),
    ], ids=["survival-curve", "renewal-grid"])
    def test_one_grid_in_two_spellings_has_one_hash(self, tmp_path, argv,
                                                    flag, spellings):
        outs = [tmp_path / f"s{k}" for k in range(2)]
        for out, grid in zip(outs, spellings):
            assert run_cli(*argv, flag, grid, "--out", out) == 0
        assert config_hash(outs[0]) == config_hash(outs[1])
        for f in sorted(p.name for p in outs[0].iterdir()):
            if f != "MANIFEST.json":
                assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()

    def test_config_records_every_parsed_flag(self, tmp_path, monkeypatch):
        rec = tmp_path / "rec.csv"
        rec.write_text("replica,Z\n"
                       + "".join(f"{i},{i % 64}\n" for i in range(4000)))
        # one command line per subcommand, run in this order
        argvs = {
            "analyze-model": ["--model", "two-point"],
            "simulate": ["--model", "two-point", "--replicas", 100, "--seed", 1,
                         "--levels", "3,1", "--survival-curve", "1:4:1",
                         "--workers", 2],
            "walk": ["--model", "two-point", "--tilt", "plus", "--grid",
                     "0:2:1", "--replicas", 2, "--seed", 1],
            "spine": ["--model", "critical-lattice", "--t", 2,
                      "--replicas", 10, "--seed", 1],
            "oracle": ["--model", "critical-lattice", "--depth", 2],
            "estimate": ["--records", rec, "--regime", "critical",
                         "--grid", "4,8,16,32"],
            "report": ["--runs", f"{tmp_path / 'walk'},{tmp_path / 'spine'}"],
        }
        parser = cli._build_parser()
        sub, = (a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
        assert set(argvs) == set(sub.choices)

        recorded = {}
        finish = cli.Run.finish

        def record(run, truncation):
            recorded[run.config_doc["command"]] = run.config_doc["flags"]
            return finish(run, truncation)

        monkeypatch.setattr(cli.Run, "finish", record)
        for name, argv in argvs.items():
            argv = [name, *map(str, argv), "--out", str(tmp_path / name)]
            assert run_cli(*argv) == 0, name
            dests = {a.dest for a in sub.choices[name]._actions} - {"help"}
            flags = recorded[name]
            assert set(flags) == dests - self.EXCLUDED, name
            # each as parsed, in a form JSON keeps
            args = parser.parse_args(argv)
            for k, v in flags.items():
                assert v == getattr(args, k), (name, k)
                assert json.loads(json.dumps(v)) == v, (name, k)
        assert recorded["simulate"]["levels"] == [1.0, 3.0]
        assert recorded["simulate"]["survival_curve"] == [1.0, 2.0, 3.0, 4.0]


class TestImport:
    @staticmethod
    def loaded(code: str, *packages: str) -> str:
        """The modules of ``packages`` a fresh interpreter holds after
        running ``code``, as a printed sorted list."""
        code += ("; import sys; print(sorted(m for m in sys.modules "
                 f"if m.split('.')[0] in {packages!r}))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_cli_import_leaves_scipy_out(self):
        # scipy is a test-only dependency: no kbrw module may load it
        assert self.loaded("import pkgutil, importlib, kbrw; "
                           "[importlib.import_module('kbrw.' + m.name) "
                           "for m in pkgutil.iter_modules(kbrw.__path__)]",
                           "scipy") == "[]"

    def test_cli_import_leaves_multiprocessing_out(self):
        # only `simulate --workers` above 1 and `walk` start a process
        # pool, and only with 2 usable CPUs
        assert self.loaded("import kbrw.cli",
                           "concurrent", "multiprocessing") == "[]"


# repr turns to exponent form at 1e-05 and 1e16; 5e-324 and 1e-310 are subnormal
SPECIAL_FLOATS = [1e-05, 1e16, -0.0, 5e-324, 1e-310, float("inf"),
                  float("-inf"), float("nan")]
# every cell width from 1 to 20 characters, with the int64 and uint64 ends
WIDE_INTS = [0, -2 ** 63, 2 ** 63 - 1] + [s * 10 ** k for k in range(19)
                                          for s in (1, -1)]
WIDE_UINTS = [0, 2 ** 63, 2 ** 64 - 1] + [10 ** k for k in range(20)]


def small_ints(lo, hi):
    return st.lists(st.integers(lo, hi), min_size=1, max_size=8)


class TestWriteCsv:
    @given(n=st.sampled_from([0, 1, cli.CSV_BLOCK - 1, cli.CSV_BLOCK,
                              cli.CSV_BLOCK + 1]),
           ints=small_ints(-2 ** 63, 2 ** 63 - 1),
           int32s=small_ints(-2 ** 31, 2 ** 31 - 1),
           int8s=small_ints(-2 ** 7, 2 ** 7 - 1),
           uint8s=small_ints(0, 2 ** 8 - 1),
           uint64s=small_ints(2 ** 63, 2 ** 64 - 1) | small_ints(0, 2 ** 64 - 1),
           bools=st.lists(st.booleans(), min_size=1, max_size=8),
           floats=st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(),
                           min_size=1, max_size=8))
    @example(n=cli.CSV_BLOCK + 1, ints=WIDE_INTS, int32s=[-2 ** 31, 2 ** 31 - 1],
             int8s=[-2 ** 7, 2 ** 7 - 1, 0], uint8s=[0, 2 ** 8 - 1],
             uint64s=WIDE_UINTS, bools=[True, False], floats=SPECIAL_FLOATS)
    @settings(max_examples=15, deadline=None)
    def test_bytes_match_rowwise_fmt(self, n, ints, int32s, int8s, uint8s,
                                     uint64s, bools, floats):
        header = ["i", "i32", "i8", "u8", "u64", "b", "f", "list", "none"]
        columns = [np.resize(np.array(ints, np.int64), n),
                   np.resize(np.array(int32s, np.int32), n),
                   np.resize(np.array(int8s, np.int8), n),
                   np.resize(np.array(uint8s, np.uint8), n),
                   np.resize(np.array(uint64s, np.uint64), n),
                   np.resize(np.array(bools), n),
                   np.resize(np.array(floats), n),
                   [ints[i % len(ints)] for i in range(n)], [None] * n]
        lines = [",".join(header)]
        lines += [",".join(cli._fmt(v) for v in row) for row in zip(*columns)]
        want = ("\n".join(lines) + "\n").encode()
        with tempfile.TemporaryDirectory() as d:
            run = cli.Run("test", None, {}, None, d)
            run.write_csv("t.csv", header, columns)
            got = (Path(d) / "t.csv").read_bytes()
        assert got == want
        assert run.outputs["t.csv"] == hashlib.sha256(got).hexdigest()


class TestAnalyzeModel:
    def test_critical_lattice_tilt(self, capsys):
        assert run_cli("analyze-model", "--model", "critical-lattice") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regime"] == "critical"
        assert doc["rho_star"] == pytest.approx(1.3169578969248166, abs=1e-12)
        assert doc["tilts"]["star"]["tilted_drift"] == pytest.approx(0.0, abs=1e-9)

    def test_inline_json_model(self, capsys):
        spec = models.model_to_json(models.two_point_subcritical())
        assert run_cli("analyze-model", "--model", spec) == 0
        assert json.loads(capsys.readouterr().out)["regime"] == "subcritical"


# the benchmark's renewal-walk commands at a small budget
BENCH_WALKS = [["walk", *extra, "--grid", "0:9:1", "--replicas", 3000,
                "--seed", 910]
               for extra in (["--model", "critical-lattice", "--tilt", "star",
                              "--cr-reference", 1.0],
                             ["--model", "two-point", "--tilt", "plus"])]
CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


class TestWalk:
    def test_lattice_renewal_table(self, tmp_path, capsys):
        code = run_cli("walk", "--model", "critical-lattice", "--tilt", "star",
                       "--grid", "0:9:1", "--replicas", 20_000, "--seed", 11,
                       "--cr-reference", 1.0, "--out", tmp_path / "walk")
        assert code == 0
        s = json.loads((tmp_path / "walk" / "summary.json").read_text())
        assert s["rho"] == pytest.approx(1.3169578969248166, abs=1e-12)
        assert s["max_method_z"] < 6.0
        assert s["max_closed_form_rel_err"] < 0.05
        # skip-free descent: the first-passage constant is exact
        assert s["C_R"]["value"] == pytest.approx(1.0, abs=1e-12)
        assert s["cr_rel_err"] == pytest.approx(0.0, abs=1e-12)
        d = np.genfromtxt(tmp_path / "walk" / "records.csv", delimiter=",",
                          names=True)
        assert np.array_equal(d["closed_form"], np.arange(10) + 1.0)

    def test_model_without_closed_form(self, tmp_path, capsys):
        out = tmp_path / "walk"
        assert run_cli("walk", "--model", "critical-gaussian", "--tilt",
                       "star", "--grid", "0:2:0.5", "--replicas", 2000,
                       "--seed", 3, "--out", out) == 0
        lines = (out / "records.csv").read_text().splitlines()
        assert lines[0].split(",")[:2] == ["x", "closed_form"]
        assert [row.split(",")[1] for row in lines[1:]] == [""] * 5
        s = json.loads((out / "summary.json").read_text())
        assert s["max_closed_form_rel_err"] is None
        assert s["cr_rel_err"] is None
        capsys.readouterr()
        assert run_cli("report", "--runs", out) == 0
        row5 = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith(" 5  ")]
        assert len(row5) == 1 and "renewal estimators" in row5[0]
        assert "no closed form; no --cr-reference" in row5[0]
        assert "nan" not in row5[0]

    def test_missing_tilt_is_config_error(self, tmp_path, capsys):
        base = {"--model": "critical-lattice", "--tilt": "star",
                "--grid": "0:5:1", "--replicas": 100, "--seed": 1}
        for bad in ({"--tilt": "plus"}, {"--replicas": 0}, {"--max-steps": 0},
                    {"--grid": "-1:3:1"},
                    {"--model": "two-point", "--tilt": "minus"},
                    {"--cr-reference": 0}, {"--cr-reference": -3},
                    {"--probe-t": 0}, {"--probe-t": -5}, {"--probe-t": "inf"},
                    {"--grid": "nan"}, {"--grid": "0,inf"},
                    {"--grid": "0:nan:1"}, {"--grid": "3,1"}):
            flags = [f"{k}={v}" for k, v in {**base, **bad}.items()]
            code = run_cli("walk", *flags, "--out", tmp_path / "walk")
            assert code == 2, bad
            err = capsys.readouterr().err
            assert "config error" in err
            if bad.get("--tilt") == "minus":
                # all three stages refuse; VisitCount's refusal comes first
                # whichever stage finishes first
                assert "renewal function needs drift >= 0" in err

    def test_rerun_is_byte_identical(self, tmp_path):
        assert_rerun_identical(tmp_path, "walk", "--model", "two-point",
                               "--tilt", "plus", "--grid", "0:4:1",
                               "--replicas", 2000, "--seed", 5,
                               "--probe-t", 5, "--max-steps", 2000)

    # sha256 of (records.csv, summary.json), written by kbrw 0.4.0: the
    # benchmark's renewal-walk commands at a small budget, across versions
    @pytest.mark.parametrize("extra, pins", [
        (BENCH_WALKS[0],
         ("6fb66cb85965998c43d0f434c1fdf777f09ae2d738de77f4579bc9b8a3002b80",
          "fa2c0de60ace80d9284673191decaefe85a7ae28c994688faa9fbad875865bae")),
        (BENCH_WALKS[1],
         ("32ca611142b5c25d750e6d97ba093cfd28e6dd8386f82848491d9b9a79d0d04b",
          "a45cf88dfdedea9ec91112123593da1c2ed7e649b7c6c7554857d6753bac77d4")),
    ], ids=["critical-star", "two-point-plus"])
    def test_bytes_are_pinned(self, tmp_path, extra, pins):
        out = tmp_path / "walk"
        assert run_cli(*extra, "--out", out) == 0
        got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                    for f in ("records.csv", "summary.json"))
        assert got == pins

    @pytest.mark.skipif(len(CPUS) < 2, reason="needs 2 usable CPUs: with one, "
                        "every run is inline")
    @pytest.mark.parametrize("extra", BENCH_WALKS,
                             ids=["critical-star", "two-point-plus"])
    def test_bytes_do_not_depend_on_cpu_count(self, tmp_path, extra):
        # one usable CPU runs the three stages inline; more fork workers
        one = min(CPUS)
        for name, pin in (("one", lambda: os.sched_setaffinity(0, {one})),
                          ("all", None)):
            proc = subprocess.run(
                [sys.executable, "-m", "kbrw.cli", *map(str, extra),
                 "--out", tmp_path / name],
                capture_output=True, text=True, preexec_fn=pin,
                env={**os.environ, "PYTHONPATH": str(SRC)})
            assert proc.returncode == 0, proc.stderr
        for f in ("records.csv", "summary.json", "MANIFEST.json"):
            assert (tmp_path / "one" / f).read_bytes() == \
                (tmp_path / "all" / f).read_bytes(), f

    @pytest.mark.skipif(len(CPUS) < 2, reason="needs 2 usable CPUs: with one, "
                        "every run is inline")
    def test_workers_exit_when_the_cli_is_killed(self, tmp_path):
        def stat(pid):
            """(state, parent pid) of a process, None once it is reaped."""
            try:
                text = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                return None
            state, ppid = text.rsplit(")", 1)[1].split()[:2]
            return state, int(ppid)

        # a fork pool starts all its workers at once: min(3, CPUs) for walk
        proc = subprocess.Popen(
            [sys.executable, "-m", "kbrw.cli", *map(str, WALK),
             "--replicas", str(10 ** 6), "--out", tmp_path / "w"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": str(SRC)}, start_new_session=True)
        kids = []
        try:
            deadline = time.monotonic() + 60
            while len(kids) < min(3, len(CPUS)) and proc.poll() is None \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
                kids = [int(p.name) for p in Path("/proc").iterdir()
                        if p.name.isdigit()
                        and (stat(p.name) or ("", 0))[1] == proc.pid]
            assert len(kids) == min(3, len(CPUS)), kids
            proc.kill()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10
            alive = kids
            while alive and time.monotonic() < deadline:
                time.sleep(0.1)
                alive = [k for k in kids if (stat(k) or ("Z",))[0] != "Z"]
            assert alive == []
        finally:
            try:  # the CLI and any worker left, all in the CLI's group
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=10)


class TestSpine:
    def test_lattice_survival_with_naive_overlap(self, tmp_path):
        code = run_cli("spine", "--model", "critical-lattice", "--t", 4,
                       "--replicas", 4000, "--seed", 13, "--band-eps", 0,
                       "--naive-replicas", 100_000, "--out", tmp_path / "sp")
        assert code == 0
        s = json.loads((tmp_path / "sp" / "summary.json").read_text())
        assert s["z_spine_vs_naive"] < 4.0
        assert s["estimate"]["bias_bound"] == 0.0
        assert s["scaled"]["value"] > 0
        assert s["estimate"]["stderr"] < s["naive"]["stderr"]

    def test_naive_run_without_hits_passes_the_report(self, tmp_path):
        # 0 of 20000 naive trees reach t = 6; the spine puts P near 1e-5
        code = run_cli("spine", "--model", "critical-lattice", "--t", 6,
                       "--replicas", 3000, "--naive-replicas", 20_000,
                       "--seed", 3, "--out", tmp_path / "sp")
        assert code == 0
        s = json.loads((tmp_path / "sp" / "summary.json").read_text())
        assert s["naive"]["value"] == 0.0 and s["naive"]["stderr"] == 0.0
        assert s["z_spine_vs_naive"] < 1.0
        assert run_cli("report", "--runs", tmp_path / "sp",
                       "--out", tmp_path / "rep") == 0
        rows = json.loads((tmp_path / "rep" / "summary.json").read_text())["rows"]
        assert {r["criterion"]: r["status"] for r in rows}[8] == "PASS"

    def test_renewal_table_truncation_is_recorded(self, tmp_path):
        # 5 of the table's 500 ladder walks at seed 4 run into the step cap
        code = run_cli("spine", "--model", "critical-gaussian", "--t", 2,
                       "--replicas", 300, "--renewal-grid", "0:10:0.5",
                       "--renewal-replicas", 500, "--seed", 4,
                       "--out", tmp_path / "sp")
        assert code == 0
        s = json.loads((tmp_path / "sp" / "summary.json").read_text())
        man = json.loads((tmp_path / "sp" / "MANIFEST.json").read_text())
        assert s["renewal_truncated_fraction"] == 0.01
        assert man["truncation"] == {"renewal": 0.01, "spine": 0.0}

    def test_continuous_model_needs_renewal_grid(self, tmp_path, capsys):
        escaping = models.model_to_json(models.IidModel(
            models.FixedOffspring(2), models.TwoPointStep(1.0, -1.0, 0.5)))
        cases = [("critical-gaussian", []),
                 ("critical-lattice", ["--replicas", 0]),
                 ("critical-lattice", ["--renewal-replicas", 0]),
                 (escaping, ["--renewal-grid", "0:4:1"]),
                 ("critical-lattice", ["--t=-2"]),
                 ("critical-lattice", ["--x", 2]),
                 ("critical-lattice", ["--seed", "abc"]),
                 ("critical-gaussian", ["--renewal-grid", "0:a:1"]),
                 ("critical-gaussian", ["--renewal-grid", "0,inf"]),
                 ("critical-lattice", ["--band-eps", 2]),
                 ("critical-lattice", ["--band-eps", 1]),
                 ("critical-lattice", ["--band-eps=-1"]),
                 ("critical-lattice", ["--naive-replicas=-5"]),
                 (SUPERCRITICAL, [])]
        for k, (model, extra) in enumerate(cases):
            out = tmp_path / f"sp{k}"
            code = run_cli("spine", "--model", model, "--t", 2,
                           "--replicas", 100, "--seed", 1, *extra,
                           "--out", out)
            assert code == 2, (model, extra)
            assert "config error" in capsys.readouterr().err
            assert not out.exists(), (model, extra)

    @pytest.mark.parametrize("model", ["critical-lattice", "critical-gaussian"])
    @pytest.mark.parametrize("flag", ["--x", "--t"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_start_or_level_is_config_error(self, tmp_path, capsys,
                                                        model, flag, value):
        # refused before any draw: a nan level would never stop the spine
        given = {"--x": 0.0, "--t": 2.0, flag: value}
        out = tmp_path / "sp"
        code = run_cli("spine", "--model", model, "--x", given["--x"],
                       "--t", given["--t"], "--renewal-grid", "0:4:0.5",
                       "--renewal-replicas", 200, "--replicas", 10,
                       "--seed", 1, "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and flag in err
        assert not out.exists()

    @pytest.mark.parametrize("model, extra", [
        ("critical-lattice", ["--naive-replicas", 1000]),
        ("critical-gaussian", ["--renewal-grid", "0:10:0.5",
                               "--renewal-replicas", 300])])
    def test_rerun_is_byte_identical(self, tmp_path, model, extra):
        assert_rerun_identical(tmp_path, "spine", "--model", model, "--t", 2,
                               "--replicas", 300, "--seed", 4, *extra)


    # sha256 of summary.json, written by kbrw 0.9.0: a lattice run on its
    # exact renewal table with a naive overlap, and a gaussian run on a
    # --renewal-grid table; each books a band floor L > 0
    @pytest.mark.parametrize("extra, pin", [
        (["--model", "critical-lattice", "--t", 6, "--replicas", 2000,
          "--naive-replicas", 20_000],
         "13b01c2aa9d6db434e6a991f9b045cfd1cd361138567165feb8aad646ecf264e"),
        (["--model", "critical-gaussian", "--x", 0.5, "--t", 8,
          "--replicas", 300, "--renewal-grid", "0:14:0.5",
          "--renewal-replicas", 300, "--band-eps", 1e-4],
         "3f6fd5e5cc2d03e6802046e6ff7e8039fb4522bce4cdc1dc54b1ded91af4c6e2"),
    ], ids=["critical-lattice-naive", "critical-gaussian-grid"])
    def test_bytes_are_pinned(self, tmp_path, extra, pin):
        out = tmp_path / "sp"
        assert run_cli("spine", *extra, "--seed", 920, "--out", out) == 0
        assert hashlib.sha256((out / "summary.json").read_bytes()).hexdigest() == pin

class TestOracleCmd:
    def test_table_matches_direct_call(self, tmp_path):
        code = run_cli("oracle", "--model", "critical-lattice", "--depth", 5,
                       "--level", 3, "--out", tmp_path / "orc")
        assert code == 0
        d = np.genfromtxt(tmp_path / "orc" / "records.csv", delimiter=",",
                          names=True)
        assert d.dtype.names == ("generation", "alive", "leaves", "crossers")
        res = oracle.tree_expectations(models.critical_lattice_binary(),
                                       0.0, 5, level=3.0)
        assert np.allclose(d["alive"], res.alive)
        assert np.allclose(d["crossers"], res.crossers)
        s = json.loads((tmp_path / "orc" / "summary.json").read_text())
        assert s["expected_crossers_total"] == pytest.approx(
            res.expected_crossers_total)

    def test_negative_depth_is_config_error(self, tmp_path, capsys):
        code = run_cli("oracle", "--model", "two-point", "--depth", -1,
                       "--out", tmp_path / "orc")
        assert code == 2
        assert "depth" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--x", "--level"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_input_is_config_error(self, tmp_path, capsys, flag,
                                              value):
        code = run_cli("oracle", "--model", "critical-lattice", "--depth", 3,
                       flag, value, "--out", tmp_path / "orc")
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "orc").exists()

    def test_level_below_start_is_config_error(self, tmp_path, capsys):
        # simulate refuses the same config; a start above the level is not
        # a first crosser of it
        code = run_cli("oracle", "--model", "critical-lattice", "--x", 5,
                       "--depth", 3, "--level", 2, "--out", tmp_path / "orc")
        assert code == 2
        assert "below the start" in capsys.readouterr().err
        assert not (tmp_path / "orc").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        assert_rerun_identical(tmp_path, "oracle", "--model", "two-point",
                               "--depth", 6, "--level", 2)


class TestEstimate:
    def test_subcritical_slope_pipeline(self, sim_runs, tmp_path):
        code = run_cli("estimate", "--records", sim_runs / "tp" / "records.csv",
                       "--regime", "subcritical", "--grid", "2,4,8,16,32",
                       "--rho-ratio", -2.14441, "--out", tmp_path / "est")
        assert code == 0
        s = json.loads((tmp_path / "est" / "summary.json").read_text())
        assert s["mode"] == "SubcriticalSlope"
        assert s["fit"]["value"] < 0
        d = np.genfromtxt(tmp_path / "est" / "curve.csv", delimiter=",",
                          names=True)
        assert d.shape == (5,)
        assert np.all(np.diff(d["survival"]) < 0)

    def test_rerun_is_byte_identical(self, sim_runs, tmp_path):
        assert_rerun_identical(tmp_path, "estimate", "--records",
                               sim_runs / "tp" / "records.csv",
                               "--regime", "subcritical",
                               "--grid", "2,4,8,16,32", "--rho-ratio", -2.14441)

    def test_bad_grid_or_reference_is_config_error(self, tmp_path, capsys):
        rec = tmp_path / "rec.csv"
        rec.write_text("replica,Z\n"
                       + "".join(f"{i},{i % 64}\n" for i in range(4000)))
        good = ["--grid", "2,4,8,16"]
        cases = [["--grid", "8,5,3"], ["--grid", "3,3,5"],
                 [*good, "--reference-constant", 0],
                 [*good, "--reference-constant", "inf"],
                 [*good, "--reference-constant=-1"],
                 [*good, "--rho-ratio", 0], [*good, "--rho-ratio", 2],
                 [*good, "--rho-ratio=-inf"]]
        for k, extra in enumerate(cases):
            out = tmp_path / f"est{k}"
            code = run_cli("estimate", "--records", rec, "--regime",
                           "critical", *extra, "--out", out)
            assert code == 2, extra
            assert "config error" in capsys.readouterr().err
            assert not out.exists(), extra

    def test_unreachable_grid_is_config_error(self, sim_runs, tmp_path,
                                              capsys):
        code = run_cli("estimate", "--records",
                       sim_runs / "tp" / "records.csv",
                       "--regime", "subcritical", "--grid", "1e5,2e5,4e5,8e5",
                       "--out", tmp_path / "est")
        assert code == 2
        assert "achievable grid" in capsys.readouterr().err

    def test_tied_subcritical_grid_is_config_error(self, sim_runs, tmp_path,
                                                   capsys):
        # two-point progeny is 1, 4, 7, ...: P(Z > 2) = P(Z > 3)
        code = run_cli("estimate", "--records",
                       sim_runs / "tp" / "records.csv", "--regime",
                       "subcritical", "--grid", "2,3,4,6,10",
                       "--out", tmp_path / "est")
        assert code == 2
        assert "tied: 2 and 3" in capsys.readouterr().err
        assert not (tmp_path / "est").exists()

    def test_missing_column_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        for text, statistic in (("a,b\n1,2\n", "Z"),
                                ("replica,Z,truncated\n0,3,0\n", "leaves")):
            bad.write_text(text)
            code = run_cli("estimate", "--records", bad, "--statistic",
                           statistic, "--regime", "subcritical",
                           "--grid", "2,4,8,16", "--out", tmp_path / "est")
            assert code == 2
            assert f"no column {statistic!r}" in capsys.readouterr().err

    def test_blank_or_non_numeric_cell_is_config_error(self, tmp_path, capsys):
        # such a row used to read as NaN: counted, yet never past a threshold
        rows = [(i, i % 50, 0) for i in range(20_000)]
        for col, cell in ((1, ""), (1, "x"), (1, "nan"), (2, "")):
            bad = tmp_path / f"bad{col}{cell}.csv"
            text = ["replica,Z,truncated"]
            for row in rows:
                cells = [str(v) for v in row]
                if row[0] % 10 == 9:
                    cells[col] = cell
                text.append(",".join(cells))
            bad.write_text("\n".join(text) + "\n")
            code = run_cli("estimate", "--records", bad, "--regime",
                           "subcritical", "--grid", "2,4,8,16",
                           "--out", tmp_path / "est")
            assert code == 2, (col, cell)
            err = capsys.readouterr().err
            assert "config error" in err and str(bad) in err

    def test_file_without_truncated_column(self, tmp_path):
        z = np.arange(4000) % 64
        rec = tmp_path / "rec.csv"
        rec.write_text("replica,Z\n"
                       + "".join(f"{i},{v}\n" for i, v in enumerate(z)))
        code = run_cli("estimate", "--records", rec, "--regime", "subcritical",
                       "--grid", "2,4,8,16", "--out", tmp_path / "est")
        assert code == 0
        s = json.loads((tmp_path / "est" / "summary.json").read_text())
        assert s["n_replicas"] == 4000 and s["truncated_fraction"] == 0.0
        d = np.genfromtxt(tmp_path / "est" / "curve.csv", delimiter=",",
                          names=True)
        assert d["exceedances"].tolist() == [int((z > n).sum())
                                             for n in (2, 4, 8, 16)]

    def test_one_row_and_header_only_files(self, sim_runs, tmp_path, capsys):
        one = tmp_path / "one.csv"
        one.write_text("replica,Z,truncated\n0,100,1\n")
        empty = tmp_path / "empty.csv"
        empty.write_text("replica,Z,truncated\n")
        for rec in (one, empty):
            code = run_cli("estimate", "--records", rec, "--regime",
                           "subcritical", "--grid", "2,4,8,16",
                           "--out", tmp_path / "est")
            assert code == 2
            assert "achievable grid: []" in capsys.readouterr().err
        # the one row counts as one more replica, a truncated one
        tp = sim_runs / "tp" / "records.csv"
        for recs, extra in ((f"{tp}", 0), (f"{one},{tp},{empty}", 1)):
            assert run_cli("estimate", "--records", recs, "--regime",
                           "subcritical", "--grid", "2,4,8,16",
                           "--out", tmp_path / f"est{extra}") == 0
        a, b = (json.loads((tmp_path / f"est{k}" / "summary.json").read_text())
                for k in (0, 1))
        assert b["n_replicas"] == a["n_replicas"] + 1
        assert b["truncated_fraction"] * b["n_replicas"] == pytest.approx(
            a["truncated_fraction"] * a["n_replicas"] + 1)


class TestReport:
    def test_criterion_table(self, sim_runs, tmp_path, capsys):
        runs = ",".join(str(sim_runs / d) for d in ("w1", "w2", "tp"))
        assert run_cli("report", "--runs", runs,
                       "--out", tmp_path / "rep") == 0
        out = capsys.readouterr().out
        s = json.loads((tmp_path / "rep" / "summary.json").read_text())
        rows = {r["criterion"]: r for r in s["rows"]}
        assert sorted(rows) == list(range(1, 13))
        assert rows[1]["status"] == "PASS"
        assert rows[12]["status"] == "PASS"       # w1 == w2 config hash
        assert rows[5]["status"] == "SKIP"
        assert "exploration identity" in out

    def test_verdicts_flip_at_the_tolerance_table(self, tmp_path):
        # synthetic runs sit exactly on each bound of cli.TOLERANCES (PASS),
        # then one float past it (FAIL)
        tol = cli.TOLERANCES
        up = lambda v: float(np.nextafter(v, np.inf))
        down = lambda v: float(np.nextafter(v, -np.inf))
        lo, hi = tol["probe_band"]

        def walk(z=tol["z"], rel=tol["closed_form_rel"], cr=tol["cr_rel"],
                 probe=lo):
            return {"kind": "walk", "max_method_z": z,
                    "max_closed_form_rel_err": rel, "cr_rel_err": cr,
                    "C_R": {"probe_product": probe}}

        def spine_pair(regime, ratio, z=tol["z"]):
            base = {"kind": "spine", "model": {}, "regime": regime,
                    "z_spine_vs_naive": z}
            return [dict(base, t=4.0, scaled={"value": 1.0}),
                    dict(base, t=8.0, scaled={"value": ratio})]

        def slope(dev):
            return {"kind": "estimate", "mode": "SubcriticalSlope",
                    "fit": {"value": -2.0},
                    "extra": {"reference_exponent": -2.0,
                              "relative_deviation": dev}}

        def plateau(ratio=tol["decade_ratio"], factor=tol["constant_factor"]):
            return {"kind": "estimate", "mode": "CriticalPlateau",
                    "diagnostics": ratio, "constant_factor": factor}

        def sim(truncated):
            return {"kind": "simulate", "n_replicas": 100,
                    "truncated_fraction": truncated,
                    "identity": {"checked": 99, "violations": 0}}

        def rerun(digest):
            # a run directory's summary with its MANIFEST.json
            return walk(), {"config_sha256": "same",
                            "outputs": {"summary.json": digest}}

        f, r = tol["critical_factor"], tol["subcritical_rel"]
        share = tol["truncated_share"]
        cases = [
            (1, [sim(share)], "PASS"), (1, [sim(up(share))], "FAIL"),
            (5, [walk()], "PASS"), (5, [walk(z=up(tol["z"]))], "FAIL"),
            (5, [walk(rel=up(tol["closed_form_rel"]))], "FAIL"),
            (5, [walk(cr=up(tol["cr_rel"]))], "FAIL"),
            (6, [walk(probe=lo)], "PASS"), (6, [walk(probe=hi)], "PASS"),
            (6, [walk(probe=down(lo))], "FAIL"),
            (6, [walk(probe=up(hi))], "FAIL"),
            (8, spine_pair("critical", f), "PASS"),
            (8, spine_pair("critical", 1.0 / f), "PASS"),
            (8, spine_pair("critical", up(f)), "FAIL"),
            (8, spine_pair("critical", down(1.0 / f)), "FAIL"),
            (8, spine_pair("critical", 1.0, z=up(tol["z"])), "FAIL"),
            (8, spine_pair("subcritical", 1.0 + r), "PASS"),
            (8, spine_pair("subcritical", 1.0 - r), "PASS"),
            (8, spine_pair("subcritical", up(1.0 + r)), "FAIL"),
            (8, spine_pair("subcritical", down(1.0 - r)), "FAIL"),
            (9, [slope(tol["slope_rel"])], "PASS"),
            (9, [slope(up(tol["slope_rel"]))], "FAIL"),
            (10, [plateau()], "PASS"),
            (10, [plateau(ratio=up(tol["decade_ratio"]))], "FAIL"),
            (10, [plateau(factor=up(tol["constant_factor"]))], "FAIL"),
            (12, [rerun("a"), rerun("a")], "PASS"),
            (12, [rerun("a"), rerun("b")], "FAIL"),
        ]
        for i, (num, summaries, want) in enumerate(cases):
            dirs = []
            for j, summary in enumerate(summaries):
                d = tmp_path / f"case{i}" / f"run{j}"
                d.mkdir(parents=True)
                if isinstance(summary, tuple):
                    summary, manifest = summary
                    (d / "MANIFEST.json").write_text(json.dumps(manifest))
                (d / "summary.json").write_text(json.dumps(summary))
                dirs.append(str(d))
            out = tmp_path / f"case{i}" / "rep"
            assert run_cli("report", "--runs", ",".join(dirs),
                           "--out", out) == 0
            rows = json.loads((out / "summary.json").read_text())["rows"]
            got = {row["criterion"]: row["status"] for row in rows}[num]
            assert got == want, (num, summaries, got)

    def test_report_bytes_are_pinned(self, tmp_path):
        # synthetic runs that reach every note and every SKIP reason, in
        # three reports; sha256 of (report.txt, summary.json) of each, as
        # written by kbrw 0.7.0 before its rows were formed on one path
        def spine(model, regime, t, scaled, z=None):
            return {"kind": "spine", "model": {"name": model}, "regime": regime,
                    "t": t, "scaled": {"value": scaled}, "z_spine_vs_naive": z}

        def estimate(mode, **fields):
            return {"kind": "estimate", "mode": mode, **fields}

        def rerun(config, digest):
            return {"config_sha256": config, "outputs": {"summary.json": digest}}

        checked = [
            ({"kind": "simulate", "n_replicas": 1000, "truncated_fraction": 0.002,
              "identity": {"checked": 998, "violations": 0}}, None),
            ({"kind": "simulate", "n_replicas": 1000, "truncated_fraction": 0.05,
              "identity": {"checked": 950, "violations": 1}}, rerun("c1", "d1")),
            ({"kind": "walk", "max_method_z": 1.25,
              "max_closed_form_rel_err": 0.004, "cr_rel_err": 0.03,
              "C_R": {"probe_product": 0.97}}, rerun("c1", "d1")),
            ({"kind": "walk", "max_method_z": 2.5,
              "max_closed_form_rel_err": None, "cr_rel_err": None,
              "C_R": {"probe_product": 1.2}}, rerun("c2", "d2")),
            (spine("a", "critical", 4.0, 0.5, z=1.5), rerun("c2", "d3")),
            (spine("a", "critical", 8.0, 0.6), None),
            (spine("a", "critical", 5.0, 0.7), None),
            (spine("b", "subcritical", 3.0, 2.0), None),
            (spine("b", "subcritical", 6.0, 2.6, z=4.5), None),
            (estimate("SubcriticalSlope", fit={"value": -2.1},
                      extra={"reference_exponent": -2.14441,
                             "relative_deviation": 0.0207}), None),
            (estimate("SubcriticalSlope", fit={"value": -1.5},
                      extra={"intercept": 0.1}), None),
            (estimate("CriticalPlateau", diagnostics=1.8,
                      constant_factor=1.2), None),
            (estimate("CriticalPlateau", diagnostics=2.5), None),
        ]
        reasons = [
            ({"kind": "walk", "max_method_z": 0.5,
              "max_closed_form_rel_err": None, "cr_rel_err": None,
              "C_R": {}}, None),
            (spine("a", "critical", 4.0, 1.0), None),
            (estimate("SubcriticalSlope", fit={"value": -1.5},
                      extra={"intercept": 0.1}), None),
        ]
        empty = [({"kind": "analyze-model"}, None)]
        got = {}
        for name, runs in (("checked", checked), ("reasons", reasons),
                           ("empty", empty)):
            dirs = []
            for j, (summary, manifest) in enumerate(runs):
                d = tmp_path / name / f"run{j}"
                d.mkdir(parents=True)
                (d / "summary.json").write_text(json.dumps(summary))
                if manifest is not None:
                    (d / "MANIFEST.json").write_text(json.dumps(manifest))
                dirs.append(str(d))
            out = tmp_path / name / "rep"
            assert run_cli("report", "--runs", ",".join(dirs),
                           "--out", out) == 0
            got[name] = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                              for f in ("report.txt", "summary.json"))
        assert got == {
            "checked": (
                "72fa8867adab31dbee1eda300a3e67677112c715781d93e3e435504caf882b6e",
                "e7147f29330afbbafd3f9482a45ca6ec858030cec209631231c85490f677785e"),
            "reasons": (
                "f04184a07d21b4bb84f0b4a7bcf5f7feb65fc401e9a56c9637228d6b70148773",
                "86119c95d3099d2d867a4480feac66b5727fb235cf1dd3c592ee4933a1372acf"),
            "empty": (
                "0acfff114df58ce5480aa43f30f073df2ad8601c749167f1962e567c89339c34",
                "f17079cb64c5660650c08b70242fd10e0f99e7eb6a06b44adf2eb7d599f8070a"),
        }

    def test_spine_pairs_need_equal_starts(self, tmp_path):
        # the scaled value carries R(x) e^{rho x}: t=4 from x=0 against t=8
        # from x=1 read a ratio of 8.8, which is no check of the scaling
        for x, t in ((0, 4), (1, 4), (1, 8)):
            assert run_cli("spine", "--model", "critical-lattice", "--x", x,
                           "--t", t, "--replicas", 2000, "--seed", 1,
                           "--out", tmp_path / f"x{x}t{t}") == 0
        for pair, want in ((("x0t4", "x1t8"), "SKIP"), (("x1t4", "x1t8"), "PASS")):
            out = tmp_path / ("rep_" + "_".join(pair))
            runs = ",".join(str(tmp_path / d) for d in pair)
            assert run_cli("report", "--runs", runs, "--out", out) == 0
            rows = json.loads((out / "summary.json").read_text())["rows"]
            assert {r["criterion"]: r["status"] for r in rows}[8] == want, pair

    def test_reruns_are_compared_within_one_code_version(self, tmp_path):
        # two oracle runs; the second's alive_final then moves by its last
        # bit, stamped by its own code version or by another one
        for d in ("a", "b"):
            assert run_cli("oracle", "--model", "critical-lattice",
                           "--depth", 4, "--out", tmp_path / d) == 0
        b = tmp_path / "b"
        summary = json.loads((b / "summary.json").read_text())
        summary["alive_final"] = float(np.nextafter(summary["alive_final"], 1.0))
        data = json.dumps(summary).encode()
        (b / "summary.json").write_bytes(data)
        manifest = json.loads((b / "MANIFEST.json").read_text())
        manifest["outputs"]["summary.json"] = hashlib.sha256(data).hexdigest()
        for version, want in ((manifest["code_version"], "FAIL"), ("0.8.0", "SKIP")):
            (b / "MANIFEST.json").write_text(
                json.dumps(dict(manifest, code_version=version)))
            out = tmp_path / f"rep_{version}"
            assert run_cli("report", "--runs", f"{tmp_path / 'a'},{b}",
                           "--out", out) == 0
            rows = json.loads((out / "summary.json").read_text())["rows"]
            assert {r["criterion"]: r["status"] for r in rows}[12] == want, version

    def test_missing_summary_is_config_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert run_cli("report", "--runs", tmp_path / "empty") == 2
