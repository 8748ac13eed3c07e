"""Benchmark of the kbrw command line on three study workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tail-forest --seed 930 --seconds 42 --trace 0

``--trace 0`` times the workload's command sequence with a fresh interpreter
per command, as a user runs it, repeating the same sequence until
``--seconds`` of timed work are spent, and prints the end-to-end metrics.
``--trace 1`` runs the sequence in-process through ``kbrw.cli.main``, once
plain and once with every layer wrapped, and prints the per-layer metrics.
Outside the timed region each pass is checked: exit codes, MANIFEST hashes,
byte identity with the run's first pass and with the committed reference,
and the verdicts of ``kbrw report``.  The last stdout line is the JSON result; the
lines before it, prefixed ``info``, record the environment and the checks.
The closed loop runs one command at a time from this single process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
from tracing import Tracer, still_wrapped  # noqa: E402
from workloads import WORKLOADS, Command, Workload  # noqa: E402

REFERENCE = HERE / "reference.json"
MIN_PASSES = 3
SETUP_CODE = ("import kbrw.cli\n"
              "from kbrw import models\n"
              "for spec in {models!r}:\n"
              "    models.resolve_model(spec).analytics()\n")

# one process, one thread: the load stays within nproc and KBRW_WORKERS,
# which overrides --workers, cannot widen it
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "KBRW_WORKERS"}
    env.update(PINNED, PYTHONPATH=str(ROOT / "src"))
    return env


def info(kind: str, **fields) -> None:
    print("info", json.dumps({"kind": kind, **fields}, sort_keys=True), flush=True)


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


@dataclass
class Pass:
    """One execution of a workload's command sequence."""
    times: dict[str, float]
    codes: dict[str, int]
    peak_rss_mb: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    failed: dict[str, str] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())


def clear(root: Path) -> None:
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)


def spawn(argv: list[str], log: Path) -> tuple[int, float]:
    """Run a child to completion: (exit code, peak RSS in MB)."""
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_fresh(cmds: list[Command], root: Path) -> Pass:
    """Each command in a fresh interpreter; only the commands are timed."""
    clear(root)
    times, codes, rss = {}, {}, 0.0
    for c in cmds:
        argv = [sys.executable, "-m", "kbrw.cli", *c.argv, "--out", str(c.out(root))]
        t0 = time.perf_counter()
        codes[c.name], peak = spawn(argv, root / f"{c.name}.log")
        times[c.name] = time.perf_counter() - t0
        rss = max(rss, peak)
    return Pass(times, codes, rss)


def run_inprocess(cli, cmds: list[Command], root: Path) -> Pass:
    clear(root)
    times, codes = {}, {}
    for c in cmds:
        with open(root / f"{c.name}.log", "w") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            t0 = time.perf_counter()
            try:
                codes[c.name] = cli.main([*c.argv, "--out", str(c.out(root))])
            except Exception:
                traceback.print_exc()
                codes[c.name] = 1
            times[c.name] = time.perf_counter() - t0
    return Pass(times, codes)


def setup_time(wl: Workload) -> float:
    """Fresh interpreter: import kbrw.cli, resolve and classify the models."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE.format(models=wl.models)],
                          env=child_env(), cwd=ROOT, capture_output=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("set-up failed: " + proc.stderr.decode(errors="replace"))
    return elapsed


class Checker:
    """Checks the artifacts of each pass against the first pass and the reference."""

    def __init__(self, cli, wl: Workload, seed: int, cmds: list[Command]):
        self.cli, self.wl, self.seed, self.cmds = cli, wl, seed, cmds
        self.reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        self.first: dict[str, str] | None = None

    def check(self, p: Pass) -> None:
        root = self.wl.root()
        for c in self.cmds:
            out = c.out(root)
            if p.codes[c.name] != 0:
                p.failed[c.name] = f"exit code {p.codes[c.name]}"
                continue
            if not checks.manifest_consistent(out):
                p.failed[c.name] = "MANIFEST hashes do not match the files"
                continue
            p.digests[c.name] = checks.dir_digest(out)
            verdict = checks.compare(self.reference, self.wl.name, self.seed,
                                     c.name, p.digests[c.name], checks.stamp(out))
            if verdict == checks.CHANGED:
                p.failed[c.name] = "bytes differ from the reference under the same stamp"
            if self.first is not None and self.first.get(c.name) != p.digests[c.name]:
                p.failed[c.name] = "bytes differ from the first pass of this run"
            info("hash", command=c.name, sha256=p.digests[c.name], reference=verdict)
        if self.first is None:
            self.first = dict(p.digests)
        self.verdicts(p)

    def verdicts(self, p: Pass) -> None:
        root = self.wl.root()
        ok = [c for c in self.cmds if c.name in p.digests]
        if not ok:
            return
        report = root / "report"
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(["report", "--runs",
                                      ",".join(str(c.out(root)) for c in ok),
                                      "--out", str(report)])
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            for c in ok:
                p.failed[c.name] = f"kbrw report failed: {code}"
            return
        rows = json.loads((report / "summary.json").read_text())["rows"]
        for row in rows:
            if row["status"] != "SKIP":
                info("verdict", criterion=row["criterion"], status=row["status"],
                     note=row["note"])
        summaries = {c.name: json.loads((c.out(root) / "summary.json").read_text())
                     for c in ok}
        why = checks.report_failure(rows, summaries,
                                    {c.name: c.replicas for c in ok})
        if why is not None:
            for c in self.cmds:
                p.failed.setdefault(c.name, why)
        self.information(summaries)

    def information(self, summaries: dict[str, dict]) -> None:
        """Figures recorded, not judged, at this budget."""
        for name, s in summaries.items():
            if s["kind"] == "estimate" and s["mode"] == "SubcriticalSlope":
                # the workloads' only subcritical fit is the two-point forest
                an = self.cli.models.two_point_subcritical().analytics()
                info("slope", command=name, slope=s["fit"]["value"],
                     stderr=s["fit"]["stderr"],
                     reference=-an.rho_plus / an.rho_minus)
            if s["kind"] == "walk" and s["max_closed_form_rel_err"] is not None:
                info("closed_form", command=name,
                     max_rel_err=s["max_closed_form_rel_err"],
                     band_at_1e6_replicas=0.01, counted_as_failure=False)
            if s["kind"] == "walk" and s["C_R"].get("probe_product") is not None:
                replicas = next(c.replicas for c in self.cmds if c.name == name)
                info("probe", command=name, product=s["C_R"]["probe_product"],
                     stderr=checks.probe_stderr(s["C_R"], replicas),
                     band=checks.PROBE_BAND)


def end_to_end(wl: Workload, seed: int, seconds: float) -> tuple[dict, int, int]:
    """One set-up sample and one fresh-interpreter pass at a time, until the
    next pair would run past ``seconds``, and never fewer than MIN_PASSES.

    wall_s sums each command's median time over the passes, which keeps a
    burst of host noise in one command of one pass out of the figure.
    setup_s is the median of the set-up samples, which are spread over the
    run like the passes they precede.  replicas_per_s is the replicas
    requested over wall_s, time_to_rse1pct_s is wall_s * (rse / 0.01)^2 for
    the workload's headline estimate, and peak_rss_mb the largest peak RSS
    of any command.
    """
    import kbrw.cli as cli
    cmds = wl.build(seed, wl.root())
    checker = Checker(cli, wl, seed, cmds)
    setups: list[float] = []
    passes: list[Pass] = []
    spent = 0.0
    while len(passes) < MIN_PASSES or spent + setups[-1] + passes[-1].wall_s <= seconds:
        setups.append(setup_time(wl))
        before = loadavg()
        p = run_fresh(cmds, wl.root())
        spent += setups[-1] + p.wall_s
        checker.check(p)
        info("pass", setup_s=setups[-1], wall_s=p.wall_s, times=p.times,
             loadavg_before=before, loadavg_after=loadavg(), failed=p.failed)
        passes.append(p)
    info("passes", count=len(passes))
    wall = sum(statistics.median(p.times[c.name] for p in passes) for c in cmds)
    try:
        value, stderr = wl.headline(wl.root())
        rse = stderr / value
    except (OSError, KeyError, ValueError, ZeroDivisionError):
        rse = 1.0        # no headline estimate: the pass is counted failed already
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "replicas_per_s": (sum(c.replicas for c in cmds) / wall, "1/s"),
        "time_to_rse1pct_s": (wall * (rse / 0.01) ** 2, "s"),
        "peak_rss_mb": (max(p.peak_rss_mb for p in passes), "MB"),
    }
    attempted = len(cmds) * len(passes)
    return metrics, attempted, sum(len(p.failed) for p in passes)


def per_layer(wl: Workload, seed: int) -> tuple[dict, int, int]:
    """One plain and one traced in-process pass; the spans go to spans.jsonl.

    trace.overhead_s is the time the wrappers spend on their own bookkeeping,
    measured inside them.  The traced pass must write the bytes of the plain
    one.  The difference of their walls goes to an info line only: on a
    shared host it is dominated by noise.
    """
    import kbrw
    import kbrw.cli as cli
    cmds = wl.build(seed, wl.root())
    checker = Checker(cli, wl, seed, cmds)
    plain = run_inprocess(cli, cmds, wl.root())
    checker.check(plain)
    tracer = Tracer()
    try:
        layers.install(tracer, kbrw)
        traced = run_inprocess(cli, cmds, wl.root())
    finally:
        tracer.uninstall()
    checker.check(traced)
    left = still_wrapped(layers.targets(kbrw))
    if left:
        traced.failed["trace"] = "wrappers left installed: " + ", ".join(left)
    info("pass", plain_wall_s=plain.wall_s, traced_wall_s=traced.wall_s,
         spans=len(tracer.spans), failed={**plain.failed, **traced.failed})
    with open(wl.root() / "spans.jsonl", "w") as fh:
        fh.writelines(json.dumps(asdict(s)) + "\n" for s in tracer.spans)
    values = layers.layer_metrics(tracer.spans, tracer.overhead_s)
    metrics = {k: (v, layers.METRICS[k]) for k, v in values.items()}
    return metrics, 2 * len(cmds), len(plain.failed) + len(traced.failed)


def environment(kbrw_workers: str | None) -> None:
    import numpy
    import scipy
    info("environment", nproc=os.cpu_count(), python=sys.version.split()[0],
         numpy=numpy.__version__, scipy=scipy.__version__, pinned=PINNED,
         kbrw_workers_removed=kbrw_workers)


def prepare() -> str | None:
    """Enter the checkout root, pin the environment and put the checkout's
    sources first on the path; returns the KBRW_WORKERS value removed."""
    if not (ROOT / "src" / "kbrw" / "cli.py").is_file():
        sys.exit(f"perfbench: no kbrw sources under {ROOT / 'src'}")
    os.chdir(ROOT)
    removed = os.environ.pop("KBRW_WORKERS", None)
    os.environ.update(PINNED)
    sys.path.insert(0, str(ROOT / "src"))
    import kbrw
    if Path(kbrw.__file__).resolve().parent != ROOT / "src" / "kbrw":
        sys.exit(f"perfbench: kbrw imported from {kbrw.__file__}, not this checkout")
    return removed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="kbrw seed of every command (default: the study's)")
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run unwinds like an interrupted one, so spawn() and
    # subprocess.run kill and reap the child they are waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    kbrw_workers = prepare()
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    environment(kbrw_workers)
    if args.trace:
        metrics, attempted, failed = per_layer(wl, seed)
    else:
        metrics, attempted, failed = end_to_end(wl, seed, args.seconds)
    # failed_fraction is never a bounded metric: it is 0 on a sound commit
    info("failed_fraction", value=failed / attempted, unit="fraction")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
