"""Output checks: artifact hashes, the committed reference, the lab's verdicts.

A command's artifacts are hashed at a fixed output path that is cleared
before every run.  The reference holds one digest per command for each
(workload, seed) it was made on, stamped with the code version and seed
scheme it was made under.  A digest that differs from the reference under
the same stamp is a byte change without a declared bump, and counts as a
failure; a different stamp, or a seed the reference does not cover, leaves
the command unreferenced.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

MATCH, UNREFERENCED, CHANGED = "match", "unreferenced", "changed"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dir_digest(path: Path) -> str:
    """One digest over every file name and file content in a run directory."""
    lines = [f"{p.name}\0{_sha256(p.read_bytes())}\n"
             for p in sorted(path.iterdir()) if p.is_file()]
    return _sha256("".join(lines).encode())


def manifest(path: Path) -> dict:
    return json.loads((path / "MANIFEST.json").read_text())


def manifest_consistent(path: Path) -> bool:
    """Each artifact the MANIFEST lists exists with the recorded sha256."""
    try:
        outputs = manifest(path)["outputs"]
    except (OSError, ValueError, KeyError):
        return False
    return all((path / name).is_file()
               and _sha256((path / name).read_bytes()) == digest
               for name, digest in outputs.items())


def stamp(path: Path) -> dict:
    m = manifest(path)
    return {"code_version": m["code_version"], "seed_scheme": m["seed_scheme"]}


def compare(reference: dict, workload: str, seed: int, command: str,
            digest: str, stamp_: dict) -> str:
    ref = reference.get("workloads", {}).get(workload, {}).get(str(seed), {})
    if command not in ref or stamp_ != reference.get("stamp"):
        return UNREFERENCED
    return MATCH if ref[command] == digest else CHANGED


def report_failure(rows: list[dict], summaries: dict[str, dict],
                   replicas: dict[str, int]) -> str | None:
    """Why a FAIL row of ``kbrw report`` condemns the whole pass, or None.

    ``summaries`` maps command name to its summary.json and ``replicas`` to
    the replicas it requested.  Criteria 5 and 6 hold walk estimates to
    fixed bands that were set for the 10^6 replicas of the acceptance suite.
    At the benchmark's 10^5 the standard error of R(9) alone is about 1%,
    the whole of criterion 5's closed-form band, so that clause is left to
    the information lines; and criterion 6 is judged with the probe's own
    standard error (``probes_in_band``).
    """
    for row in rows:
        if row["status"] != "FAIL":
            continue
        if row["criterion"] == 5 and walks_agree(summaries):
            continue
        if row["criterion"] == 6 and probes_in_band(summaries, replicas):
            continue
        return f"criterion {row['criterion']} FAIL: {row['note']}"
    return None


def walks_agree(summaries: dict[str, dict]) -> bool:
    """Criterion 5 without its closed-form clause: the two renewal methods
    agree within 4 pooled SE and C_R lies within 2% of its reference.  These
    two thresholds mirror the criterion 5 verdict of ``kbrw.cli``'s report
    command and must follow it if it changes."""
    return all(s["max_method_z"] <= 4.0
               and (s["cr_rel_err"] is None or s["cr_rel_err"] <= 0.02)
               for s in summaries.values() if s.get("kind") == "walk")


# criterion 6 of ``kbrw.cli``'s report command: every first-passage probe
# product lies in this band; it must follow the report command if that changes
PROBE_BAND = (0.9, 1.1)
PROBE_Z = 3.0


def probe_stderr(cr: dict, replicas: int) -> float:
    """Standard error of a walk's probe product C_R * k * p: the binomial
    error of the probe's hit fraction p over ``replicas`` walks, combined
    with the error of C_R."""
    p = cr["probe_p"]
    if not 0.0 < p < 1.0:
        return 0.0
    rel = math.hypot(cr["stderr"] / cr["value"],
                     math.sqrt((1.0 - p) / (replicas * p)))
    return cr["probe_product"] * rel


def probes_in_band(summaries: dict[str, dict], replicas: dict[str, int]) -> bool:
    """Criterion 6 at the benchmark's budget: every probe product lies within
    PROBE_Z of its own standard errors of PROBE_BAND.  At 10^5 replicas the
    zero-drift probe product has a standard error of about 0.02 around a
    mean of about 0.95, so the bare band alone fails a sound walk on about
    one seed in 300, while 3 standard errors below it lie 5.5 of them below
    that mean.  At the acceptance suite's 10^6 the bare band is 8 standard
    errors away and the slack shrinks to a third."""
    lo, hi = PROBE_BAND
    for name, s in summaries.items():
        if s.get("kind") != "walk" or s["C_R"].get("probe_product") is None:
            continue
        cr = s["C_R"]
        slack = PROBE_Z * probe_stderr(cr, replicas[name])
        if not lo - slack <= cr["probe_product"] <= hi + slack:
            return False
    return True
