"""Workload definitions shared by the benchmark driver and its set-up probe.

Each workload is one ``gkdvlab`` CLI command run in-process through
``gkdvlab.cli.main``.  Its oracle reads the JSON files the command wrote,
checks them against the acceptance tolerances of ``tests/test_acceptance.py``
and returns the accuracy metrics of the pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Each pass takes about a second, so that a run of a few tens of seconds
# holds enough passes, each next to a reference run, for a steady median:
# the soliton run stops at t = 0.5 (500 IF-RK4 steps), the Picard window is
# half the acceptance one at the same node spacing, and the lab draws two
# members per check.
SOLITON_T_END = 0.5
SOLITON_DT = 1e-3
PICARD_NODES = 192
PICARD_WINDOW = 0.025
LAB_ENSEMBLE = 2
LAB_CHECKS = 11  # linear_free, time_cutoff, duhamel, 5 strichartz, multilinear, embedding, apriori

# IF-RK4 steps one pass takes: the soliton run itself; the reference stepper
# of picard-test (one step per Picard node); and two 100-step runs (t = 2 at
# dt = 0.02, forward and reflected) per member of the lab's apriori check.
STEPS = {
    "soliton": round(SOLITON_T_END / SOLITON_DT),
    "picard": PICARD_NODES,
    "lab": 2 * 100 * LAB_ENSEMBLE,
}


def load_package():
    """Import gkdvlab from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import gkdvlab

    where = Path(gkdvlab.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"gkdvlab was imported from {where}, not from {SRC}")
    return gkdvlab


def cli_args(workload: str, seed: int) -> list[str]:
    """The CLI arguments of one pass, without ``--out``."""
    if workload == "soliton":
        return ["soliton-test", "--set", f"t_end={SOLITON_T_END!r}", "--seed", str(seed)]
    if workload == "picard":
        return [
            "picard-test", "--set", "N=256", "--set", f"picard_nodes={PICARD_NODES}",
            "--set", f"t_window={PICARD_WINDOW!r}", "--set", "max_iters=25", "--seed", str(seed),
        ]
    if workload == "lab":
        return ["estimate-lab", "--set", "p=2", "--set", f"ensemble={LAB_ENSEMBLE}",
                "--seed", str(seed)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("soliton", "picard", "lab")


class OracleError(AssertionError):
    """A pass wrote output that fails its acceptance check."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise OracleError(msg)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def check_manifest(out: Path) -> dict:
    """Every file the manifest lists exists and matches its sha256."""
    manifest = _read_json(out / "manifest.json")
    outputs = manifest["outputs"]
    _require(len(outputs) >= 1, "manifest lists no outputs")
    for name, digest in outputs.items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        _require(actual == digest, f"{name}: sha256 differs from the manifest")
    return outputs


def _oracle_soliton(out: Path, outputs: dict) -> dict:
    _require("soliton_test.json" in outputs, "soliton_test.json missing from manifest")
    res = _read_json(out / "soliton_test.json")
    err = max(res["l2_error_u"], res["l2_error_v"])
    _require(err < 1e-4, f"soliton L2 error {err:.3e} >= 1e-4")
    for key in ("mass_u_rel_drift", "mass_v_rel_drift", "l2_rel_drift"):
        _require(res[key] < 1e-8, f"{key} {res[key]:.3e} >= 1e-8")
    drift_h = res["hamiltonian_abs_drift"]
    _require(drift_h < 1e-6, f"Hamiltonian drift {drift_h:.3e} >= 1e-6")
    return {"soliton_l2_err": err, "hamiltonian_drift": drift_h}


def _oracle_picard(out: Path, outputs: dict) -> dict:
    _require("picard_test.json" in outputs, "picard_test.json missing from manifest")
    res = _read_json(out / "picard_test.json")
    _require(res["converged"] is True, "Picard iteration did not converge")
    later = res["contraction_factors"][1:]
    _require(len(later) >= 1, "no contraction factor after the first iterate")
    worst = max(later)
    _require(worst < 0.5, f"contraction factor {worst:.3g} >= 0.5")
    dist = res["sup_l2_diff_vs_stepper"]
    _require(dist < 1e-6, f"Picard vs stepper distance {dist:.3e} >= 1e-6")
    return {"picard_vs_stepper": dist, "picard_worst_factor": worst}


def _oracle_lab(out: Path, outputs: dict) -> dict:
    reports = [name for name in outputs if name.startswith("report_")]
    _require(len(reports) == LAB_CHECKS, f"expected {LAB_CHECKS} reports, got {len(reports)}")
    members = 0
    for name in reports:
        rep = _read_json(out / name)
        _require(not rep["violation"], f"{name}: violation")
        _require(math.isfinite(rep["max_ratio"]), f"{name}: max ratio not finite")
        members += rep["ensemble"]
    _require("lemma_table.json" in outputs, "lemma_table.json missing from manifest")
    _require(_read_json(out / "lemma_table.json")["passed"] is True, "lemma table failed")
    return {"members": members}


_ORACLES = {"soliton": _oracle_soliton, "picard": _oracle_picard, "lab": _oracle_lab}


def check_pass(workload: str, out: Path) -> dict:
    """Run the oracle of one pass; raises OracleError on a failed check."""
    return _ORACLES[workload](out, check_manifest(out))
