"""gkdvlab benchmark: one workload per process, tracing off or on.

    python3 perfbench/run.py --workload soliton --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` as the tier-1 tests do, never from an installed copy.  A run does
one checked warm-up pass, then repeats checked passes of the workload's
``gkdvlab`` command through ``gkdvlab.cli.main`` for ``--seconds`` seconds.
Untraced runs put a fixed reference computation (``reference.py``) between
passes and report pass time as a multiple of it, and time set-up in a fresh
probe process (``probe.py``) after every pass.  With ``--trace 1`` the first
half of the time runs untraced and the second half with every layer
boundary wrapped (see ``tracer.py``).

Standard output holds an environment line, one line per metric and, last,
the JSON result ``{"correct", "attempted", "failed", "metrics"}`` whose
metric names and units are those of ``BENCHMARK.json``.  Each pass writes
to a temporary directory under ``.perfbench/`` that is removed once its
output has been checked; a traced run leaves its spans in
``.perfbench/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import reference
import tracer
import workloads

ROOT = workloads.ROOT
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    # the ceiling keeps git from answering for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def environment(args) -> dict:
    from gkdvlab import _kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": _kernels.BACKEND,
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def probe_setup(workload: str, seed: int) -> float:
    """Time from spawning a probe process to its ``ready`` line."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with {code}, printed {line!r}")
    return elapsed


class Passes:
    """Runs checked passes of one workload and tallies them."""

    def __init__(self, workload: str, seed: int, runs_dir: Path):
        from gkdvlab import cli

        self.cli = cli
        self.workload = workload
        self.argv = workloads.cli_args(workload, seed)
        self.runs_dir = runs_dir
        self.attempted = 0
        self.failed = 0
        self.results: list[dict] = []

    def one(self) -> float | None:
        """One pass; returns its wall time, or None if it failed."""
        self.attempted += 1
        out = Path(tempfile.mkdtemp(dir=self.runs_dir))
        log = io.StringIO()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                start = time.perf_counter()
                code = self.cli.main(self.argv + ["--out", str(out)])
                wall = time.perf_counter() - start
            if code != 0:
                raise workloads.OracleError(f"gkdvlab exited with code {code}")
            self.results.append(workloads.check_pass(self.workload, out))
            return wall
        except Exception:  # a failed pass is counted and the run goes on
            self.failed += 1
            print(f"pass {self.attempted} failed:\n{traceback.format_exc()}{log.getvalue()}",
                  file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def measure(self, seconds: float, wrap=lambda fn: fn()) -> list[float]:
        """Wall times of the passes that succeed within ``seconds``."""
        walls = []
        start = time.perf_counter()
        tried = 0
        while tried == 0 or time.perf_counter() - start < seconds:
            tried += 1
            wall = wrap(self.one)
            if wall is not None:
                walls.append(wall)
        return walls


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def end_to_end(args, passes: Passes, info: dict) -> dict:
    """Passes alternate with reference runs; set-up is probed after each.

    Host speed drifts over seconds, so each pass's wall time is divided by
    the mean of the reference runs just before and after it, and set-up is
    probed throughout so that its median covers the same stretch of time.
    """
    ref = functools.partial(reference.run, args.workload)
    start = time.perf_counter()
    passes.one()  # warm-up: checked, not timed
    ref()
    setups = [probe_setup(args.workload, args.seed)]
    refs = [timed(ref)]
    walls, ratios = [], []
    while True:
        cycle_start = time.perf_counter()
        wall = passes.one()
        refs.append(timed(ref))
        if wall is not None:
            walls.append(wall)
            ratios.append(wall / ((refs[-2] + refs[-1]) / 2.0))
        setups.append(probe_setup(args.workload, args.seed))
        now = time.perf_counter()
        if now + (now - cycle_start) - start > args.seconds:
            break  # the next pass would end past --seconds
    info["setup_s"] = f"median of {len(setups)} probes"
    info["failed_frac"] = f"{passes.failed / passes.attempted!r} 1"
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": (passes.attempted - passes.failed) / passes.attempted,
    }
    if walls:  # nothing to time when every pass failed
        wall = statistics.median(walls)
        values["wall_vs_ref"] = statistics.median(ratios)
        info["wall_vs_ref"] = f"median of {len(ratios)} passes"
        info["wall_s"] = f"{wall!r} s  (median of {len(walls)} passes)"
        info["ref_s"] = f"{statistics.median(refs)!r} s  (median of {len(refs)} reference runs)"
        info["steps_per_s"] = f"{workloads.STEPS[args.workload] / wall!r} 1/s"
        result = passes.results[0]
        if args.workload == "lab":
            info["members_per_s"] = f"{result['members'] / wall!r} 1/s"
        else:
            info.update({k: f"{v!r} 1" for k, v in result.items()})
    return values


def per_layer(args, passes: Passes, declared: list[dict], env: dict) -> dict:
    passes.one()  # warm-up: checked, not timed
    plain = passes.measure(args.seconds / 2.0)
    spans = tracer.Tracer()
    spans.install()
    traced = passes.measure(args.seconds / 2.0, spans.run_pass)
    WORK.mkdir(exist_ok=True)
    dump = {"environment": env, "fields": tracer.SPAN_FIELDS, "spans": spans.spans}
    (WORK / f"trace-{args.workload}.json").write_text(json.dumps(dump), encoding="utf-8")
    exact = {m["name"] for m in declared if m["unit"] == "count"}
    metrics = tracer.layer_metrics(spans, exact)
    if metrics["evolution.steps"] != workloads.STEPS[args.workload]:
        raise tracer.SelfCheckError(
            f"traced {metrics['evolution.steps']} steps, expected {workloads.STEPS[args.workload]}")
    if plain and traced:
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads.load_package()
    env = environment(args)
    print(json.dumps({"environment": env}))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    WORK.mkdir(exist_ok=True)
    runs_dir = Path(tempfile.mkdtemp(prefix="runs-", dir=WORK))
    passes = Passes(args.workload, args.seed, runs_dir)
    info: dict = {}
    checks_ok = True
    try:
        if args.trace:
            values = per_layer(args, passes, declared, env)
        else:
            values = end_to_end(args, passes, info)
    except tracer.SelfCheckError as exc:
        print(f"tracer self-check failed: {exc}", file=sys.stderr)
        values, checks_ok = {}, False
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when nothing else is left in it
    metrics = {}
    for m in declared:
        if m["name"] in values:
            value = values[m["name"]]
            value = value if isinstance(value, int) else float(value)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if set(values) != set(metrics):
        raise RuntimeError(f"metrics not in BENCHMARK.json: {sorted(set(values) - set(metrics))}")
    for name, m in metrics.items():
        note = f"  ({info[name]})" if name in info else ""
        print(f"# {name} = {m['value']!r} {m['unit']}{note}")
    for name in sorted(set(info) - set(metrics)):
        print(f"# {name} = {info[name]}")
    correct = checks_ok and passes.failed == 0 and len(metrics) == len(declared)
    print(json.dumps({"correct": correct, "attempted": passes.attempted,
                      "failed": passes.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
