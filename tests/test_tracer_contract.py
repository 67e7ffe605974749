"""The call-count identities of the traced benchmark run hold on small runs.

``perfbench/tracer.py`` checks in every traced pass that each ``simulate``
and ``picard_solve`` makes exactly two forward and two inverse transforms per
right-hand side, one right-hand side per ``coupled_powers`` call and four per
IF-RK4 step, and that count metrics repeat from pass to pass.  A change that
adds a transform under the stepping loop breaks those identities and makes
the traced benchmark fail; this test runs the tracer on one small command of
each benchmark kind so the test suite fails first.  It also checks the traced
IF-RK4 step count of each command, as ``perfbench/run.py`` checks the steps
of each workload: a change that folds ``simulate`` calls together must keep
counting every member's steps.  It reads ``perfbench/``
and changes nothing there, and it runs in a subprocess because the tracer
rebinds functions in every ``gkdvlab`` module.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = [
    ["soliton-test", "--set", "N=128", "--set", "dt=0.01", "--set", "t_end=0.1",
     "--set", "record_stride=4"],
    ["picard-test", "--set", "N=64", "--set", "picard_nodes=8",
     "--set", "t_window=0.004", "--set", "max_iters=4"],
    ["estimate-lab", "--set", "ensemble=2", "--set", "lab_M=16"],
    ["simulate", "--set", "N=128", "--set", "dt=0.01", "--set", "t_end=0.1",
     "--set", "record_stride=4"],
]

# traced evolution.steps of one pass of each command: 10 steps of 0.01 to
# t = 0.1; the reference stepper of picard-test, one step per node; two
# 100-step apriori runs (forward and reflected) per lab member; and 10 IF-RK4
# steps whose trajectory.csv takes the invariants, the radii and the H^s
# norms of every record, a path none of the other commands runs
STEPS = [10, 8, 400, 10]

# two traced passes per command; layer_metrics raises SelfCheckError on a
# broken identity or a count that differs between the two passes; the last
# line printed lists the steps of each command
SCRIPT = r"""
import json, sys, tempfile
from types import SimpleNamespace

root, commands = sys.argv[1], json.loads(sys.argv[2])
sys.path[:0] = [root + "/src", root + "/perfbench"]
import tracer
from gkdvlab import cli

with open(root + "/BENCHMARK.json", encoding="utf-8") as fh:
    exact = {m["name"] for m in json.load(fh)["per_layer"] if m["unit"] == "count"}
spans = tracer.Tracer()
spans.install()
steps = []
with tempfile.TemporaryDirectory() as tmp:
    for i, argv in enumerate(commands):
        for k in range(2):
            code = spans.run_pass(lambda: cli.main(argv + ["--out", f"{tmp}/{i}-{k}"]))
            if code != 0:
                sys.exit(f"{argv} exited with {code}")
        metrics = tracer.layer_metrics(
            SimpleNamespace(spans=spans.spans, passes=spans.passes[-2:]), exact)
        steps.append(metrics["evolution.steps"])
print(json.dumps(steps))
"""


def test_traced_passes_keep_the_tracer_identities():
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), json.dumps(COMMANDS)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr[-4000:]
    assert json.loads(res.stdout.splitlines()[-1]) == STEPS
