"""Span tracer for the traced run of the benchmark.

The package binds its functions with ``from .x import y``, so a wrapper is
installed in every ``gkdvlab`` module namespace that holds the original
function object, not only in the defining module.  Each wrapped call
records one span ``[pass, name, parent, start, end, work]`` in memory;
``work`` is an optional count read from the arguments or the result (array
points transformed, steps, members, bytes written).

Per-layer metrics are computed per pass from the spans.  Times are
inclusive unless named ``self``; self time is a span's duration minus the
durations of its direct children, which run one after another.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

SPAN_FIELDS = ("pass", "name", "parent", "start_s", "end_s", "work")


def _first_arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _points(key):
    return lambda args, kwargs, result: int(np.size(_first_arg(args, kwargs, 0, key)))


def _simulate_work(args, kwargs, result):
    """(steps, expected record calls) of one simulate call."""
    initial = _first_arg(args, kwargs, 0, "initial")
    config = _first_arg(args, kwargs, 1, "config")
    steps = int(round((config.t_end - initial.t) / config.dt))
    stride = config.record_stride
    return steps, steps // stride + 1 + (1 if steps % stride else 0)


def _file_size(pos, key):
    return lambda args, kwargs, result: os.path.getsize(_first_arg(args, kwargs, pos, key))


def _members(args, kwargs, result):
    return result.ensemble


# (module, attribute, work) for every traced boundary.  Span names are
# "<module>.<attribute>".
TARGETS = (
    ("cli", "main", None),
    ("spectral", "dft_axis", _points("values")),
    ("spectral", "idft_axis", _points("coeffs")),
    ("spectral", "forward_transform", None),
    ("spectral", "inverse_transform", None),
    ("spectral", "dealiased_product", None),
    ("evolution", "simulate", _simulate_work),
    ("evolution", "picard_solve", lambda args, kwargs, result: result.iterations),
    ("diagnostics", "TrajectoryRecord.record", None),
    ("diagnostics", "invariants", None),
    ("diagnostics", "estimate_radius",
     lambda args, kwargs, result: 0 if result.noise_floor_hit else 1),
    ("spaces", "gevrey_norm", None),
    ("spaces", "bourgain_norm", None),
    ("spaces", "xt_transform", None),
    ("estimates", "check_linear_free", _members),
    ("estimates", "check_time_cutoff", _members),
    ("estimates", "check_duhamel", _members),
    ("estimates", "check_strichartz", _members),
    ("estimates", "check_multilinear", _members),
    ("estimates", "check_embedding", _members),
    ("estimates", "check_apriori_ensemble", _members),
    ("estimates", "check_exponential_lemmas", None),
    ("estimates", "bidirectional_record", None),
    ("estimates", "product_sample", None),
    ("harness", "write_csv", _file_size(0, "path")),
    ("harness", "write_trajectory_csv", None),
    ("harness", "write_decay_csv", None),
    ("harness", "write_report_json", None),
    ("harness", "_write_json", _file_size(1, "path")),
    ("harness", "_write_manifest", _file_size(1, "path")),
    ("harness", "_sha256", None),
    ("_kernels", "coupled_powers", None),
    ("_kernels", "bourgain_weight", None),
)

ROOT_SPAN = "cli.main"
SIMULATE = "evolution.simulate"
PICARD = "evolution.picard_solve"
RECORD = "diagnostics.TrajectoryRecord.record"
DFT, IDFT = "spectral.dft_axis", "spectral.idft_axis"
POWERS = "_kernels.coupled_powers"
HARNESS_IO = tuple(f"harness.{a}" for m, a, _ in TARGETS if m == "harness")
CHECKS = ("linear_free", "time_cutoff", "duhamel", "strichartz", "multilinear",
          "embedding", "apriori")


class SelfCheckError(AssertionError):
    """A tracer identity that must hold exactly does not."""


class Tracer:
    """Records spans of the wrapped functions, one list per process."""

    def __init__(self):
        self.spans: list[list] = []
        self.passes: list[tuple[int, int]] = []  # [first, stop) span index per pass
        self._stack = [-1]
        self._pass = -1

    def wrap(self, name, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [tracer._pass, name, stack[-1], 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each target in the gkdvlab modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gkdvlab" or n.startswith("gkdvlab.")]
        for module_name, attr, work in TARGETS:
            module = sys.modules[f"gkdvlab.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(name, cls.__dict__[method], work))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, work)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapped)

    def run_pass(self, fn):
        """Call fn() as one traced pass; returns its result."""
        self._pass += 1
        first = len(self.spans)
        try:
            return fn()
        finally:
            self.passes.append((first, len(self.spans)))


def _pass_metrics(spans: list[list], first: int, stop: int) -> dict:
    """Per-layer metrics of one pass; raises SelfCheckError on a broken identity."""
    child = [0.0] * (stop - first)
    for i in range(first, stop):
        parent = spans[i][2]
        if parent >= 0:
            if parent < first:
                raise SelfCheckError(f"span {i} has a parent outside its pass")
            child[parent - first] += spans[i][4] - spans[i][3]

    count: Counter = Counter()
    incl: defaultdict = defaultdict(float)
    own: defaultdict = defaultdict(float)
    work: defaultdict = defaultdict(int)
    loops: dict[int, Counter] = {}  # simulate / picard span -> direct child names
    record_in_simulate = 0.0
    root_s, self_total, worst_self = 0.0, 0.0, 0.0
    for i in range(first, stop):
        _, name, parent, t0, t1, w = spans[i]
        dur = t1 - t0
        self_s = dur - child[i - first]
        count[name] += 1
        incl[name] += dur
        own[name] += self_s
        self_total += self_s
        worst_self = min(worst_self, self_s)
        if isinstance(w, (int, float)):
            work[name] += w
        if parent < 0:
            root_s += dur
            if name != ROOT_SPAN:
                raise SelfCheckError(f"outermost span is {name}, not {ROOT_SPAN}")
        elif spans[parent][1] in (SIMULATE, PICARD):
            loops.setdefault(parent, Counter())[name] += 1
            if name == RECORD and spans[parent][1] == SIMULATE:
                record_in_simulate += dur

    steps = 0
    for idx in range(first, stop):
        name = spans[idx][1]
        if name not in (SIMULATE, PICARD):
            continue
        children = loops.get(idx, Counter())
        if name == SIMULATE:
            sim_steps, want_records = spans[idx][5]
            steps += sim_steps
            if children[POWERS] != 4 * sim_steps:
                raise SelfCheckError(
                    f"simulate: {children[POWERS]} coupled_powers calls for {sim_steps} steps")
            if children[RECORD] != want_records:
                raise SelfCheckError(
                    f"simulate: {children[RECORD]} record calls, expected {want_records}")
        for kind in (DFT, IDFT):
            if children[kind] != 2 * children[POWERS]:
                raise SelfCheckError(
                    f"{name}: {children[kind]} {kind} calls for {children[POWERS]} RHS evaluations")
    if count[PICARD] == 0 and count[POWERS] != 4 * steps:
        raise SelfCheckError(f"{count[POWERS]} coupled_powers calls for {steps} steps")
    if worst_self < -1e-9 or self_total > root_s * (1.0 + 1e-9) + 1e-9:
        raise SelfCheckError(
            f"self times (sum {self_total:.6f} s, min {worst_self:.3g} s) "
            f"inconsistent with the outermost span ({root_s:.6f} s)")

    def per(total, n, scale):
        return total / n * scale if n else 0.0

    transforms = count[DFT] + count[IDFT]
    transform_self = own[DFT] + own[IDFT]
    fields = ("spectral.forward_transform", "spectral.inverse_transform")
    out = {
        "spectral.dft_calls": count[DFT],
        "spectral.idft_calls": count[IDFT],
        "spectral.transform_points": work[DFT] + work[IDFT],
        "spectral.transform_self_s": transform_self,
        "spectral.transform_us": per(transform_self, transforms, 1e6),
        "spectral.field_transform_calls": sum(count[f] for f in fields),
        "spectral.field_transform_self_s": sum(own[f] for f in fields),
        "spectral.dealiased_product_calls": count["spectral.dealiased_product"],
        "spectral.dealiased_product_self_s": own["spectral.dealiased_product"],
        "evolution.steps": steps,
        "evolution.step_us": per(incl[SIMULATE] - record_in_simulate, steps, 1e6),
        "evolution.simulate_self_s": own[SIMULATE],
        "evolution.rhs_evals": count[POWERS],
        "evolution.picard_s": incl[PICARD],
        "evolution.picard_self_s": own[PICARD],
        "evolution.picard_iterations": work[PICARD],
        "diagnostics.record_calls": count[RECORD],
        "diagnostics.record_s": incl[RECORD],
        "diagnostics.record_us": per(incl[RECORD], count[RECORD], 1e6),
        "diagnostics.invariants_s": incl["diagnostics.invariants"],
        "diagnostics.estimate_radius_s": incl["diagnostics.estimate_radius"],
        "diagnostics.radius_fit_ok_ratio": per(
            work["diagnostics.estimate_radius"], count["diagnostics.estimate_radius"], 1.0),
        "spaces.bourgain_norm_calls": count["spaces.bourgain_norm"],
        "spaces.bourgain_norm_s": incl["spaces.bourgain_norm"],
        "spaces.gevrey_norm_calls": count["spaces.gevrey_norm"],
        "spaces.gevrey_norm_s": incl["spaces.gevrey_norm"],
        "spaces.xt_transform_s": incl["spaces.xt_transform"],
        "estimates.lemmas_s": incl["estimates.check_exponential_lemmas"],
        "estimates.bidirectional_record_s": incl["estimates.bidirectional_record"],
        "estimates.product_sample_s": incl["estimates.product_sample"],
        "harness.io_s": sum(own[n] for n in HARNESS_IO),
        "harness.bytes_written": sum(work[n] for n in HARNESS_IO),
        "kernels.coupled_powers_calls": count[POWERS],
        "kernels.coupled_powers_s": incl[POWERS],
        "kernels.bourgain_weight_calls": count["_kernels.bourgain_weight"],
        "kernels.bourgain_weight_s": incl["_kernels.bourgain_weight"],
        "trace.spans": stop - first,
    }
    for check in CHECKS:
        driver = "estimates.check_" + ("apriori_ensemble" if check == "apriori" else check)
        out[f"estimates.{check}.member_ms"] = per(incl[driver], work[driver], 1e3)
    return out


def layer_metrics(tracer: Tracer, exact: set[str]) -> dict:
    """Median over traced passes of each per-layer metric.

    Metrics named in ``exact`` are counts that must repeat exactly from
    pass to pass; a difference raises SelfCheckError.
    """
    per_pass = [_pass_metrics(tracer.spans, a, b) for a, b in tracer.passes]
    if not per_pass:
        raise SelfCheckError("no traced pass")
    out = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name in exact:
            if len(set(values)) != 1:
                raise SelfCheckError(f"{name} differs between passes: {sorted(set(values))}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out
