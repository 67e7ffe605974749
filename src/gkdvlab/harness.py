"""Batch experiment harness: flat config files, run orchestration, output.

Configs are plain key=value text with [section] headers for grouping only;
keys are global and unique, floats are emitted with 17 significant digits so
parse(render(config)) is lossless.  Each key is declared once, as a RunConfig
field whose metadata holds its section, its check and, for L, N, lab_L, lab_N
and lab_M, its config spelling.  Every run directory gets a manifest with
a config snapshot, wall times, and sha256 checksums of the data files it
wrote.  Data files themselves carry no timestamps: the same config and seed
reproduce them byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .diagnostics import (
    STDERR_FACTOR,
    DecayFit,
    TrajectoryRecord,
    fit_decay_exponent,
    joint_radius,
    radius_nonincreasing,
)
from .estimates import (
    APRIORI_DT,
    APRIORI_STRIDE,
    ENVELOPES,
    STRICHARTZ_VARIANTS,
    EstimateReport,
    SampleSpec,
    check_apriori_ensemble,
    check_duhamel,
    check_embedding,
    check_exponential_lemmas,
    check_linear_free,
    check_multilinear,
    check_strichartz,
    check_time_cutoff,
)
from .evolution import (
    SCHEMES,
    CoupledState,
    PicardConfig,
    SolverConfig,
    picard_solve,
    simulate,
)
from .spaces import NormParams, gevrey_norm
from .spectral import SpectralGrid

__all__ = [
    "DECAY_COLUMNS",
    "KINDS",
    "TRAJECTORY_COLUMNS",
    "ConfigError",
    "InsufficientDataError",
    "RunConfig",
    "RunManifest",
    "apply_overrides",
    "default_out_root",
    "format_float",
    "initial_state",
    "parse_config",
    "read_csv",
    "render_config",
    "run",
    "sweep",
    "write_csv",
    "write_decay_csv",
    "write_report_json",
    "write_trajectory_csv",
]

KINDS = ("simulate", "radius-track", "estimate-lab", "soliton-test", "picard-test")
OUT_ROOT_ENV = "GKDVLAB_OUT"


class ConfigError(ValueError):
    """Malformed or invalid configuration text; the message cites the line."""


class InsufficientDataError(RuntimeError):
    """Too little usable signal for the requested analysis (noise floor,
    short series); distinct from numerical failure of the solver."""


def _one_of(opts: Sequence[str]) -> tuple[Callable[[object], bool], str]:
    return (lambda v: v in opts), "must be one of " + ", ".join(opts)


_POS = (lambda v: np.isfinite(v) and v > 0, "must be positive and finite")
_NONNEG = (lambda v: np.isfinite(v) and v >= 0, "must be >= 0")
_FINITE = (lambda v: np.isfinite(v), "must be finite")
_ONE_OR_MORE = (lambda v: np.isfinite(v) and v >= 1.0, "must be >= 1")
# '#' would start a comment and a line break would end the line of the
# rendered config, so parse_config could not read such a value back
_ONE_LINE = (lambda v: not any(c in v for c in "#\n\r"), "must not contain '#' or a line break")


def _at_least(low: int, even: bool = False) -> tuple[Callable[[object], bool], str]:
    if even:
        return (lambda v: v >= low and v % 2 == 0), f"must be even and >= {low}"
    return (lambda v: v >= low), f"must be >= {low}"


# the apriori runs record every APRIORI_DT * APRIORI_STRIDE, and their cutoff
# window [-2 lab_T, 2 lab_T] must begin and end on a record time
_LAB_T_STEP = 0.5 * APRIORI_DT * APRIORI_STRIDE
_LAB_T = (lambda v: np.isfinite(v) and v >= 1.0
          and abs(v / _LAB_T_STEP - round(v / _LAB_T_STEP)) <= 1e-9 * v,
          f"must be >= 1 and a whole multiple of {_LAB_T_STEP:g}")


def _key(default, section: str, rule, name: str | None = None):
    """A RunConfig field declaring one config key: the default (its type is
    the value type), [section], (check, rule) pair and, if not the field name,
    the config spelling."""
    return dataclasses.field(
        default=default, metadata={"section": section, "rule": rule, "name": name})


@dataclass(frozen=True)
class RunConfig:
    """Every run parameter; each field declares one config key."""

    kind: str = _key("simulate", "run", _one_of(KINDS))
    seed: int = _key(0, "run", _at_least(0))
    out: str = _key("", "run", _ONE_LINE)
    half_length: float = _key(20.0 * np.pi, "grid", _POS, name="L")
    num_points: int = _key(1024, "grid", _at_least(4, even=True), name="N")
    p: int = _key(1, "solver", _at_least(1))
    dt: float = _key(1e-3, "solver", _POS)
    t_end: float = _key(5.0, "solver", _POS)
    scheme: str = _key("if_rk4", "solver", _one_of(SCHEMES))
    record_stride: int = _key(50, "solver", _at_least(1))
    blowup_factor: float = _key(
        1e6, "solver", (lambda v: np.isfinite(v) and v > 1, "must be > 1"))
    ic: str = _key(
        "soliton", "initial", _one_of(("soliton", "sech", "perturbed_sech", "gaussian")))
    ic_speed: float = _key(1.0, "initial", _POS)
    ic_x0: float = _key(0.0, "initial", _FINITE)
    ic_amp: float = _key(1.0, "initial", _POS)
    ic_width: float = _key(1.0, "initial", _POS)
    ic_eps: float = _key(0.05, "initial", _NONNEG)
    rho: float = _key(0.25, "norms", _NONNEG)
    s: float = _key(2.0, "norms", _FINITE)
    b: float = _key(0.55, "norms", (lambda v: -1.0 <= v <= 1.0, "must lie in [-1, 1]"))
    b_prime: float = _key(-0.3, "norms", (lambda v: -1.0 <= v < 0.0, "must lie in [-1, 0)"))
    t_min: float = _key(1.0, "fit", _ONE_OR_MORE)
    t_window: float = _key(0.05, "picard", _POS)
    picard_nodes: int = _key(256, "picard", _at_least(8))
    max_iters: int = _key(20, "picard", _at_least(2))
    ensemble: int = _key(50, "lab", _at_least(1))
    lab_T: float = _key(1.0, "lab", _LAB_T)
    bandwidth: float = _key(4.0, "lab", _POS)
    envelope: str = _key("exponential", "lab", _one_of(ENVELOPES))
    rho0: float = _key(0.5, "lab", _NONNEG)
    amplitude: float = _key(1.0, "lab", _POS)
    apriori_amplitude: float = _key(0.05, "lab", _POS)
    lab_half_length: float = _key(10.0, "lab", _POS, name="lab_L")
    lab_num_points: int = _key(64, "lab", _at_least(4, even=True), name="lab_N")
    # M rows over [-2.5, 2.5) end at 2.5 - 5/M, past the cutoff support 2 iff M >= 10
    lab_num_times: int = _key(64, "lab", _at_least(10, even=True), name="lab_M")


# config spelling -> field, in declaration order
_KEYS = {f.metadata["name"] or f.name: f for f in dataclasses.fields(RunConfig)}
_SECTIONS = list(dict.fromkeys(f.metadata["section"] for f in _KEYS.values()))


def _lookup(key: str, where: str) -> dataclasses.Field:
    f = _KEYS.get(key)
    if f is None:
        raise ConfigError(f"{where}: unknown key {key!r}")
    return f


def _convert(f: dataclasses.Field, key: str, raw: str, where: str):
    kind = type(f.default)
    value = raw
    if kind is not str:
        try:
            value = kind(raw)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ConfigError(f"{where}: key {key!r} expects {noun}, got {raw!r}") from None
    check, rule = f.metadata["rule"]
    if not check(value):
        raise ConfigError(f"{where}: {key} {rule}, got {raw!r}")
    return value


def parse_config(text: str) -> RunConfig:
    """Build a validated RunConfig from key=value text; every error names
    the offending line."""
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("["):
            if not re.fullmatch(r"\[[A-Za-z_][A-Za-z0-9_-]*\]", line):
                raise ConfigError(f"{where}: malformed section header {raw.strip()!r}")
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected key = value, got {raw.strip()!r}")
        key, raw_value = (t.strip() for t in line.split("=", 1))
        f = _lookup(key, where)
        if key in seen:
            raise ConfigError(f"{where}: duplicate key {key!r} (first set on line {seen[key]})")
        seen[key] = lineno
        values[f.name] = _convert(f, key, raw_value, where)
    return RunConfig(**values)


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def render_config(config: RunConfig) -> str:
    """Canonical text form; parse_config round-trips it losslessly."""
    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        for key, f in _KEYS.items():
            if f.metadata["section"] != section:
                continue
            v = getattr(config, f.name)
            lines.append(f"{key} = {format_float(v) if isinstance(f.default, float) else v}")
        lines.append("")
    return "\n".join(lines)


def apply_overrides(
    config: RunConfig, pairs: Sequence[str], origin: str = "--set"
) -> RunConfig:
    """Apply key=value override strings; validation matches parse_config."""
    updates: dict[str, object] = {}
    for i, pair in enumerate(pairs, 1):
        where = f"{origin} #{i}"
        if "=" not in pair:
            raise ConfigError(f"{where}: expected key=value, got {pair!r}")
        key, raw_value = (t.strip() for t in pair.split("=", 1))
        f = _lookup(key, where)
        updates[f.name] = _convert(f, key, raw_value, where)
    return dataclasses.replace(config, **updates)


# ---------------------------------------------------------------------------
# Output files.


TRAJECTORY_COLUMNS = (
    "t", "mass_u", "mass_v", "l2", "hamiltonian", "hs_u", "hs_v",
    "rho_u", "rho_v", "rho_joint", "fit_r2_u", "fit_r2_v",
)
DECAY_COLUMNS = ("t_min", "K_fit", "alpha_fit", "r2")


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float payload; exact inverse of write_csv for finite and
    nan entries alike."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file, expected at least a header")
    header = lines[0].split(",")
    data = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    return header, np.asarray(data, dtype=float).reshape(len(data), len(header))


def trajectory_rows(record: TrajectoryRecord, s: float, coeffs, radii) -> list[list[float]]:
    """One row per record time; coeffs is record.spectra(), which gives the
    invariants and the H^s norms hs_u and hs_v, and radii is
    record.radii(coeffs), the fitted radii of u and of v."""
    hs_u, hs_v = gevrey_norm(coeffs, record.grid, NormParams(0.0, s, 0.0))
    rows = zip(record.times, record.invariant_sets(coeffs), hs_u, hs_v, *radii)
    return [
        [t, inv.mass_u, inv.mass_v, inv.l2, inv.hamiltonian, h_u, h_v,
         ru.rho, rv.rho, joint_radius(ru, rv).rho, ru.r_squared, rv.r_squared]
        for t, inv, h_u, h_v, ru, rv in rows
    ]


def write_trajectory_csv(record: TrajectoryRecord, path: Path, s: float) -> None:
    coeffs = record.spectra()
    write_csv(path, TRAJECTORY_COLUMNS, trajectory_rows(record, s, coeffs, record.radii(coeffs)))


def write_decay_csv(fit: DecayFit, path: Path) -> None:
    write_csv(path, DECAY_COLUMNS, [[fit.t_min, fit.k_fit, fit.alpha_fit, fit.r_squared]])


def _write_json(obj, path: Path) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_report_json(report: EstimateReport, path: Path) -> None:
    _write_json(dataclasses.asdict(report), path)


def _report_filename(report: EstimateReport) -> str:
    return "report_" + re.sub(r"[^A-Za-z0-9]+", "_", report.estimate_id).strip("_") + ".json"


# ---------------------------------------------------------------------------
# Experiments.


def soliton_profile(y: np.ndarray, c: float, p: int) -> np.ndarray:
    """Profile Q = ((p+1) c)^{1/(2p)} sech^{1/p}(p sqrt(c) y) of the equal-pair
    soliton u = v = Q(x - c t), which solves -c Q + Q'' + Q^{2p+1} = 0."""
    return np.sqrt((p + 1) * c) ** (1 / p) / np.cosh(p * np.sqrt(c) * y) ** (1 / p)


def initial_state(config: RunConfig) -> CoupledState:
    """Initial data factory; the pair is equal except for perturbed_sech,
    whose components get distinct low-mode modulations."""
    g = SpectralGrid(config.half_length, config.num_points)
    y = g.x - config.ic_x0
    if config.ic == "soliton":
        u = soliton_profile(y, config.ic_speed, config.p)
        v = u
    elif config.ic == "sech":
        u = config.ic_amp / np.cosh(config.ic_width * y)
        v = u
    elif config.ic == "perturbed_sech":
        base = config.ic_amp / np.cosh(config.ic_width * y)
        u = base * (1.0 + config.ic_eps * np.cos(3.0 * g.dzeta * g.x + 0.7))
        v = base * (1.0 + config.ic_eps * np.cos(4.0 * g.dzeta * g.x - 0.4))
    else:
        u = config.ic_amp * np.exp(-((y / config.ic_width) ** 2))
        v = u
    return CoupledState(0.0, g, [u, v])


def _solver_config(config: RunConfig) -> SolverConfig:
    # every SolverConfig field is a RunConfig key of the same name
    names = [f.name for f in dataclasses.fields(SolverConfig)]
    return SolverConfig(**{name: getattr(config, name) for name in names})


def _simulate_record(config: RunConfig) -> TrajectoryRecord:
    rec = simulate(initial_state(config), _solver_config(config))
    print(f"[gkdvlab] integrated to t = {config.t_end:g} ({len(rec)} records)")
    return rec


def _run_simulate(config: RunConfig, out: Path) -> list[str]:
    rec = _simulate_record(config)
    write_trajectory_csv(rec, out / "trajectory.csv", config.s)
    return ["trajectory.csv"]


def _run_radius_track(config: RunConfig, out: Path) -> list[str]:
    rec = _simulate_record(config)
    coeffs = rec.spectra()
    radii = rec.radii(coeffs)  # transformed and fitted once, for both files
    write_csv(out / "trajectory.csv", TRAJECTORY_COLUMNS,
              trajectory_rows(rec, config.s, coeffs, radii))
    joints = [joint_radius(ru, rv) for ru, rv in zip(*radii)]
    rhos = np.asarray([e.rho for e in joints])
    try:
        fit = fit_decay_exponent(np.asarray(rec.times), rhos, config.t_min)
    except ValueError as exc:
        raise InsufficientDataError(str(exc)) from exc
    ok, worst = radius_nonincreasing(joints)
    print(
        f"[gkdvlab] decay fit: alpha = {fit.alpha_fit:.4g}, K = {fit.k_fit:.4g}, "
        f"monotone {'ok' if ok else 'VIOLATED'} (worst excess {worst:.3g})"
    )
    write_decay_csv(fit, out / "decay_fit.csv")
    _write_json(
        {"monotone_ok": bool(ok), "worst_excess": float(worst), "stderr_factor": STDERR_FACTOR},
        out / "radius_check.json",
    )
    return ["trajectory.csv", "decay_fit.csv", "radius_check.json"]


def _periodic_shift(y: np.ndarray, half_length: float) -> np.ndarray:
    span = 2.0 * half_length
    return ((y + half_length) % span) - half_length


def _run_soliton_test(config: RunConfig, out: Path) -> list[str]:
    config = dataclasses.replace(config, ic="soliton")
    rec = _simulate_record(config)
    g = rec.grid
    c = config.ic_speed
    shift = _periodic_shift(g.x - config.ic_x0 - c * config.t_end, g.half_length)
    exact = soliton_profile(shift, c, config.p)
    final = rec.samples()[:, -1]  # (2, N): u and v at t_end
    err_u, err_v = (float(e) for e in np.sqrt(np.sum((final - exact) ** 2, axis=-1) * g.dx))

    invs = rec.invariant_sets(rec.spectra())
    inv0 = invs[0]
    rel = lambda a, b: abs(a - b) / max(abs(b), 1e-300)
    drifts = {
        "mass_u_rel_drift": max(rel(i.mass_u, inv0.mass_u) for i in invs),
        "mass_v_rel_drift": max(rel(i.mass_v, inv0.mass_v) for i in invs),
        "l2_rel_drift": max(rel(i.l2, inv0.l2) for i in invs),
        "hamiltonian_abs_drift": max(abs(i.hamiltonian - inv0.hamiltonian) for i in invs),
    }
    print(f"[gkdvlab] soliton test: l2 error u = {err_u:.3e}, v = {err_v:.3e}")
    _write_json(
        {"l2_error_u": err_u, "l2_error_v": err_v, "speed": c, "t_end": config.t_end, **drifts},
        out / "soliton_test.json",
    )
    return ["soliton_test.json"]


def _run_picard_test(config: RunConfig, out: Path) -> list[str]:
    state = initial_state(config)
    pcfg = PicardConfig(
        t_window=config.t_window,
        num_nodes=config.picard_nodes,
        max_iters=config.max_iters,
        diff_s=config.s,
    )
    res = picard_solve(state, pcfg, config.p)
    print(
        f"[gkdvlab] picard: converged={res.converged} after {res.iterations} iterations"
    )
    # reference stepper on the same node grid, one record per step
    ref_cfg = dataclasses.replace(
        _solver_config(config),
        dt=config.t_window / config.picard_nodes,
        t_end=config.t_window,
        record_stride=1,
    )
    ref = simulate(state, ref_cfg)
    # squared L2 distance per component and node, (2, nodes + 1), formed in
    # the Picard samples: the bits of (a - b) ** 2 without its temporaries
    diff = res.samples()
    diff -= ref.samples()
    diff *= diff
    du, dv = np.sum(diff, axis=-1)
    sup = float(np.sqrt((du + dv) * state.grid.dx).max())
    print(f"[gkdvlab] picard vs stepper: sup-t L2 diff = {sup:.3e}")
    _write_json(
        {
            "converged": bool(res.converged),
            "iterations": int(res.iterations),
            "contraction_factors": [float(f) for f in res.contraction_factors],
            "sup_l2_diff_vs_stepper": sup,
            "t_window": config.t_window,
            "num_nodes": config.picard_nodes,
        },
        out / "picard_test.json",
    )
    return ["picard_test.json"]


def _run_estimate_lab(config: RunConfig, out: Path) -> list[str]:
    g = SpectralGrid(config.lab_half_length, config.lab_num_points)
    spec = SampleSpec(
        seed=config.seed,
        bandwidth=config.bandwidth,
        envelope=config.envelope,
        rho0=config.rho0,
        amplitude=config.amplitude,
    )
    params = NormParams(config.rho, config.s, config.b)
    m, n_ens, T = config.lab_num_times, config.ensemble, config.lab_T
    reports = [
        check_linear_free(spec, params, T, g, m, n_ens),
        check_time_cutoff(spec, params, T, g, m, n_ens),
        check_duhamel(spec, params, T, config.b_prime, g, m, n_ens),
    ]
    for variant in STRICHARTZ_VARIANTS:
        reports.append(
            check_strichartz(variant, spec, s=config.s, grid=g, num_times=m, ensemble=n_ens)
        )
    reports.append(
        check_multilinear(config.p, params, spec, config.b_prime, g, min(m, 48), n_ens)
    )
    reports.append(check_embedding(spec, params, g, m, n_ens))
    apriori_spec = dataclasses.replace(spec, amplitude=config.apriori_amplitude)
    reports.append(
        check_apriori_ensemble(apriori_spec, params, T, config.p, g, ensemble=n_ens)
    )
    files = []
    for rep in reports:
        name = _report_filename(rep)
        write_report_json(rep, out / name)
        files.append(name)
        print(f"[gkdvlab] {rep.estimate_id}: max ratio {rep.max_ratio:.4g} over {rep.ensemble}")
    table = check_exponential_lemmas()
    _write_json(table, out / "lemma_table.json")
    files.append("lemma_table.json")
    print(f"[gkdvlab] exponential lemmas: passed={table['passed']}")
    return files


_RUNNERS = {
    "simulate": _run_simulate,
    "radius-track": _run_radius_track,
    "estimate-lab": _run_estimate_lab,
    "soliton-test": _run_soliton_test,
    "picard-test": _run_picard_test,
}


# ---------------------------------------------------------------------------
# Run wrapper and manifest.


@dataclass(frozen=True)
class RunManifest:
    kind: str
    version: str
    started_unix: float
    finished_unix: float
    config_text: str
    outputs: dict  # filename -> sha256 hex


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(manifest: RunManifest, path: Path) -> None:
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(json.dumps(dataclasses.asdict(manifest), sort_keys=True, indent=2) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)


def default_out_root() -> Path:
    return Path(os.environ.get(OUT_ROOT_ENV, "runs"))


def _resolve_out(config: RunConfig, out_dir) -> Path:
    if out_dir is not None:
        return Path(out_dir)
    if config.out:
        return Path(config.out)
    return default_out_root() / config.kind


def run(config: RunConfig, out_dir=None) -> RunManifest:
    """Execute one experiment and write its outputs plus a manifest."""
    out = _resolve_out(config, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    print(f"[gkdvlab] {config.kind}: seed={config.seed}, out={out}")
    started = time.time()
    files = _RUNNERS[config.kind](config, out)
    manifest = RunManifest(
        kind=config.kind,
        version=__version__,
        started_unix=started,
        finished_unix=time.time(),
        config_text=render_config(config),
        outputs={name: _sha256(out / name) for name in files},
    )
    _write_manifest(manifest, out / "manifest.json")
    print(f"[gkdvlab] {config.kind}: wrote {len(files)} data files + manifest")
    return manifest


def sweep(
    template: RunConfig, vary: dict[str, Sequence[str]], out_root
) -> list[RunManifest]:
    """Run the cartesian product of overrides; one subdirectory per point,
    plus a summary CSV of the decay fits.

    The summary has one column per varied key, in vary order; a string value
    is written as its 0-based position in that key's list, so the file stays
    numeric."""
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    keys = list(vary)
    fields = []
    for key in keys:
        fields.append(_lookup(key, "--vary"))
        if not vary[key]:
            raise ConfigError(f"--vary: no values for key {key!r}")
    manifests = []
    summary = []
    for idx, combo in enumerate(itertools.product(*(enumerate(vary[k]) for k in keys))):
        pairs = [f"{k}={v}" for k, (_, v) in zip(keys, combo)]
        cfg = apply_overrides(template, pairs, origin="--vary")
        sub = out_root / f"point_{idx:03d}"
        print(f"[gkdvlab] sweep point {idx}: " + ", ".join(pairs))
        manifests.append(run(cfg, sub))
        alpha, k_fit = np.nan, np.nan
        # only this run's own fit: a file left by an earlier run is not one
        if "decay_fit.csv" in manifests[-1].outputs:
            _, data = read_csv(sub / "decay_fit.csv")
            k_fit, alpha = data[0][1], data[0][2]
        point = [pos if isinstance(f.default, str) else getattr(cfg, f.name)
                 for f, (pos, _) in zip(fields, combo)]
        summary.append(point + [alpha, k_fit])
    write_csv(out_root / "summary.csv", (*keys, "alpha_fit", "K_fit"), summary)
    return manifests
