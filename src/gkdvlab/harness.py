"""Batch experiment harness: flat config files, run orchestration, output.

Configs are plain key=value text with [section] headers for grouping only;
keys are global and unique, floats are emitted with 17 significant digits so
parse(render(config)) is lossless.  Every run directory gets a manifest with
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
    track_radius,
)
from .estimates import (
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
    CoupledState,
    PicardConfig,
    SolverConfig,
    picard_solve,
    simulate,
)
from .spaces import NormParams, sobolev_norm
from .spectral import Field, SpectralGrid

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


@dataclass(frozen=True)
class RunConfig:
    kind: str = "simulate"
    seed: int = 0
    out: str = ""
    half_length: float = 20.0 * np.pi
    num_points: int = 1024
    p: int = 1
    dt: float = 1e-3
    t_end: float = 5.0
    scheme: str = "if_rk4"
    record_stride: int = 50
    blowup_factor: float = 1e6
    ic: str = "soliton"
    ic_speed: float = 1.0
    ic_x0: float = 0.0
    ic_amp: float = 1.0
    ic_width: float = 1.0
    ic_eps: float = 0.05
    rho: float = 0.25
    s: float = 2.0
    b: float = 0.55
    b_prime: float = -0.3
    t_min: float = 1.0
    t_window: float = 0.05
    picard_nodes: int = 256
    max_iters: int = 20
    ensemble: int = 50
    lab_T: float = 1.0
    bandwidth: float = 4.0
    envelope: str = "exponential"
    rho0: float = 0.5
    amplitude: float = 1.0
    apriori_amplitude: float = 0.05
    lab_half_length: float = 10.0
    lab_num_points: int = 64
    lab_num_times: int = 64


@dataclass(frozen=True)
class _Key:
    name: str
    section: str
    field: str
    kind: str  # int | float | str
    check: Callable[[object], bool]
    desc: str


def _choices(*opts: str) -> tuple[Callable[[object], bool], str]:
    return (lambda v: v in opts), "must be one of " + ", ".join(opts)


_POS = (lambda v: np.isfinite(v) and v > 0, "must be positive and finite")
_NONNEG = (lambda v: np.isfinite(v) and v >= 0, "must be >= 0")
_ANY = (lambda v: True, "")

_SCHEMA = [
    _Key("kind", "run", "kind", "str", *_choices(*KINDS)),
    _Key("seed", "run", "seed", "int", *(lambda v: v >= 0, "must be >= 0")),
    _Key("out", "run", "out", "str", *_ANY),
    _Key("L", "grid", "half_length", "float", *_POS),
    _Key("N", "grid", "num_points", "int",
         *(lambda v: v >= 4 and v % 2 == 0, "must be even and >= 4")),
    _Key("p", "solver", "p", "int", *(lambda v: v >= 1, "must be >= 1")),
    _Key("dt", "solver", "dt", "float", *_POS),
    _Key("t_end", "solver", "t_end", "float", *_POS),
    _Key("scheme", "solver", "scheme", "str", *_choices("if_rk4", "strang")),
    _Key("record_stride", "solver", "record_stride", "int",
         *(lambda v: v >= 1, "must be >= 1")),
    _Key("blowup_factor", "solver", "blowup_factor", "float",
         *(lambda v: np.isfinite(v) and v > 1, "must be > 1")),
    _Key("ic", "initial", "ic", "str",
         *_choices("soliton", "sech", "perturbed_sech", "gaussian")),
    _Key("ic_speed", "initial", "ic_speed", "float", *_POS),
    _Key("ic_x0", "initial", "ic_x0", "float",
         *(lambda v: np.isfinite(v), "must be finite")),
    _Key("ic_amp", "initial", "ic_amp", "float", *_POS),
    _Key("ic_width", "initial", "ic_width", "float", *_POS),
    _Key("ic_eps", "initial", "ic_eps", "float", *_NONNEG),
    _Key("rho", "norms", "rho", "float", *_NONNEG),
    _Key("s", "norms", "s", "float",
         *(lambda v: np.isfinite(v), "must be finite")),
    _Key("b", "norms", "b", "float",
         *(lambda v: -1.0 <= v <= 1.0, "must lie in [-1, 1]")),
    _Key("b_prime", "norms", "b_prime", "float",
         *(lambda v: -1.0 <= v < 0.0, "must lie in [-1, 0)")),
    _Key("t_min", "fit", "t_min", "float",
         *(lambda v: np.isfinite(v) and v >= 1.0, "must be >= 1")),
    _Key("t_window", "picard", "t_window", "float", *_POS),
    _Key("picard_nodes", "picard", "picard_nodes", "int",
         *(lambda v: v >= 8, "must be >= 8")),
    _Key("max_iters", "picard", "max_iters", "int",
         *(lambda v: v >= 2, "must be >= 2")),
    _Key("ensemble", "lab", "ensemble", "int", *(lambda v: v >= 1, "must be >= 1")),
    _Key("lab_T", "lab", "lab_T", "float",
         *(lambda v: np.isfinite(v) and v >= 1.0, "must be >= 1")),
    _Key("bandwidth", "lab", "bandwidth", "float", *_POS),
    _Key("envelope", "lab", "envelope", "str",
         *_choices("flat", "gaussian", "exponential")),
    _Key("rho0", "lab", "rho0", "float", *_NONNEG),
    _Key("amplitude", "lab", "amplitude", "float", *_POS),
    _Key("apriori_amplitude", "lab", "apriori_amplitude", "float", *_POS),
    _Key("lab_L", "lab", "lab_half_length", "float", *_POS),
    _Key("lab_N", "lab", "lab_num_points", "int",
         *(lambda v: v >= 4 and v % 2 == 0, "must be even and >= 4")),
    _Key("lab_M", "lab", "lab_num_times", "int",
         *(lambda v: v >= 8 and v % 2 == 0, "must be even and >= 8")),
]

_SCHEMA_BY_NAME = {e.name: e for e in _SCHEMA}
_SECTIONS = list(dict.fromkeys(e.section for e in _SCHEMA))


def _convert(entry: _Key, raw: str, where: str):
    if entry.kind == "int":
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{where}: key {entry.name!r} expects an integer, got {raw!r}") from None
    elif entry.kind == "float":
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{where}: key {entry.name!r} expects a number, got {raw!r}") from None
    else:
        value = raw
    if not entry.check(value):
        raise ConfigError(f"{where}: {entry.name} {entry.desc}, got {raw!r}")
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
        entry = _SCHEMA_BY_NAME.get(key)
        if entry is None:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{where}: duplicate key {key!r} (first set on line {seen[key]})")
        seen[key] = lineno
        values[entry.field] = _convert(entry, raw_value, where)
    return RunConfig(**values)


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def render_config(config: RunConfig) -> str:
    """Canonical text form; parse_config round-trips it losslessly."""
    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        for e in _SCHEMA:
            if e.section != section:
                continue
            v = getattr(config, e.field)
            lines.append(f"{e.name} = {format_float(v) if e.kind == 'float' else v}")
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
        entry = _SCHEMA_BY_NAME.get(key)
        if entry is None:
            raise ConfigError(f"{where}: unknown key {key!r}")
        updates[entry.field] = _convert(entry, raw_value, where)
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


def trajectory_rows(record: TrajectoryRecord, s: float) -> list[list[float]]:
    """One row per record time; hs_u and hs_v are H^s norms."""
    rows = []
    for i, (inv, ru, rv) in enumerate(zip(record.invariant_sets(), *record.radii())):
        u, v = record.fields_at(i)
        rj = joint_radius(ru, rv)
        rows.append([
            record.times[i], inv.mass_u, inv.mass_v, inv.l2, inv.hamiltonian,
            sobolev_norm(u, s), sobolev_norm(v, s),
            ru.rho, rv.rho, rj.rho, ru.r_squared, rv.r_squared,
        ])
    return rows


def write_trajectory_csv(record: TrajectoryRecord, path: Path, s: float) -> None:
    write_csv(path, TRAJECTORY_COLUMNS, trajectory_rows(record, s))


def write_decay_csv(fit: DecayFit, path: Path) -> None:
    write_csv(path, DECAY_COLUMNS, [[fit.t_min, fit.k_fit, fit.alpha_fit, fit.r_squared]])


def _write_json(obj, path: Path) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_report_json(report: EstimateReport, path: Path) -> None:
    _write_json(report.as_dict(), path)


def _report_filename(report: EstimateReport) -> str:
    return "report_" + re.sub(r"[^A-Za-z0-9]+", "_", report.estimate_id).strip("_") + ".json"


# ---------------------------------------------------------------------------
# Experiments.


def initial_state(config: RunConfig) -> CoupledState:
    """Initial data factory; the pair is equal except for perturbed_sech,
    whose components get distinct low-mode modulations."""
    g = SpectralGrid(config.half_length, config.num_points)
    y = g.x - config.ic_x0
    if config.ic == "soliton":
        c = config.ic_speed
        u = np.sqrt(2.0 * c) / np.cosh(np.sqrt(c) * y)
        v = u.copy()
    elif config.ic == "sech":
        u = config.ic_amp / np.cosh(config.ic_width * y)
        v = u.copy()
    elif config.ic == "perturbed_sech":
        base = config.ic_amp / np.cosh(config.ic_width * y)
        u = base * (1.0 + config.ic_eps * np.cos(3.0 * g.dzeta * g.x + 0.7))
        v = base * (1.0 + config.ic_eps * np.cos(4.0 * g.dzeta * g.x - 0.4))
    else:
        u = config.ic_amp * np.exp(-((y / config.ic_width) ** 2))
        v = u.copy()
    return CoupledState(0.0, Field(g, u), Field(g, v))


def _solver_config(config: RunConfig) -> SolverConfig:
    return SolverConfig(
        p=config.p,
        dt=config.dt,
        t_end=config.t_end,
        scheme=config.scheme,
        record_stride=config.record_stride,
        blowup_factor=config.blowup_factor,
    )


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
    write_trajectory_csv(rec, out / "trajectory.csv", config.s)
    times, joints = track_radius(rec)
    rhos = np.asarray([e.rho for e in joints])
    try:
        fit = fit_decay_exponent(times, rhos, config.t_min)
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
    exact = np.sqrt(2.0 * c) / np.cosh(np.sqrt(c) * shift)
    uf, vf = rec.fields_at(len(rec) - 1)
    err_u = float(np.sqrt(np.sum((uf.samples - exact) ** 2) * g.dx))
    err_v = float(np.sqrt(np.sum((vf.samples - exact) ** 2) * g.dx))

    invs = rec.invariant_sets()
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
    g = state.grid
    sup = 0.0
    for j in range(config.picard_nodes + 1):
        pj = res.state_at(j)
        uref, vref = ref.fields_at(j)
        du = np.sum((pj.u.samples - uref.samples) ** 2)
        dv = np.sum((pj.v.samples - vref.samples) ** 2)
        sup = max(sup, float(np.sqrt((du + dv) * g.dx)))
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

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(manifest: RunManifest, path: Path) -> None:
    tmp = Path(str(path) + ".tmp")
    tmp.write_text(json.dumps(manifest.as_dict(), sort_keys=True, indent=2) + "\n",
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
    for key in keys:
        if key not in _SCHEMA_BY_NAME:
            raise ConfigError(f"--vary: unknown key {key!r}")
        if not vary[key]:
            raise ConfigError(f"--vary: no values for key {key!r}")
    entries = [_SCHEMA_BY_NAME[k] for k in keys]
    manifests = []
    summary = []
    for idx, combo in enumerate(itertools.product(*(enumerate(vary[k]) for k in keys))):
        pairs = [f"{k}={v}" for k, (_, v) in zip(keys, combo)]
        cfg = apply_overrides(template, pairs, origin="--vary")
        sub = out_root / f"point_{idx:03d}"
        print(f"[gkdvlab] sweep point {idx}: " + ", ".join(pairs))
        manifests.append(run(cfg, sub))
        alpha, k_fit = np.nan, np.nan
        decay = sub / "decay_fit.csv"
        if decay.exists():
            _, data = read_csv(decay)
            k_fit, alpha = data[0][1], data[0][2]
        point = [pos if e.kind == "str" else getattr(cfg, e.field)
                 for e, (pos, _) in zip(entries, combo)]
        summary.append(point + [alpha, k_fit])
    write_csv(out_root / "summary.csv", (*keys, "alpha_fit", "K_fit"), summary)
    return manifests
