"""End-to-end acceptance gate: seven headline guarantees, one test each.

Tolerances and time budgets sit next to their asserts.  The soliton run is
shared between the fidelity and conservation tests; the estimate ensembles
are generated once at 800 members and the 200-member maxima are read off
the prefix, which is exact because member draws depend only on seed + index.
"""

import time

import numpy as np
import pytest

from gkdvlab.diagnostics import (
    estimate_radius,
    fit_decay_exponent,
    radius_nonincreasing,
    track_radius,
)
from gkdvlab.estimates import (
    STRICHARTZ_VARIANTS,
    SampleSpec,
    check_apriori_ensemble,
    check_duhamel,
    check_exponential_lemmas,
    check_linear_free,
    check_multilinear,
    check_strichartz,
    check_time_cutoff,
)
from gkdvlab.evolution import (
    CoupledState,
    NonContractionError,
    PicardConfig,
    SolverConfig,
    picard_solve,
    simulate,
)
from gkdvlab.harness import (
    RunConfig,
    apply_overrides,
    parse_config,
    read_csv,
    render_config,
    run,
    write_csv,
)
from gkdvlab.spaces import NormParams
from gkdvlab.spectral import Field, SpectralGrid, forward_transform

BOX = 20.0 * np.pi


def _sech_pair(grid, amp, width=1.0, x0=0.0):
    w = amp / np.cosh(width * (grid.x - x0))
    return CoupledState(0.0, Field(grid, [w, w]))


@pytest.fixture(scope="module")
def soliton_run():
    """c = 1 soliton on the production grid, integrated to t = 5."""
    g = SpectralGrid(BOX, 1024)
    st = _sech_pair(g, np.sqrt(2.0))
    cfg = SolverConfig(p=1, dt=1e-3, t_end=5.0, scheme="if_rk4", record_stride=100)
    t0 = time.monotonic()
    rec = simulate(st, cfg)
    return rec, time.monotonic() - t0


def test_soliton_fidelity(soliton_run):
    # c = 1 soliton must arrive at x0 + 5 with L2 error < 1e-4 in < 60 s
    rec, wall = soliton_run
    g = rec.grid
    shift = ((g.x - 5.0 + g.half_length) % (2.0 * g.half_length)) - g.half_length
    exact = np.sqrt(2.0) / np.cosh(shift)
    uf, vf = rec.samples()[:, len(rec) - 1]
    err_u = np.sqrt(np.sum((uf - exact) ** 2) * g.dx)
    err_v = np.sqrt(np.sum((vf - exact) ** 2) * g.dx)
    assert err_u < 1e-4  # measured 9.9e-10
    assert err_v < 1e-4
    assert wall < 60.0  # measured ~2 s on a loaded 2-core box


def test_invariant_drift(soliton_run):
    # masses and combined L2 conserved to 1e-8 relative, energy to 1e-6
    rec, _ = soliton_run
    invs = rec.invariant_sets()
    inv0 = invs[0]
    rel = lambda a, b: abs(a - b) / abs(b)
    assert max(rel(i.mass_u, inv0.mass_u) for i in invs) < 1e-8
    assert max(rel(i.mass_v, inv0.mass_v) for i in invs) < 1e-8
    assert max(rel(i.l2, inv0.l2) for i in invs) < 1e-8
    drift_h = max(abs(i.hamiltonian - inv0.hamiltonian) for i in invs)
    assert drift_h < 1e-6  # measured 1.0e-10


def test_radius_calibration():
    # sech(kx) has strip half-width pi/(2k); estimator within 5% at N = 2048
    g = SpectralGrid(40.0, 2048)
    for k in (0.5, 1.0, 2.0):
        est = estimate_radius(forward_transform(1.0 / np.cosh(k * g.x), g), g)
        want = np.pi / (2.0 * k)
        assert abs(est.rho - want) / want < 0.05  # measured <= 0.36%
    # synthetic exact-exponential spectrum recovered to 1e-6
    coeffs = np.exp(-0.8 * g.rzeta).astype(complex)
    coeffs[g.nyquist_index] = 0.0
    est = estimate_radius(coeffs, g)
    assert abs(est.rho - 0.8) < 1e-6  # measured 1e-16


def test_decay_law_consistency():
    # weakly nonlinear entire data: joint radius eases monotonically through
    # t in [1, 20] and the fitted power stays below the p = 1 bound
    # 2 p^2 + 6 p + 1 + 0.5 = 9.5 (faster decay would break the lower bound)
    g = SpectralGrid(BOX, 1024)
    prof = 0.5 * np.exp(-((g.x / 5.0) ** 2))
    st = CoupledState(0.0, Field(g, [prof, prof]))
    cfg = SolverConfig(p=1, dt=1e-3, t_end=20.0, record_stride=200)
    t0 = time.monotonic()
    rec = simulate(st, cfg)
    times, joints = track_radius(rec)
    window = [j for t, j in zip(times, joints) if t >= 1.0]
    ok, worst = radius_nonincreasing(window)
    assert ok, f"radius increased beyond 3x stderr (worst excess {worst:.2f})"
    rhos = np.asarray([e.rho for e in joints])
    fit = fit_decay_exponent(np.asarray(times), rhos, t_min=1.0)
    assert fit.alpha_fit <= 9.5  # measured 0.048
    assert time.monotonic() - t0 < 600.0  # measured ~9 s on a loaded 2-core box


def test_picard_contraction():
    # T = 0.05 window: factors < 0.5 after the first iterate and the fixed
    # point matches the if_rk4 stepper to 1e-6 sup-t L2; T = 5 must refuse
    g = SpectralGrid(BOX, 256)
    st = _sech_pair(g, np.sqrt(2.0))
    nodes = 384
    res = picard_solve(st, PicardConfig(t_window=0.05, num_nodes=nodes, max_iters=25), 1)
    assert res.converged
    assert all(f < 0.5 for f in res.contraction_factors[1:])  # measured <= 0.255
    ref = simulate(st, SolverConfig(p=1, dt=0.05 / nodes, t_end=0.05, record_stride=1))
    pic, refs = res.samples(), ref.samples()
    sup = 0.0
    for j in range(nodes + 1):
        uref, vref = refs[:, j]
        du = np.sum((pic[0, j] - uref) ** 2)
        dv = np.sum((pic[1, j] - vref) ** 2)
        sup = max(sup, float(np.sqrt((du + dv) * g.dx)))
    assert sup < 1e-6  # measured 2.7e-7 at 384 nodes
    with pytest.raises(NonContractionError):
        picard_solve(st, PicardConfig(t_window=5.0, num_nodes=64, max_iters=25), 1)


def test_estimate_lab_boundedness():
    # every ratio ensemble: finite max at 200 members, within factor 1.5 of
    # the 800-member max; exponential lemma grid passes with zero failures
    spec = SampleSpec(seed=0)
    params = NormParams(0.25, 2.0, 0.55)
    t0 = time.monotonic()
    reports = [
        check_linear_free(spec, params, 1.0, ensemble=800),
        check_time_cutoff(spec, params, 1.0, ensemble=800),
        check_duhamel(spec, params, 1.0, ensemble=800),
    ]
    reports += [check_strichartz(v, spec, ensemble=800) for v in STRICHARTZ_VARIANTS]
    reports.append(check_multilinear(1, params, spec, ensemble=800))
    reports.append(check_multilinear(2, params, spec, ensemble=800))
    reports.append(
        check_apriori_ensemble(SampleSpec(seed=0, amplitude=0.05), params, 1.0,
                               ensemble=800)
    )
    for rep in reports:
        assert not rep.violation, rep.estimate_id
        max200 = max(rep.ratios[:200])
        assert np.isfinite(max200), rep.estimate_id
        assert rep.max_ratio <= 1.5 * max200, (
            f"{rep.estimate_id}: max grew {rep.max_ratio / max200:.2f}x "
            f"from 200 to 800 members"
        )
    table = check_exponential_lemmas()
    assert table["passed"]
    assert table["pointwise_failures"] == 0
    assert table["triangle_failures"] == 0
    assert time.monotonic() - t0 < 900.0  # measured 33-44 s on a loaded 2-core box


def test_determinism_and_plumbing(tmp_path):
    # same config + seed -> byte-identical data files; config text and CSV
    # payloads survive round trips exactly
    cfg = apply_overrides(RunConfig(), [
        "N=256", "dt=0.002", "t_end=0.2", "record_stride=20", "seed=11",
    ])
    m1 = run(cfg, tmp_path / "a")
    m2 = run(cfg, tmp_path / "b")
    assert m1.outputs == m2.outputs
    for name in m1.outputs:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    lab = apply_overrides(RunConfig(), ["kind=estimate-lab", "ensemble=2", "seed=11"])
    l1 = run(lab, tmp_path / "la")
    l2 = run(lab, tmp_path / "lb")
    assert l1.outputs == l2.outputs

    assert parse_config(render_config(cfg)) == cfg
    assert parse_config(render_config(RunConfig())) == RunConfig()

    rows = [[0.1 + 0.2, float("nan")], [1e-300, -np.pi]]
    write_csv(tmp_path / "x.csv", ("a", "b"), rows)
    _, back = read_csv(tmp_path / "x.csv")
    assert np.array_equal(back, np.asarray(rows), equal_nan=True)
