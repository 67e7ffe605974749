"""Config round trips, run outputs, determinism, and CLI exit codes.

Heavy physics is covered elsewhere; runs here use tiny grids so the whole
module stays fast.  Oracles: hand-written config text, sha256 recomputed
from disk, byte comparison of repeated runs.
"""

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from gkdvlab import diagnostics, spectral
from gkdvlab.cli import main
from gkdvlab.diagnostics import estimate_radius
from gkdvlab.estimates import EstimateReport
from gkdvlab.harness import (
    DECAY_COLUMNS,
    TRAJECTORY_COLUMNS,
    ConfigError,
    InsufficientDataError,
    RunConfig,
    RunManifest,
    _write_manifest,
    apply_overrides,
    format_float,
    initial_state,
    parse_config,
    read_csv,
    render_config,
    run,
    soliton_profile,
    sweep,
    write_csv,
    write_report_json,
)
from gkdvlab.spectral import forward_transform, inverse_transform

# ratios, max_seed and verdict of every report of
# `estimate-lab --set ensemble=2 --set p=<p> --seed 1`, recorded with the
# in-band half-spectrum sampler
LAB_PINS = Path(__file__).parent / "data" / "lab_ratios_ensemble2_seed1.json"

FAST = [
    "N=256", "dt=0.002", "t_end=0.2", "record_stride=20",
]


RENDERED_DEFAULTS = "[run]\nkind = simulate\nseed = 0\nout = \n" + """
[grid]
L = 62.831853071795862
N = 1024

[solver]
p = 1
dt = 0.001
t_end = 5
scheme = if_rk4
record_stride = 50
blowup_factor = 1000000

[initial]
ic = soliton
ic_speed = 1
ic_x0 = 0
ic_amp = 1
ic_width = 1
ic_eps = 0.050000000000000003

[norms]
rho = 0.25
s = 2
b = 0.55000000000000004
b_prime = -0.29999999999999999

[fit]
t_min = 1

[picard]
t_window = 0.050000000000000003
picard_nodes = 256
max_iters = 20

[lab]
ensemble = 50
lab_T = 1
bandwidth = 4
envelope = exponential
rho0 = 0.5
amplitude = 1
apriori_amplitude = 0.050000000000000003
lab_L = 10
lab_N = 64
lab_M = 64
"""


def fast_config(*extra):
    return apply_overrides(RunConfig(), FAST + list(extra))


class TestParse:
    def test_empty_gives_defaults(self):
        c = parse_config("")
        assert c == RunConfig()
        assert c.p == 1
        assert c.half_length == pytest.approx(20.0 * np.pi, rel=1e-15)
        assert c.num_points == 1024
        assert c.s == 2.0
        assert c.b == 0.55
        assert c.b_prime == -0.3
        assert c.dt == 1e-3

    def test_comments_sections_whitespace(self):
        text = """
        # leading comment
        [grid]
        L = 10.0   # trailing comment
        N = 128

        [solver]
        p=2
        """
        c = parse_config(text)
        assert c.half_length == 10.0
        assert c.num_points == 128
        assert c.p == 2

    def test_round_trip_defaults(self):
        c = RunConfig()
        assert parse_config(render_config(c)) == c

    def test_round_trip_modified(self):
        c = apply_overrides(RunConfig(), [
            "kind=radius-track", "seed=17", "p=3", "dt=0.0006103515625",
            "L=31.41592653589793", "rho=0.125", "b=-0.25", "envelope=gaussian",
            "out=/tmp/somewhere",
        ])
        assert parse_config(render_config(c)) == c

    def test_render_default_text_pinned(self):
        # the canonical text of the defaults, key by key: a reordered,
        # respelled or re-sectioned key shows up here
        assert render_config(RunConfig()) == RENDERED_DEFAULTS

    def test_float_render_is_17g(self):
        assert format_float(1 / 3) == f"{1 / 3:.17g}"
        assert float(format_float(0.1 + 0.2)) == 0.1 + 0.2

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("b = 1.5", "[-1, 1]"),
            ("wibble = 3", "unknown key"),
            ("p = 0", "p must be"),
            ("p = x", "expects an integer"),
            ("dt = abc", "expects a number"),
            ("scheme = euler", "one of"),
            ("N = 7", "even"),
            ("b_prime = 0.0", "[-1, 0)"),
            ("t_min = 0.5", ">= 1"),
            ("justakey", "key = value"),
            ("[bad section", "section"),
        ],
    )
    def test_rejects_with_line_number(self, text, fragment):
        with pytest.raises(ConfigError, match="line 1"):
            try:
                parse_config(text)
            except ConfigError as exc:
                assert fragment in str(exc)
                raise

    @pytest.mark.parametrize("out", ["runs/#1", "runs/a\nb", "runs/a\rb"])
    def test_out_that_cannot_round_trip_rejected(self, out):
        # '#' starts a comment and a line break ends the line, so the rendered
        # config text could not give such an out back
        with pytest.raises(ConfigError, match="out must not contain '#' or a line break"):
            apply_overrides(RunConfig(), [f"out={out}"])

    def test_duplicate_cites_both_lines(self):
        with pytest.raises(ConfigError, match="line 3.*first set on line 2"):
            parse_config("[solver]\np = 1\np = 2")

    def test_error_names_later_line(self):
        with pytest.raises(ConfigError, match="line 4"):
            parse_config("[grid]\nL = 10\nN = 128\nN = 64")


class TestOverrides:
    def test_applies_and_validates(self):
        c = apply_overrides(RunConfig(), ["p=2", "scheme=strang"])
        assert c.p == 2 and c.scheme == "strang"
        with pytest.raises(ConfigError, match="--set #2"):
            apply_overrides(RunConfig(), ["p=2", "b=7"])

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            apply_overrides(RunConfig(), ["frobnicate=1"])

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(RunConfig(), ["p"])


class TestInitialState:
    def test_soliton_profile(self):
        st = initial_state(fast_config("ic_speed=4", "ic_x0=3"))
        g = st.grid
        want = np.sqrt(8.0) / np.cosh(2.0 * (g.x - 3.0))
        assert np.allclose(st.pair[0], want, atol=1e-14)
        assert np.array_equal(st.pair[0], st.pair[1])

    def test_soliton_p1_is_the_sech_formula(self):
        # the general profile keeps the p = 1 samples bit for bit
        st = initial_state(fast_config("ic_speed=2.5", "ic_x0=-1"))
        y = st.grid.x + 1.0
        assert np.array_equal(st.pair[0], np.sqrt(2.0 * 2.5) / np.cosh(np.sqrt(2.5) * y))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_soliton_profile_solves_its_equation(self, p):
        # u = v = Q(x - c t) needs -c Q + Q'' + Q^(2p+1) = 0
        # N = 4096 resolves the strip of half-width pi / (2 p sqrt(c)) down to roundoff
        st = initial_state(fast_config(f"p={p}", "ic_speed=1.5", "N=4096"))
        q = st.pair[0]
        assert np.array_equal(q, soliton_profile(st.grid.x, 1.5, p))
        c = forward_transform(q, st.grid) * st.grid.derivative_symbol(2)
        q2 = inverse_transform(c, st.grid)
        residual = -1.5 * q + q2 + q ** (2 * p + 1)
        assert np.max(np.abs(residual)) < 1e-9 * np.max(q)

    def test_sech_and_gaussian_params(self):
        st = initial_state(fast_config("ic=sech", "ic_amp=0.5", "ic_width=2"))
        assert abs(st.pair[0].max() - 0.5) < 1e-12
        st = initial_state(fast_config("ic=gaussian", "ic_amp=0.25"))
        assert abs(st.pair[0].max() - 0.25) < 1e-12

    def test_perturbed_components_differ(self):
        st = initial_state(fast_config("ic=perturbed_sech"))
        assert not np.array_equal(st.pair[0], st.pair[1])
        # eps = 0 collapses back to the plain profile
        st0 = initial_state(fast_config("ic=perturbed_sech", "ic_eps=0"))
        assert np.array_equal(st0.pair[0], st0.pair[1])

    def test_deterministic(self):
        a = initial_state(fast_config("ic=perturbed_sech"))
        b = initial_state(fast_config("ic=perturbed_sech"))
        assert np.array_equal(a.pair[0], b.pair[0])


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        rows = [[1 / 3, -2.5e-17, 7.0], [math.pi, float("nan"), 1e300]]
        path = tmp_path / "x.csv"
        write_csv(path, ("a", "b", "c"), rows)
        header, data = read_csv(path)
        assert header == ["a", "b", "c"]
        assert np.array_equal(data, np.asarray(rows), equal_nan=True)

    def test_header_only_when_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ("a", "b"), [])
        assert path.read_text() == "a,b\n"
        header, data = read_csv(path)
        assert header == ["a", "b"] and data.shape == (0, 2)

    def test_empty_file_names_path(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="blank.csv: empty file"):
            read_csv(path)

    def test_decimal_point_not_comma(self, tmp_path):
        path = tmp_path / "y.csv"
        write_csv(path, ("v",), [[0.5]])
        assert "," not in path.read_text().splitlines()[1]
        assert "0.5" in path.read_text()


class TestJsonLayout:
    """Report and manifest bytes pinned across commits: sorted keys, two-space
    indent, a tuple written as a list, a trailing newline."""

    def test_report_text(self, tmp_path):
        rep = EstimateReport(
            estimate_id="multilinear:p=1", ensemble=2,
            params={"s": 2.0, "window": {"t0": -2.5, "t1": 2.5}},
            max_ratio=1.5, max_seed=8, violation=False, ratios=(0.25, 1.5),
            extra={"splits": {"first": 1.5, "mirror": (0.25, 1e-300)}},
        )
        write_report_json(rep, tmp_path / "report.json")
        assert (tmp_path / "report.json").read_text() == (
            '{\n  "ensemble": 2,\n  "estimate_id": "multilinear:p=1",\n'
            '  "extra": {\n    "splits": {\n      "first": 1.5,\n'
            '      "mirror": [\n        0.25,\n        1e-300\n      ]\n    }\n  },\n'
            '  "max_ratio": 1.5,\n  "max_seed": 8,\n'
            '  "params": {\n    "s": 2.0,\n    "window": {\n      "t0": -2.5,\n'
            '      "t1": 2.5\n    }\n  },\n'
            '  "ratios": [\n    0.25,\n    1.5\n  ],\n  "violation": false\n}\n'
        )

    def test_manifest_text(self, tmp_path):
        manifest = RunManifest("estimate-lab", "0.1.0", 1.5, 2.25,
                               "[run]\nkind = estimate-lab\n", {"b.json": "ff", "a.json": "00"})
        _write_manifest(manifest, tmp_path / "manifest.json")
        assert (tmp_path / "manifest.json").read_text() == (
            '{\n  "config_text": "[run]\\nkind = estimate-lab\\n",\n'
            '  "finished_unix": 2.25,\n  "kind": "estimate-lab",\n'
            '  "outputs": {\n    "a.json": "00",\n    "b.json": "ff"\n  },\n'
            '  "started_unix": 1.5,\n  "version": "0.1.0"\n}\n'
        )
        assert not list(tmp_path.glob("*.tmp"))


class TestRunSimulate:
    def test_outputs_and_manifest(self, tmp_path):
        m = run(fast_config(), tmp_path)
        assert set(m.outputs) == {"trajectory.csv"}
        header, data = read_csv(tmp_path / "trajectory.csv")
        assert header == list(TRAJECTORY_COLUMNS)
        assert data.shape == (6, 12)
        assert data[0, 0] == 0.0 and data[-1, 0] == pytest.approx(0.2)
        # checksums in the manifest match the files on disk
        for name, digest in m.outputs.items():
            on_disk = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == on_disk
        stored = json.loads((tmp_path / "manifest.json").read_text())
        assert stored["outputs"] == m.outputs
        assert stored["kind"] == "simulate"
        assert stored["finished_unix"] >= stored["started_unix"]
        assert parse_config(stored["config_text"]) == fast_config()

    def test_no_leftover_tmp(self, tmp_path):
        run(fast_config(), tmp_path)
        assert not list(tmp_path.glob("*.tmp"))

    def test_byte_identical_repeat(self, tmp_path):
        m1 = run(fast_config(), tmp_path / "a")
        m2 = run(fast_config(), tmp_path / "b")
        assert m1.outputs == m2.outputs
        b1 = (tmp_path / "a" / "trajectory.csv").read_bytes()
        b2 = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert b1 == b2

    def test_single_snapshot_record(self, tmp_path):
        # t_end shorter than one record stride still logs start and end
        cfg = fast_config("t_end=0.002", "record_stride=1")
        run(cfg, tmp_path)
        _, data = read_csv(tmp_path / "trajectory.csv")
        assert data.shape[0] == 2


class TestRunRadiusTrack:
    def test_outputs(self, tmp_path):
        cfg = fast_config("kind=radius-track", "t_end=1.6", "record_stride=25",
                          "ic=perturbed_sech")
        m = run(cfg, tmp_path)
        assert set(m.outputs) == {"trajectory.csv", "decay_fit.csv", "radius_check.json"}
        header, data = read_csv(tmp_path / "decay_fit.csv")
        assert header == list(DECAY_COLUMNS)
        assert data.shape == (1, 4)
        assert data[0, 0] == 1.0  # t_min
        check = json.loads((tmp_path / "radius_check.json").read_text())
        assert set(check) == {"monotone_ok", "worst_excess", "stderr_factor"}

    def test_fits_each_radius_once(self, tmp_path, monkeypatch):
        # trajectory.csv and the decay fit share one fit per component and
        # record time
        calls = []

        def counting(coeffs, grid):
            calls.append(1)
            return estimate_radius(coeffs, grid)

        monkeypatch.setattr(diagnostics, "estimate_radius", counting)
        cfg = fast_config("kind=radius-track", "t_end=1.6", "record_stride=25",
                          "ic=perturbed_sech")
        run(cfg, tmp_path)
        _, data = read_csv(tmp_path / "trajectory.csv")
        assert len(calls) == 2 * data.shape[0]

    def test_too_short_raises_insufficient(self, tmp_path):
        cfg = fast_config("kind=radius-track", "t_end=1.1", "record_stride=25",
                          "ic=perturbed_sech")
        with pytest.raises(InsufficientDataError, match="usable points"):
            run(cfg, tmp_path)


class TestRunSolitonTest:
    def test_fields(self, tmp_path):
        cfg = fast_config("kind=soliton-test", "t_end=0.5")
        run(cfg, tmp_path)
        out = json.loads((tmp_path / "soliton_test.json").read_text())
        for key in ("l2_error_u", "l2_error_v", "mass_u_rel_drift",
                    "mass_v_rel_drift", "l2_rel_drift", "hamiltonian_abs_drift"):
            assert key in out and np.isfinite(out[key])
        # coarse grid, short run: error small but resolution limited
        assert out["l2_error_u"] < 1e-3
        assert out["mass_u_rel_drift"] < 1e-10

    def test_p2_soliton_is_exact(self, tmp_path):
        # the default grid and step carry the p = 2 soliton to t = 0.5
        run(apply_overrides(RunConfig(), ["kind=soliton-test", "p=2", "t_end=0.5"]), tmp_path)
        out = json.loads((tmp_path / "soliton_test.json").read_text())
        assert out["l2_error_u"] < 1e-4  # measured 3.5e-6
        assert out["l2_error_v"] < 1e-4


class TestRunPicardTest:
    def test_fields(self, tmp_path):
        cfg = fast_config("kind=picard-test", "picard_nodes=64")
        run(cfg, tmp_path)
        out = json.loads((tmp_path / "picard_test.json").read_text())
        assert out["converged"] is True
        assert out["iterations"] >= 2
        assert all(f < 1.0 for f in out["contraction_factors"][1:])
        assert out["sup_l2_diff_vs_stepper"] < 1e-4
        assert out["num_nodes"] == 64

    def test_output_is_pinned(self, tmp_path):
        # the distance to the stepper and the contraction factors, exactly as
        # written before picard-test formed the distance in place
        cfg = apply_overrides(RunConfig(), ["kind=picard-test", "N=64", "picard_nodes=16"])
        run(cfg, tmp_path)
        out = json.loads((tmp_path / "picard_test.json").read_text())
        assert out["iterations"] == 8
        assert out["sup_l2_diff_vs_stepper"] == 1.3636203315611254e-06
        assert out["contraction_factors"] == [
            0.05764746417090925, 0.04101760895033241, 0.02737935673369951,
            0.024765716242260597, 0.018498364492123737, 0.01798898096052822,
            0.014155199507174717,
        ]


class TestRunEstimateLab:
    def test_inventory_and_reports(self, tmp_path):
        cfg = apply_overrides(RunConfig(), ["kind=estimate-lab", "ensemble=2"])
        m = run(cfg, tmp_path)
        names = set(m.outputs)
        assert "lemma_table.json" in names
        assert "report_linear_free.json" in names
        assert "report_multilinear_p_1.json" in names
        assert sum(n.startswith("report_strichartz_") for n in names) == 5
        rep = json.loads((tmp_path / "report_duhamel.json").read_text())
        assert rep["ensemble"] == 2
        assert len(rep["ratios"]) == 2
        assert np.isfinite(rep["max_ratio"]) and not rep["violation"]
        table = json.loads((tmp_path / "lemma_table.json").read_text())
        assert table["passed"] is True

    @pytest.mark.parametrize("p", [1, 2])
    def test_ratios_match_pinned_values(self, tmp_path, p):
        # pinned across commits: a change of coefficient layout may move a
        # ratio by rounding only, and never a max_seed or a verdict
        pinned = json.loads(LAB_PINS.read_text())[str(p)]
        run(apply_overrides(RunConfig(), ["kind=estimate-lab", "ensemble=2", f"p={p}", "seed=1"]),
            tmp_path)
        assert sorted(f.name for f in tmp_path.glob("report_*.json")) == sorted(pinned)
        for name, want in pinned.items():
            got = json.loads((tmp_path / name).read_text())
            assert (got["max_seed"], got["violation"]) == (want["max_seed"], want["violation"])
            np.testing.assert_allclose(got["ratios"], want["ratios"], rtol=1e-13, atol=0.0)


class TestSweep:
    def test_points_and_summary(self, tmp_path):
        tmpl = fast_config("kind=radius-track", "t_end=1.6", "record_stride=25",
                           "ic=perturbed_sech")
        manifests = sweep(tmpl, {"p": ["1", "2"]}, tmp_path)
        assert len(manifests) == 2
        assert (tmp_path / "point_000" / "decay_fit.csv").exists()
        header, data = read_csv(tmp_path / "summary.csv")
        assert header == ["p", "alpha_fit", "K_fit"]
        assert data.shape == (2, 3)
        assert list(data[:, 0]) == [1.0, 2.0]
        assert np.all(np.isfinite(data[:, 1]))

    @pytest.mark.parametrize("vary,want", [
        ({"dt": ["0.002", "0.001"]}, [[0.002], [0.001]]),
        # a string value is written as its position in the --vary list
        ({"scheme": ["if_rk4", "strang"]}, [[0.0], [1.0]]),
        ({"scheme": ["strang", "if_rk4"], "p": ["1", "2"]},
         [[0.0, 1.0], [0.0, 2.0], [1.0, 1.0], [1.0, 2.0]]),
    ])
    def test_summary_columns_are_the_varied_keys(self, tmp_path, vary, want):
        sweep(fast_config(), vary, tmp_path)
        header, data = read_csv(tmp_path / "summary.csv")
        assert header == [*vary, "alpha_fit", "K_fit"]
        assert data[:, :-2].tolist() == want
        cfg = json.loads((tmp_path / "point_000" / "manifest.json").read_text())["config_text"]
        assert parse_config(cfg).scheme == vary.get("scheme", ["if_rk4"])[0]

    def test_summary_nan_when_no_fit(self, tmp_path):
        # simulate points have no decay file; summary keeps nan placeholders
        manifests = sweep(fast_config(), {"p": ["1"]}, tmp_path)
        assert len(manifests) == 1
        _, data = read_csv(tmp_path / "summary.csv")
        assert np.isnan(data[0, -2]) and np.isnan(data[0, -1])

    def test_summary_ignores_a_fit_left_by_an_earlier_sweep(self, tmp_path):
        # a radius-track sweep leaves decay_fit.csv in its point directory; a
        # simulate sweep into the same directory writes none, so its summary
        # has no fit to report
        args = ["--out", str(tmp_path), "--vary", "ic_amp=0.5", *(f"--set={s}" for s in FAST),
                "--set", "t_end=1.6", "--set", "record_stride=25", "--set", "ic=perturbed_sech"]
        assert main(["sweep", "--set", "kind=radius-track", *args]) == 0
        _, data = read_csv(tmp_path / "summary.csv")
        assert np.all(np.isfinite(data[0, -2:]))
        assert main(["sweep", "--set", "kind=simulate", *args]) == 0
        assert (tmp_path / "point_000" / "decay_fit.csv").exists()
        _, data = read_csv(tmp_path / "summary.csv")
        assert np.isnan(data[0, -2]) and np.isnan(data[0, -1])

    def test_rejects_unknown_vary_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            sweep(fast_config(), {"zork": ["1"]}, tmp_path)

    def test_rejects_empty_values(self, tmp_path):
        with pytest.raises(ConfigError, match="no values"):
            sweep(fast_config(), {"p": []}, tmp_path)


@pytest.mark.parametrize("argv, shapes", [
    (["radius-track", "--set", "N=512", "--set", "t_end=2.0"], [(2, 512), (2, 41, 512)]),
    (["soliton-test", "--set", "t_end=0.5"], [(2, 1024), (2, 11, 1024)]),
], ids=["radius-track", "soliton-test"])
def test_one_forward_transform_serves_a_record(tmp_path, monkeypatch, argv, shapes):
    # one transform of the initial pair to step from, and one of the whole
    # record, which the radii, the invariants and the H^s norms share
    calls = []
    forward = spectral.forward_transform

    def counted(samples, grid):
        calls.append(np.shape(samples))
        return forward(samples, grid)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "gkdvlab"]
    for module in modules:
        for key in [k for k, v in vars(module).items() if v is forward]:
            monkeypatch.setattr(module, key, counted)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert calls == shapes


class TestCli:
    def run_main(self, *argv):
        return main(list(argv))

    def test_simulate_success(self, tmp_path):
        rc = self.run_main("simulate", "--out", str(tmp_path), *(f"--set={s}" for s in FAST))
        assert rc == 0
        assert (tmp_path / "trajectory.csv").exists()

    def test_config_file_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[grid]\nN = 256\n[solver]\ndt = 0.002\nt_end = 0.4\n"
                            "record_stride = 20\n")
        out = tmp_path / "out"
        rc = self.run_main("simulate", "--config", str(cfg_file),
                           "--out", str(out), "--set", "t_end=0.2")
        assert rc == 0
        stored = json.loads((out / "manifest.json").read_text())
        cfg = parse_config(stored["config_text"])
        assert cfg.t_end == 0.2  # --set wins over the file
        assert cfg.num_points == 256

    def test_seed_flag_wins(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 5\n")
        out = tmp_path / "out"
        rc = self.run_main("simulate", "--config", str(cfg_file), "--out", str(out),
                           "--seed", "9", *(f"--set={s}" for s in FAST))
        assert rc == 0
        stored = json.loads((out / "manifest.json").read_text())
        assert parse_config(stored["config_text"]).seed == 9

    def test_bad_config_value_exits_2(self):
        assert self.run_main("simulate", "--set", "b=1.5") == 2

    def test_unknown_key_exits_2(self):
        assert self.run_main("simulate", "--set", "zork=1") == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert self.run_main("simulate", "--config", str(tmp_path / "nope.cfg")) == 2

    def test_blowup_exits_3(self, tmp_path):
        rc = self.run_main(
            "simulate", "--out", str(tmp_path), "--set", "N=256",
            "--set", "ic=gaussian", "--set", "ic_amp=50",
            "--set", "dt=0.05", "--set", "t_end=5",
        )
        assert rc == 3

    @pytest.mark.parametrize("kind,extra", [
        ("simulate", ("--set", "s=300", "--set", "t_end=0.01")),
        ("estimate-lab", ("--set", "rho=800", "--set", "ensemble=1")),
    ])
    def test_weight_overflow_exits_3(self, tmp_path, capsys, kind, extra):
        rc = self.run_main(kind, "--out", str(tmp_path), *extra)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("gkdvlab: numerical failure:") and "overflows" in err
        assert err.count("\n") == 1  # one line, no traceback

    def test_rho_does_not_feed_simulate(self, tmp_path):
        # rho weights only the estimate-lab norms; trajectory.csv reports H^s
        assert self.run_main("simulate", "--out", str(tmp_path / "a"),
                             "--set", "rho=800", "--set", "t_end=0.01") == 0
        assert self.run_main("simulate", "--out", str(tmp_path / "b"), "--set", "t_end=0.01") == 0
        csv = [(tmp_path / d / "trajectory.csv").read_bytes() for d in "ab"]
        assert csv[0] == csv[1]

    def test_insufficient_data_exits_4(self, tmp_path):
        rc = self.run_main(
            "radius-track", "--out", str(tmp_path), "--set", "N=256",
            "--set", "dt=0.002", "--set", "t_end=1.1", "--set", "record_stride=25",
            "--set", "ic=perturbed_sech",
        )
        assert rc == 4

    def test_out_with_hash_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = self.run_main("simulate", "--out", "a#b", *(f"--set={s}" for s in FAST))
        assert rc == 2
        err = capsys.readouterr().err
        assert err == ("gkdvlab: config error: flag #1: out must not contain '#' or a "
                       "line break, got 'a#b'\n")
        assert not (tmp_path / "a#b").exists()

    def test_sweep_requires_vary(self):
        assert self.run_main("sweep") == 2

    @pytest.mark.parametrize("vary,fragment", [
        (["p"], "expected KEY=V1,V2"),
        (["p=1", "p=2"], "given twice"),
    ])
    def test_malformed_vary_exits_2(self, capsys, vary, fragment):
        rc = self.run_main("sweep", *(f"--vary={v}" for v in vary))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("gkdvlab: config error: --vary:") and fragment in err

    def test_nonfinite_samples_exit_3(self, tmp_path, capsys):
        # amplitude 1e308 overflows the random samples; the sampler rejects
        # them as a numerical failure, not a config error, and no warning
        # escapes (warnings are errors in this suite)
        rc = self.run_main("estimate-lab", "--out", str(tmp_path),
                           "--set", "amplitude=1e308", "--set", "ensemble=1")
        assert rc == 3
        err = capsys.readouterr().err
        assert err == ("gkdvlab: numerical failure: random samples are not finite: "
                       "amplitude 1e+308 is too large\n")

    def test_overflowing_product_exits_3(self, tmp_path, capsys):
        # amplitude 1e160 keeps the samples finite, but the multilinear check's
        # product overflows; it is rejected by name, with no warning on the way
        rc = self.run_main("estimate-lab", "--out", str(tmp_path),
                           "--set", "amplitude=1e160", "--set", "ensemble=1")
        assert rc == 3
        err = capsys.readouterr().err
        assert err == "gkdvlab: numerical failure: dealiased product: the product overflows\n"

    @pytest.mark.parametrize("p,amplitude", [(1, "1e-110"), (2, "1e-70")])
    def test_underflowing_multilinear_exits_3(self, tmp_path, capsys, p, amplitude):
        # the ratio does not depend on the amplitude, but at these the
        # multilinear check's product of factor norms leaves the normal float
        # range, and the flushed numerator would read as the ratio 0
        rc = self.run_main("estimate-lab", "--out", str(tmp_path), "--seed", "1",
                           "--set", f"p={p}", "--set", f"amplitude={amplitude}",
                           "--set", "ensemble=2")
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("gkdvlab: numerical failure: multilinear:") and "underflow" in err
        assert err.count("\n") == 1
        assert not (tmp_path / f"report_multilinear_p_{p}.json").exists()

    def test_overflowing_multilinear_exits_3(self, tmp_path, capsys):
        # at rho = 30 the three factor norms are about 4e111 each, so their
        # product leaves the float range; apriori_amplitude=1e-40 would keep
        # the apriori bound inside it, were the run to get that far
        rc = self.run_main("estimate-lab", "--out", str(tmp_path), "--set", "ensemble=1",
                           "--set", "rho=30", "--set", "amplitude=1e-20",
                           "--set", "apriori_amplitude=1e-40")
        assert rc == 3
        err = capsys.readouterr().err
        assert err == ("gkdvlab: numerical failure: multilinear: the product of 3 positive "
                       "factor norms overflows the float range; lower the sample amplitude "
                       "or rho\n")
        assert not (tmp_path / "report_multilinear_p_1.json").exists()

    def test_overflowing_apriori_bound_exits_3(self, tmp_path, capsys):
        # at rho = 30 the apriori check's exponential sup cubed leaves the
        # float range; amplitude 1e-40 keeps the multilinear check's product
        # of factor norms inside it, so the run gets that far
        rc = self.run_main("estimate-lab", "--out", str(tmp_path), "--set", "ensemble=1",
                           "--set", "rho=30", "--set", "amplitude=1e-40")
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("gkdvlab: numerical failure: apriori: (1 + sup_exponential)^3 "
                              "overflows at sup_exponential = ")
        assert err.endswith(" (rho = 30, s = 2); reduce rho or s\n")
        assert not (tmp_path / "report_apriori.json").exists()

    def test_too_few_lab_time_rows_exit_2_at_parse(self, tmp_path, capsys):
        # 8 rows over [-2.5, 2.5) end at 1.875, inside the cutoff support
        rc = self.run_main("estimate-lab", "--out", str(tmp_path), "--set", "lab_M=8")
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "gkdvlab: config error: --set #1: lab_M must be even and >= 10, got '8'\n"
        assert not (tmp_path / "manifest.json").exists()

    def test_ten_lab_time_rows_run(self, tmp_path):
        rc = self.run_main("estimate-lab", "--out", str(tmp_path),
                           "--set", "lab_M=10", "--set", "ensemble=1")
        assert rc == 0
        report = json.loads((tmp_path / "report_duhamel.json").read_text())
        assert report["params"]["num_times"] == 10

    @pytest.mark.parametrize("lab_t", ["1.05", "1.005"])
    def test_unwindowable_lab_T_exits_2_at_parse(self, tmp_path, capsys, lab_t):
        # the apriori runs record every 0.2, so 2 lab_T must be a multiple of it
        rc = self.run_main("estimate-lab", "--out", str(tmp_path), "--set", f"lab_T={lab_t}")
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"gkdvlab: config error: --set #1: lab_T must be >= 1 and a whole "
                       f"multiple of 0.1, got '{lab_t}'\n")
        assert not (tmp_path / "manifest.json").exists()

    def test_windowable_lab_T_runs(self, tmp_path):
        rc = self.run_main("estimate-lab", "--out", str(tmp_path),
                           "--set", "lab_T=1.5", "--set", "ensemble=1")
        assert rc == 0
        report = json.loads((tmp_path / "report_apriori.json").read_text())
        assert report["params"]["T"] == 1.5 and not report["violation"]

    def test_value_error_from_config_exits_2(self, tmp_path, capsys):
        # a ValueError the library raises on a bad config value stays exit 2
        rc = self.run_main("estimate-lab", "--out", str(tmp_path), "--set", "bandwidth=100")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("gkdvlab: config error:") and "exceeds the dealias cutoff" in err

    def test_sweep_success(self, tmp_path):
        rc = self.run_main(
            "sweep", "--out", str(tmp_path), *(f"--set={s}" for s in FAST),
            "--vary", "p=1,2",
        )
        assert rc == 0
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "point_001" / "manifest.json").exists()

    def test_sweep_checks_every_point_before_running_one(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = self.run_main("sweep", "--out", str(out), "--set", "N=64", "--set", "t_end=0.01",
                           "--vary", "N=64,abc")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("gkdvlab: config error: --vary #1:") and "'abc'" in err
        assert not out.exists()

    def test_sweep_out_flag_wins_over_the_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"out = {tmp_path / 'from_file'}\n")
        out = tmp_path / "from_flag"
        rc = self.run_main("sweep", "--config", str(cfg_file), "--out", str(out),
                           *(f"--set={s}" for s in FAST), "--vary", "p=1")
        assert rc == 0
        assert (out / "summary.csv").exists() and (out / "point_000" / "manifest.json").exists()
        assert not (tmp_path / "from_file").exists()

    def test_env_var_output_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GKDVLAB_OUT", str(tmp_path))
        rc = self.run_main("simulate", *(f"--set={s}" for s in FAST))
        assert rc == 0
        assert (tmp_path / "simulate" / "trajectory.csv").exists()

    def test_subcommand_overrides_kind(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("kind = simulate\nN = 256\ndt = 0.002\n"
                            "t_end = 0.5\nrecord_stride = 20\n")
        out = tmp_path / "out"
        rc = self.run_main("soliton-test", "--config", str(cfg_file), "--out", str(out))
        assert rc == 0
        assert (out / "soliton_test.json").exists()


class TestDeterminism:
    def test_lab_reports_byte_identical(self, tmp_path):
        cfg = apply_overrides(RunConfig(), ["kind=estimate-lab", "ensemble=2"])
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        for name in ("report_linear_free.json", "report_duhamel.json",
                     "report_apriori.json", "lemma_table.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_every_lab_file_byte_identical(self, tmp_path):
        # the member batches of every check, apriori's runs and the lemma table
        cfg = apply_overrides(RunConfig(), ["kind=estimate-lab", "ensemble=3", "p=2"])
        m1 = run(cfg, tmp_path / "a")
        m2 = run(cfg, tmp_path / "b")
        assert len(m1.outputs) == 12 and m1.outputs == m2.outputs
        for name in m1.outputs:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seed_changes_reports(self, tmp_path):
        c1 = apply_overrides(RunConfig(), ["kind=estimate-lab", "ensemble=2"])
        c2 = dataclasses.replace(c1, seed=1)
        run(c1, tmp_path / "a")
        run(c2, tmp_path / "b")
        r1 = (tmp_path / "a" / "report_linear_free.json").read_bytes()
        r2 = (tmp_path / "b" / "report_linear_free.json").read_bytes()
        assert r1 != r2
