import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quniverse import __version__, cli, units
from quniverse.cache import CACHE_DIR_ENV
from quniverse.config import ModelConfig
from quniverse.cli import compare_free_energy, main, read_trajectory, run_experiment
from quniverse.model import build_system_levels
from quniverse.observables import EIGENVALUE_CLIP_TOL
from quniverse.rng import DRAW_CONTRACT_VERSION

from conftest import toy6_config, toy21_config

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def toy_cfg_file(tmp_path):
    cfg = toy6_config(alpha=0.2, rng_seed=31)
    path = tmp_path / "toy.cfg"
    path.write_text(cfg.canonical_string())
    return cfg, path


def _run(cfg, out, **kwargs):
    kwargs.setdefault("t_max_ps", 2.0)
    kwargs.setdefault("n_points", 50)
    return run_experiment(cfg, list(range(cfg.n_system_levels)), out, **kwargs)


def test_toy_run_writes_all_artifacts(tmp_path):
    cfg = toy6_config(alpha=0.2, rng_seed=31)
    out = tmp_path / "run"
    manifest = _run(cfg, out)
    for name in manifest.outputs:
        assert (out / name).exists(), name
    assert (out / "manifest.json").exists()
    expected = {"traj_n0.csv", "traj_n1.csv", "sticks_n0.csv", "sticks_n1.csv",
                "summary.json", "anomalies.json"}
    assert expected == set(manifest.outputs)

    summary = json.loads((out / "summary.json").read_text())
    assert summary["shell_state_count"] == cfg.shell_size(cfg.total_energy)
    assert [row["n"] for row in summary["states"]] == [0, 1]

    manifest_echo = json.loads((out / "manifest.json").read_text())
    assert ModelConfig.from_dict(manifest_echo["config"]) == cfg
    assert manifest_echo["seed"] == 31
    assert set(manifest_echo["timing_seconds"]) == {
        "build_and_solve", "propagate", "observables", "write"}
    assert all(v >= 0.0 for v in manifest_echo["timing_seconds"].values())


def test_trajectory_columns_and_invariants(tmp_path):
    cfg = toy6_config(alpha=0.2, rng_seed=31)
    _run(cfg, tmp_path)
    cols = read_trajectory(tmp_path / "traj_n0.csv")
    for name in ("time_reduced", "time_ps", "S_vN", "S_univ", "U_S", "U_S_cm",
                 "dF", "dF_cm", "minus_dF_over_kT", "S_partial_0", "rdm_diag_0",
                 "T_fit_K"):
        assert name in cols, name
    assert cols["time_reduced"][0] == 0.0
    assert cols["dF"][0] == 0.0
    assert abs(cols["S_vN"][0]) <= 1e-12  # product state at t = 0
    assert np.all(cols["S_vN"] <= math.log(cfg.n_system_levels) + 1e-9)
    assert np.all(cols["S_vN"] >= -1e-12)
    rdm_sum = cols["rdm_diag_0"] + cols["rdm_diag_1"]
    np.testing.assert_allclose(rdm_sum, 1.0, rtol=0, atol=1e-10)
    partials = sum(cols[f"S_partial_{s}"] for s in range(3))
    np.testing.assert_allclose(partials, cols["S_univ"], rtol=0, atol=1e-10)
    np.testing.assert_allclose(
        cols["U_S_cm"], cols["U_S"] * cfg.energy_unit_wavenumbers, rtol=1e-12
    )


def test_repeated_run_byte_identical(tmp_path, monkeypatch):
    cfg = toy6_config(alpha=0.2, rng_seed=31)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    _run(cfg, out_a)
    # a second empty cache, so that both runs solve
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache_b"))
    assert not _run(cfg, out_b).cache["hit"]
    for name in ("traj_n0.csv", "traj_n1.csv", "sticks_n0.csv",
                 "sticks_n1.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_state_files_independent_of_other_states(tmp_path, toy_cfg_file):
    _, cfg_path = toy_cfg_file
    for name, states in (("alone", "0"), ("with_1", "1,0")):
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / name),
                   "--states", states, "--t-max-ps", "2.0", "--n-points", "50"])
        assert rc == 0
    for name in ("traj_n0.csv", "sticks_n0.csv"):
        alone = (tmp_path / "alone" / name).read_bytes()
        assert alone == (tmp_path / "with_1" / name).read_bytes(), name


def test_alpha_zero_t_fit_blank(tmp_path):
    cfg = toy6_config(alpha=0.0, rng_seed=31)
    _run(cfg, tmp_path)
    lines = (tmp_path / "traj_n0.csv").read_text().splitlines()
    assert lines[1].split(",")[-1] == "T_fit_K"
    assert all(line.split(",")[-1] == "" for line in lines[2:])
    assert np.isnan(read_trajectory(tmp_path / "traj_n0.csv")["T_fit_K"]).all()


def test_t_fit_blank_only_at_t0(tmp_path):
    # at t = 0 the off-level populations are round-off, which has no temperature
    cfg = toy21_config()
    run_experiment(cfg, [0, 1, 2], tmp_path, t_max_ps=2.0, n_points=50)
    levels = build_system_levels(cfg).ladder
    for n in range(3):
        cols = read_trajectory(tmp_path / f"traj_n{n}.csv")
        t_fit = cols["T_fit_K"]
        assert math.isnan(t_fit[0])
        pops = np.column_stack([cols[f"rdm_diag_{k}"] for k in range(3)])
        assert pops[1:].min() > EIGENVALUE_CLIP_TOL
        # every later row is the plain least-squares fit of its populations
        slope = np.array([np.polyfit(levels, np.log(p), 1)[0] for p in pops[1:]])
        with np.errstate(divide="ignore"):
            expected = np.where(slope < 0.0, -cfg.energy_unit_wavenumbers
                                / (slope * units.KB_WAVENUMBER_PER_KELVIN), np.nan)
        np.testing.assert_allclose(t_fit[1:], expected, rtol=1e-9)


def test_summary_agrees_with_the_files_it_summarizes(tmp_path):
    cfg = toy21_config()
    run_experiment(cfg, [0, 1, 2], tmp_path, t_max_ps=2.0, n_points=50)
    shell = cfg.total_energy
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [row["n"] for row in summary["states"]] == [0, 1, 2]
    for row in summary["states"]:
        cols = read_trajectory(tmp_path / f"traj_n{row['n']}.csv")
        assert row["S_univ_final"] == cols["S_univ"][-1]
        # S_partial_final comes from shell_decompose, the CSV column from
        # trajectory_columns: two summation orders of one quantity
        assert abs(row["S_partial_final"] - cols[f"S_partial_{shell}"][-1]) <= 1e-13
        body = (tmp_path / f"sticks_n{row['n']}.csv").read_text().splitlines()[2:]
        sticks = np.array([[float(x) for x in line.split(",")] for line in body])
        in_shell = sticks[sticks[:, 5] == shell, 1].sum()
        assert abs(row["shell_population_final"] - in_shell) <= 1e-13
        assert 0.0 < in_shell < 1.0


@pytest.mark.parametrize("states, kwargs, message", [
    ([], {}, "no initial states"),
    ([2], {}, "not valid"),
    ([-1], {}, "not valid"),
    ([0, 1, 0], {}, "duplicate"),
    ([0, 1], {"n_points": 2}, "n_points"),
    ([0, 1], {"t_max_ps": 0.0}, "t_max_ps"),
    ([0, 1], {"t_max_ps": -1.0}, "t_max_ps"),
    ([0, 1], {"t_max_ps": math.inf}, "t_max_ps"),
], ids=["no_states", "state_too_high", "state_negative", "duplicate_state",
        "two_points", "zero_t_max", "negative_t_max", "infinite_t_max"])
def test_bad_request_fails_before_solve(tmp_path, monkeypatch, states, kwargs, message):
    def solve_reached(*args, **kw):
        raise AssertionError("the Hamiltonian was assembled before the input was checked")

    monkeypatch.setattr("quniverse.cli.assemble_hamiltonian", solve_reached)
    cfg = toy6_config(alpha=0.2, rng_seed=31)
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg, states, tmp_path / "out", **kwargs)


def test_different_seed_changes_output(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    _run(toy6_config(alpha=0.2, rng_seed=31), out_a)
    _run(toy6_config(alpha=0.2, rng_seed=32), out_b)
    assert (out_a / "traj_n0.csv").read_bytes() != (out_b / "traj_n0.csv").read_bytes()


def test_compare_report(tmp_path):
    cfg = toy6_config(alpha=0.2, rng_seed=31)
    _run(cfg, tmp_path)
    report = compare_free_energy(tmp_path / "traj_n0.csv")
    assert set(report) >= {
        "late_mean_dS_univ", "late_mean_minus_dF_over_kT",
        "late_mean_abs_difference", "late_relative_discrepancy",
        "max_abs_difference", "transient_flagged", "transient_end_reduced",
    }
    assert report["late_mean_abs_difference"] >= 0.0


def test_compare_zero_discrepancy_on_synthetic(tmp_path):
    # dS_univ identical to -dF/(kT) by construction
    path = tmp_path / "synthetic.csv"
    t = np.linspace(0.0, 10.0, 21)
    s = 1.0 - np.exp(-t)
    lines = ["time_reduced,S_univ,dF,minus_dF_over_kT"]
    for ti, si in zip(t.tolist(), s.tolist()):
        lines.append(f"{ti!r},{2.0 + si!r},{-si!r},{si!r}")
    path.write_text("\n".join(lines) + "\n")
    report = compare_free_energy(path)
    assert report["late_mean_abs_difference"] <= 1e-12
    assert report["max_abs_difference"] <= 1e-12
    assert not report["transient_flagged"]
    assert report["transient_end_reduced"] == 0.0


def test_compare_missing_column_rejected(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("time_reduced,S_univ\n0.0,1.0\n1.0,1.1\n")
    with pytest.raises(ValueError, match="lacks required column"):
        compare_free_energy(path)


def test_cli_run_and_compare_commands(tmp_path, toy_cfg_file, capsys):
    cfg, cfg_path = toy_cfg_file
    out = tmp_path / "cli_run"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out),
               "--states", "0", "--t-max-ps", "2.0", "--n-points", "40"])
    assert rc == 0
    assert (out / "traj_n0.csv").exists()
    assert not (out / "traj_n1.csv").exists()
    capsys.readouterr()

    rc = main(["compare", "--traj", str(out / "traj_n0.csv")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert "late_mean_abs_difference" in report


def test_cli_seed_and_compat_overrides(tmp_path, toy_cfg_file):
    _, cfg_path = toy_cfg_file
    out = tmp_path / "cli_run2"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out),
               "--states", "0", "--seed", "77", "--paper-compat",
               "--t-max-ps", "1.0", "--n-points", "20"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 77
    assert manifest["config"]["paper_compat"] is True
    assert manifest["temperature"]["kelvin"] == 230.41


def test_cli_sticks_command(tmp_path, toy_cfg_file):
    cfg, cfg_path = toy_cfg_file
    out = tmp_path / "cli_run3"
    main(["run", "--config", str(cfg_path), "--out", str(out),
          "--states", "1", "--t-max-ps", "2.0", "--n-points", "30"])
    sticks_out = tmp_path / "sticks_t.csv"
    rc = main(["sticks", "--traj", str(out / "traj_n1.csv"),
               "--time", "5.0", "--out", str(sticks_out)])
    assert rc == 0
    text = sticks_out.read_text().splitlines()
    assert text[0].startswith("#")
    assert text[1] == "energy,p,n,m,l,shell"
    p = np.array([float(line.split(",")[1]) for line in text[2:]])
    np.testing.assert_allclose(p.sum(), 1.0, rtol=0, atol=1e-10)

    # recomputation is faithful: t = 0 sticks match the initial state exactly
    sticks0 = tmp_path / "sticks_0.csv"
    main(["sticks", "--traj", str(out / "traj_n1.csv"),
          "--time", "0.0", "--out", str(sticks0)])
    body = sticks0.read_text().splitlines()[2:]
    live = [line for line in body if float(line.split(",")[1]) > 1e-12]
    assert len(live) == 1  # toy6 initial n=1 sits on the single |m=0, l=0> state
    assert abs(float(live[0].split(",")[1]) - 1.0) < 1e-10


@pytest.mark.parametrize("field, other, message", [
    ("code_version", "0.0.1-other", "written by quniverse 0.0.1-other under"),
    ("draw_contract", 0, "under draw contract 0,"),
])
def test_cli_sticks_refuses_foreign_manifest(tmp_path, toy_cfg_file, monkeypatch,
                                             field, other, message):
    _, cfg_path = toy_cfg_file
    out = tmp_path / "cli_run5"
    main(["run", "--config", str(cfg_path), "--out", str(out),
          "--states", "1", "--t-max-ps", "2.0", "--n-points", "30"])
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert (manifest["code_version"], manifest["draw_contract"]) == (
        __version__, DRAW_CONTRACT_VERSION)
    manifest[field] = other
    manifest_path.write_text(json.dumps(manifest))

    def refuse(*args, **kwargs):
        raise AssertionError("the universe was rebuilt for a refused manifest")

    monkeypatch.setattr(cli, "assemble_hamiltonian", refuse)
    sticks_out = tmp_path / "sticks.csv"
    with pytest.raises(ValueError, match=message):
        main(["sticks", "--traj", str(out / "traj_n1.csv"), "--time", "1.0",
              "--out", str(sticks_out)])
    assert not sticks_out.exists()


@pytest.mark.parametrize("field, edit", [
    ("state_n", lambda line: line.replace("state_n=1 ", "state_n=0 ")),
    ("seed", lambda line: line.replace("seed=31 ", "seed=32 ")),
    ("config_sha256", lambda line: line[:-5] + "0000\n"),
])
def test_cli_sticks_refuses_edited_trajectory_header(tmp_path, toy_cfg_file, monkeypatch,
                                                     field, edit):
    _, cfg_path = toy_cfg_file
    out = tmp_path / "cli_run6"
    main(["run", "--config", str(cfg_path), "--out", str(out),
          "--states", "1", "--t-max-ps", "2.0", "--n-points", "30"])
    traj = out / "traj_n1.csv"
    first, rest = traj.read_text().split("\n", 1)
    edited = edit(first + "\n")
    assert edited != first + "\n"
    traj.write_text(edited + rest)

    def refuse(*args, **kwargs):
        raise AssertionError("the universe was rebuilt for a refused trajectory")

    monkeypatch.setattr(cli, "assemble_hamiltonian", refuse)
    sticks_out = tmp_path / "sticks.csv"
    with pytest.raises(ValueError, match=f"header does not match .*{field}="):
        main(["sticks", "--traj", str(traj), "--time", "1.0", "--out", str(sticks_out)])
    assert not sticks_out.exists()


@pytest.mark.parametrize("when", [["--time", "nan"], ["--time-ps", "inf"]],
                         ids=["nan_time", "infinite_time_ps"])
def test_cli_sticks_refuses_non_finite_time(tmp_path, toy_cfg_file, monkeypatch, when):
    _, cfg_path = toy_cfg_file
    out = tmp_path / "cli_run7"
    main(["run", "--config", str(cfg_path), "--out", str(out),
          "--states", "1", "--t-max-ps", "2.0", "--n-points", "30"])

    def refuse(*args, **kwargs):
        raise AssertionError("the universe was rebuilt for a non-finite time")

    monkeypatch.setattr(cli, "assemble_hamiltonian", refuse)
    sticks_out = tmp_path / "sticks.csv"
    with pytest.raises(ValueError, match="must be finite"):
        main(["sticks", "--traj", str(out / "traj_n1.csv"), *when, "--out", str(sticks_out)])
    assert not sticks_out.exists()


@pytest.mark.parametrize("when", [[], ["--time", "1.0", "--time-ps", "5"]],
                         ids=["no_time", "both_times"])
def test_cli_sticks_needs_exactly_one_time(tmp_path, when):
    with pytest.raises(SystemExit) as exc:
        main(["sticks", "--traj", str(tmp_path / "traj_n1.csv"), *when])
    assert exc.value.code == 2


# sha256 of every toy21 output but the manifest (which records timings),
# per package version.  Bump __version__ with every change that moves an
# output byte, and record the new hashes here under it.  Recorded with
# scipy's bundled OpenBLAS on x86-64.
OUTPUT_SHA256 = {
    "0.3.0": {
        120: {
            "anomalies.json": "416187df75f7c0a52c04d071d4f611e865a568324ac34abae6b7f35bad6d7a47",
            "sticks_n0.csv": "067c30aeec0faf4a9b0a29b58e0d246bf3ea606d67223d296ba6675b9456674d",
            "sticks_n1.csv": "ac82f19d892d6819a354f7f0cc607a454b8b4877472fd152b9c37d4dae8e53ea",
            "sticks_n2.csv": "d31642f4d58a2ee4c99103fb77ca8fd8bcf467b1aae4afd855a382f9145f5965",
            "sticks_t.csv": "9b11e40528ee8b332d2c79d153dc18853b40a4d992e5d83ee9b123b9b26b452b",
            "summary.json": "34e4c8c0298c554e3941f7185363955068afb508b6c46d472779c2fc6db3a630",
            "traj_n0.csv": "711ea74a6c2d50c8f856b91a1308ea4be5230f7b12aaa58f21347910cb537bb4",
            "traj_n1.csv": "804eaaa66d9ecceb00b355d99944a5f43341ebc414347923e403ef7e726db43e",
            "traj_n2.csv": "072d17a17de7197ded92dc8fe07da80f3ec21715902f9a63f22ec26f84950fab",
        },
        40: {
            "anomalies.json": "20ab85d26556e0409f223016d6c9a3f38d2ec11b185b78dfe65e82aee2a1f34f",
            "sticks_n0.csv": "a5497acbd115e766b4651b58d6dba3514e7b8d4a37298b12f76ed7a272affb76",
            "sticks_n1.csv": "c000cae41e349bb30107e4d1dae353d8e7b76b2790d064741b40ffa11284ad7d",
            "sticks_n2.csv": "868c7ca8e4f6bdbcc704fe3e0fa86184f85cefd68b0062e34f9c68cf6acbdee2",
            "sticks_t.csv": "9b11e40528ee8b332d2c79d153dc18853b40a4d992e5d83ee9b123b9b26b452b",
            "summary.json": "8546b1a66400c41c8f0eb922ffb5120682a9bb7b4522caf11456134fd12928c5",
            "traj_n0.csv": "84bb22691e8e2f4f83e1fc613ce050d02f720699115cc9c439b906e36f8b6caf",
            "traj_n1.csv": "f796ff90aeeefdf8e6c8c604e00483479aba841e746cc09b84ab58fb33e8fef9",
            "traj_n2.csv": "8e22c0dad1f532486a29b2385c584e9ae7d5768b6d66bad7f94de108b582c951",
        },
    },
}


@pytest.mark.parametrize("n_points", [120, 40], ids=["nufft", "direct"])
def test_outputs_pinned_for_this_version(tmp_path, n_points):
    assert __version__ in OUTPUT_SHA256, f"no output hashes recorded for {__version__}"
    run_experiment(toy21_config(), [0, 1, 2], tmp_path, n_points=n_points)
    main(["sticks", "--traj", str(tmp_path / "traj_n1.csv"), "--time", "7.5",
          "--out", str(tmp_path / "sticks_t.csv")])
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in tmp_path.iterdir() if path.name != "manifest.json"}
    assert got == OUTPUT_SHA256[__version__][n_points]


def test_nufft_run_at_huge_t_max_finishes(tmp_path):
    # E D spans ~3.8e7 wraps of 2 pi at 3e8 ps; a NUFFT that searched
    # every wrap for every grid block would not finish.  A subprocess, so
    # that such a regression fails this test instead of hanging the suite.
    cfg_path = tmp_path / "toy21.cfg"
    cfg_path.write_text(toy21_config().canonical_string())
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "quniverse.cli", "run", "--config", str(cfg_path),
                    "--out", str(tmp_path / "out"), "--t-max-ps", "3e8", "--n-points", "120"],
                   env=env, check=True, capture_output=True, timeout=60)
    cols = read_trajectory(tmp_path / "out" / "traj_n0.csv")
    assert cols["time_ps"].size == 120
    assert cols["time_ps"][-1] == pytest.approx(3e8, rel=1e-12)


def test_config_file_errors_surface(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 3\n")
    with pytest.raises(ValueError, match="unknown configuration key"):
        main(["run", "--config", str(bad), "--out", str(tmp_path / "x")])
