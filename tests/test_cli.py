import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quniverse import __version__, cli, dynamics, model, units
from quniverse.blas import gemm_threads, library, pass_workers, simd_level
from quniverse.cache import CACHE_DIR_ENV, CACHE_MAX_MB_ENV
from quniverse.config import ModelConfig
from quniverse.cli import MAX_PHASE, compare_free_energy, main, read_trajectory, run_experiment
from quniverse.dynamics import NUFFT_MIN_TIMES
from quniverse.model import build_system_levels, cache_key
from quniverse.observables import (
    EIGENVALUE_CLIP_TOL,
    HERMITICITY_TOL,
    MAJORIZATION_TOL,
    NORM_TOL,
    TRACE_TOL,
    sum_bytes,
)
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
    for name in manifest["outputs"]:
        assert (out / name).exists(), name
    assert (out / "manifest.json").exists()
    expected = {"traj_n0.csv", "traj_n1.csv", "sticks_n0.csv", "sticks_n1.csv",
                "summary.json", "anomalies.json"}
    assert expected == set(manifest["outputs"])

    summary = json.loads((out / "summary.json").read_text())
    assert summary["shell_state_count"] == cfg.shell_size(cfg.total_energy)
    assert [row["n"] for row in summary["states"]] == [0, 1]

    manifest_echo = json.loads((out / "manifest.json").read_text())
    assert ModelConfig.from_dict(manifest_echo["config"]) == cfg
    assert manifest_echo["seed"] == 31
    assert set(manifest_echo["timing_seconds"]) == set(model.STAGES)
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
    assert not _run(cfg, out_b)["cache"]["hit"]
    for name in ("traj_n0.csv", "traj_n1.csv", "sticks_n0.csv",
                 "sticks_n1.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def _assert_same_bytes(expected: Path, got: Path):
    """Fail naming the first byte, and its line in both files, where two files differ."""
    a, b = expected.read_bytes(), got.read_bytes()
    if a == b:
        return
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    line = a.count(b"\n", 0, at)
    raise AssertionError(
        f"{got} differs from {expected} at byte {at} (line {line + 1}; sizes {len(a)}, "
        f"{len(b)}):\n{a.splitlines()[line:line + 1]}\n{b.splitlines()[line:line + 1]}")


def test_state_files_independent_of_other_states(tmp_path, toy_cfg_file):
    _, cfg_path = toy_cfg_file
    for name, states in (("alone", "0"), ("with_1", "1,0")):
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / name),
                   "--states", states, "--t-max-ps", "2.0", "--n-points", "50"])
        assert rc == 0
    for name in ("traj_n0.csv", "sticks_n0.csv"):
        _assert_same_bytes(tmp_path / "alone" / name, tmp_path / "with_1" / name)


@pytest.mark.parametrize("t_max_ps", [1.5, 30.0], ids=["tall_products", "many_wraps"])
def test_state_files_independent_of_other_states_nufft(tmp_path, t_max_ps):
    # 2268 states: 12 row blocks, a NUFFT grid, and state 0 stacked with
    # 0..5 other states (widths k = 1..6) at different positions.  At
    # 1.5 ps the eigenphases fill about half a turn, so a grid block holds
    # ~700 points; at 30 ps the points of a grid block span many wraps.
    cfg = ModelConfig(n_env_levels=6, rng_seed=1)
    requests = [[0], [3, 0], [0, 5, 1], [2, 4, 0, 1], [5, 4, 3, 0, 1], [1, 2, 3, 4, 5, 0]]
    for k, states in enumerate(requests, start=1):
        assert len(states) == k
        run_experiment(cfg, states, tmp_path / f"k{k}", t_max_ps=t_max_ps, n_points=120)
    for name in ("traj_n0.csv", "sticks_n0.csv"):
        for k in range(2, 7):
            _assert_same_bytes(tmp_path / "k1" / name, tmp_path / f"k{k}" / name)
    rows = [next(r for r in json.loads((tmp_path / f"k{k}" / "summary.json").read_text())
                 ["states"] if r["n"] == 0) for k in range(1, 7)]
    assert all(row == rows[0] for row in rows)


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
    levels = build_system_levels(cfg)
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


def _sticks_in_basis_order(path):
    """A sticks CSV's rows sorted back into basis order (n, m, l)."""
    body = path.read_text().splitlines()[2:]
    sticks = np.array([[float(x) for x in line.split(",")] for line in body])
    return sticks[np.lexsort((sticks[:, 4], sticks[:, 3], sticks[:, 2]))]


def test_summary_agrees_with_the_files_it_summarizes(tmp_path):
    cfg = toy21_config()
    run_experiment(cfg, [0, 1, 2], tmp_path, t_max_ps=2.0, n_points=50)
    shell = cfg.total_energy
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [row["n"] for row in summary["states"]] == [0, 1, 2]
    for row in summary["states"]:
        cols = read_trajectory(tmp_path / f"traj_n{row['n']}.csv")
        # one source per number: the trajectory's last row and the final p
        assert row["S_univ_final"] == cols["S_univ"][-1]
        assert row["S_partial_final"] == cols[f"S_partial_{shell}"][-1]
        sticks = _sticks_in_basis_order(tmp_path / f"sticks_n{row['n']}.csv")
        in_shell = sticks[sticks[:, 5] == shell, 1].sum()
        assert row["shell_population_final"] == in_shell
        assert 0.0 < in_shell < 1.0


def test_summary_reports_numerical_health_within_gates(tmp_path):
    run_experiment(toy21_config(), [0, 1, 2], tmp_path, t_max_ps=2.0, n_points=120)
    summary = json.loads((tmp_path / "summary.json").read_text())
    for row in summary["states"]:
        health = row["health"]
        assert set(health) == {"max_norm_error", "max_rdm_hermiticity_error",
                               "max_rdm_trace_error", "min_rdm_eigenvalue",
                               "min_majorization_slack"}
        assert 0.0 <= health["max_norm_error"] <= NORM_TOL
        assert 0.0 <= health["max_rdm_hermiticity_error"] <= HERMITICITY_TOL
        assert 0.0 <= health["max_rdm_trace_error"] <= TRACE_TOL
        assert health["min_rdm_eigenvalue"] >= -EIGENVALUE_CLIP_TOL
        assert health["min_majorization_slack"] >= -MAJORIZATION_TOL


@pytest.mark.parametrize("states, kwargs, message", [
    ([], {}, "no initial states"),
    ([2], {}, r"outside 0\.\.1"),
    ([-1], {}, r"outside 0\.\.1"),
    ([0, 1, 0], {}, "duplicate"),
    ([0, 1], {"n_points": 2}, "n_points"),
    ([0, 1], {"t_max_ps": 0.0}, "t_max_ps"),
    ([0, 1], {"t_max_ps": -1.0}, "t_max_ps"),
    ([0, 1], {"t_max_ps": math.inf}, "t_max_ps"),
    ([0, 1], {"t_max_ps": 1e300}, "--t-max-ps 1e[+]300 is too long"),
    # the phases' bound takes |kappa|: at kappa = -2 it read 0 rad
    ([0], {"config": {"kappa": -2.0}, "t_max_ps": 1e16}, "--t-max-ps 1e[+]16 is too long"),
    ([0, 1], {"writable": False}, "is not a directory this process may write"),
], ids=["no_states", "state_too_high", "state_negative", "duplicate_state",
        "two_points", "zero_t_max", "negative_t_max", "infinite_t_max", "phase_beyond_2_40",
        "phase_beyond_2_40_negative_kappa", "unwritable_out"])
def test_bad_request_fails_before_solve(tmp_path, monkeypatch, states, kwargs, message):
    def solve_reached(*args, **kw):
        raise AssertionError("the Hamiltonian was assembled before the input was checked")

    monkeypatch.setattr("quniverse.cli.assemble_hamiltonian", solve_reached)
    kwargs = dict(kwargs)
    if not kwargs.pop("writable", True):
        # root passes every permission check, so the refusal is patched in
        monkeypatch.setattr(os, "access", lambda path, mode: False)
    cfg = toy6_config(alpha=0.2, rng_seed=31, **kwargs.pop("config", {}))
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg, states, tmp_path / "out", **kwargs)
    assert not (tmp_path / "out").exists()


def test_run_that_fails_before_its_first_write_leaves_no_directory(tmp_path, monkeypatch):
    def solve_fails(*args, **kwargs):
        raise MemoryError("the solve does not fit")

    monkeypatch.setattr(cli, "assemble_hamiltonian", solve_fails)
    out = tmp_path / "new" / "run"
    with pytest.raises(MemoryError):
        run_experiment(toy6_config(), [0], out, t_max_ps=2.0, n_points=50)
    assert list(tmp_path.iterdir()) == []


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
    lines = ["# quniverse trajectory", "time_reduced,S_univ,dF,minus_dF_over_kT"]
    for ti, si in zip(t.tolist(), s.tolist()):
        lines.append(f"{ti!r},{2.0 + si!r},{-si!r},{si!r}")
    path.write_text("\n".join(lines) + "\n")
    report = compare_free_energy(path)
    assert report["late_mean_abs_difference"] <= 1e-12
    assert report["max_abs_difference"] <= 1e-12
    assert not report["transient_flagged"]
    assert report["transient_end_reduced"] == 0.0


def test_compare_flags_an_early_transient(tmp_path):
    # dS_univ runs ahead of -dF/(kT) by 0.5 exp(-2 t): beyond the 0.05 floor of
    # the tolerance up to t = 1.0, so the transient ends at the next time, 1.5
    path = tmp_path / "synthetic.csv"
    t = np.linspace(0.0, 10.0, 21)
    s = 1.0 - np.exp(-t)
    lines = ["# quniverse trajectory", "time_reduced,S_univ,dF,minus_dF_over_kT"]
    for ti, si, di in zip(t.tolist(), s.tolist(), (0.5 * np.exp(-2.0 * t)).tolist()):
        lines.append(f"{ti!r},{2.0 + si!r},{di - si!r},{si - di!r}")
    path.write_text("\n".join(lines) + "\n")
    report = compare_free_energy(path)
    assert report["transient_flagged"]
    assert report["transient_end_reduced"] == 1.5
    assert report["max_abs_difference"] == pytest.approx(0.5, abs=1e-12)
    assert report["late_mean_abs_difference"] < 1e-6


def test_compare_missing_column_rejected(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("# quniverse trajectory\ntime_reduced,S_univ\n0.0,1.0\n1.0,1.1\n")
    with pytest.raises(ValueError, match="lacks required column"):
        compare_free_energy(path)


_TRAJECTORY_HEAD = "# quniverse trajectory\ntime_reduced,S_univ,dF,minus_dF_over_kT\n"


@pytest.mark.parametrize("text, where", [
    (_TRAJECTORY_HEAD, ": no rows"),
    (_TRAJECTORY_HEAD + "0.0,1.0,0.0,0.0\n1.0,1.1,0.0\n", ", line 4: 3 fields, the header has 4"),
    (_TRAJECTORY_HEAD + "0.0,1.0,0.0,0.0\n1.0,1.1,0.0,0.0,9.0\n",
     ", line 4: 5 fields, the header has 4"),
    (_TRAJECTORY_HEAD + "0.0,1.0,0.0,0.0\n1.0,1.1,0.0,1.2e",
     ", line 4: could not convert string to float"),
    (_TRAJECTORY_HEAD.split("\n", 1)[1] + "0.0,1.0,0.0,0.0\n",
     ", line 1: it does not start with '# quniverse trajectory'"),
], ids=["header_only", "short_row", "long_row", "cut_number", "no_trajectory_line"])
def test_compare_names_malformed_trajectory_file(tmp_path, text, where):
    path = tmp_path / "traj_n0.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^malformed trajectory file {re.escape(str(path))}"
                                         + where):
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


def test_run_logs_one_stderr_line_per_stage(tmp_path, toy_cfg_file, capsys):
    cfg, cfg_path = toy_cfg_file
    key = cache_key(cfg)[:12]
    argv = ["run", "--config", str(cfg_path), "--t-max-ps", "2.0", "--n-points", "120"]
    assert main(argv + ["--out", str(tmp_path / "cold")]) == 0
    cold = capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "warm")]) == 0
    warm = capsys.readouterr()
    workers = pass_workers()
    solve = [f"solving the dense {cfg.n_universe_states} x {cfg.n_universe_states} eigenproblem",
             "tridiagonalized in ", "divide and conquer in ", "back-transformed in ",
             f"stored entry {key}, 0 MB, in "]
    stages = [f"basis of {cfg.n_universe_states} states (2 system levels x 3 environment states)",
              f"cache miss: no entry {key}",
              *solve,
              f"propagating 2 states over 120 times on {workers} worker thread",
              "writing trajectories, stick diagrams, summary and manifest to "]
    lines = cold.err.splitlines()
    assert len(lines) == len(stages)
    for line, stage in zip(lines, stages):
        assert line.startswith(f"quniverse: {stage}"), (line, stage)
    lines = warm.err.splitlines()
    assert len(lines) == len(stages) - len(solve)
    assert lines[1].startswith(f"quniverse: cache hit: entry {key}, eigen residual ")
    for line, stage in zip(lines[2:], stages[2 + len(solve):]):
        assert line.startswith(f"quniverse: {stage}"), (line, stage)
    # stdout keeps only the summary line
    assert cold.out == f"wrote 6 files to {tmp_path / 'cold'}\n"


def test_manifest_records_blas_library_and_pass_workers(tmp_path):
    manifest = json.loads(_run_manifest_text(tmp_path / "run"))
    identity, threads = library()
    assert manifest["cache"]["blas_library"] == identity
    assert manifest["cache"]["blas_threads"] == threads
    assert manifest["cache"]["pass_workers"] == pass_workers() == max(1, threads)
    assert identity.startswith("OpenBLAS")
    assert manifest["cache"]["numpy_version"] == np.__version__
    assert manifest["cache"]["numpy_simd_level"] == simd_level()
    with gemm_threads(1):
        manifest = json.loads(_run_manifest_text(tmp_path / "one"))
    assert (manifest["cache"]["blas_threads"], manifest["cache"]["pass_workers"]) == (1, 1)


def _run_manifest_text(out):
    _run(toy21_config(), out, n_points=120)
    return (out / "manifest.json").read_text()


# A parent that holds 320 MiB of touched memory runs `quniverse` as its child
_HOLDING_PARENT = """
import subprocess, sys
import numpy as np
held = np.ones(40 * 2**20)
subprocess.run([sys.executable, "-m", "quniverse.cli", *sys.argv[1:]], check=True)
"""


def test_manifest_peak_rss_is_the_run_process_own(tmp_path):
    # ru_maxrss would start from the parent's RSS, taken over at exec
    cfg_path = tmp_path / "toy21.cfg"
    cfg_path.write_text(toy21_config().canonical_string())
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", _HOLDING_PARENT, "run", "--config", str(cfg_path),
                    "--out", str(tmp_path / "out")],
                   env=env, check=True, capture_output=True, timeout=120)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert 0.0 < manifest["peak_rss_mb"] < 200.0


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


def test_cli_sticks_refuses_out_of_range_state_before_building(tmp_path, toy_cfg_file,
                                                               monkeypatch):
    _, cfg_path = toy_cfg_file
    out = tmp_path / "cli_run8"
    main(["run", "--config", str(cfg_path), "--out", str(out),
          "--states", "0", "--t-max-ps", "2.0", "--n-points", "30"])
    first, rest = (out / "traj_n0.csv").read_text().split("\n", 1)

    def refuse(*args, **kwargs):
        raise AssertionError("the universe was rebuilt for a refused state")

    monkeypatch.setattr(cli, "assemble_hamiltonian", refuse)
    sticks_out = tmp_path / "sticks.csv"
    # a trajectory file for a state the config does not have (toy6 has levels
    # 0..1), and two whose names do not say their state
    for name, state, message in (
            ("traj_n5.csv", "5", r"system level n=5 outside 0\.\.1"),
            ("state0.csv", "0", "cannot infer initial state from file name state0.csv"),
            ("traj_nx.csv", "0", "cannot infer initial state from file name traj_nx.csv")):
        traj = out / name
        traj.write_text(first.replace("state_n=0 ", f"state_n={state} ") + "\n" + rest)
        with pytest.raises(ValueError, match=message):
            main(["sticks", "--traj", str(traj), "--time", "1.0", "--out", str(sticks_out)])
        assert not sticks_out.exists()


@pytest.mark.parametrize("target, message", [
    ("adir", "adir: it is a directory"),
    ("afile/report.out", "afile is not a directory this process may write"),
    ("locked/new/report.out", "locked is not a directory this process may write"),
], ids=["existing_directory", "under_a_file", "under_an_unwritable_directory"])
@pytest.mark.parametrize("command, when", [("sticks", ["--time", "1.0"]), ("compare", [])],
                         ids=["sticks", "compare"])
def test_cli_sticks_and_compare_refuse_a_bad_out_before_building(tmp_path, monkeypatch,
                                                                 command, when, target,
                                                                 message):
    _run(toy6_config(alpha=0.2, rng_seed=31), tmp_path / "run")
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("a regular file\n")
    (tmp_path / "locked").mkdir()
    access = os.access
    # root passes every permission check, so the refusal is patched in
    monkeypatch.setattr(os, "access", lambda path, mode: (Path(path).name != "locked"
                                                          and access(path, mode)))

    def refuse(*args, **kwargs):
        raise AssertionError("the universe was built for a refused --out")

    monkeypatch.setattr(cli, "assemble_hamiltonian", refuse)
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(ValueError, match=message):
        main([command, "--traj", str(tmp_path / "run" / "traj_n1.csv"), *when,
              "--out", str(tmp_path / target)])
    assert sorted(tmp_path.rglob("*")) == before


def test_failed_rerun_leaves_no_manifest_and_no_partial_file(tmp_path, toy_cfg_file,
                                                             monkeypatch):
    cfg, _ = toy_cfg_file
    out = tmp_path / "run"
    _run(cfg, out)
    write_sticks = cli._write_sticks

    def fail_second_state(dest, config, n, *args):
        if n == 1:
            raise OSError("no space left on device")
        write_sticks(dest, config, n, *args)

    monkeypatch.setattr(cli, "_write_sticks", fail_second_state)
    with pytest.raises(OSError, match="no space left"):
        _run(cfg, out)
    assert not (out / "manifest.json").exists()
    assert sorted(p.name for p in out.glob("*.tmp")) == []
    sticks_out = tmp_path / "sticks.csv"
    with pytest.raises(FileNotFoundError, match="manifest.json not found"):
        main(["sticks", "--traj", str(out / "traj_n0.csv"), "--time", "1.0",
              "--out", str(sticks_out)])
    assert not sticks_out.exists()


@pytest.mark.parametrize("damage", ["cut", "not_object", "no_config", "config_not_object",
                                    "config_wrong_type", "outputs_null", "outputs_string"])
@pytest.mark.parametrize("command, when", [("sticks", ["--time", "1.0"]), ("compare", [])],
                         ids=["sticks", "compare"])
def test_damaged_manifest_refused_naming_it(tmp_path, command, when, damage):
    out = tmp_path / "run"
    run_experiment(toy21_config(), [0, 1, 2], out, t_max_ps=2.0, n_points=50)
    manifest = out / "manifest.json"
    if damage == "cut":
        manifest.write_bytes(manifest.read_bytes()[:100])
    else:
        record = json.loads(manifest.read_text())
        if damage == "not_object":
            record = list(record.items())
        elif damage == "no_config":
            del record["config"]
        elif damage == "config_not_object":
            record["config"] = None
        elif damage == "outputs_null":
            record["outputs"] = None
        elif damage == "outputs_string":
            record["outputs"] = "traj_n1.csv"
        else:
            record["config"]["alpha"] = str(record["config"]["alpha"])
        manifest.write_text(json.dumps(record))
    report = tmp_path / f"{command}.out"
    with pytest.raises(ValueError, match=f"^{re.escape(str(manifest))} is damaged .*; re-run"):
        main([command, "--traj", str(out / "traj_n1.csv"), *when, "--out", str(report)])
    assert not report.exists()


def test_cli_sticks_refuses_a_trajectory_the_manifest_does_not_list(tmp_path, monkeypatch):
    out = tmp_path / "run"
    run_experiment(toy21_config(), [0, 1, 2], out, t_max_ps=2.0, n_points=50)
    run_experiment(toy21_config(), [0], out, t_max_ps=2.0, n_points=50)
    assert (out / "traj_n1.csv").exists()  # left by the first run, with its seed and config

    def refuse(*args, **kwargs):
        raise AssertionError("the universe was rebuilt for an unlisted trajectory")

    monkeypatch.setattr(cli, "assemble_hamiltonian", refuse)
    # compare, too, checks the run directory beside the trajectory
    for command, when in (("sticks", ["--time", "1.0"]), ("compare", [])):
        report = tmp_path / f"{command}.out"
        with pytest.raises(ValueError, match="traj_n1.csv is not among the outputs of"):
            main([command, "--traj", str(out / "traj_n1.csv"), *when, "--out", str(report)])
        assert not report.exists()


def test_cli_sticks_and_compare_write_the_same_bytes_to_stdout(tmp_path, toy_cfg_file, capsys):
    cfg, _ = toy_cfg_file
    _run(cfg, tmp_path / "run")
    traj = str(tmp_path / "run" / "traj_n1.csv")
    for command, when in (("sticks", ["--time", "5.0"]), ("compare", [])):
        out = tmp_path / "reports" / f"{command}.out"  # --out's directory is made
        assert main([command, "--traj", traj, *when, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([command, "--traj", traj, *when]) == 0
        assert capsys.readouterr().out == out.read_text()
    assert sorted(p.name for p in tmp_path.rglob("*.tmp")) == []


# Every key of a toy21 manifest, nested keys as dotted paths; a key added,
# renamed or dropped shows here.
MANIFEST_KEYS = [
    "cache.blas_library", "cache.blas_threads", "cache.eig_residual", "cache.evicted",
    "cache.hit", "cache.key", "cache.numpy_simd_level", "cache.numpy_version",
    "cache.pass_workers",
    "code_version",
    "config.alpha", "config.coupling_scope", "config.degeneracy_A", "config.degeneracy_b",
    "config.energy_unit_wavenumbers", "config.kappa", "config.n_env_levels",
    "config.n_system_levels", "config.omega_E", "config.paper_compat",
    "config.random_initial_phases", "config.rng_seed",
    "config.total_energy",
    "constants.energy_unit_wavenumbers", "constants.kB_wavenumber_per_K",
    "constants.reduced_time_unit_ps",
    "draw_contract", "n_points", "outputs", "peak_rss_mb", "schema_version", "seed",
    "states", "t_max_reduced",
    "temperature.beta_reduced", "temperature.discrepancy_percent",
    "temperature.kbt_reduced", "temperature.kelvin", "temperature.kelvin_analytic",
    "temperature.kelvin_compat",
    "timing_seconds.back_transform", "timing_seconds.build_and_solve",
    "timing_seconds.check", "timing_seconds.divide_and_conquer", "timing_seconds.fill",
    "timing_seconds.load", "timing_seconds.observables", "timing_seconds.propagate",
    "timing_seconds.store", "timing_seconds.tridiagonalize", "timing_seconds.write",
]


def _key_paths(record, prefix=""):
    """The dotted path of every leaf of a JSON object; lists are leaves."""
    if not isinstance(record, dict):
        return [prefix.removesuffix(".")]
    return [path for key, value in record.items() for path in _key_paths(value, f"{prefix}{key}.")]


def test_manifest_has_the_recorded_key_tree(tmp_path):
    returned = run_experiment(toy21_config(), [0, 1, 2], tmp_path, t_max_ps=2.0, n_points=50)
    written = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(_key_paths(written)) == MANIFEST_KEYS
    assert written == json.loads(json.dumps(returned))  # run returns the dict it writes


# The stages that only a miss runs
MISS_STAGES = ("fill", "tridiagonalize", "divide_and_conquer", "back_transform", "store")


def test_manifest_times_the_stages_of_a_miss_and_a_hit(tmp_path):
    cold = run_experiment(toy21_config(), [0, 1, 2], tmp_path / "cold", t_max_ps=2.0,
                          n_points=120)
    warm = run_experiment(toy21_config(), [0, 1, 2], tmp_path / "warm", t_max_ps=2.0,
                          n_points=120)
    assert (cold["cache"]["hit"], warm["cache"]["hit"]) == (False, True)
    seconds = cold["timing_seconds"]
    assert all(seconds[name] > 0.0 for name in (*MISS_STAGES, "check")), seconds
    assert sum(seconds[name] for name in (*MISS_STAGES, "load", "check")) \
        <= seconds["build_and_solve"], seconds
    seconds = warm["timing_seconds"]
    assert seconds["load"] > 0.0 and seconds["check"] > 0.0, seconds
    assert all(seconds[name] == 0.0 for name in MISS_STAGES), seconds
    for manifest in (cold, warm):
        seconds = manifest["timing_seconds"]
        assert all(seconds[name] > 0.0 for name in ("propagate", "observables", "write"))
        assert seconds["load"] + seconds["check"] <= seconds["build_and_solve"]
        assert sorted(_key_paths(manifest)) == MANIFEST_KEYS


def test_each_run_records_only_its_own_stages(tmp_path):
    with model.recording() as outer:
        first = _run(toy21_config(), tmp_path / "first")
        second = _run(toy21_config(), tmp_path / "second")
    # the miss's stages stay in the first run's record, and neither reaches the caller's
    assert first["timing_seconds"]["fill"] > 0.0
    assert second["timing_seconds"]["fill"] == 0.0
    assert set(outer.seconds.values()) == {0.0}


def test_manifest_names_the_files_that_its_store_evicted(tmp_path, monkeypatch):
    older = Path(os.environ[CACHE_DIR_ENV]) / "older.npy"
    older.parent.mkdir(parents=True, exist_ok=True)
    older.write_bytes(bytes(3 * 2 ** 20))
    os.utime(older, (1, 1))
    monkeypatch.setenv(CACHE_MAX_MB_ENV, "1")
    assert _run(toy21_config(), tmp_path / "cold")["cache"]["evicted"] == ["older.npy"]
    assert not older.exists()
    assert _run(toy21_config(), tmp_path / "warm")["cache"]["evicted"] == []
    assert _run(toy6_config(), tmp_path / "fits")["cache"]["evicted"] == []


@pytest.mark.parametrize("n_points, refused", [(50000, True), (600, False)])
def test_run_refuses_a_pass_larger_than_memory_before_building(tmp_path, monkeypatch,
                                                               n_points, refused):
    monkeypatch.setattr(model, "machine_memory", lambda: (7 * 2 ** 30, 7 * 2 ** 30))

    def refuse(*args, **kwargs):
        raise AssertionError("the universe was built")

    monkeypatch.setattr(cli, "assemble_hamiltonian", refuse)
    config = ModelConfig(rng_seed=1)  # configs/production.cfg
    # the grid, V and the sums: 8.26e9 bytes at T = 50000
    error, message = ((MemoryError, r"^the pass of 6 states over 50000 times needs 8256 MB, "
                                    r"more than this machine's 7516 MB") if refused
                      else (AssertionError, "the universe was built"))
    with pytest.raises(error, match=message):
        run_experiment(config, list(range(6)), tmp_path / "out", n_points=n_points)
    assert not (tmp_path / "out").exists()


def test_run_sizes_a_random_phase_pass_on_two_columns_per_state(tmp_path, monkeypatch):
    # a machine between the pass of six real states and that of six
    # random-phase states, whose complex weights take two grid columns each
    config = ModelConfig(rng_seed=1)
    phased = dataclasses.replace(config, random_initial_phases=True)
    sums = 6 * 600 * sum_bytes(config)
    real, doubled = (dynamics.pass_bytes(c, 6, 600) + sums for c in (config, phased))
    assert doubled - real == 6 * 16 * 2 * 600 * 6 * 128  # one more grid per state
    memory = (real + doubled) // 2
    monkeypatch.setattr(model, "machine_memory", lambda: (memory, memory))

    def refuse(*args, **kwargs):
        raise AssertionError("the universe was built")

    monkeypatch.setattr(cli, "assemble_hamiltonian", refuse)
    with pytest.raises(AssertionError, match="the universe was built"):
        run_experiment(config, list(range(6)), tmp_path / "real", n_points=600)
    with pytest.raises(MemoryError, match=rf"^the pass of 6 states over 600 times needs "
                                          rf"{doubled / 1e6:.0f} MB, more than this machine's"):
        run_experiment(phased, list(range(6)), tmp_path / "phased", n_points=600)
    assert not (tmp_path / "phased").exists()


def test_cli_run_refuses_a_malformed_states_list(tmp_path, toy_cfg_file, capsys):
    _, cfg_path = toy_cfg_file
    with pytest.raises(SystemExit):
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
              "--states", "0,,1"])
    assert ("argument --states: expected comma-separated system levels, got '0,,1'"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_cli_sticks_refuses_a_solve_larger_than_memory_before_building(tmp_path,
                                                                      toy_cfg_file,
                                                                      monkeypatch):
    _, cfg_path = toy_cfg_file
    out = tmp_path / "cli_run9"
    main(["run", "--config", str(cfg_path), "--out", str(out),
          "--states", "0", "--t-max-ps", "2.0", "--n-points", "30"])
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "empty_cache"))
    monkeypatch.setattr(model, "machine_memory", lambda: (100, 100))

    def refuse(*args, **kwargs):
        raise AssertionError("H was built for a refused solve")

    monkeypatch.setattr(model, "build_hamiltonian_matrix", refuse)
    sticks_out = tmp_path / "sticks.csv"
    with pytest.raises(MemoryError, match=r"6 x 6 eigensolve needs 0 MB, more than "
                                          r"this machine's 0 MB"):
        main(["sticks", "--traj", str(out / "traj_n0.csv"), "--time", "1.0",
              "--out", str(sticks_out)])
    assert not sticks_out.exists()


@pytest.mark.parametrize("when, message", [
    (["--time", "nan"], "must be finite"),
    (["--time-ps", "inf"], "must be finite"),
    # phases E t past 2**40 rad, which `run` refuses too
    (["--time", "1e30"], "time 1e[+]30 is too long"),
    (["--time-ps=-1e28"], "is too long: the phases E t reach"),
], ids=["nan_time", "infinite_time_ps", "huge_time", "huge_negative_time_ps"])
def test_cli_sticks_refuses_non_finite_time(tmp_path, toy_cfg_file, monkeypatch, when, message):
    _, cfg_path = toy_cfg_file
    out = tmp_path / "cli_run7"
    main(["run", "--config", str(cfg_path), "--out", str(out),
          "--states", "1", "--t-max-ps", "2.0", "--n-points", "30"])

    def refuse(*args, **kwargs):
        raise AssertionError("the universe was rebuilt for a refused time")

    monkeypatch.setattr(cli, "assemble_hamiltonian", refuse)
    sticks_out = tmp_path / "sticks.csv"
    with pytest.raises(ValueError, match=message):
        main(["sticks", "--traj", str(out / "traj_n1.csv"), *when, "--out", str(sticks_out)])
    assert not sticks_out.exists()


@pytest.mark.parametrize("refused_by", ["config_bound", "eigenvalues"])
def test_run_and_sticks_refuse_phases_past_2_40_in_the_spectrum(tmp_path, monkeypatch,
                                                               refused_by):
    # At alpha 5 the couplings widen the spectrum of these 252 states to
    # |E| ~ 160, where the zero-order ladder reads 8: at t = 2**40 / 100 the
    # ladder's phases are inside 2**40 rad and the spectrum's are not.
    cfg = ModelConfig(n_env_levels=3, alpha=5.0)
    cfg_path = tmp_path / "wide.cfg"
    cfg_path.write_text(cfg.canonical_string())
    main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run"),
          "--states", "5", "--t-max-ps", "2.0", "--n-points", "30"])
    t = MAX_PHASE / 100
    ladder = (cfg.n_system_levels - 1) * abs(cfg.kappa) + cfg.n_env_levels * cfg.omega_E
    energies = cli.assemble_hamiltonian(cfg).eigenvalues  # a hit
    assert ladder * t <= MAX_PHASE < np.abs(energies).max() * t

    def refuse(*args, **kwargs):
        raise AssertionError(f"reached past the check by {refused_by}")

    if refused_by == "config_bound":
        monkeypatch.setattr(cli, "assemble_hamiltonian", refuse)
    else:
        # the config's bound as it was, from the ladder alone
        monkeypatch.setattr(cli, "_energy_bound", lambda config: ladder)
        monkeypatch.setattr(cli, "propagate_blocks", refuse)
        monkeypatch.setattr(cli, "propagate", refuse)
    t_ps = units.reduced_time_to_ps(t, cfg.energy_unit_wavenumbers)
    with pytest.raises(ValueError, match="is too long: the phases E t reach"):
        run_experiment(cfg, [5], tmp_path / "long", t_max_ps=t_ps, n_points=30)
    assert not (tmp_path / "long").exists()
    sticks_out = tmp_path / "sticks.csv"
    with pytest.raises(ValueError, match="the stick diagram time .* is too long"):
        main(["sticks", "--traj", str(tmp_path / "run" / "traj_n5.csv"), "--time", repr(t),
              "--out", str(sticks_out)])
    assert not sticks_out.exists()


@pytest.mark.parametrize("when", [[], ["--time", "1.0", "--time-ps", "5"]],
                         ids=["no_time", "both_times"])
def test_cli_sticks_needs_exactly_one_time(tmp_path, when):
    with pytest.raises(SystemExit) as exc:
        main(["sticks", "--traj", str(tmp_path / "traj_n1.csv"), *when])
    assert exc.value.code == 2


# sha256 of every toy21 output but the manifest (which records timings),
# for this package version, per kernel of numpy's OpenBLAS (which runs the
# solve and the GEMMs) and per SIMD level of numpy's own loops (`log` and
# `exp` among them), at the levels that hosts of each kernel run:
# OPENBLAS_CORETYPE and NPY_DISABLE_CPU_FEATURES emulate them.  Bump
# __version__ with every change that moves an output byte, and re-record
# these hashes under it for every kernel.
OUTPUT_SHA256 = {
    ("0.8.0", "SkylakeX", "X86_V4"): {
        120: {
            "anomalies.json": "1e0e6c1b26de6df42cb57eb51767ff56d8a1d47fe1e2bcbcdb12e8871a016980",
            "sticks_n0.csv": "d9414941112275c49d3619e6dad529b382ab83174559e207cb8ab43876b2bdcb",
            "sticks_n1.csv": "2bd46c014552242668c4e96277997795a98c7bf5ae441436f3efa0aa9e46d1a5",
            "sticks_n2.csv": "18777520c16b0a21dc51f8212f2f7589d8aed5a30e69c039438955127c4e7f1e",
            "sticks_t.csv": "0a16b46ac4adf0f3b2a2f8f1bdf0c44c35171710a819f027a67279b86bd24c76",
            "summary.json": "83e68c1566f54ec84d1dbb5f0ad12966cd981e368630f8623e0f2366b8bae4ce",
            "traj_n0.csv": "3b0c80a8543a7528126fe75d10a8fcea80354d29977df2c1de755d24cfd0b3a7",
            "traj_n1.csv": "1eaeeaa70b0d5e0c744233c4a9d16e091eded2905786d20295d9c98350b921bb",
            "traj_n2.csv": "66146a3a6b17b2d02dcbd595d5c5cc6a962d47e20dd323623e890f372856af16",
        },
        40: {
            "anomalies.json": "2becbc25acfc69ba07093192d740c7d867840fb06936709d263f36938f421aa8",
            "sticks_n0.csv": "275d00dee2273e9e9669fcda0336e06ebbc504950f7a8625c0ee538c07c22a7b",
            "sticks_n1.csv": "bff65a04f7c1c5e4351eb56b7df4f61d7bf9de17a100ae9e19df74648adb4295",
            "sticks_n2.csv": "281a4ec39ae104eea70307c7140286c815ee7ab2625ef158309db9e2770290ec",
            "sticks_t.csv": "0a16b46ac4adf0f3b2a2f8f1bdf0c44c35171710a819f027a67279b86bd24c76",
            "summary.json": "948790767d721406e3f1b4ac80298defcecd00d8ba5cef15eb1e198e2ce55ba4",
            "traj_n0.csv": "5ac85beadcf0fe3024b96cbbdfb5884ac82e7eb37aa0a9eb72aef05b354bff1d",
            "traj_n1.csv": "2005523530a08156dad6ff51dbf34f5489f56a4b4ece850702e79494fa8647b2",
            "traj_n2.csv": "50e77f8e32c15c70585629859b501959bc00be701c36d9746f58c4420df21a88",
        },
    },
    ("0.8.0", "Haswell", "X86_V3"): {
        120: {
            "anomalies.json": "a808c01e05c507099e36b65f8fbbfbc39bb1e9034fa4bdaeb305da4ecff07b1e",
            "sticks_n0.csv": "6a8415583b2c09bb4fdf22ee4cd30ec49e660b00e3dbc390d0705dc610d352b2",
            "sticks_n1.csv": "f6563908a86a51851bdeb7f58e40210b5991cd608c7e9471de303751e8c361a7",
            "sticks_n2.csv": "08faf479fc2253e201baf24e94306a1cc6eaabadc7849f58fdfa0ee32cf3fd8c",
            "sticks_t.csv": "08fce87490bc6a87e22e9cb70f8fefc902a80bd62f5ce73557a26a74216d1875",
            "summary.json": "29bb88bc20b0e1b10762eca1bdbb8701e8d503e69a29e96027f7861c08917d73",
            "traj_n0.csv": "8c15a1c0495ce586f5d99f84293bc07f77aab22f8b9676232058693d33312772",
            "traj_n1.csv": "94154f9cfdfd4760da3767844819ee98037a8fea5d2c3abe815a8e61d7e49676",
            "traj_n2.csv": "0d1294655f9cc68704b5203a9bdbb4e22a33ad76813a127532a8de33a4a9f7fa",
        },
        40: {
            "anomalies.json": "0756ef7a7a75e925ef2991c5086ea2ec538c2ef1615dcbffdf96c9f6e3ff080c",
            "sticks_n0.csv": "4c8ee8b0a084253e2c443d4e7919db2f026e3cc215ba604fbb6c2a6490d2c22b",
            "sticks_n1.csv": "d09ad944fe23f7e24785886cae790ef06228c75085cf290d0ebe416fa4ec59d7",
            "sticks_n2.csv": "b08d5616a661fb7f7a243f86a4213492121f96384105f889a16a0da5863645a3",
            "sticks_t.csv": "08fce87490bc6a87e22e9cb70f8fefc902a80bd62f5ce73557a26a74216d1875",
            "summary.json": "75025fdf6bbccff7beadbe247f5db78044c92bb44cac5791f5a4b1e9052c9234",
            "traj_n0.csv": "aeb06bb6b34964fc67577ae92a623cf90ff882526c2ec89597b86d8326eeed19",
            "traj_n1.csv": "19db97094944fcf66ed3ac094381b73d9a05350fbcc02f0bd0d23750e81126cf",
            "traj_n2.csv": "e6b815125410590ceadd54227669d6756448a5112e3aac1dea64f28a1305280b",
        },
    },
    ("0.8.0", "Sandybridge", "X86_V2"): {
        120: {
            "anomalies.json": "9dcb3a03430beab61673de08d47386d7f22bc2500c8bd8356464a217f5ee60ea",
            "sticks_n0.csv": "5e0f5dffe2b00ec05c291e3236ed48cb67ba5cd194098cf66ca686a32aecfde2",
            "sticks_n1.csv": "33eb6eec2b22301dfbcf98b373d8a2f73aaeaf1b836b8b395f7c9c8d872c19f8",
            "sticks_n2.csv": "3848ee72ec266f9307009514270e3c222f2718f8abe331f805ce7cda24424daf",
            "sticks_t.csv": "4d3a783a60ad190d1d5c5c93e549c80263443cb7d367f2b0cc3dc7c1195d24f8",
            "summary.json": "c815918972346f5f09087bac63d482362536b2110c94d2580cb2f5ec53a40ae0",
            "traj_n0.csv": "d6520f67e771f2d60b3e9d173bec7134fc4d3caddb402af7589479e71a9b029a",
            "traj_n1.csv": "8505af3193b5092b767f0625dca6acc0512c39c7f3467f7d0c901df40d229345",
            "traj_n2.csv": "60c03aeb883e2a036cdf12c514587baa5ce05a0cde9582650c332f4df96ce978",
        },
        40: {
            "anomalies.json": "30dcd4ded6e6d283832e5d0937754f7b1301b5331fa1eff5b720f97839ee871f",
            "sticks_n0.csv": "058a24382a5740fe8a5b6883f99e7950869580c388b4dc0c1cdf14fde1b654f5",
            "sticks_n1.csv": "c3e7e5e54dcd5ca0080599e882642977b48f1296946fbdcfbf5d8b4fdbe33de3",
            "sticks_n2.csv": "578aa8d15f797d2ab536daeb813a86b748c0f16073d75d978ca45c28698681b9",
            "sticks_t.csv": "4d3a783a60ad190d1d5c5c93e549c80263443cb7d367f2b0cc3dc7c1195d24f8",
            "summary.json": "da8fc2865f2275dfc354af2589f51dc98d339608540a40d7b7af6e591b92e7fe",
            "traj_n0.csv": "0e6cefd252383ffbd39f7c79551c5108abcf4176fb87b1d124ae3ecc8bd1921d",
            "traj_n1.csv": "c17cc3a1940b7ee235dd2c4dd2dd5bbe6e2688a0323bccadfb211be1d8163fda",
            "traj_n2.csv": "c8535a5ca70673377c2f70a097999f8e3e17dc4b2c2ca04a68525c6712fca8ab",
        },
    },
    ("0.8.0", "Nehalem", "X86_V2"): {
        120: {
            "anomalies.json": "a6f73082c98a44f80ddc6138aba8e0798f458f2ae6b2f98ceb654b3c5cfdcfba",
            "sticks_n0.csv": "3571efa493a445620c5134335b2db732ca97bb4644574796a77a5f34a98f8342",
            "sticks_n1.csv": "40b31002f5a08dd02b7acd1fb35f7f69935f7de3d80d171134c856a869d54f3f",
            "sticks_n2.csv": "226e0b775476e4dfdc706c62548c3b71fc275323ae8b66228d1bc6f3ddba0aa6",
            "sticks_t.csv": "5a8b0333bc306be961e89f44b5bda639f0b8f971fd97b3a97f9ee762ddc28c3d",
            "summary.json": "b156442b79f5417a4ca220b739b15a6cb7f05e3cbf2d91571fc7cff71982e3e3",
            "traj_n0.csv": "a0ee97d399498e13ff7f1f7eb7585a6bdc5d7e9f3d47109c5edd5cd73523da5d",
            "traj_n1.csv": "f0969cae7b2b7d2319087890b5c7aeb48f4413f6a36fb04c4fc0ede4eaf6aab3",
            "traj_n2.csv": "a6d396d946012e5297992a565ae8835a248318cd28694b875a79eddbd4770c7f",
        },
        40: {
            "anomalies.json": "e358c8923384f4c9be56268732b3f44a678a3f4a55dfad66d451c1cd3828d52a",
            "sticks_n0.csv": "07e5e55befbe5d02b4669bd53c4440961cab76ee180bacbbf2f84789dbbd70ca",
            "sticks_n1.csv": "2e0c04723c906683d396ed1346bd32074b8b40dd02b88b1c7cd07ac969f89ebe",
            "sticks_n2.csv": "6169a11db022825d51863c487f08a31bd69b276289fa17fd891260443e61f498",
            "sticks_t.csv": "5a8b0333bc306be961e89f44b5bda639f0b8f971fd97b3a97f9ee762ddc28c3d",
            "summary.json": "32ab42aac328880b594aeb9bcde1eff92ae6c2d810152176db14a48db21a543e",
            "traj_n0.csv": "ccd126db36da08983e26938ddd5be18f52763a6f97ee42bffd66a71ceac7eece",
            "traj_n1.csv": "7426c45934f6b7414becae164071c5b6e209854ef93542c176f9bcffac0e1b42",
            "traj_n2.csv": "7a329128164fe3b060571dfa4c111d0db8d9c2b9f7efe2b115a6847d1bd033c5",
        },
    },
}


def test_package_metadata_has_this_version():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    assert pyproject["project"]["version"] == __version__


def _kernel(config: str) -> str:
    """The kernel an OpenBLAS config string names: "... NO_AFFINITY SkylakeX MAX_THREADS=64"."""
    return [word for word in config.split() if "=" not in word][-1]


@pytest.mark.parametrize("n_points", [120, 40], ids=["nufft", "direct"])
def test_outputs_pinned_for_this_version(tmp_path, n_points):
    run_experiment(toy21_config(), [0, 1, 2], tmp_path, n_points=n_points)
    main(["sticks", "--traj", str(tmp_path / "traj_n1.csv"), "--time", "7.5",
          "--out", str(tmp_path / "sticks_t.csv")])
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(tmp_path.iterdir()) if path.name != "manifest.json"}
    key = (__version__, _kernel(library()[0]), simd_level())
    assert key in OUTPUT_SHA256, (
        f"no output hashes recorded for version {key[0]} with numpy's OpenBLAS kernel "
        f"{key[1]} at numpy's SIMD level {key[2]}; add OUTPUT_SHA256[{key!r}] with "
        f"{n_points}: {got!r}")
    assert {version for version, _, _ in OUTPUT_SHA256} == {__version__}, (
        "OUTPUT_SHA256 holds this version's hashes only: re-record them for every kernel")
    assert got == OUTPUT_SHA256[key][n_points]


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


# A warm process imports no scipy module, and a cold one no more than
# scipy.special, for the full fill of H: the solve and the cache key read
# numpy's OpenBLAS.
_CALLS = """
import json, sys
import quniverse.cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

loaded = {"import": scipy_modules()}
for name, argv in json.loads(sys.argv[1]):
    assert quniverse.cli.main(argv) == 0, name
    loaded[name] = scipy_modules()
print(json.dumps(loaded))
"""


def _modules_loaded_by(calls):
    """{"import": scipy modules after `import quniverse.cli`, name: after each call} of a
    fresh interpreter that makes the CLI calls `calls`, [(name, argv), ...], in order."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _CALLS, json.dumps(calls)], env=env,
                          check=True, capture_output=True, text=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])  # after what the calls print


def test_warm_run_sticks_and_compare_import_no_scipy_submodule(tmp_path):
    cfg_path = tmp_path / "toy21.cfg"
    cfg_path.write_text(toy21_config().canonical_string())
    cold = _modules_loaded_by([("run", ["run", "--config", str(cfg_path),
                                        "--out", str(tmp_path / "cold")])])  # fills the cache
    special = subprocess.run(
        [sys.executable, "-c", "import json, sys, scipy.special; "
         "print(json.dumps([name for name in sys.modules if name.split('.')[0] == 'scipy']))"],
        check=True, capture_output=True, text=True).stdout
    assert set(cold["run"]) <= set(json.loads(special)), cold["run"]
    assert not any(name.startswith("scipy.linalg") for name in cold["run"])
    assert not json.loads((tmp_path / "cold" / "manifest.json").read_text())["cache"]["hit"]
    warm, traj = tmp_path / "warm", str(tmp_path / "warm" / "traj_n1.csv")
    loaded = _modules_loaded_by([
        ("run", ["run", "--config", str(cfg_path), "--out", str(warm)]),
        ("sticks", ["sticks", "--traj", traj, "--time", "7.5",
                    "--out", str(tmp_path / "sticks.csv")]),
        ("compare", ["compare", "--traj", traj, "--out", str(tmp_path / "compare.json")])])
    assert loaded == {"import": [], "run": [], "sticks": [], "compare": []}
    manifest = json.loads((warm / "manifest.json").read_text())
    # a cache hit, on the NUFFT path
    assert manifest["cache"]["hit"] and manifest["n_points"] >= NUFFT_MIN_TIMES


# Waits until no thread's CPU ticks move, so that OpenBLAS's workers have
# spun out their start-up, then runs the CLI calls json.loads(argv[1]) and
# prints the library's thread count and the ticks that each thread which
# existed before the calls, but the main one, gained in them.
_WORKER_TICKS = """
import json, os, sys, time
import quniverse.cli
from quniverse.blas import library

def ticks():
    found = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:  # the thread has exited
            continue
        found[int(tid)] = int(fields[11]) + int(fields[12])  # utime + stime
    return found

before = ticks()
while True:
    time.sleep(0.25)
    now, before = before, ticks()
    if now == before:
        break
for argv in json.loads(sys.argv[1]):
    assert quniverse.cli.main(argv) == 0, argv
after = ticks()
gained = {tid: after.get(tid, n) - n for tid, n in before.items() if tid != os.getpid()}
print(json.dumps({"threads": library()[1], "gained": gained}))
"""


def test_cache_hit_run_sticks_and_compare_wake_no_openblas_worker(tmp_path):
    # Every product of a hit runs on one OpenBLAS thread, so the library's
    # idle workers stay asleep; a woken one spins ~2**28 cycles on a core
    # that a pass worker needs
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc to read the threads' CPU ticks from")
    cfg_path = tmp_path / "mid.cfg"
    cfg_path.write_text(ModelConfig(n_env_levels=6, rng_seed=1).canonical_string())
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=str(SRC),
               **{CACHE_DIR_ENV: str(tmp_path / "cache")})
    subprocess.run([sys.executable, "-m", "quniverse.cli", "run", "--config", str(cfg_path),
                    "--out", str(tmp_path / "cold"), "--states", "0,3", "--n-points", "120"],
                   env=env, check=True, capture_output=True, timeout=120)  # fills the cache
    warm, traj = tmp_path / "warm", str(tmp_path / "warm" / "traj_n3.csv")
    calls = [["run", "--config", str(cfg_path), "--out", str(warm), "--states", "0,3",
              "--n-points", "120"],
             ["sticks", "--traj", traj, "--time-ps", "12.0", "--out", str(tmp_path / "s.csv")],
             ["compare", "--traj", traj, "--out", str(tmp_path / "compare.json")]]
    done = subprocess.run([sys.executable, "-c", _WORKER_TICKS, json.dumps(calls)], env=env,
                          check=True, capture_output=True, text=True, timeout=120)
    found = json.loads(done.stdout.splitlines()[-1])
    if found["threads"] < 2:
        pytest.skip(f"numpy's OpenBLAS runs {found['threads']} thread here")
    assert json.loads((warm / "manifest.json").read_text())["cache"]["hit"]
    assert found["gained"] and not any(found["gained"].values()), found["gained"]
