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
from quniverse.cache import CACHE_DIR_ENV, CACHE_MAX_MB_ENV, store_eigensystem
from quniverse.config import ModelConfig
from quniverse.cli import MAX_PHASE, compare_free_energy, main, read_trajectory, run_experiment
from quniverse.dynamics import NUFFT_MIN_TIMES
from quniverse.model import build_system_levels, cache_key
from quniverse.observables import (
    EIGENVALUE_CLIP_TOL,
    HERMITICITY_TOL,
    MAJORIZATION_TOL,
    NORM_TOL,
    RECONSTRUCTION_TOL,
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


# The fields of `compare`'s report that each state's summary row repeats
AGREEMENT_FIELDS = ("late_mean_abs_difference", "late_relative_discrepancy",
                    "transient_flagged", "transient_end_reduced")


@pytest.mark.parametrize("n_points", [120, 40], ids=["nufft", "direct"])
def test_summary_agrees_with_the_files_it_summarizes(tmp_path, n_points):
    cfg = toy21_config()
    run_experiment(cfg, [0, 1, 2], tmp_path, t_max_ps=2.0, n_points=n_points)
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
        # the paper's test, made on the columns in memory, is compare's on the CSV
        report = compare_free_energy(tmp_path / f"traj_n{row['n']}.csv")
        assert {f: row[f] for f in AGREEMENT_FIELDS} == {f: report[f] for f in AGREEMENT_FIELDS}


def test_summary_reports_numerical_health_within_gates(tmp_path):
    run_experiment(toy21_config(), [0, 1, 2], tmp_path, t_max_ps=2.0, n_points=120)
    summary = json.loads((tmp_path / "summary.json").read_text())
    for row in summary["states"]:
        health = row["health"]
        assert set(health) == {"max_reconstruction_error", "max_norm_error",
                               "max_rdm_hermiticity_error", "max_rdm_trace_error",
                               "min_rdm_eigenvalue", "min_majorization_slack"}
        assert 0.0 <= health["max_reconstruction_error"] <= RECONSTRUCTION_TOL
        assert 0.0 <= health["max_norm_error"] <= NORM_TOL
        assert 0.0 <= health["max_rdm_hermiticity_error"] <= HERMITICITY_TOL
        assert 0.0 <= health["max_rdm_trace_error"] <= TRACE_TOL
        assert health["min_rdm_eigenvalue"] >= -EIGENVALUE_CLIP_TOL
        assert health["min_majorization_slack"] >= -MAJORIZATION_TOL


@pytest.mark.parametrize("n_points", [120, 40], ids=["nufft", "direct"])
def test_run_refuses_an_entry_whose_eigenvectors_do_not_reconstruct_the_states(
        tmp_path, mid_ham, n_points):
    # one element of V off by 1e-9, outside the rows and columns that the
    # eigen check reads, so that the entry is a hit and passes every other gate
    cfg, ham = mid_ham
    columns = np.linspace(0, ham.dim - 1, model.CHECK_COLUMNS).astype(np.intp)
    assert 1500 >= model.CHECK_ROWS and 1001 not in columns
    damaged = np.array(ham.eigenvectors)
    damaged[1500, 1001] += 1e-9
    store_eigensystem(ham.key, ham.eigenvalues, damaged)
    with pytest.raises(ValueError, match=rf"do not reconstruct .* at t=0\.0; "
                                         rf"eigensystem key {ham.key}, cache hit: true$"):
        run_experiment(cfg, list(range(6)), tmp_path / "out", n_points=n_points)
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("overrides, states", [
    (dict(total_energy=0), [0]),                 # level 1 would need rung m = -1
    (dict(total_energy=2, n_env_levels=2), [1, 2]),  # level 0 would need rung m = 2
], ids=["total_energy_0", "two_rungs"])
def test_run_defaults_to_the_levels_with_an_environment_rung(tmp_path, capsys, overrides,
                                                             states):
    path = tmp_path / "universe.cfg"
    path.write_text(toy21_config(**overrides).canonical_string())
    out = tmp_path / "run"
    assert main(["run", "--config", str(path), "--out", str(out),
                 "--t-max-ps", "2.0", "--n-points", "40"]) == 0
    assert sorted(out.glob("traj_n*.csv")) == [out / f"traj_n{n}.csv" for n in states]


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


def test_cli_seed_and_compat_overrides(tmp_path, toy_cfg_file, capsys):
    # --seed overrides the config file's seed; paper_compat is set in the file alone
    cfg, _ = toy_cfg_file
    cfg_path = tmp_path / "compat.cfg"
    cfg_path.write_text(dataclasses.replace(cfg, paper_compat=True).canonical_string())
    out = tmp_path / "cli_run2"
    rc = main(["run", "--config", str(cfg_path), "--out", str(out),
               "--states", "0", "--seed", "77", "--t-max-ps", "1.0", "--n-points", "20"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 77
    assert manifest["config"]["paper_compat"] is True
    assert manifest["temperature"]["kelvin"] == 230.41
    with pytest.raises(SystemExit) as refused:
        main(["run", "--config", str(cfg_path), "--out", str(out), "--paper-compat"])
    assert refused.value.code == 2
    assert "unrecognized arguments: --paper-compat" in capsys.readouterr().err


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
    "cache.pass_workers", "cache.solve", "cache.trace_residual",
    "code_version",
    "config.alpha", "config.degeneracy_A", "config.degeneracy_b",
    "config.energy_unit_wavenumbers", "config.kappa", "config.n_env_levels",
    "config.n_system_levels", "config.omega_E", "config.paper_compat",
    "config.random_initial_phases", "config.rng_seed",
    "config.total_energy",
    "constants.energy_unit_wavenumbers", "constants.kB_wavenumber_per_K",
    "constants.reduced_time_unit_ps",
    "draw_contract", "n_points", "outputs", "peak_rss_mb", "planned_pass_bytes", "seed",
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
    # a miss in this test's cache directory, and the bytes that the request's check planned
    assert written["cache"]["solve"] == "dsyevd"
    assert written["planned_pass_bytes"] == (dynamics.pass_bytes(toy21_config(), 3, 50)
                                             + sum_bytes(toy21_config(), 3, 50))


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
    monkeypatch.setattr(model, "machine_memory", lambda: (5 * 2 ** 30, 5 * 2 ** 30))

    def refuse(*args, **kwargs):
        raise AssertionError("the universe was built")

    monkeypatch.setattr(cli, "assemble_hamiltonian", refuse)
    config = ModelConfig(rng_seed=1)  # configs/production.cfg
    # the block, one level's plane, V and the sums: 5.84e9 bytes at T = 50000, which
    # a 7 GiB machine holds and a 5 GiB one does not
    error, message = ((MemoryError, r"^the pass of 6 states over 50000 times needs 5837 MB, "
                                    r"more than this machine's 5369 MB") if refused
                      else (AssertionError, "the universe was built"))
    with pytest.raises(error, match=message):
        run_experiment(config, list(range(6)), tmp_path / "out", n_points=n_points)
    assert not (tmp_path / "out").exists()


def test_run_sizes_a_random_phase_pass_on_two_columns_per_state(tmp_path, monkeypatch):
    # a machine between the pass of six real states and that of six
    # random-phase states, whose complex weights take two grid columns each
    config = ModelConfig(rng_seed=1)
    phased = dataclasses.replace(config, random_initial_phases=True)
    real, doubled = (dynamics.pass_bytes(c, 6, 600) + sum_bytes(c, 6, 600)
                     for c in (config, phased))
    # per state, a second column's plane (2T x 128 complex values), plan and
    # weights (33 doubles per eigenpair) and spreading products; the yielded
    # block holds each state's complex modes either way
    assert doubled - real == 6 * (16 * 2 * 600 * 128 + 8 * 9180 * 33 + 16 * 6 * 128 * 16)
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
# and of compare's report on traj_n1.csv, for this package version, per
# kernel of numpy's OpenBLAS (which runs the solve and the GEMMs) and per
# SIMD level of numpy's own loops (`log` and `exp` among them), at the
# levels that hosts of each kernel run: OPENBLAS_CORETYPE and
# NPY_DISABLE_CPU_FEATURES emulate them.  Bump __version__ with every
# change that moves an output byte, and re-record these hashes under it
# for every kernel.
OUTPUT_SHA256 = {
    ("0.11.0", "SkylakeX", "X86_V4"): {
        120: {
            "anomalies.json": "9abdf369406588ef0f7b11405fc98ffc26dc57b30b3acb801a8eb162644770ec",
            "compare_n1.json": "9cd5f904c971389e26a5627f539c57642b145bad0d4785af01a53cbb7e195e67",
            "sticks_n0.csv": "75cde56f770b0dfbc3ad1594e083b88001fc7e95c37e55a7b5627659c1b72ddc",
            "sticks_n1.csv": "9a45060ae2f527ffbf33662074b1e5cb42552f57ae5ba0478c1d4a8209528753",
            "sticks_n2.csv": "60c9523bb7ce6345161675f285916f9608c2fdb7ca41b3f78733a67e2059e996",
            "sticks_t.csv": "19ebc6094b791c625688d5e343773293f174be47fb9319ec963320c001ffcc8f",
            "summary.json": "191bd451c2c95c4495341870146ae9ba7248cfedabef756baaa6c207499ad351",
            "traj_n0.csv": "ed5f6fd6bcc021bba781ef02b0c0dab7db5ab86e58db681bfb7abcb18f59a80d",
            "traj_n1.csv": "8126eec9753395e4e76e114d025cc36ea5ded0160533b99316966a1abda8935f",
            "traj_n2.csv": "369ec883b925f2f3c1f516de1534a76b4a8f76e9c9358a223ee8a7989ed7e12b",
        },
        40: {
            "anomalies.json": "2becbc25acfc69ba07093192d740c7d867840fb06936709d263f36938f421aa8",
            "compare_n1.json": "b1d559040964f002c340f6dc655f4227b7a334b96b7da82b4a9f7460ab4f44ee",
            "sticks_n0.csv": "2003faf53b093b7f02bfd85fe61f3f519ab7f658321a1c642ed30942121e4481",
            "sticks_n1.csv": "777477e1d6f92a459974e3315aaca8502b024b68125b51e6e5c4d6885343514b",
            "sticks_n2.csv": "e0901d7c9a93aef4f331d3f233971db32428544114d4a9d8718ad26763a85ef5",
            "sticks_t.csv": "19ebc6094b791c625688d5e343773293f174be47fb9319ec963320c001ffcc8f",
            "summary.json": "d95387b48177c965ad15ba2d1a877e4190d28425b6447a4fead41a08abc4850c",
            "traj_n0.csv": "67ddc644c29ca7b2301f6827594107f9db0ab0eb47dfa67733e3195bc9b13a27",
            "traj_n1.csv": "8c555467b67bbb5ba5e2dedce0797f81bd042caac9083211f67fc260ecc37a31",
            "traj_n2.csv": "960ef01ef42c751b98c155ed594d7767af8fe1fb7ca7f2db96b408a878b640df",
        },
    },
    ("0.11.0", "Haswell", "X86_V3"): {
        120: {
            "anomalies.json": "d57717d490d71e475a6b212dccddcf05875a04558f203eb22ca069255fda379c",
            "compare_n1.json": "ce0a6b40713c9564f1d71e8babcf35c76bea0da67cb61f1842d51f0ce15640db",
            "sticks_n0.csv": "21fd4d11092dead3d6b665a99253bb6063bd7ddd5dab459335cce5c69dcdce41",
            "sticks_n1.csv": "bcf58b4af9938914bfe3175d9e95b2a0c917d9c94d2e8f80a234542e8e3d511e",
            "sticks_n2.csv": "dd45e97421ab8447629833c237f9b040d90ecb5d442e151ca0d430b9e5c3c6f4",
            "sticks_t.csv": "aef31efae2f9c5a7033a504f9794cf78c5e03bbb71df1cd9439c67a649468977",
            "summary.json": "918dd993ca9f70435b384a3d7a1daa00dcacffa7de4ba6b4b3664d5ba0a100a1",
            "traj_n0.csv": "334ed4700cdb45303c5ffdc9a1257796701a2b85bdfb9ad231430ca94ac630a2",
            "traj_n1.csv": "a8a67209fee78d8297e51c0800b50011cbe6942b28f337614cdbe844b3e9b0ba",
            "traj_n2.csv": "4e1583d292a894ca432388b9a2578977d340e983cd318593e3aaefbf7ec08ac3",
        },
        40: {
            "anomalies.json": "0756ef7a7a75e925ef2991c5086ea2ec538c2ef1615dcbffdf96c9f6e3ff080c",
            "compare_n1.json": "843a24264422a9a4dab3d2f3cc26ee523cfd365d822e626702c611816d9a0c96",
            "sticks_n0.csv": "198bb8722ab6ccad78bef55d6680b9c286b5bd86b82c1354241bbec79713dcfd",
            "sticks_n1.csv": "b192414f8f5e916d83333e38df4396e89063cb1eb5a524ca3c3839fc52d2b45b",
            "sticks_n2.csv": "3bdb60b55609d908811c43d87818b6b02be40c82d68ced8df8c82ccbb31f2b3b",
            "sticks_t.csv": "aef31efae2f9c5a7033a504f9794cf78c5e03bbb71df1cd9439c67a649468977",
            "summary.json": "71a49eb88307e6b7387e62e982f5d063bb73d11ebd9a14753b9d2fc631bfbd47",
            "traj_n0.csv": "31dbe585087cdcc8ded7cd1e108ecfad341a9dee4344d22fb2b919f8c956d9f1",
            "traj_n1.csv": "014e01bd30dce0accb8641aa14c1cf9db8b8290809f0f795965e673bac737008",
            "traj_n2.csv": "33cb698130f1767ca2945811704f5a57ff6d68de4480baef9b04e50fdd4bff62",
        },
    },
    ("0.11.0", "Sandybridge", "X86_V2"): {
        120: {
            "anomalies.json": "114738b15e2f764c2d985590ac597c0e5c08512787f7768ff9c7d07d79029530",
            "compare_n1.json": "1c74bd592f50dc8426535c3bf29acf2cc07a280b8eeb88dd2e170906fb9f068a",
            "sticks_n0.csv": "5922311653b21407145e4c32c26c5ab16a4b77fdd550b0ad0495e635c3eab86a",
            "sticks_n1.csv": "ecae5cba78c6e3961b80fdf0425d32a32493c09af471f98ba93e29654a4a4c2d",
            "sticks_n2.csv": "ebf8a16a47a233cd2b8235ea784773894c2315c6a82a0806753c621fe7ae9a3a",
            "sticks_t.csv": "58f51a1ecaadd6911ccaac3048f25d5c7f5fe44fd0c64abd41cc8987a185ef00",
            "summary.json": "6241b959a2cb259b7c9a4b636ccc70ad4e68045cddbc2c30fc897c633800127a",
            "traj_n0.csv": "63c7f0fd983a402ceeac507bd83d5b663dfae221f0c15267ba0b113d67748262",
            "traj_n1.csv": "e562b17bc684c365978e50da6aacbca366ac75ae8e94970c2c41610a2b1a7f93",
            "traj_n2.csv": "d2446cbea6120e43e33d2dc21d4d8e7db63edc784816014ee1706e3fb6d2f7a9",
        },
        40: {
            "anomalies.json": "30dcd4ded6e6d283832e5d0937754f7b1301b5331fa1eff5b720f97839ee871f",
            "compare_n1.json": "a9610c4736bed992c8b1f9c287fabf3db202c9e8c5107b1effb8879f7e2b79be",
            "sticks_n0.csv": "be4d0d99c6c6358d40a7a3cc3878fe5579db77178894ebc9f7f3c46e38ba8c72",
            "sticks_n1.csv": "7eb2a7b42de1caaddd4135e19143af99444a3eb29089218cdfd7ce44b2704220",
            "sticks_n2.csv": "e3e3f5c10f85a8bac1d8996b936a44062c11856306c137425af4a64e1f4b0e61",
            "sticks_t.csv": "58f51a1ecaadd6911ccaac3048f25d5c7f5fe44fd0c64abd41cc8987a185ef00",
            "summary.json": "fa7562b87a2c19cc27714d8bef201015cd8daea88f8b0e4d0beb95c266ee3882",
            "traj_n0.csv": "6b6ff49412c51b39b348afe501c0e7fd6566035f0551549a358e7e071a7fce1a",
            "traj_n1.csv": "4172155913eab4e7e63cfa34f082462676ccbb199b0e11d6c329c59ae5eb9c20",
            "traj_n2.csv": "feff80a96f1a7fd2eec2728bf2d8b2b90fc04d489da1af7bbf61f54b5bcfda29",
        },
    },
    ("0.11.0", "Nehalem", "X86_V2"): {
        120: {
            "anomalies.json": "07f3eb1b47ca01347cb728f5271aaf3c829c47650c8e258d0614c1abd762f503",
            "compare_n1.json": "82ef33b4cb2faa1b5ed1391968837e4d3f038f83f633538935cf424e34ec09d8",
            "sticks_n0.csv": "8cf079523f5db79f6b3afbc76a42636e19669c179aa7ad4e79368e679306773a",
            "sticks_n1.csv": "7ee58eb44621cde8957f0d70a1a12c66ca0a041e2c29538c94f992592352d741",
            "sticks_n2.csv": "752a77f8dfca7186c09bef567a3a69b2e13590ff2ae787161c79e652096c9859",
            "sticks_t.csv": "353e4b665ad754cd1387c0ca8045a327016f9294b0b3371d6b49e2e54cb2281e",
            "summary.json": "a47b4c80dcb5a8c2870373f26e938537a4d4322295a18139ffc2c110cb3eb3f8",
            "traj_n0.csv": "e654f0d1ef1e8bea52d0434557952fe7b727c3a706058354ee563c1d7ec5a1a6",
            "traj_n1.csv": "f99aff5da7933dda9b240ce032a3f7cfdc84c3e2e9a2d20ad42621397b56ea85",
            "traj_n2.csv": "31208ace42241eb56c3c6006baee15bf27a6c9fd36ef9c6c897c811168fa3580",
        },
        40: {
            "anomalies.json": "e358c8923384f4c9be56268732b3f44a678a3f4a55dfad66d451c1cd3828d52a",
            "compare_n1.json": "dac330327f33ed1ea88c987087cc3eb88a3e8abe4b98641f49499148c65d5ba4",
            "sticks_n0.csv": "58240c769d59d6459488fa584a5e381b46c7494ede0918058cffa507fe46aec4",
            "sticks_n1.csv": "1e733a97a64a2b53d386dab1368687ae6a07b9e0887a019dd394098eb463ad1f",
            "sticks_n2.csv": "84e1919c9f0cdb101d6cabd275747046da2387731a416acaeecb4315d6b70131",
            "sticks_t.csv": "353e4b665ad754cd1387c0ca8045a327016f9294b0b3371d6b49e2e54cb2281e",
            "summary.json": "298a5999a910f4a6847c5f5c98bf0d6336976d0d9a26ed34958dd3fd41581aae",
            "traj_n0.csv": "52600a5f539308373276f21ebcb1f423bcf7f638fdfbe133564e442c64aa9ea9",
            "traj_n1.csv": "0fbd2f4c0ddb715c25d8aa4129c6e986a24efd955d78c28a4f5fdcbc2093f593",
            "traj_n2.csv": "baa15f83441fc7ba6c86a9dc7e7c8e9a9c534f8095e429fa1c618d26558c727b",
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
def test_outputs_pinned_for_this_version(tmp_path, monkeypatch, n_points):
    run_experiment(toy21_config(), [0, 1, 2], tmp_path, n_points=n_points)
    main(["sticks", "--traj", str(tmp_path / "traj_n1.csv"), "--time", "7.5",
          "--out", str(tmp_path / "sticks_t.csv")])
    # from inside the run, so that the report's "trajectory" names no machine's path
    monkeypatch.chdir(tmp_path)
    main(["compare", "--traj", "traj_n1.csv", "--out", "compare_n1.json"])
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
