"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to watch the lines live.
The production-size runs (criteria 3-7) share one eigendecomposition per
seed through the on-disk cache, so only the first execution pays the
dense-solver cost.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from quniverse.cli import compare_free_energy, read_trajectory, run_experiment
from quniverse.config import ModelConfig
from quniverse.dynamics import initial_state, propagate
from quniverse.model import assemble_hamiltonian, build_system_levels

from conftest import hamiltonian_matrix
from oracles import expectation, reduced_density_matrix, universe_entropy, von_neumann_entropy

SEEDS = (1, 2, 3)
STATES = tuple(range(6))
T_MAX_PS = 30.0
N_POINTS = 600


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed: {detail}"


def production_config(seed: int) -> ModelConfig:
    return ModelConfig(rng_seed=seed, paper_compat=True)


@pytest.fixture(scope="session")
def production_runs(tmp_path_factory):
    """Full production-size runs: all six initial states for three seeds."""
    runs = {}
    for seed in SEEDS:
        out = tmp_path_factory.mktemp(f"production_seed{seed}")
        cfg = production_config(seed)
        run_experiment(cfg, list(STATES), out,
                       t_max_ps=T_MAX_PS, n_points=N_POINTS)
        runs[seed] = {
            "config": cfg,
            "out": Path(out),
            "summary": json.loads((Path(out) / "summary.json").read_text()),
        }
    return runs


@pytest.fixture(scope="session")
def production_ham(production_runs):
    # after the runs the eigensystem is cached; this is a cheap reload
    return assemble_hamiltonian(production_config(SEEDS[0]))


def test_criterion_1_basis_arithmetic():
    cfg = ModelConfig()
    ok = (cfg.n_env_states == 1530
          and cfg.n_universe_states == 9180
          and cfg.shell_size(cfg.total_energy) == 378)
    _report("1 basis arithmetic", ok,
            f"N_E={cfg.n_env_states} N_SE={cfg.n_universe_states} "
            f"shell={cfg.shell_size(cfg.total_energy)}")


def test_criterion_2_polyad_unit_spacing():
    levels = build_system_levels(ModelConfig())
    gaps = np.diff(levels.eigenvalues)
    err = float(np.abs(gaps - 1.0).max())
    _report("2 polyad spacing", bool(err <= 1e-10), f"max|gap-1|={err:.2e}")


def test_criterion_3_table1_regression(production_runs):
    lines = []
    ok = True
    for seed, run in production_runs.items():
        for row in run["summary"]["states"]:
            s_univ, s_part = row["S_univ"], row["S_partial"]
            good = 5.85 <= s_univ <= 6.15 and 4.9 <= s_part <= 5.4
            ok = ok and good
            lines.append(f"seed{seed} n{row['n']}: S_univ={s_univ:.3f} S_partial={s_part:.3f}")
    _report("3 Table-1 regression", ok, "; ".join(lines))


def test_criterion_4_free_energy_agreement(production_runs):
    worst = 0.0
    for seed, run in production_runs.items():
        for n in STATES:
            report = compare_free_energy(run["out"] / f"traj_n{n}.csv")
            worst = max(worst, report["late_mean_abs_difference"])
    _report("4 free energy vs universe entropy", bool(worst <= 0.15),
            f"max late-mean |dS_univ + dF/kT| = {worst:.4f} nats (<= 0.15)")


def test_criterion_5_effective_state_count(production_runs):
    counts = []
    for run in production_runs.values():
        counts += [row["effective_states"] for row in run["summary"]["states"]]
    lo, hi = min(counts), max(counts)
    _report("5 microcanonical effective count", bool(350.0 <= lo and hi <= 450.0),
            f"exp(S_univ) in [{lo:.1f}, {hi:.1f}] vs shell count 378")


# -- criterion 6: property suite at production size ---------------------------
# (the same properties run on toy universes in the unit-test modules)

def test_criterion_6a_unitarity_energy_group(production_ham):
    cfg = production_config(SEEDS[0])
    psi0 = initial_state(cfg, production_ham.basis, 2)
    e0 = expectation(production_ham, psi0.amplitudes)
    psi_a = propagate(psi0, production_ham, 150.0)
    psi_ab = propagate(psi_a, production_ham, 73.0)
    psi_direct = propagate(psi0, production_ham, 223.0)
    norm_err = max(abs(np.linalg.norm(psi_a.amplitudes) - 1.0),
                   abs(np.linalg.norm(psi_ab.amplitudes) - 1.0))
    energy_err = abs(expectation(production_ham, psi_ab.amplitudes) - e0) / max(1.0, abs(e0))
    group_err = float(np.abs(psi_ab.amplitudes - psi_direct.amplitudes).max())
    ok = norm_err <= 1e-9 and energy_err <= 1e-9 and group_err <= 1e-9
    _report("6a unitarity/energy/group", bool(ok),
            f"norm={norm_err:.1e} energy={energy_err:.1e} group={group_err:.1e}")


def test_criterion_6b_rdm_properties(production_ham):
    cfg = production_config(SEEDS[0])
    checks = []
    for n in STATES:
        psi0 = initial_state(cfg, production_ham.basis, n)
        rdm0 = reduced_density_matrix(psi0, production_ham.basis)
        rdm0.validate()
        checks.append(abs(von_neumann_entropy(rdm0)) <= 1e-12)
    psi_t = propagate(initial_state(cfg, production_ham.basis, 0),
                      production_ham, 400.0)
    rdm_t = reduced_density_matrix(psi_t, production_ham.basis)
    rdm_t.validate()
    s = von_neumann_entropy(rdm_t)
    checks.append(0.0 <= s <= math.log(6.0))
    _report("6b RDM hermitian/trace/PSD, S_vN(0)=0, bounds", all(checks),
            f"late S_vN={s:.3f} <= ln6={math.log(6.0):.3f}")


def test_criterion_6c_universe_entropy_frozen_in_eigenbasis(production_ham):
    cfg = production_config(SEEDS[0])
    psi0 = initial_state(cfg, production_ham.basis, 3)
    s_ref = universe_entropy(psi0, reference=production_ham)
    drift = 0.0
    for t in (57.0, 311.0):
        s_t = universe_entropy(propagate(psi0, production_ham, t), reference=production_ham)
        drift = max(drift, abs(s_t - s_ref))
    _report("6c S_univ frozen in energy eigenbasis", bool(drift <= 1e-10),
            f"max drift {drift:.2e}")


def test_criterion_6d_shell_partials_sum(production_runs):
    worst = 0.0
    for run in production_runs.values():
        cols = read_trajectory(run["out"] / "traj_n1.csv")
        total = sum(cols[f"S_partial_{s}"] for s in range(13))
        worst = max(worst, float(np.abs(total - cols["S_univ"]).max()))
    _report("6d shell partials sum to S_univ", bool(worst <= 1e-10),
            f"max |sum - S_univ| = {worst:.2e}")


def test_criterion_6e_alpha_zero_freeze():
    cfg = ModelConfig(rng_seed=SEEDS[0], alpha=0.0)
    ham = assemble_hamiltonian(cfg)
    matrix = hamiltonian_matrix(cfg)
    off_diag_max = float(np.abs(matrix - np.diag(np.diag(matrix))).max())
    del matrix
    psi0 = initial_state(cfg, ham.basis, 1)
    p0 = psi0.probabilities()
    drift = 0.0
    for t in (100.0, 500.0):
        pt = propagate(psi0, ham, t).probabilities()
        drift = max(drift, float(np.abs(pt - p0).max()))
    ok = off_diag_max == 0.0 and drift <= 1e-12
    _report("6e alpha=0 freeze", bool(ok),
            f"max off-diagonal {off_diag_max}, max |p(t)-p(0)| = {drift:.2e}")


def test_criterion_6f_determinism(production_runs, tmp_path_factory):
    seed = SEEDS[0]
    cfg = production_config(seed)
    rebuilt_a = hamiltonian_matrix(cfg)
    rebuilt_b = hamiltonian_matrix(cfg)
    matrices_identical = np.array_equal(rebuilt_a, rebuilt_b)
    del rebuilt_a, rebuilt_b

    out = tmp_path_factory.mktemp("determinism")
    run_experiment(cfg, [0], out, t_max_ps=T_MAX_PS, n_points=N_POINTS)
    fresh = (Path(out) / "traj_n0.csv").read_bytes()
    original = (production_runs[seed]["out"] / "traj_n0.csv").read_bytes()
    ok = matrices_identical and fresh == original
    _report("6f determinism", bool(ok),
            f"matrix bit-identical={matrices_identical}, CSV bytes identical={fresh == original}")


def test_criterion_6g_eigensystem_quality(production_ham):
    # sampled columns keep this O(dim^2 * dim/20) instead of a full dim^3 GEMM
    v, w = production_ham.eigenvectors, production_ham.eigenvalues
    h = hamiltonian_matrix(production_config(SEEDS[0]))
    sel = np.arange(0, production_ham.dim, 20)
    target = np.zeros((production_ham.dim, sel.size))
    target[sel, np.arange(sel.size)] = 1.0
    ortho = float(np.abs(v.T @ v[:, sel] - target).max())
    recon = float(np.abs((v * w) @ v[sel].T - h[:, sel]).max())
    _report("6g eigensystem orthogonality/reconstruction",
            bool(ortho <= 1e-10 and recon <= 1e-8 * float(np.abs(h).max())),
            f"orthogonality={ortho:.2e}, sampled reconstruction={recon:.2e}")


def test_criterion_7_anomaly_report_archived(production_runs):
    archived = []
    common = None
    for seed, run in production_runs.items():
        report = json.loads((run["out"] / "anomalies.json").read_text())
        archived.append(run["out"] / "anomalies.json")
        per_state = []
        for entry in report["states"]:
            times = {round(d["t_start"], -1) for d in entry["dips"]}
            per_state.append(times)
        shared = set.intersection(*per_state) if per_state else set()
        common = shared if common is None else common
    # presence of a shared-time dip is logged, never asserted
    detail = f"reports archived: {len(archived)}; seed-1 common dip windows: {sorted(common) if common else 'none'}"
    _report("7 anomaly report (non-gating)", True, detail)
