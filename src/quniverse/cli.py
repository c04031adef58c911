"""Experiment driver: run trajectories from a config file, compare the
two free-energy routes, and regenerate stick diagrams.

Everything a run writes is reproducible from its manifest: the config
echo (seed included) pins the Hamiltonian bit-exactly and the grid
parameters pin the sampling.  CSV bodies contain no timestamps, so a
repeated run with the same seed is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, units
from .analysis import (
    LATE_FRACTION,
    detect_negative_production,
    entropy_production_rate,
    late_window_slice,
    shell_decompose,
    stick_diagram,
)
from .cache import cache_key
from .config import ModelConfig
from .dynamics import PureState, initial_state, propagate, propagate_to_times
from .model import assemble_hamiltonian, build_system_levels, temperature_of
from .observables import trajectory_columns
from .rng import DRAW_CONTRACT_VERSION

SCHEMA_VERSION = 1
DEFAULT_T_MAX_PS = 30.0
DEFAULT_N_POINTS = 600


@dataclasses.dataclass
class RunManifest:
    """Everything needed to reproduce a run bit-exactly, plus bookkeeping.

    `cache` says what the eigensystem cache did: its `key`, whether the
    run used a cached entry (`hit`; false for a miss or a rejected
    entry) and the sampled eigen-residual of the check.
    """

    config: dict
    seed: int
    code_version: str
    draw_contract: int
    schema_version: int
    states: list[int]
    t_max_reduced: float
    n_points: int
    cache: dict
    constants: dict
    temperature: dict
    outputs: list[str]
    timing_seconds: dict
    peak_rss_mb: float

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


def _fmt(x: float) -> str:
    return repr(float(x))


def _check_request(config: ModelConfig, states: list[int], t_max_ps: float,
                   n_points: int) -> None:
    """Reject a run that could only fail after the Hamiltonian is solved."""
    if not states:
        raise ValueError("no initial states requested")
    valid = [n for n in range(config.n_system_levels)
             if 0 <= config.total_energy - n < config.n_env_levels]
    bad = [n for n in states if n not in valid]
    if bad:
        raise ValueError(f"initial states {bad} are not valid; with total_energy="
                         f"{config.total_energy} the valid levels are {valid}")
    if len(set(states)) != len(states):
        raise ValueError(f"duplicate initial states in {states}")
    if n_points < 3:
        raise ValueError("n_points must be at least 3: the entropy production "
                         "rate needs 3 time points")
    if not (t_max_ps > 0.0 and math.isfinite(t_max_ps)):
        raise ValueError(f"t_max_ps must be positive and finite, got {t_max_ps}")


def run_experiment(config: ModelConfig, states: list[int], out_dir,
                   *, t_max_ps: float = DEFAULT_T_MAX_PS,
                   n_points: int = DEFAULT_N_POINTS) -> RunManifest:
    """Propagate each requested initial state and write all artifacts.

    Per state: a trajectory CSV of the observable columns, a final-time
    stick diagram CSV, and an entry in the shell summary; plus one
    anomaly report and one manifest for the run.  Each state's files
    depend only on the config, the grid and that state, not on which
    other states are requested.
    """
    _check_request(config, states, t_max_ps, n_points)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timing = {"build_and_solve": 0.0, "propagate": 0.0, "observables": 0.0, "write": 0.0}

    t0 = time.perf_counter()
    ham = assemble_hamiltonian(config)
    timing["build_and_solve"] = time.perf_counter() - t0

    basis = ham.basis
    ladder = build_system_levels(config).ladder
    temp = temperature_of(config)
    unit = config.energy_unit_wavenumbers
    t_max = units.ps_to_reduced_time(t_max_ps, unit)
    times = np.linspace(0.0, t_max, n_points)
    late = late_window_slice(n_points)

    outputs: list[str] = []
    summary_rows = []
    anomaly_report = {"seed": config.rng_seed, "threshold": 0.0, "states": []}

    for n in states:
        t0 = time.perf_counter()
        psi0 = initial_state(config, basis, n)
        amplitudes = propagate_to_times(psi0, ham, times)
        t1 = time.perf_counter()
        traj = trajectory_columns(amplitudes, times, basis, ladder, temp.kbt_reduced, unit)
        # a copy, so that the (T, dim) block is freed before the next state's
        final_state = PureState(amplitudes[-1].copy(), float(times[-1]))
        del amplitudes

        s_univ_series = traj["S_univ"]
        rate = entropy_production_rate(times, s_univ_series)
        dips = detect_negative_production(times, rate)
        anomaly_report["states"].append({
            "n": n,
            "dips": [dataclasses.asdict(d) for d in dips],
            "min_rate": float(rate.min()),
            "min_rate_time": float(times[int(rate.argmin())]),
        })

        partial = traj[f"S_partial_{config.total_energy}"]
        populations, partials = shell_decompose(final_state, basis)
        summary_rows.append({
            "n": n,
            "S_univ": float(s_univ_series[late].mean()),
            "S_partial": float(partial[late].mean()),
            "S_univ_final": float(s_univ_series[-1]),
            "S_partial_final": float(partials[config.total_energy]),
            "effective_states": float(np.exp(s_univ_series[late].mean())),
            "shell_population_final": float(populations[config.total_energy]),
        })
        t2 = time.perf_counter()

        traj_path = out / f"traj_n{n}.csv"
        _write_trajectory(traj_path, config, n, traj)
        outputs.append(traj_path.name)
        sticks_path = out / f"sticks_n{n}.csv"
        _write_sticks(sticks_path, config, n, final_state, basis)
        outputs.append(sticks_path.name)
        t3 = time.perf_counter()
        timing["propagate"] += t1 - t0
        timing["observables"] += t2 - t1
        timing["write"] += t3 - t2

    t0 = time.perf_counter()
    summary = {
        "schema_version": SCHEMA_VERSION,
        "seed": config.rng_seed,
        "microcanonical_shell": config.total_energy,
        "shell_state_count": config.shell_size(config.total_energy),
        "late_window_fraction": LATE_FRACTION,
        "temperature_kelvin": temp.kelvin,
        "states": summary_rows,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    outputs.append("summary.json")

    (out / "anomalies.json").write_text(json.dumps(anomaly_report, indent=2, sort_keys=True))
    outputs.append("anomalies.json")
    timing["write"] += time.perf_counter() - t0

    manifest = RunManifest(
        config=config.to_dict(),
        seed=config.rng_seed,
        code_version=__version__,
        draw_contract=DRAW_CONTRACT_VERSION,
        schema_version=SCHEMA_VERSION,
        states=list(states),
        t_max_reduced=float(t_max),
        n_points=n_points,
        cache={"key": cache_key(config), "hit": ham.cache_hit,
               "eig_residual": ham.eig_residual},
        constants={
            "kB_wavenumber_per_K": units.KB_WAVENUMBER_PER_KELVIN,
            "reduced_time_unit_ps": units.reduced_time_unit_ps(unit),
            "energy_unit_wavenumbers": unit,
        },
        temperature=dataclasses.asdict(temp),
        outputs=outputs,
        timing_seconds=timing,
        # ru_maxrss is in KiB on Linux
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    (out / "manifest.json").write_text(manifest.to_json())
    return manifest


def _write_trajectory(path, config, n, traj):
    """One CSV row per time; NaN (no Boltzmann fit) is written as an empty field."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# quniverse trajectory schema={SCHEMA_VERSION} state_n={n} "
                 f"seed={config.rng_seed} config_sha256={config.content_hash()}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(traj))
        for row in np.column_stack(list(traj.values())).tolist():
            writer.writerow(["" if math.isnan(x) else _fmt(x) for x in row])


def _write_sticks(path, config, n, state, basis):
    diagram = stick_diagram(state, basis)
    with open(path, "w", newline="") as fh:
        fh.write(f"# quniverse sticks schema={SCHEMA_VERSION} state_n={n} "
                 f"time_reduced={_fmt(state.time)} seed={config.rng_seed} "
                 f"config_sha256={config.content_hash()}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["energy", "p", "n", "m", "l", "shell"])
        for k in range(diagram.size):
            writer.writerow([
                _fmt(diagram.energy[k]), _fmt(diagram.p[k]),
                int(diagram.n[k]), int(diagram.m[k]), int(diagram.l[k]),
                int(diagram.shell[k]),
            ])


def read_trajectory(path) -> dict[str, np.ndarray]:
    """Trajectory CSV back into column arrays (comment header skipped)."""
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("#"):
            fh.seek(0)
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) if x else np.nan for x in row] for row in reader]
    data = np.asarray(rows)
    if data.ndim != 2 or data.shape[1] != len(header):
        raise ValueError(f"malformed trajectory file {path}")
    return {name: data[:, k] for k, name in enumerate(header)}


def compare_free_energy(traj_path) -> dict:
    """Align dS_univ(t) with -dF(t)/(k_B T) and quantify their agreement.

    The short-time window where the universe entropy runs ahead of the
    free-energy surrogate is reported as a flagged transient, not a
    failure.
    """
    cols = read_trajectory(traj_path)
    for needed in ("time_reduced", "S_univ", "dF", "minus_dF_over_kT"):
        if needed not in cols:
            raise ValueError(f"trajectory {traj_path} lacks required column {needed}")
    t = cols["time_reduced"]
    ds_univ = cols["S_univ"] - cols["S_univ"][0]
    minus_df_kbt = cols["minus_dF_over_kT"]
    diff = ds_univ - minus_df_kbt
    late = late_window_slice(t.size)
    late_abs = float(np.abs(diff[late]).mean())
    late_mean_ds = float(ds_univ[late].mean())
    scale = max(abs(late_mean_ds), 1e-12)
    transient_tol = max(2.0 * late_abs, 0.05)
    beyond = np.abs(diff) > transient_tol
    if beyond.any():
        transient_end = float(t[min(int(np.max(np.nonzero(beyond)[0])) + 1, t.size - 1)])
    else:
        transient_end = 0.0
    return {
        "trajectory": str(traj_path),
        "late_window_fraction": LATE_FRACTION,
        "late_mean_dS_univ": late_mean_ds,
        "late_mean_minus_dF_over_kT": float(minus_df_kbt[late].mean()),
        "late_mean_abs_difference": late_abs,
        "late_relative_discrepancy": late_abs / scale,
        "max_abs_difference": float(np.abs(diff).max()),
        "transient_flagged": bool(beyond.any()),
        "transient_end_reduced": transient_end,
        "series": {
            "time_reduced": t.tolist(),
            "dS_univ": ds_univ.tolist(),
            "minus_dF_over_kT": minus_df_kbt.tolist(),
            "difference": diff.tolist(),
        },
    }


def _trajectory_header(path) -> dict[str, str]:
    """The `key=value` fields of a trajectory CSV's `# quniverse trajectory` line."""
    with open(path) as fh:
        words = fh.readline().split()
    if words[:3] != ["#", "quniverse", "trajectory"]:
        raise ValueError(f"{path} does not start with a quniverse trajectory header")
    return dict(word.partition("=")[::2] for word in words[3:])


def _sticks_from_manifest(traj_path, t_reduced: float | None, t_ps: float | None):
    """Rebuild the universe from the run manifest and re-emit sticks at a finite time.

    A manifest written by another code version or under another draw
    contract is refused: its run may not be reproducible by this one.  So
    is a trajectory whose header names another state (than its file
    name), seed or config (than the manifest): it belongs to another run.
    These checks and the time's come before anything is built.
    """
    traj_path = Path(traj_path)
    manifest_path = traj_path.parent / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(
            f"{manifest_path} not found; stick diagrams are recomputed from the manifest"
        )
    manifest = json.loads(manifest_path.read_text())
    written = (manifest.get("code_version"), manifest.get("draw_contract"))
    if written != (__version__, DRAW_CONTRACT_VERSION):
        raise ValueError(
            f"{manifest_path} was written by quniverse {written[0]} under draw contract "
            f"{written[1]}, this is {__version__} under {DRAW_CONTRACT_VERSION}; "
            f"re-run the trajectory with this version"
        )
    config = ModelConfig.from_dict(manifest["config"])
    name = traj_path.stem
    if not name.startswith("traj_n"):
        raise ValueError(f"cannot infer initial state from file name {traj_path.name}")
    n = int(name.removeprefix("traj_n"))
    header = _trajectory_header(traj_path)
    expected = {"state_n": str(n), "seed": str(manifest["seed"]),
                "config_sha256": config.content_hash()}
    wrong = sorted(k for k, v in expected.items() if header.get(k) != v)
    if wrong:
        raise ValueError(f"{traj_path.name} header does not match {manifest_path}: "
                         + ", ".join(f"{k}={header.get(k)} (expected {expected[k]})"
                                     for k in wrong))
    if t_reduced is None:
        t_reduced = units.ps_to_reduced_time(t_ps, config.energy_unit_wavenumbers)
    if not math.isfinite(t_reduced):
        raise ValueError(f"the stick diagram time must be finite, got {t_reduced}")
    ham = assemble_hamiltonian(config)
    psi0 = initial_state(config, ham.basis, n)
    state = propagate(psi0, ham, t_reduced)
    return config, n, state, ham.basis


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quniverse",
        description="system-environment universe simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run trajectories for one config")
    p_run.add_argument("--config", required=True, help="key = value config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--states", default=None,
                       help="comma-separated initial system levels (default: all)")
    p_run.add_argument("--seed", type=int, default=None, help="override rng_seed")
    p_run.add_argument("--paper-compat", action="store_true",
                       help="pin the reference temperature 230.41 K")
    p_run.add_argument("--t-max-ps", type=float, default=DEFAULT_T_MAX_PS)
    p_run.add_argument("--n-points", type=int, default=DEFAULT_N_POINTS)

    p_cmp = sub.add_parser("compare", help="free energy vs universe entropy")
    p_cmp.add_argument("--traj", required=True, help="trajectory CSV")
    p_cmp.add_argument("--out", default=None, help="write JSON report here (default stdout)")

    p_sticks = sub.add_parser("sticks", help="stick diagram at an arbitrary time")
    p_sticks.add_argument("--traj", required=True,
                          help="trajectory CSV (its manifest.json is used to rebuild)")
    when = p_sticks.add_mutually_exclusive_group(required=True)
    when.add_argument("--time", type=float, help="time in reduced units")
    when.add_argument("--time-ps", type=float, help="time in picoseconds")
    p_sticks.add_argument("--out", default=None, help="write CSV here (default stdout)")

    args = parser.parse_args(argv)

    if args.command == "run":
        config = ModelConfig.from_file(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["rng_seed"] = args.seed
        if args.paper_compat:
            overrides["paper_compat"] = True
        if overrides:
            config = dataclasses.replace(config, **overrides)
        states = (list(range(config.n_system_levels)) if args.states is None
                  else [int(s) for s in args.states.split(",")])
        manifest = run_experiment(
            config, states, args.out,
            t_max_ps=args.t_max_ps, n_points=args.n_points,
        )
        print(f"wrote {len(manifest.outputs)} files to {args.out}")
        return 0

    if args.command == "compare":
        report = compare_free_energy(args.traj)
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.out:
            Path(args.out).write_text(text)
        else:
            print(text)
        return 0

    if args.command == "sticks":
        config, n, state, basis = _sticks_from_manifest(args.traj, args.time, args.time_ps)
        if args.out:
            _write_sticks(args.out, config, n, state, basis)
        else:
            _write_sticks("/dev/stdout", config, n, state, basis)
        return 0

    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
