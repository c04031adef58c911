"""Experiment driver: run trajectories from a config file, compare the
two free-energy routes, and regenerate stick diagrams.

A run makes one pass over the eigenvectors for all requested states:
`dynamics.propagate_blocks` yields the amplitudes one row block at a
time and `observables.trajectories` reduces each block to every state's
sums before the next is made.  Each state then gets its trajectory
columns and final-time amplitudes, from which `analysis.run_summary`
makes its summary row and this module its anomaly entry; only then are
the files written.  `compare` reports `analysis.free_energy_agreement`
of a trajectory CSV, as the summary row holds it.

Every command checks its request and its output target, then builds,
then writes, so a bad request fails before the Hamiltonian is assembled.
Only the phases E t are checked twice: against a bound from the config
before the build, and against the eigenvalues before the propagation.

Everything a run writes is reproducible from its manifest: the config
echo (seed included) pins the Hamiltonian bit-exactly and the grid
parameters pin the sampling.  CSV bodies contain no timestamps, so a
repeated run with the same seed is byte-identical.  Every file is
written whole (`cache.write_whole`) and the manifest last, so a
directory with a manifest holds the files that it lists, complete.

`model.stage` is the package's one clock: a run's `timing_seconds` is
the record of the stages that it entered (`model.recording`), each
stage's seconds summed, and 0.0 for a stage that did not run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import resource
import sys
from pathlib import Path

import numpy as np

from . import __version__, units
from .analysis import (detect_negative_production, entropy_production_rate,
                       free_energy_agreement, run_summary, stick_order)
from .blas import library, pass_workers, simd_level
from .cache import write_whole
from .config import ModelConfig
from .dynamics import initial_state, pass_bytes, propagate, propagate_blocks
from .model import (assemble_hamiltonian, build_basis, check_memory, progress, recording,
                    stage, temperature_of)
from .observables import sum_bytes, trajectories
from .rng import DRAW_CONTRACT_VERSION

DEFAULT_T_MAX_PS = 30.0
DEFAULT_N_POINTS = 600
MAX_PHASE = 2.0 ** 40
# The manifest fields that `sticks` and `compare` read, with the JSON type each must have.
_MANIFEST_FIELDS = {"config": (dict, "an object"), "seed": (int, "an integer"),
                   "outputs": (list, "a list")}


def _energy_bound(config: ModelConfig) -> float:
    """A bound on |E| over the spectrum of H, from the config alone.

    The zero-order ladder's top, plus 1.25 times the couplings' spread,
    2 alpha omega_E sqrt(dim) at the edge of the semicircle law.  Not
    rigorous, which is why `_check_phase` runs again on the eigenvalues;
    the spectra of 252 to 1116 states at alpha 0.005 to 5 reach 78-99 %
    of the bound without the margin.  Production: 14.2.
    """
    ladder = ((config.n_system_levels - 1) * abs(config.kappa)
              + config.n_env_levels * config.omega_E)
    return ladder + 2.5 * config.alpha * config.omega_E * math.sqrt(config.n_universe_states)


def _check_phase(e_max: float, t_reduced: float, what: str) -> None:
    """Refuse a time at which the phases E t, |E| <= e_max, could pass 2**40 rad, where one
    ulp is ~2e-4 rad (production: E t ~ 8e3 rad at 30 ps).

    Each command checks its time against `_energy_bound` before it builds, and against the
    eigenvalues after `assemble_hamiltonian` and before it propagates.
    """
    phase = abs(t_reduced) * e_max
    if phase > MAX_PHASE:
        raise ValueError(f"{what} is too long: the phases E t reach "
                         f"{phase:.3g} rad, beyond 2**40 rad, where one ulp is ~2e-4 rad")


def _check_request(config: ModelConfig, states: list[int], t_max_ps: float,
                   n_points: int) -> int:
    """Reject a run that could only fail after the Hamiltonian is solved, and return the
    bytes that its pass plans.

    That includes a pass larger than this machine's memory (`check_memory`):
    what `propagate_blocks` allocates with V (`pass_bytes`), and what
    `trajectories` allocates to reduce its blocks (`sum_bytes`).
    """
    if not states:
        raise ValueError("no initial states requested")
    if len(set(states)) != len(states):
        raise ValueError(f"duplicate initial states in {states}")
    if n_points < 3:
        raise ValueError("n_points must be at least 3: the entropy production "
                         "rate needs 3 time points")
    if not (t_max_ps > 0.0 and math.isfinite(t_max_ps)):
        raise ValueError(f"t_max_ps must be positive and finite, got {t_max_ps}")
    _check_phase(_energy_bound(config),
                 units.ps_to_reduced_time(t_max_ps, config.energy_unit_wavenumbers),
                 f"--t-max-ps {t_max_ps}")
    need = (pass_bytes(config, len(states), n_points)
            + sum_bytes(config, len(states), n_points))
    check_memory(need, f"the pass of {len(states)} states over {n_points} times")
    return need


def _check_out(path: Path) -> None:
    """Refuse an output file that `write_whole` could not write: `path` must not be
    a directory, and its nearest existing parent must be a directory this process
    may write and enter.  Every command checks its output so, before it builds."""
    if path.is_dir():
        raise ValueError(f"cannot write {path}: it is a directory")
    existing = next(p for p in path.parents if p.exists())
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise ValueError(f"cannot write {path}: {existing} is not a directory "
                         f"this process may write")


def run_experiment(config: ModelConfig, states: list[int], out_dir,
                   *, t_max_ps: float = DEFAULT_T_MAX_PS,
                   n_points: int = DEFAULT_N_POINTS) -> dict:
    """Propagate all requested initial states in one pass and write all artifacts.

    Per state: a trajectory CSV of the observable columns, a final-time
    stick diagram CSV, and an entry in the shell summary; plus one
    anomaly report and one manifest for the run, which is returned as
    the dict it writes.  Each state's files depend only on the config,
    the grid and that state, not on which other states are requested.
    Every request and state check comes before anything is built (the
    phases' check comes again on the eigenvalues, before the pass), and
    every entry of the summary and the anomaly report is made before the
    first write; `out_dir` is made at the first write, and an existing
    manifest is removed just before it.  A gate of the pass that fails (the
    initial states' reconstruction at t = 0 among them) names the
    eigensystem's cache key and whether it was a hit.  The manifest's
    `timing_seconds` holds the seconds of this call's stages alone, and
    `cache.evicted` the files that its store evicted.
    """
    out = Path(out_dir)
    planned = _check_request(config, states, t_max_ps, n_points)
    _check_out(out / "manifest.json")
    psi0 = np.stack([initial_state(config, n) for n in states])

    with recording() as record:
        with stage("build_and_solve"):
            ham = assemble_hamiltonian(config)

        unit = config.energy_unit_wavenumbers
        t_max = units.ps_to_reduced_time(t_max_ps, unit)
        _check_phase(float(np.abs(ham.eigenvalues).max()), t_max, f"--t-max-ps {t_max_ps}")
        times = np.linspace(0.0, t_max, n_points)

        workers = pass_workers()
        progress(f"propagating {len(states)} states over {n_points} times "
                 f"on {workers} worker thread{'s' if workers > 1 else ''}")
        try:
            results = trajectories(propagate_blocks(psi0, ham, times), times, config, psi0)
        except ValueError as err:
            # a gate of the pass failed: name the eigensystem that it used
            raise ValueError(f"{err}; eigensystem key {ham.key}, "
                             f"cache hit: {str(ham.cache_hit).lower()}") from err
        with stage("observables"):
            summary = run_summary(config, states, results)
            anomaly_report = {"seed": config.rng_seed, "threshold": 0.0, "states": []}
            for n, result in zip(states, results):
                rate = entropy_production_rate(times, result.columns["S_univ"])
                anomaly_report["states"].append({
                    "n": n,
                    "dips": [dataclasses.asdict(d)
                             for d in detect_negative_production(times, rate)],
                    "min_rate": float(rate.min()),
                    "min_rate_time": float(times[int(rate.argmin())]),
                })

        with stage("write", begin=f"writing trajectories, stick diagrams, summary and "
                                  f"manifest to {out}"):
            (out / "manifest.json").unlink(missing_ok=True)
            stick_text = _stick_text(config)
            for n, result in zip(states, results):
                with write_whole(out / f"traj_n{n}.csv") as fh:
                    _write_trajectory(fh, config, n, result.columns)
                with write_whole(out / f"sticks_n{n}.csv") as fh:
                    _write_sticks(fh, config, n, times[-1], result.final_amplitudes, stick_text)
            _write_json(out / "summary.json", summary)
            _write_json(out / "anomalies.json", anomaly_report)

    blas_library, blas_threads = library()
    manifest = {
        "config": config.to_dict(),
        "seed": config.rng_seed,
        "code_version": __version__,
        "draw_contract": DRAW_CONTRACT_VERSION,
        "states": list(states),
        "t_max_reduced": float(t_max),
        "n_points": n_points,
        # the cache's key and whether the run used an entry (false for a miss or a
        # rejected one), the solve that ran instead ("dsyevd", or "diagonal" at
        # alpha = 0, which uses no entry), the check's residual, the library that
        # the key covers and that ran the solve and the pass's GEMMs, numpy's
        # version and SIMD level, which move output bytes but no eigenpair's (so
        # the key leaves them out), the pass's worker threads, and the files that
        # the run's store evicted
        "cache": {"key": ham.key, "hit": ham.cache_hit, "solve": ham.solve,
                  "eig_residual": ham.eig_residual,
                  "blas_library": blas_library, "blas_threads": blas_threads,
                  "numpy_version": np.__version__, "numpy_simd_level": simd_level(),
                  "pass_workers": workers, "evicted": record.evicted},
        "constants": {
            "kB_wavenumber_per_K": units.KB_WAVENUMBER_PER_KELVIN,
            "reduced_time_unit_ps": units.reduced_time_unit_ps(unit),
            "energy_unit_wavenumbers": unit,
        },
        "temperature": dataclasses.asdict(temperature_of(config)),
        "outputs": [f"{kind}_n{n}.csv" for n in states for kind in ("traj", "sticks")]
        + ["summary.json", "anomalies.json"],
        "timing_seconds": record.seconds,
        # the pass's bytes that the request's check planned (V's included), and the peak
        "planned_pass_bytes": planned,
        "peak_rss_mb": _peak_rss_mb(),
    }
    _write_json(out / "manifest.json", manifest)
    return manifest


def _write_json(path, record) -> None:
    with write_whole(path) as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True))


def _peak_rss_mb() -> float:
    """This process's own peak RSS in MiB: VmHWM, or ru_maxrss where there is no /proc."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        # in KiB on Linux, and starting from the RSS of the process that spawned this one
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _write_trajectory(fh, config, n, traj):
    """One CSV row per time; NaN (no Boltzmann fit) is written as an empty field."""
    rows = np.column_stack(list(traj.values())).tolist()
    fh.write(f"# quniverse trajectory state_n={n} "
             f"seed={config.rng_seed} config_sha256={config.content_hash()}\n")
    fh.write(",".join(traj) + "\n")
    fh.writelines(",".join("" if math.isnan(x) else repr(x) for x in row) + "\n"
                  for row in rows)


def _stick_text(config: ModelConfig) -> tuple[np.ndarray, list[str], list[str]]:
    """What every state's sticks CSV shares: the stick order (basis indices) and, per
    stick, the text before its p ("energy,") and after it (",n,m,l,shell" and newline)."""
    basis = build_basis(config)
    order = stick_order(basis)
    labels = np.column_stack([basis.n, basis.m, basis.l, basis.shell_label])[order]
    return (order, [f"{x!r}," for x in basis.zero_order_energy[order].tolist()],
            [f",{n},{m},{l},{shell}\n" for n, m, l, shell in labels.tolist()])


def _write_sticks(fh, config, n, t, amplitudes, stick_text):
    """The stick diagram of state n's `amplitudes` at time t: p = Re^2 + Im^2 per stick."""
    order, before, after = stick_text
    c = amplitudes[order]
    p = (c.real ** 2 + c.imag ** 2).tolist()
    fh.write(f"# quniverse sticks state_n={n} "
             # 0.0 + t: a time of -0.0 is written as 0.0
             f"time_reduced={0.0 + float(t)!r} seed={config.rng_seed} "
             f"config_sha256={config.content_hash()}\n")
    fh.write("energy,p,n,m,l,shell\n")
    fh.writelines(f"{a}{x!r}{b}" for a, x, b in zip(before, p, after))


def read_trajectory(path) -> dict[str, np.ndarray]:
    """Trajectory CSV back into column arrays.

    A file that does not start with the `# quniverse trajectory` line,
    has no rows, or has a row that is not one number (or empty field) per
    header column raises ValueError naming the file and the line.
    """
    with open(path) as fh:
        _trajectory_header(fh, path)
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = []
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, the header has {len(header)}")
                rows.append([float(x) if x else np.nan for x in row])
            except ValueError as exc:
                raise ValueError(f"malformed trajectory file {path}, line "
                                 f"{reader.line_num + 1}: {exc}") from None
    if not rows:
        raise ValueError(f"malformed trajectory file {path}: no rows")
    data = np.asarray(rows)
    return {name: data[:, k] for k, name in enumerate(header)}


def compare_free_energy(traj_path) -> dict:
    """The trajectory's path and `analysis.free_energy_agreement` of its columns.

    A trajectory with a `manifest.json` beside it must belong to that
    run (`_checked_run`); a lone CSV is read as it is.
    """
    if (Path(traj_path).parent / "manifest.json").exists():
        _checked_run(Path(traj_path))
    cols = read_trajectory(traj_path)
    for needed in ("time_reduced", "S_univ", "dF", "minus_dF_over_kT"):
        if needed not in cols:
            raise ValueError(f"trajectory {traj_path} lacks required column {needed}")
    return {"trajectory": str(traj_path), **free_energy_agreement(cols)}


def _trajectory_header(fh, path) -> dict[str, str]:
    """The `key=value` fields of the `# quniverse trajectory` line, read from `fh` open
    on `path`, that starts every trajectory CSV."""
    words = fh.readline().split()
    if words[:3] != ["#", "quniverse", "trajectory"]:
        raise ValueError(f"malformed trajectory file {path}, line 1: "
                         "it does not start with '# quniverse trajectory'")
    return dict(word.partition("=")[::2] for word in words[3:])


def _checked_run(traj_path: Path) -> tuple[ModelConfig, int, np.ndarray]:
    """(config, n, initial amplitudes) of the run whose `manifest.json` sits beside
    the trajectory `traj_path`, once the file is checked to belong to it.

    Without a manifest there, it raises FileNotFoundError; a damaged
    manifest (not whole JSON, not an object, a field of _MANIFEST_FIELDS
    missing or of another JSON type, or a config that is not one) is
    refused.

    A manifest written by another code version or under another draw
    contract is refused: its run may not be reproducible by this one.
    So is a trajectory whose header names another state (than its file
    name), seed or config (than the manifest): it belongs to another run.
    So is a state the config does not have (`initial_state` builds it
    from the config alone), and a trajectory that the manifest does not
    list, such as a state's file left by an earlier run into the same
    directory.
    """
    manifest_path = traj_path.parent / "manifest.json"

    def damaged(what) -> ValueError:
        return ValueError(f"{manifest_path} is damaged ({what}); re-run the trajectory "
                          f"to write it again")

    try:
        manifest = json.loads(manifest_path.read_text())
    except FileNotFoundError:
        raise FileNotFoundError(f"{manifest_path} not found; the run's manifest is "
                                f"needed to rebuild its universe") from None
    except json.JSONDecodeError as exc:
        raise damaged(exc) from None
    if type(manifest) is not dict:
        raise damaged("not a JSON object")
    written = (manifest.get("code_version"), manifest.get("draw_contract"))
    if written != (__version__, DRAW_CONTRACT_VERSION):
        raise ValueError(
            f"{manifest_path} was written by quniverse {written[0]} under draw contract "
            f"{written[1]}, this is {__version__} under {DRAW_CONTRACT_VERSION}; "
            f"re-run the trajectory with this version"
        )
    wrong = [f"{field}: not {what}" for field, (kind, what) in _MANIFEST_FIELDS.items()
             if type(manifest.get(field)) is not kind]
    if wrong:
        raise damaged("; ".join(wrong))
    try:
        config = ModelConfig.from_dict(manifest["config"])
    except (TypeError, ValueError) as exc:
        raise damaged(f"config: {exc}") from None
    name = traj_path.stem
    digits = name.removeprefix("traj_n")
    if not (name.startswith("traj_n") and digits.isascii() and digits.isdigit()):
        raise ValueError(f"cannot infer initial state from file name {traj_path.name}")
    n = int(digits)
    with open(traj_path) as fh:
        header = _trajectory_header(fh, traj_path)
    expected = {"state_n": str(n), "seed": str(manifest["seed"]),
                "config_sha256": config.content_hash()}
    wrong = sorted(k for k, v in expected.items() if header.get(k) != v)
    if wrong:
        raise ValueError(f"{traj_path.name} header does not match {manifest_path}: "
                         + ", ".join(f"{k}={header.get(k)} (expected {expected[k]})"
                                     for k in wrong))
    psi0 = initial_state(config, n)
    if traj_path.name not in manifest["outputs"]:
        raise ValueError(f"{traj_path.name} is not among the outputs of {manifest_path}; "
                         f"it was left by another run")
    return config, n, psi0


def _sticks_from_manifest(traj_path, t_reduced: float | None, t_ps: float | None):
    """Rebuild the universe from the run manifest and propagate the state to a finite time.

    Returns (config, n, the time in reduced units, the amplitudes then).
    The run directory's checks (`_checked_run`) and the time's
    (finite, with phases E t within 2**40 rad by the config's bound, as
    `run` asks) come before the Hamiltonian is assembled, so before any
    solve; the phases are checked again on the eigenvalues before the
    state is propagated.
    """
    config, n, psi0 = _checked_run(Path(traj_path))
    if t_reduced is None:
        t_reduced = units.ps_to_reduced_time(t_ps, config.energy_unit_wavenumbers)
    if not math.isfinite(t_reduced):
        raise ValueError(f"the stick diagram time must be finite, got {t_reduced}")
    what = f"the stick diagram time {t_reduced}"
    _check_phase(_energy_bound(config), t_reduced, what)
    ham = assemble_hamiltonian(config)
    _check_phase(float(np.abs(ham.eigenvalues).max()), t_reduced, what)
    return config, n, t_reduced, propagate(psi0, ham, t_reduced)


def _state_list(text: str) -> list[int]:
    """`--states`: comma-separated integers."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated system levels, "
                                         f"got {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quniverse",
        description="system-environment universe simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run trajectories for one config")
    p_run.add_argument("--config", required=True, help="key = value config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--states", default=None, type=_state_list,
                       help="comma-separated initial system levels (default: all)")
    p_run.add_argument("--seed", type=int, default=None, help="override rng_seed")
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
        if args.seed is not None:
            config = dataclasses.replace(config, rng_seed=args.seed)
        states = list(range(config.n_system_levels)) if args.states is None else args.states
        manifest = run_experiment(
            config, states, args.out,
            t_max_ps=args.t_max_ps, n_points=args.n_points,
        )
        print(f"wrote {len(manifest['outputs'])} files to {args.out}")
        return 0

    # compare and sticks: the report goes to --out, or else to stdout, as the same bytes
    if args.out:
        _check_out(Path(args.out))
    if args.command == "compare":
        report = compare_free_energy(args.traj)
    else:
        config, n, t, amplitudes = _sticks_from_manifest(args.traj, args.time, args.time_ps)
    with write_whole(args.out) if args.out else contextlib.nullcontext(sys.stdout) as fh:
        if args.command == "compare":
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        else:
            _write_sticks(fh, config, n, t, amplitudes, _stick_text(config))
    return 0


if __name__ == "__main__":
    sys.exit(main())
