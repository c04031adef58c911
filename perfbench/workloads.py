"""The benchmark's workloads: inputs derived from a seed, and output checks.

One iteration of a workload is a list of fresh processes (`Proc`), each
running one or more `quniverse` CLI calls through child.py.  Every call
carries a check that turns its outputs into one verdict per op (one
initial-state trajectory of a `run`, one `sticks` call, one `compare`
call).  Reference values come from reference.json, which
record_reference.py wrote from the code at the commit that added this
benchmark; inputs are drawn from the finite pools below so that every
input a seed can pick has a recorded reference.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
REFERENCE = BENCH / "reference.json"
PROD_CFG = ROOT / "configs" / "production.cfg"
SRC = ROOT / "src"

# Everything the benchmark writes lives under STATE.  PREPARED survives
# between runs (the warm production cache entry and the production run
# directory that `sticks` and `compare` read); WORK is emptied after
# every iteration.
STATE = ROOT / ".bench_build" / "perfbench"
PREPARED = STATE / "prepared"
PREPARED_CACHE = PREPARED / "cache"
PREPARED_RUN = PREPARED / "prodrun"
WORK = STATE / "work"

N_STATES = 6
SHELL = 5  # total_energy of every config used here
MID_COLD_SEEDS = tuple(range(101, 109))
STICK_TIMES_PS = (0.5, 1.0, 2.0, 3.5, 5.0, 8.0, 12.0, 17.0, 23.0, 29.5)
STICKS_PER_ITERATION = 4

# Loose enough for last-ulp changes from reordered GEMMs, tight enough
# to catch a wrong state, time, seed or formula.
REL_TOL = 1e-7
ABS_TOL = 1e-9
PROB_SUM_TOL = 1e-9

SUMMARY_FIELDS = ("S_univ", "S_partial", "S_univ_final", "S_partial_final",
                  "effective_states", "shell_population_final")
COMPARE_FIELDS = ("late_relative_discrepancy", "late_mean_abs_difference")

MID_COLD_OVERRIDES = {"n_env_levels": "7"}


@dataclass
class Call:
    """One CLI call and the check of what it wrote."""

    argv: list[str]
    n_ops: int
    check: Callable[[], list[str | None]]  # one entry per op; None = passed


def unchecked(argv: list[str]) -> Call:
    """A call whose outputs are not checked and that counts no ops."""
    return Call(argv, 0, list)


@dataclass
class Proc:
    """One fresh process: set-up parses `configs` and checks `inputs`."""

    calls: list[Call]
    configs: list[str]
    inputs: list[str] = field(default_factory=list)


@dataclass
class Iteration:
    procs: list[Proc]
    cache_dir: Path
    new_cache_entries: int  # entries the body must create; 0 = warm hits only


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def derived_config(name: str, overrides: dict[str, str]) -> Path:
    """Write production.cfg with `overrides` applied into the work dir."""
    lines, seen = [], set()
    for raw in PROD_CFG.read_text().splitlines():
        key = raw.split("=", 1)[0].strip()
        if "=" in raw and key in overrides:
            raw = f"{key} = {overrides[key]}"
            seen.add(key)
        lines.append(raw)
    if seen != set(overrides):
        raise ValueError(f"{PROD_CFG} lacks keys {sorted(set(overrides) - seen)}")
    path = WORK / "configs" / f"{name}.cfg"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def universe_size(cfg: Path) -> int:
    """Number of universe states a config file describes."""
    values = {}
    for raw in cfg.read_text().splitlines():
        line = raw.split("#", 1)[0]
        if "=" in line:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    a, b = int(values["degeneracy_A"]), float(values["degeneracy_b"])
    omega = float(values["omega_E"])
    env = sum(round(a * b ** (m * omega)) for m in range(int(values["n_env_levels"])))
    return int(values["n_system_levels"]) * env


# -- output readers and checks ------------------------------------------

def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= ABS_TOL + REL_TOL * abs(ref)


def csv_columns(path: Path, *names: str) -> list[list[float]]:
    """Named float columns of a quniverse CSV (leading '#' line skipped)."""
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            fh.seek(0)
        reader = csv.reader(fh)
        header = next(reader)
        idx = [header.index(n) for n in names]
        cols: list[list[float]] = [[] for _ in names]
        for row in reader:
            for k, i in enumerate(idx):
                cols[k].append(float(row[i]) if row[i] else float("nan"))
    return cols


def sticks_problems(path: Path, ref_shell_pop: float | None) -> list[str]:
    p, shell = csv_columns(path, "p", "shell")
    problems = []
    total = sum(p)
    if abs(total - 1.0) > PROB_SUM_TOL:
        problems.append(f"{path.name}: probabilities sum to {total!r}")
    if ref_shell_pop is not None:
        pop = sum(pk for pk, s in zip(p, shell) if s == SHELL)
        if not close(pop, ref_shell_pop):
            problems.append(f"{path.name}: shell-{SHELL} population {pop!r}, "
                            f"reference {ref_shell_pop!r}")
    return problems


def _fields_problems(label: str, got: dict, ref: dict, names) -> list[str]:
    return [f"{label}: {k} = {got.get(k)!r}, reference {ref[k]!r}"
            for k in names if not isinstance(got.get(k), float) or not close(got[k], ref[k])]


def check_run(out: Path, states: list[int], n_points: int,
              ref: dict) -> Callable[[], list[str | None]]:
    """Per state: summary fields against `ref[str(n)]`, trajectory length
    and stick probabilities summing to 1."""

    def check() -> list[str | None]:
        try:
            rows = {r["n"]: r for r in json.loads((out / "summary.json").read_text())["states"]}
        except (OSError, ValueError, KeyError) as exc:
            return [f"{out.name}/summary.json unreadable: {exc}"] * len(states)
        verdicts = []
        for n in states:
            try:
                problems = _fields_problems(f"{out.name} n={n}", rows.get(n, {}),
                                            ref[str(n)], SUMMARY_FIELDS)
                (s_univ,) = csv_columns(out / f"traj_n{n}.csv", "S_univ")
                if len(s_univ) != n_points:
                    problems.append(f"traj_n{n}.csv has {len(s_univ)} rows, expected {n_points}")
                problems += sticks_problems(out / f"sticks_n{n}.csv", None)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"{out.name} n={n}: {exc!r}"]
            verdicts.append("; ".join(problems) or None)
        return verdicts

    return check


def check_sticks(path: Path, ref_pop: float) -> Callable[[], list[str | None]]:
    def check() -> list[str | None]:
        try:
            return ["; ".join(sticks_problems(path, ref_pop)) or None]
        except (OSError, ValueError, KeyError) as exc:
            return [f"{path.name}: {exc!r}"]
    return check


def check_compare(path: Path, ref: dict) -> Callable[[], list[str | None]]:
    def check() -> list[str | None]:
        try:
            got = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            return [f"{path.name}: {exc!r}"]
        return ["; ".join(_fields_problems(path.name, got, ref, COMPARE_FIELDS)) or None]
    return check


# -- workload plans -----------------------------------------------------

def _run_argv(cfg: Path, out: Path, *extra: str) -> list[str]:
    return ["run", "--config", str(cfg), "--out", str(out), *extra]


def plan_prod_warm(rng: random.Random, ref: dict) -> Iteration:
    states = rng.sample(range(N_STATES), N_STATES)
    out = WORK / "out" / "prod"
    call = Call(_run_argv(PROD_CFG, out, "--states", ",".join(map(str, states))),
                N_STATES, check_run(out, states, 600, ref["prod"]["summary"]))
    proc = Proc([call], [str(PROD_CFG)], prepared_inputs())
    return Iteration([proc], PREPARED_CACHE, 0)


def plan_mid_cold(rng: random.Random, ref: dict) -> Iteration:
    seed = rng.choice(MID_COLD_SEEDS)
    cfg = derived_config("mid", MID_COLD_OVERRIDES)
    out = WORK / "out" / f"mid_s{seed}"
    call = Call(_run_argv(cfg, out, "--seed", str(seed), "--states", "0", "--n-points", "60"),
                1, check_run(out, [0], 60, ref["mid_cold"][str(seed)]))
    return Iteration([Proc([call], [str(cfg)], [str(cfg)])], WORK / "cache", 1)


def plan_prod_sticks(rng: random.Random, ref: dict) -> Iteration:
    pairs = rng.sample([(n, t) for n in range(N_STATES) for t in STICK_TIMES_PS],
                       STICKS_PER_ITERATION)
    procs = []
    for k, (n, t) in enumerate(pairs):
        dest = WORK / "out" / f"sticks_{k}_n{n}_t{t}.csv"
        argv = ["sticks", "--traj", str(PREPARED_RUN / f"traj_n{n}.csv"),
                "--time-ps", repr(t), "--out", str(dest)]
        pop = ref["prod"]["sticks_shell5"][str(n)][repr(t)]
        procs.append(Proc([Call(argv, 1, check_sticks(dest, pop))],
                          [str(PROD_CFG)], prepared_inputs()))
    calls = []
    for n in rng.sample(range(N_STATES), N_STATES):
        dest = WORK / "out" / f"compare_n{n}.json"
        argv = ["compare", "--traj", str(PREPARED_RUN / f"traj_n{n}.csv"), "--out", str(dest)]
        calls.append(Call(argv, 1, check_compare(dest, ref["prod"]["compare"][str(n)])))
    procs.append(Proc(calls, [str(PROD_CFG)], prepared_inputs()))
    return Iteration(procs, PREPARED_CACHE, 0)


def prepared_inputs() -> list[str]:
    """Files a warm workload needs before its body can start."""
    files = [PREPARED_RUN / "manifest.json"]
    files += [PREPARED_RUN / f"traj_n{n}.csv" for n in range(N_STATES)]
    return [str(f) for f in files]


# Why each workload is here: BENCHMARK.json.
WORKLOADS: dict[str, Callable[[random.Random, dict], Iteration]] = {
    "prod-warm": plan_prod_warm,
    "mid-cold": plan_mid_cold,
    "prod-sticks": plan_prod_sticks,
}
