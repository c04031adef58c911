"""Write reference.json: the output values the benchmark checks against.

    python3 perfbench/record_reference.py

Runs every input the workload pools can draw (workloads.py) through the
`quniverse` CLI of this checkout, in the benchmark's own directories,
and records the values the checks compare: per-state summary.json
fields, the compare report's late-window discrepancy, and the shell-5
population of each sticks CSV.  Run it only on code whose outputs are
known to be right; it takes about five minutes.
"""

from __future__ import annotations

import json
import shutil

from run import PREPARE_TIMEOUT_S, ensure_prepared, spawn
from workloads import (
    COMPARE_FIELDS, MID_COLD_OVERRIDES, MID_COLD_SEEDS, N_STATES, PREPARED_CACHE,
    PREPARED_RUN, PROD_CFG, REFERENCE, SHELL, STICK_TIMES_PS, SUMMARY_FIELDS, WORK,
    Proc, csv_columns, derived_config, unchecked,
)


def run_calls(calls: list[list[str]], configs: list[str], cache) -> None:
    result = spawn(Proc([unchecked(argv) for argv in calls], configs), cache,
                   trace=False, timeout=PREPARE_TIMEOUT_S)
    errors = [c["error"] for c in result["calls"] if not c["ok"]]
    if errors:
        raise SystemExit(f"reference run failed: {errors[0]}")


def summary(out) -> dict:
    rows = json.loads((out / "summary.json").read_text())["states"]
    return {str(r["n"]): {k: r[k] for k in SUMMARY_FIELDS} for r in rows}


def main() -> None:
    ensure_prepared()
    shutil.rmtree(WORK, ignore_errors=True)
    out = WORK / "out"

    calls = []
    for n in range(N_STATES):
        traj = str(PREPARED_RUN / f"traj_n{n}.csv")
        calls.append(["compare", "--traj", traj, "--out", str(out / f"compare_n{n}.json")])
        for t in STICK_TIMES_PS:
            calls.append(["sticks", "--traj", traj, "--time-ps", repr(t),
                          "--out", str(out / f"sticks_n{n}_t{t}.csv")])
    out.mkdir(parents=True)
    run_calls(calls, [str(PROD_CFG)], PREPARED_CACHE)
    compare, sticks = {}, {}
    for n in range(N_STATES):
        report = json.loads((out / f"compare_n{n}.json").read_text())
        compare[str(n)] = {k: report[k] for k in COMPARE_FIELDS}
        sticks[str(n)] = {}
        for t in STICK_TIMES_PS:
            p, shell = csv_columns(out / f"sticks_n{n}_t{t}.csv", "p", "shell")
            sticks[str(n)][repr(t)] = sum(pk for pk, s in zip(p, shell) if s == SHELL)

    cfg = derived_config("mid", MID_COLD_OVERRIDES)
    run_calls([["run", "--config", str(cfg), "--out", str(out / f"mid_s{s}"), "--seed", str(s),
              "--states", "0", "--n-points", "60"] for s in MID_COLD_SEEDS],
            [str(cfg)], WORK / "cache")
    mid_cold = {str(s): summary(out / f"mid_s{s}") for s in MID_COLD_SEEDS}

    reference = {
        "prod": {"summary": summary(PREPARED_RUN), "compare": compare, "sticks_shell5": sticks},
        "mid_cold": mid_cold,
    }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
