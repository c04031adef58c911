"""quniverse benchmark: time the public CLI on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from anywhere; all paths are relative to the checkout that holds
this file, and everything the benchmark writes stays under
`.bench_build/perfbench` in it.  Every `quniverse` process gets its own
`QUNIVERSE_CACHE_DIR` there, so the user's cache is never read or
written.

The first run in a checkout (or the first after the package sources
change) prepares: one cold production run fills the production cache
entry and the run directory that `sticks` and `compare` read.  It takes
about two minutes and 2.7 GB of memory, and refuses to start when less
memory is available.

Untraced (`--trace 0`), a run repeats the workload's iteration while
another one fits in `--seconds` (at least one), each process fresh, and
prints the median of every end-to-end metric.  Traced (`--trace 1`), it
does the same untraced iterations and then one iteration with spans
around each layer (spans.py), and prints the per-layer metrics.  The
last line of standard output is one JSON object; the lines before it
are a readable table and the environment record.  `--all` prepares,
runs every workload untraced and traced, and prints both tables.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import (
    PREPARED, PREPARED_CACHE, PREPARED_RUN, PROD_CFG, ROOT, SRC, WORK, WORKLOADS,
    Iteration, Proc, load_reference, prepared_inputs, universe_size, unchecked,
)

CHILD = Path(__file__).resolve().parent / "child.py"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 170
PREPARE_TIMEOUT_S = 850
MIB = 1024 * 1024


class BenchError(RuntimeError):
    pass


# -- processes ----------------------------------------------------------

def spawn(proc: Proc, cache_dir: Path, trace: bool, timeout: float = CHILD_TIMEOUT_S,
          with_calls: bool = True) -> dict:
    """Run `proc` in a fresh interpreter; return its result plus set-up time."""
    WORK.mkdir(parents=True, exist_ok=True)
    spec_path, result_path = WORK / "spec.json", WORK / "result.json"
    result_path.unlink(missing_ok=True)
    spec_path.write_text(json.dumps({
        "calls": [c.argv for c in proc.calls] if with_calls else [],
        "configs": proc.configs, "inputs": proc.inputs,
        "src": str(SRC), "trace": trace,
    }))
    env = dict(os.environ, QUNIVERSE_CACHE_DIR=str(cache_dir))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(CHILD), str(spec_path), str(result_path)],
                          env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if done.returncode != 0 or not result_path.exists():
        raise BenchError(f"benchmark process failed ({done.returncode}): {done.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - start
    result["wall_s"] = result["done"] - result["ready"]
    return result


def listing(directory: Path) -> dict[str, tuple[int, int]]:
    if not directory.is_dir():
        return {}
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in directory.iterdir()}


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


# -- preparation --------------------------------------------------------

def fingerprint() -> str:
    """Hash of the package sources and the production config."""
    h = hashlib.sha256()
    for path in sorted((SRC / "quniverse").rglob("*.py")) + [PROD_CFG]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def available_memory_mb() -> float:
    with open("/proc/meminfo") as fh:
        info = {line.split(":")[0]: line.split()[1] for line in fh}
    avail = int(info["MemAvailable"]) / 1024
    limit_file = Path("/sys/fs/cgroup/memory.max")
    usage_file = Path("/sys/fs/cgroup/memory.current")
    if limit_file.exists() and usage_file.exists():
        limit = limit_file.read_text().strip()
        if limit != "max":
            avail = min(avail, (int(limit) - int(usage_file.read_text())) / MIB)
    return avail


def solve_memory_mb(cfg: Path) -> float:
    """Peak of a cold dense solve: H, V and the divide-and-conquer
    workspace are each about n^2 doubles, plus headroom."""
    n = universe_size(cfg)
    return 4 * 8 * n * n / MIB + 256


def ensure_prepared() -> dict:
    """Fill the production cache entry and run directory with the code under test."""
    stamp_path = PREPARED / "stamp.json"
    fp = fingerprint()
    if stamp_path.exists():
        stamp = json.loads(stamp_path.read_text())
        entries = {name.split(".")[0] for name in listing(PREPARED_CACHE)}
        if (stamp.get("fingerprint") == fp and len(entries) == 1
                and all(Path(p).exists() for p in prepared_inputs())):
            return stamp
    shutil.rmtree(PREPARED, ignore_errors=True)
    need, avail = solve_memory_mb(PROD_CFG), available_memory_mb()
    if avail < need:
        raise BenchError(f"preparing needs about {need:.0f} MB for the cold production "
                         f"solve, only {avail:.0f} MB available")
    print(f"preparing: cold production run into {PREPARED} "
          f"(about 2 minutes, {need:.0f} MB)", file=sys.stderr, flush=True)
    argv = ["run", "--config", str(PROD_CFG), "--out", str(PREPARED_RUN)]
    proc = Proc([unchecked(argv)], [str(PROD_CFG)])
    result = spawn(proc, PREPARED_CACHE, trace=False, timeout=PREPARE_TIMEOUT_S)
    if not result["calls"][0]["ok"]:
        raise BenchError(f"prepare run failed: {result['calls'][0]['error']}")
    entries = {name.split(".")[0] for name in listing(PREPARED_CACHE)}
    if len(entries) != 1:
        raise BenchError(f"prepare left {len(entries)} cache entries, expected 1")
    stamp = {"fingerprint": fp, "prepare_s": result["wall_s"],
             "peak_rss_mb": result["maxrss_kb"] / 1024}
    stamp_path.write_text(json.dumps(stamp))
    return stamp


# -- environment --------------------------------------------------------

def blas_threads() -> dict[str, int]:
    """Threads of every OpenBLAS this process has loaded (numpy's, scipy's)."""
    import ctypes

    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and ".so" in line})
    threads = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    return threads


def environment() -> dict:
    import numpy as np
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_config": np.show_config(mode="dicts").get("Build Dependencies"),
        "scipy_config": scipy.show_config(mode="dicts").get("Build Dependencies"),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": os.getloadavg(),
        "mem_available_mb_start": available_memory_mb(),
    }


# -- one iteration ------------------------------------------------------

def run_iteration(it: Iteration, trace: bool) -> dict:
    """Run every process of one iteration, then check outputs and the cache."""
    out = WORK / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    before = listing(it.cache_dir)
    procs = [spawn(p, it.cache_dir, trace) for p in it.procs]
    after = listing(it.cache_dir)

    new = [name for name in after if name not in before]
    entries = {name.split(".")[0] for name in new if not name.endswith(".tmp")}
    touched = [name for name in before if after.get(name) != before[name]]
    problems = []
    if len(entries) != it.new_cache_entries or touched:
        problems.append(f"cache: {len(entries)} new entries (expected {it.new_cache_entries}), "
                        f"{len(touched)} existing files changed or removed")
    attempted, failed = 0, 0
    for proc, res in zip(it.procs, procs):
        for call, outcome in zip(proc.calls, res["calls"]):
            verdicts = call.check() if outcome["ok"] else [outcome["error"]] * call.n_ops
            attempted += call.n_ops
            failed += sum(1 for v in verdicts if v)
            problems += [v for v in verdicts if v]
    if problems and problems[0].startswith("cache:"):
        failed = attempted  # a wrong hit or miss voids every op of the iteration
    new_bytes = sum(after[name][0] for name in new)
    output_bytes = tree_bytes(out)

    shutil.rmtree(out, ignore_errors=True)
    if it.cache_dir.is_relative_to(WORK):
        shutil.rmtree(it.cache_dir, ignore_errors=True)
    return {
        "procs": procs,
        "wall_s": sum(p["wall_s"] for p in procs),
        "cpu_s": sum(p["cpu_s"] for p in procs),
        "peak_rss_mb": max(p["maxrss_kb"] for p in procs) / 1024,
        "disk_written_mb": (output_bytes + new_bytes) / 1e6,
        "output_mb": output_bytes / 1e6,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


# -- one benchmark run --------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Iterate workload `name` for about `seconds`; return its metrics."""
    plan, ref = WORKLOADS[name], load_reference()
    shutil.rmtree(WORK, ignore_errors=True)
    rng = random.Random(f"{name}/{seed}")
    probe = plan(random.Random(f"{name}/{seed}/probe"), ref).procs[0]

    def probe_setups(count: int) -> list[float]:
        return [spawn(probe, PREPARED_CACHE, False, with_calls=False)["setup_s"]
                for _ in range(count)]

    probe_setups(1)  # fills the bytecode cache, as any earlier use of the package would
    setups = [] if trace else probe_setups(SETUP_PROBES // 2)
    iterations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        iterations.append(run_iteration(plan(rng, ref), trace=False))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    if not trace:
        setups += probe_setups(SETUP_PROBES - SETUP_PROBES // 2)
    traced = run_iteration(plan(rng, ref), trace=True) if trace else None
    shutil.rmtree(WORK, ignore_errors=True)

    done = iterations + ([traced] if traced else [])
    attempted = sum(it["attempted"] for it in done)
    failed = sum(it["failed"] for it in done)

    def median(key: str) -> float:
        return statistics.median(it[key] for it in iterations)

    result = {
        "workload": name, "seed": seed, "trace": trace, "iterations": len(iterations),
        "attempted": attempted, "failed": failed,
        "problems": [p for it in done for p in it["problems"]],
    }
    if not trace:
        setups += [p["setup_s"] for it in iterations for p in it["procs"]]
        result["metrics"] = {
            "wall_s": (median("wall_s"), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (median("peak_rss_mb"), "MB"),
            "disk_written_mb": (median("disk_written_mb"), "MB"),
            "success_rate": ((attempted - failed) / attempted, "ratio"),
        }
        return result

    layers = spans.layer_metrics(traced["procs"], traced["wall_s"])
    wall = median("wall_s")
    layers.update({
        "cli.output_mb": traced["output_mb"],
        "proc.import_s": statistics.median(p["import_s"] for it in iterations
                                           for p in it["procs"]),
        "proc.cpu_s": median("cpu_s"),
        "proc.cpu_per_wall": median("cpu_s") / wall,
        "trace.overhead_s": traced["wall_s"] - wall,
        "prepare_s": json.loads((PREPARED / "stamp.json").read_text())["prepare_s"],
    })
    units = {m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text())["per_layer"]}
    result["metrics"] = {k: (v, units[k]) for k, v in layers.items()}
    result["absent"] = spans.absent_names(traced["procs"])
    result["traced_wall_s"] = traced["wall_s"]
    return result


# -- reporting ----------------------------------------------------------

# Share of the traced wall time each workload's dominant layers should
# take, predicted from profiling before the benchmark existed.
PREDICTIONS = {
    "prod-warm": ("share.dynamics", ("share.dynamics",), 0.70),
    "mid-cold": ("model.solve_s / wall", ("model.solve_s",), 0.85),
    "prod-sticks": ("(model.assemble_s + cache.load_s) / wall",
                    ("model.assemble_s", "cache.load_s"), 0.70),
}

BASELINE_ROWS = (  # ROADMAP Baseline table: (row, workload, metric)
    ("assemble H", "prod-warm", "model.assemble_s"),
    ("solve (evd), 4572 states", "mid-cold", "model.solve_s"),
    ("cache load", "prod-warm", "cache.load_s"),
    ("propagate, 6 states x 600 t", "prod-warm", "dynamics.propagate_s"),
    ("observables", "prod-warm", "observables.busy_s"),
    ("write CSV/JSON", "prod-warm", "cli.write_s"),
)


def prediction(result: dict) -> str:
    label, keys, floor = PREDICTIONS[result["workload"]]
    m = result["metrics"]
    value = sum(m[k][0] for k in keys)
    if not keys[0].startswith("share."):
        value /= result["traced_wall_s"]
    shares = {k: v for k, (v, _) in m.items() if k.startswith("share.")}
    largest = max(shares, key=shares.get)
    verdict = "holds" if value >= floor else "FAILS"
    return (f"largest layer {largest.removeprefix('share.')} {shares[largest]:.1%}; "
            f"prediction {label} >= {floor:.0%}: {value:.1%} ({verdict})")


def print_table(result: dict) -> None:
    kind = "per-layer (traced)" if result["trace"] else "end-to-end"
    print(f"== {result['workload']} seed {result['seed']}: {kind}, "
          f"{result['iterations']} untraced iteration(s), "
          f"ops {result['attempted'] - result['failed']}/{result['attempted']} ok")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    if result["trace"]:
        for name in result["absent"]:
            print(f"  {name:28s} {'absent':>14s}")
        print(f"  {prediction(result)}")
    for problem in result["problems"][:10]:
        print(f"  FAILED: {problem}")


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def run_all(seed: int, seconds: float) -> list[dict]:
    stamp = ensure_prepared()
    print(f"prepare_s {stamp['prepare_s']:.1f} s, peak RSS {stamp['peak_rss_mb']:.0f} MB")
    results = []
    for name in WORKLOADS:
        for trace in (False, True):
            results.append(measure(name, seed, seconds, trace))
            print_table(results[-1])
    by = {(r["workload"], r["trace"]): r["metrics"] for r in results}
    print("== ROADMAP Baseline rows (traced run)")
    for row, workload, metric in BASELINE_ROWS:
        value, unit = by[(workload, True)][metric]
        print(f"  {row:30s} {value:10.3f} {unit}   ({workload}: {metric})")
    warm = by[("prod-warm", False)]
    print(f"  {'warm run total':30s} {warm['wall_s'][0]:10.3f} s   "
          f"(prod-warm: wall_s, peak RSS {warm['peak_rss_mb'][0]:.0f} MB)")
    print(f"  {'cold production run':30s} {stamp['prepare_s']:10.3f} s   "
          f"(prepare_s, peak RSS {stamp['peak_rss_mb']:.0f} MB)")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="prepare and run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")

    missing = [p for p in (SRC / "quniverse" / "cli.py", PROD_CFG, BENCHMARK_JSON)
               if not p.exists()]
    if missing:
        print(f"not a quniverse checkout, missing: {[str(p) for p in missing]}",
              file=sys.stderr)
        return 2
    seconds = args.seconds or json.loads(BENCHMARK_JSON.read_text())["run_seconds"]
    # Turn SIGTERM into SystemExit, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = environment()
    try:
        if args.all:
            results = run_all(args.seed, seconds)
        else:
            ensure_prepared()
            results = [measure(args.workload, args.seed, seconds, bool(args.trace))]
            print_table(results[0])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    env.update(loadavg_end=os.getloadavg(), mem_available_mb_end=available_memory_mb())
    print("# env " + json.dumps(env))
    if args.all:
        print(json.dumps({"results": [
            {k: r[k] for k in ("workload", "seed", "attempted", "failed", "metrics")}
            for r in results]}))
    else:
        print(result_line(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
