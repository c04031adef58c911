"""Spans around the quniverse layers, and per-layer metrics from them.

The tracer patches public names where the program calls them (for
example `quniverse.cli.propagate_to_times`, which cli imported by name),
so the program carries no tracing code.  A span is (name, start, end,
parent), kept in memory and written out when the process ends.  A name
that a later version of the program no longer has is reported as absent
instead of failing the run, and a hook that cannot read a changed return
value is counted, not raised.

Layers are the package modules; a span's name starts with its layer.
Self time is a span's duration minus the part its child spans cover, so
a layer's self time is the time in which its innermost span was active.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("rng", "model", "cache", "dynamics", "observables", "analysis", "cli")

# (span name, module, attribute path), patched at the module that calls it.
TARGETS = (
    ("rng.gaussian", "quniverse.rng", "SeededRng.gaussian"),
    ("model.assemble_hamiltonian", "quniverse.cli", "assemble_hamiltonian"),
    ("model.build_environment", "quniverse.model", "build_environment"),
    ("model.build_basis", "quniverse.model", "build_basis"),
    ("model.build_hamiltonian_matrix", "quniverse.model", "build_hamiltonian_matrix"),
    ("model.diagonalize", "quniverse.model", "diagonalize"),
    ("cache.solve_with_cache", "quniverse.cache", "solve_with_cache"),
    ("cache.load_eigensystem", "quniverse.cache", "load_eigensystem"),
    ("cache.store_eigensystem", "quniverse.cache", "store_eigensystem"),
    ("dynamics.initial_state", "quniverse.cli", "initial_state"),
    ("dynamics.propagate_to_times", "quniverse.cli", "propagate_to_times"),
    ("dynamics.propagate", "quniverse.cli", "propagate"),
    ("observables.observable_record", "quniverse.cli", "observable_record"),
    ("analysis.entropy_production_rate", "quniverse.cli", "entropy_production_rate"),
    ("analysis.detect_negative_production", "quniverse.cli", "detect_negative_production"),
    ("analysis.shell_decompose", "quniverse.cli", "shell_decompose"),
    ("analysis.stick_diagram", "quniverse.cli", "stick_diagram"),
    ("cli.main", "quniverse.cli", "main"),
    ("cli.run_experiment", "quniverse.cli", "run_experiment"),
    ("cli.compare_free_energy", "quniverse.cli", "compare_free_energy"),
    ("cli.read_trajectory", "quniverse.cli", "read_trajectory"),
    ("cli._sticks_from_manifest", "quniverse.cli", "_sticks_from_manifest"),
    ("cli._write_trajectory", "quniverse.cli", "_write_trajectory"),
    ("cli._write_sticks", "quniverse.cli", "_write_sticks"),
)

ASSEMBLY = ("model.build_environment", "model.build_basis", "model.build_hamiltonian_matrix")
PROPAGATION = ("dynamics.propagate_to_times", "dynamics.propagate")
WRITERS = ("cli._write_trajectory", "cli._write_sticks")
READERS = ("cli.compare_free_energy", "cli.read_trajectory")
RESIDUAL_ROWS = 16


# -- recording (runs inside the traced process) -------------------------

class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.hook_errors = 0

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0.0), value)

    def install(self) -> None:
        for name, module, path in TARGETS:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            if owner is None or not callable(getattr(owner, attr, None)):
                self.absent.append(name)
                continue
            setattr(owner, attr, self._wrap(name, getattr(owner, attr)))

    def _wrap(self, name, fn):
        before, after = _BEFORE.get(name), _AFTER.get(name)

        def traced(*args, **kwargs):
            state = self._hook(before, args, kwargs) if before else None
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.spans[idx][1:3] = t0, t1
            if after:
                self._hook(after, state, args, kwargs, result)
            return result

        return traced

    def _hook(self, hook, *args):
        try:
            return hook(self, *args)
        except Exception:  # a changed signature must not fail the traced run
            self.hook_errors += 1
            return None

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "absent": self.absent, "hook_errors": self.hook_errors}


def _arrays(args, kwargs):
    import numpy as np
    return [a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]


def _gaussian_after(tr, state, args, kwargs, result):
    import numpy as np
    tr.add("rng.draws", np.size(result))


def _diagonalize_before(tr, args, kwargs):
    # Copy a few rows of H before the solve, which may overwrite H in place.
    import numpy as np
    (h,) = _arrays(args, kwargs)[:1]
    rows = np.unique(np.linspace(0, h.shape[0] - 1, RESIDUAL_ROWS).astype(int))
    return rows, np.array(h[rows, :])


def _diagonalize_after(tr, state, args, kwargs, result):
    import numpy as np
    tr.add("model.solves", 1)
    rows, h_rows = state
    w, v = result
    residual = float(np.abs(h_rows @ v - v[rows, :] * w).max())
    tr.peak("model.eig_residual", residual)


def _load_after(tr, state, args, kwargs, result):
    if result is None:
        tr.add("cache.misses", 1)
    else:
        tr.add("cache.hits", 1)
        tr.add("cache.read_mb", sum(a.nbytes for a in result) / 1e6)


def _store_after(tr, state, args, kwargs, result):
    tr.add("cache.written_mb", sum(a.nbytes for a in _arrays(args, kwargs)) / 1e6)


def _norm_drift(tr, amplitudes):
    import numpy as np
    norms = np.linalg.norm(np.atleast_2d(amplitudes), axis=1)
    tr.peak("dynamics.norm_drift", float(np.abs(norms - 1.0).max()))


def _propagate_to_times_after(tr, state, args, kwargs, result):
    steps, n = result.shape
    tr.add("dynamics.flop", 4.0 * n * n * (steps + 1))
    tr.peak("dynamics.amplitude_mb", result.nbytes / 1e6)
    _norm_drift(tr, result)


def _propagate_after(tr, state, args, kwargs, result):
    n = result.amplitudes.size
    tr.add("dynamics.flop", 4.0 * n * n * 2)
    _norm_drift(tr, result.amplitudes)


_BEFORE = {"model.diagonalize": _diagonalize_before}
_AFTER = {
    "rng.gaussian": _gaussian_after,
    "model.diagonalize": _diagonalize_after,
    "cache.load_eigensystem": _load_after,
    "cache.store_eigensystem": _store_after,
    "dynamics.propagate_to_times": _propagate_to_times_after,
    "dynamics.propagate": _propagate_after,
}


# -- analysis (runs in the benchmark process) ---------------------------

class SpanSet:
    """Spans of several processes with durations, self times and parents."""

    def __init__(self, traces: list[dict]):
        self.name, self.dur, self.parent = [], [], []
        for trace in traces:
            offset = len(self.name)
            for name, t0, t1, parent in trace["spans"]:
                self.name.append(name)
                self.dur.append(t1 - t0)
                self.parent.append(parent + offset if parent >= 0 else -1)
        covered = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, covered)]

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s for n, s in zip(self.name, self.self_time) if n.startswith(prefix))

    def self_of(self, *names: str) -> float:
        return sum(s for n, s in zip(self.name, self.self_time) if n in names)

    def count(self, *names: str) -> int:
        return sum(n in names for n in self.name)

    def duration(self, *names: str) -> float:
        """Time inside any of `names`, counting nested ones once."""
        group = set(names)
        total = 0.0
        for i, n in enumerate(self.name):
            if n in group and not self._has_ancestor_in(i, group):
                total += self.dur[i]
        return total

    def _has_ancestor_in(self, i: int, group: set) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] in group:
                return True
            p = self.parent[p]
        return False

    def roots(self) -> float:
        return sum(d for d, p in zip(self.dur, self.parent) if p < 0)


def layer_metrics(traced: list[dict], traced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (one dict per process)."""
    traces = [p["trace"] for p in traced]
    spans = SpanSet(traces)
    counts: dict[str, float] = {}
    for t in traces:
        for k, v in t["counts"].items():
            peak = k in ("model.eig_residual", "dynamics.norm_drift", "dynamics.amplitude_mb")
            counts[k] = max(counts.get(k, 0.0), v) if peak else counts.get(k, 0.0) + v
    propagate_s = spans.duration(*PROPAGATION)
    records = spans.count("observables.observable_record")
    observables_s = spans.duration("observables.observable_record")
    m = {
        "rng.draws": counts.get("rng.draws", 0.0),
        "rng.busy_s": spans.layer_self("rng"),
        "model.assemble_s": spans.duration(*ASSEMBLY),
        "model.fill_s": spans.self_of("model.build_hamiltonian_matrix"),
        "model.solve_s": spans.duration("model.diagonalize"),
        "model.solves": counts.get("model.solves", 0.0),
        "model.eig_residual": counts.get("model.eig_residual", 0.0),
        "cache.hits": counts.get("cache.hits", 0.0),
        "cache.misses": counts.get("cache.misses", 0.0),
        "cache.load_s": spans.duration("cache.load_eigensystem"),
        "cache.store_s": spans.duration("cache.store_eigensystem"),
        "cache.read_mb": counts.get("cache.read_mb", 0.0),
        "cache.written_mb": counts.get("cache.written_mb", 0.0),
        "dynamics.propagate_s": propagate_s,
        "dynamics.gflops": counts.get("dynamics.flop", 0.0) / propagate_s / 1e9 if propagate_s else 0.0,
        "dynamics.amplitude_mb": counts.get("dynamics.amplitude_mb", 0.0),
        "dynamics.norm_drift": counts.get("dynamics.norm_drift", 0.0),
        "observables.records": float(records),
        "observables.busy_s": observables_s,
        "observables.us_per_record": 1e6 * observables_s / records if records else 0.0,
        "analysis.busy_s": spans.layer_self("analysis"),
        "cli.self_s": spans.layer_self("cli"),
        "cli.write_s": spans.duration(*WRITERS),
        "cli.read_s": spans.duration(*READERS),
        "trace.coverage": spans.roots() / traced_wall,
        "trace.absent": float(len(absent_names(traced))),
        "trace.hook_errors": float(sum(t["hook_errors"] for t in traces)),
    }
    for layer in LAYERS:
        m[f"share.{layer}"] = spans.layer_self(layer) / traced_wall
    return m


def absent_names(traced: list[dict]) -> list[str]:
    return sorted(set().union(*(p["trace"]["absent"] for p in traced)))
