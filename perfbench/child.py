"""Run quniverse CLI calls in one fresh process and report how they went.

Usage: python3 child.py SPEC.json RESULT.json

SPEC names the CLI argument lists to pass to `quniverse.cli.main`, the
config files to parse and the input files to find during set-up, the
source directory the package must come from, and whether to trace.
Set-up ends ("ready") once the package is imported, the configs parse
and the inputs exist; the body is the CLI calls.  RESULT receives the
`time.perf_counter` stamps (CLOCK_MONOTONIC on Linux, so the parent can
compare them with its own), the body's CPU time, the process's peak
RSS, each call's outcome and, when tracing, the recorded spans.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    t0 = time.perf_counter()
    import quniverse.cli
    from quniverse.config import ModelConfig
    import_s = time.perf_counter() - t0

    if not Path(quniverse.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        print(f"quniverse imported from {quniverse.__file__}, not from {spec['src']}",
              file=sys.stderr)
        return 3
    for cfg in spec["configs"]:
        ModelConfig.from_file(cfg)
    missing = [p for p in spec["inputs"] if not Path(p).exists()]
    if missing:
        print(f"prepared inputs missing: {missing}", file=sys.stderr)
        return 3
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    ready = time.perf_counter()
    cpu0 = _cpu_s()
    calls = []
    for argv in spec["calls"]:
        try:
            code = quniverse.cli.main(argv)
            calls.append({"ok": code == 0, "error": None if code == 0 else f"exit code {code}"})
        except (Exception, SystemExit):  # one failed op must not hide the others
            calls.append({"ok": False, "error": traceback.format_exc(limit=-3)})
    done = time.perf_counter()
    cpu1 = _cpu_s()

    result = {
        "ready": ready,
        "done": done,
        "import_s": import_s,
        "cpu_s": cpu1 - cpu0,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calls": calls,
        "trace": tracer.dump() if tracer else None,
    }
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
