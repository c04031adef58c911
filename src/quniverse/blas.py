"""The OpenBLAS that numpy's wheel bundles, and the pass's threads.

That one library runs every numpy matmul, so the propagation's GEMMs,
and the solve's LAPACK stages, which `model.diagonalize` binds from it by
name.  This module reads it through ctypes and owns the pass's pool.  It
imports no other quniverse module.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Environment variables that set the thread count of a BLAS other than
# numpy's bundled OpenBLAS (see `library`).
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


@dataclass(frozen=True)
class WheelOpenBLAS:
    """The ctypes handle and thread entry points of numpy's bundled OpenBLAS."""

    lib: ctypes.CDLL
    config: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


@functools.cache
def gemm_openblas() -> WheelOpenBLAS | None:
    """numpy's bundled OpenBLAS (`numpy.libs/libscipy_openblas64_*`), or None if it is absent.

    numpy has loaded it already, so this only opens a second handle.  It
    is the ILP64 build: its symbols end in "64_" and its integers are
    64-bit.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            config, get_threads, set_threads = (
                getattr(lib, f"scipy_openblas_{name}64_")
                for name in ("get_config", "get_num_threads", "set_num_threads"))
        except (OSError, AttributeError):
            continue
        config.argtypes, config.restype = [], ctypes.c_char_p
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return WheelOpenBLAS(lib, config().decode(), get_threads, set_threads)
    return None


def library() -> tuple[str, int]:
    """(identity, thread count) of the library that runs the solve and the GEMMs.

    For numpy's bundled OpenBLAS, `scipy_openblas_get_config64_` names
    the version and the kernel chosen at run time (e.g. "OpenBLAS 0.3.30
    DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64"); with the thread
    count (OPENBLAS_NUM_THREADS) it fixes the solve's summation order.
    Without that library neither can be read: the identity then names
    numpy's version, the core count and every THREAD_VARIABLES setting,
    so runs with other thread settings still get other cache keys, and
    the count is 0.
    """
    found = gemm_openblas()
    if found is not None:
        return found.config, found.get_threads()
    settings = " ".join(f"{name}={os.environ.get(name, '')}" for name in THREAD_VARIABLES)
    return f"unknown LAPACK, numpy {np.__version__}, {os.cpu_count()} cores, {settings}", 0


@contextlib.contextmanager
def gemm_threads(count: int) -> Iterator[None]:
    """Run numpy's OpenBLAS on `count` threads inside the block, then restore its count.

    Does nothing when that library is absent.
    """
    found = gemm_openblas()
    if found is None:
        yield
        return
    before = found.get_threads()
    found.set_threads(count)
    try:
        yield
    finally:
        found.set_threads(before)


def pass_workers() -> int:
    """W, the pass's worker threads: numpy's OpenBLAS thread count, 1 without it (`run_shares`)."""
    found = gemm_openblas()
    return max(1, found.get_threads()) if found is not None else 1


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of `workers` threads, built once per worker count."""
    return ThreadPoolExecutor(workers)


def run_shares(task, items: int) -> None:
    """task(share) for each share of `items` items, on W workers at one OpenBLAS thread each.

    The pass's one parallel primitive.  The direct products, the NUFFT's
    spreading and transforms and the observables' sums are each cut into
    S = min(W, items) shares, W = `pass_workers()`: share w is
    slice(w, None, S), so it takes the items w, w + S, ... (system
    levels, grid blocks or states), whose outputs no other share writes.
    A caller indexes its own sequence of items with that slice.  The
    shares run on one process-wide pool of W threads, with numpy's
    OpenBLAS held at one thread until all are done, as FINUFFT runs
    single-threaded kernels on its workers (Barnett et al., cited in
    `dynamics`); the count is restored before this returns, so before a
    block is yielded.  The first failure is raised only then, so no
    worker still runs when the caller moves on.  A task must not call
    run_shares: it would wait on the pool it runs in.

    No byte can move with W or numpy's thread count: every product runs
    on one OpenBLAS thread with the same shape and operands whatever W is
    (tested from 1 and 2 threads outside the pin), every row is
    transformed alone (pocketfft: single-threaded, releasing the GIL),
    and every sum belongs to one state and one share.  On 2 cores the
    small spreading products (128 x <= 384 x 192) reached ~40 GFLOP/s on
    one 2-thread OpenBLAS, against ~90 for large products, and a second
    FFT thread gained ~10 %; two workers took a production pass's
    propagation from 2.6-2.9 s to 1.9-2.1 s, its observables from
    0.85-0.94 s to 0.47-0.62 s, and one time's direct products from
    ~100 ms to 50-65 ms.  A pool built per call was no faster.
    """
    workers = pass_workers()  # read before the pin, inside which it is 1
    pool, shares = _pool(workers), min(workers, items)
    with gemm_threads(1):
        futures = [pool.submit(task, slice(w, None, shares)) for w in range(shares)]
        wait(futures)
    for future in futures:
        future.result()
