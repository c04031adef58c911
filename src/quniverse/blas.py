"""numpy's bundled OpenBLAS, which the package requires, the pass's threads, and
numpy's SIMD level.

numpy's PyPI wheel bundles OpenBLAS.  That one library runs every numpy
matmul, so the propagation's GEMMs, and the solve's LAPACK stages, which
`model.diagonalize` calls through `lapack`.  This module is the only one
that knows the library: it opens it through ctypes, calls its routines
and owns the pass's pool.  It imports no other quniverse module.

The solve is the only multi-threaded BLAS call.  Every product over V
runs inside `gemm_threads(1)`: the pass's shares (`run_shares`), Vᵀc(0)
and the eigen check; so does the NUFFT's kernel transform.  So a cache
hit wakes no OpenBLAS worker, which would spin ~2**28 cycles before it
sleeps, on a core the pass needs.

numpy's own SIMD dispatch picks the loops of its ufuncs, and those of
float64 `log` and `exp` give other bytes at X86_V3 than at X86_V4.  The
outputs take both, so their bytes depend on `simd_level` as well as on
the OpenBLAS kernel; the solve and the fill take neither.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__


@dataclass(frozen=True)
class WheelOpenBLAS:
    """The ctypes handle and thread entry points of numpy's bundled OpenBLAS."""

    lib: ctypes.CDLL
    config: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


@functools.cache
def gemm_openblas() -> WheelOpenBLAS:
    """numpy's bundled OpenBLAS (`numpy.libs/libscipy_openblas64_*`); RuntimeError if it is absent.

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
    raise RuntimeError("quniverse needs the OpenBLAS that numpy's PyPI wheel bundles, and "
                       f"{libs} holds no libscipy_openblas64_*; install numpy from its "
                       "PyPI wheel")


def library() -> tuple[str, int]:
    """(identity, thread count) of numpy's OpenBLAS, which runs the solve and the GEMMs.

    `scipy_openblas_get_config64_` names the version and the kernel
    chosen at run time (e.g. "OpenBLAS 0.3.30 DYNAMIC_ARCH NO_AFFINITY
    SkylakeX MAX_THREADS=64"); with the thread count
    (OPENBLAS_NUM_THREADS) it fixes the solve's summation order.
    """
    found = gemm_openblas()
    return found.config, found.get_threads()


def simd_level() -> str:
    """The highest of numpy's x86-64 levels X86_V2, X86_V3 and X86_V4 that its SIMD dispatch
    takes on this process ("none" if none does), as `numpy.show_runtime()` lists them.

    NPY_DISABLE_CPU_FEATURES can lower it, as on a host with no AVX-512.
    """
    return next((level for level in ("X86_V4", "X86_V3", "X86_V2") if __cpu_features__.get(level)),
                "none")


def lapack(name: str, *args) -> None:
    """Call LAPACK's `name` on `args` and a trailing info; raise if info is not 0.

    The routine is `scipy_<name>_64_`, a Fortran routine of the ILP64
    build: every argument is a pointer, so a str goes as `char *`, an
    int as `int64_t *` and an array as its data pointer, and each str's
    length follows them all.  ctypes releases the GIL for the call.
    """
    info = ctypes.c_int64(0)
    pointers = [a.encode() if isinstance(a, str)
                else ctypes.byref(ctypes.c_int64(a)) if isinstance(a, int)
                else a.ctypes.data for a in args]
    lengths = [len(a) for a in args if isinstance(a, str)]
    routine = getattr(gemm_openblas().lib, f"scipy_{name}_64_")
    routine.argtypes = [ctypes.c_void_p] * (len(args) + 1) + [ctypes.c_size_t] * len(lengths)
    routine.restype = None
    routine(*pointers, ctypes.byref(info), *lengths)
    if info.value != 0:
        raise RuntimeError(f"{name} returned info={info.value}")


@contextlib.contextmanager
def gemm_threads(count: int) -> Iterator[None]:
    """Run numpy's OpenBLAS on `count` threads inside the block, then restore its count."""
    found = gemm_openblas()
    before = found.get_threads()
    found.set_threads(count)
    try:
        yield
    finally:
        found.set_threads(before)


def pass_workers() -> int:
    """W, the pass's worker threads: numpy's OpenBLAS thread count (`run_shares`)."""
    return max(1, gemm_openblas().get_threads())


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
