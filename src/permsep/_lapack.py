"""Foreign calls into numpy's bundled OpenBLAS, and the thread policy.

This module owns every ``ctypes`` call of the package, the OpenBLAS thread
count and the in-place Cholesky test, and the worker threads that share an
evaluation's stacks of orbits.  It imports no permsep module.  Without
numpy's bundled OpenBLAS the Cholesky test falls back to np.linalg, and the
thread count is left alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading

import numpy as np

# One OpenBLAS thread beats two on SVDs up to dim 361 (19^2) and loses from
# dim 400 (20^2) on, measured on a 2-core host; no d^r lies in between.
# A call that runs on several threads also leaves OpenBLAS's helper threads
# spinning for about 0.1-0.2 s before they sleep, on the cores the
# evaluation's workers then need: a dim-64 evaluation (r = 6) took
# 0.103-0.117 s right after its state's Cholesky test on two threads, and
# 0.068 s after a call on one.  So the library's BLAS calls on a state
# before its evaluation, the positivity check and random_state's Gram
# product, take the same route, and so does the public trace_norm; on one
# thread zpotrf costs at most about 1 ms more (dim 361: 3.3 against 2.2 ms;
# dims 64-256 equal within noise).
_ONE_THREAD_MAX_DIM = 361
# On the one-thread route, an evaluation's stacks of orbits are shared among
# up to _MAX_WORKERS threads: one worker per GIL-free stack.  np.linalg
# holds the GIL while it decomposes a stack of k dim-n matrices unless
# k * n > _GIL_RELEASE_SIZE, numpy's threshold for releasing it in a ufunc
# loop.  On a 2-core host two threads overlapped 1.5-2.0x on stacks of 4
# dim-128, 8 dim-64, 16 dim-32 or 5 dim-125 SVDs, and at most 1.2x on stacks
# of 3 dim-128, 4 dim-64 or 4 dim-125 SVDs, or on one dim-500 SVD.  So a
# second worker starts only for a second stack that releases the GIL.  Two
# workers against one, medians of alternating evaluations on a 2-core host:
# dim 64 1.9x, 81 1.1-1.6x and 128 1.7-2.1x; but 0.7-0.8x at dim 32 (r = 5:
# one stack of 55 SVDs, and one of 15 eigvalsh, which holds the GIL) and
# 0.8-1.0x at dim 125 (r = 3: stacks of 3), which this rule keeps serial.
# The 1 MiB stacks of states.py keep dims outside 32-128 serial too: from
# dim 129 on a stack holds at most 3 matrices, and 3 * 147 < 500, so none
# releases the GIL; below dim 32 no r <= 8 has two stacks that do.  So two
# workers start only at dims 64, 81 and 128, and 32 for unpaired orbits.
# Only two workers have been measured.  A third would save a sixth of the
# serial time where the second saves half, for another thread start; and
# os.sched_getaffinity does not see a cgroup's CPU quota, so without the cap
# a container given 2 CPUs of a large host would start one per host CPU.
_MAX_WORKERS = 2
_GIL_RELEASE_SIZE = 500


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS as a ``ctypes`` library, or None when numpy's
    BLAS is not scipy-openblas.  Looked up on first use, so that importing
    permsep does not pay for it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return None
    site = os.path.dirname(os.path.dirname(np.__file__))
    libs = glob.glob(os.path.join(site, "numpy.libs", "libscipy_openblas*.so*"))
    if blas != "scipy-openblas" or len(libs) != 1:
        return None
    try:
        # numpy has loaded this file already, so dlopen returns numpy's copy
        return ctypes.CDLL(libs[0])
    except OSError:
        return None


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    when there is no such library or the symbols are missing."""
    lib = _openblas()
    try:
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except AttributeError:  # also when lib is None
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@functools.cache
def _zpotrf():
    """The ``ctypes`` function of LAPACK's zpotrf in numpy's bundled
    OpenBLAS, or None when there is no such library or the symbol is
    missing.  ctypes releases the GIL for the duration of each call."""
    try:
        routine = _openblas().scipy_zpotrf_64_
    except AttributeError:  # also when there is no library
        return None
    # Fortran passes every argument by reference, and the length of the
    # character flag hidden at the end.  The library is ILP64: its integers
    # are 64-bit.
    routine.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 4 + [ctypes.c_size_t]
    routine.restype = None
    return routine


def _factor_in_place(a: np.ndarray) -> bool:
    """Whether the Hermitian C-contiguous a has a Cholesky factor, read from
    its lower triangle; a is overwritten.

    LAPACK's zpotrf factors a in its own buffer.  It reads a in Fortran
    order, as conj(a), which has a factor exactly when a has, and whose
    upper triangle is a's lower one.  Without that symbol,
    ``np.linalg.cholesky`` decides, at the cost of a factor that is thrown
    away.
    """
    zpotrf = _zpotrf()
    if zpotrf is None:
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return False
        return True
    integers = np.array([len(a), 0], dtype=np.int64)  # n, then info
    n = integers.ctypes.data
    zpotrf(b"U", n, a.ctypes.data, n, n + 8, 1)
    return not integers[1]


# --- workers and BLAS threads ------------------------------------------------------


def _worker_count(dim: int, stacks: list[int]) -> int:
    """The threads, the caller included, that share an evaluation's stacks
    of dim-dim matrices, of the given sizes, on the one-thread route: one
    per stack that np.linalg decomposes without holding the GIL, up to
    _MAX_WORKERS and one per usable CPU, and at least 1."""
    free = sum(size * dim > _GIL_RELEASE_SIZE for size in stacks)
    return max(1, min(_MAX_WORKERS, len(os.sched_getaffinity(0)), free))


def _share(jobs: list, task, workers: int) -> None:
    """Run task(job) for every job on ``workers`` threads, the caller one of
    them, each taking the next job as it finishes one.  An error stops the
    others at their next job and is re-raised here once all have joined; so
    is one raised while the caller starts or joins them, a signal included.

    The caller works too, and a job costs one lock: concurrent.futures'
    ThreadPoolExecutor with two threads, a future per job and the caller
    waiting, evaluated 1.55x slower than this at dim 32, slower even than
    the serial route (13.5 against 11.3 ms), and 1.03-1.25x slower at dims
    64-128 (medians of alternating evaluations, 2-core host).
    """
    pending, lock, errors = iter(jobs), threading.Lock(), []

    def work() -> None:
        try:
            while not errors:
                with lock:
                    job = next(pending, None)
                if job is None:
                    return
                task(job)
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    started = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=work, name="permsep-worker")
            thread.start()
            started.append(thread)
        work()
        for thread in started:
            thread.join()
    except BaseException:  # a thread that could not start, or a signal
        errors.append(None)  # stops the others at their next job
        for thread in started:
            thread.join()
        raise
    if errors:
        raise errors[0]


@contextlib.contextmanager
def _blas_threads_for(dim: int):
    """Run the block on one OpenBLAS thread when dim <= _ONE_THREAD_MAX_DIM,
    and restore the caller's count afterwards, errors included; larger dims,
    and a BLAS that is not numpy's bundled OpenBLAS, keep the caller's count.
    Yields whether the block runs on one thread.

    The library's BLAS calls on a state before its evaluation run here too,
    so that no OpenBLAS helper thread spins into the evaluation (see
    _ONE_THREAD_MAX_DIM).  A count that is already 1 is left alone, so a
    scope inside another one, on an evaluation's worker threads among
    them, never sets the count."""
    threads = _openblas_threads() if dim <= _ONE_THREAD_MAX_DIM else None
    if threads is None:
        yield False
        return
    get, set_ = threads
    caller = get()
    if caller == 1:
        yield True
        return
    set_(1)
    try:
        yield True
    finally:
        set_(caller)
