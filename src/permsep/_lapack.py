"""Foreign calls into numpy's bundled OpenBLAS, and the thread policy.

This module owns every ``ctypes`` call of the package: the OpenBLAS thread
count, the LAPACK routines that decompose without holding the GIL, the
in-place Cholesky test, and the worker threads that share an evaluation's
orbits.  It imports no permsep module.  Without numpy's bundled OpenBLAS
each entry point falls back to np.linalg, or leaves the thread count alone.
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
# On the one-thread route, dims _WORKER_MIN_DIM to _WORKER_MAX_DIM share an
# evaluation's orbits among up to _MAX_WORKERS threads, since the LAPACK
# layer below releases the GIL, which np.linalg holds for one matrix up to
# dim 256 at least.  Two workers against the serial route, medians of
# alternating evaluations on a 2-core host: dim 8 0.29x, 16 0.51x, 27 0.81x;
# 32 1.43x, 64 1.33-1.71x, 81 1.63x, 125 1.62x, 128 1.92x.  Starting a
# thread costs about 0.2 ms, and more while the host takes CPU time away.
# Above _WORKER_MAX_DIM, a second matrix in flight and the layer's buffer
# would each add one matrix to an evaluation's traced peak, which is 1.2x
# one matrix at dim 256 (16^2), so dims 129-361 stay serial, on np.linalg.
# Only two workers have been measured.  A third would save a sixth of the
# serial time where the second saves half, for another thread start; and
# os.sched_getaffinity does not see a cgroup's CPU quota, so without the cap
# a container given 2 CPUs of a large host would start one per host CPU.
_WORKER_MIN_DIM = 32
_WORKER_MAX_DIM = 128
_MAX_WORKERS = 2


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


# LAPACK routines of numpy's bundled OpenBLAS: (character flags, pointer
# arguments).  Fortran passes every argument by reference, and the length
# of each character flag hidden at the end.  The library is ILP64: its
# integers are 64-bit.
_LAPACK_ARGUMENTS = {"zpotrf": (1, 4), "zgesdd": (1, 14), "dgesdd": (1, 13), "zheevd": (2, 11)}


@functools.cache
def _lapack(name: str):
    """The ``ctypes`` function of LAPACK routine ``name`` in numpy's bundled
    OpenBLAS, or None when there is no such library or the symbol is
    missing.  ctypes releases the GIL for the duration of each call."""
    try:
        routine = getattr(_openblas(), f"scipy_{name}_64_")
    except AttributeError:  # also when there is no library
        return None
    flags, pointers = _LAPACK_ARGUMENTS[name]
    routine.argtypes = [ctypes.c_char_p] * flags + [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * flags
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
    zpotrf = _lapack("zpotrf")
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


# --- the LAPACK layer ------------------------------------------------------------
#
# np.linalg keeps the GIL while it decomposes one matrix, so threads over it
# take turns.  These kernels call the same routines with the same workspace
# sizes on the same Fortran-order copy of the operand, so their values are
# bitwise numpy's, but through ctypes, which releases the GIL.  Each thread
# keeps one operand buffer, which all three routines share, and each
# routine's workspace, for the last dim it saw.

_SVD_ROUTINES = {np.dtype(np.complex128): "zgesdd", np.dtype(np.float64): "dgesdd"}
_LAPACK_ERRORS = {
    "zgesdd": "SVD did not converge",
    "dgesdd": "SVD did not converge",
    "zheevd": "Eigenvalues did not converge",
}
_lapack_buffers = threading.local()


def _lapack_call(name: str, n: int, sizes: tuple[int, ...], buffer: np.ndarray) -> tuple:
    """(operand, values, integers, arguments, work) for routine ``name`` at
    dim n with jobz 'N' (and uplo 'L'), with work arrays of the given sizes,
    or of one element each for -1, LAPACK's workspace query.  The operand is
    a Fortran-order view of the complex128 buffer of n * n entries, in the
    routine's dtype.  ``integers`` holds n, lda, the U and VT leading
    dimension 1, the work sizes and, last, info; ``arguments`` point at these
    arrays, so the tuple keeps them alive.
    """
    dtype = np.float64 if name == "dgesdd" else np.complex128
    operand = buffer.view(dtype)[: n * n].reshape((n, n), order="F")
    values = np.empty(n)
    integers = np.array([n, max(1, n), 1, *sizes, 0], dtype=np.int64)
    size, lda, one, lwork, *rest = (integers.ctypes.data + 8 * k for k in range(len(integers)))
    info = rest.pop()
    head = (size, operand.ctypes.data, lda, values.ctypes.data)
    if name == "zheevd":
        work = [np.empty(max(1, k), t) for k, t in zip(sizes, (np.complex128, np.float64, np.int64))]
        lrwork, liwork = rest
        arguments = (b"N", b"L", *head, work[0].ctypes.data, lwork,
                     work[1].ctypes.data, lrwork, work[2].ctypes.data, liwork, info, 1, 1)
        return operand, values, integers, arguments, work
    # jobz 'N' reads neither U nor VT; numpy sizes rwork and iwork the same way
    work = [np.empty(max(1, sizes[0]), dtype)]
    unused = np.empty(1, dtype)
    iwork = np.empty(max(1, 8 * n), np.int64)
    rwork = [np.empty(max(1, 7 * n))] if name == "zgesdd" else []
    arguments = (b"N", size, *head, unused.ctypes.data, one, unused.ctypes.data, one,
                 work[0].ctypes.data, lwork, *(r.ctypes.data for r in rwork),
                 iwork.ctypes.data, info, 1)
    return operand, values, integers, arguments, work + [unused, iwork, *rwork]


@functools.cache
def _work_sizes(name: str, n: int) -> tuple[int, ...]:
    """LAPACK's workspace sizes for routine ``name`` at dim n, as numpy reads
    them: lwork for gesdd, (lwork, lrwork, liwork) for heevd."""
    queries = 3 if name == "zheevd" else 1
    buffer = np.empty(n * n, np.complex128)
    _, _, _, arguments, work = _lapack_call(name, n, (-1,) * queries, buffer)
    _lapack(name)(*arguments)
    return tuple(max(1, int(w[0].real)) for w in work[:queries])


def _lapack_values(name: str, m: np.ndarray) -> np.ndarray:
    """The singular values (gesdd) or the eigenvalues of the lower triangle
    (heevd) of the square m, computed by routine ``name`` in this thread's
    buffers; raises numpy's LinAlgError when LAPACK's info is not 0."""
    n = len(m)
    held = _lapack_buffers.__dict__
    if held.get("n") != n:
        held.clear()
        held.update(n=n, buffer=np.empty(n * n, np.complex128))
    if name not in held:
        held[name] = _lapack_call(name, n, _work_sizes(name, n), held["buffer"])
    operand, values, integers, arguments, _ = held[name]
    operand[...] = m
    _lapack(name)(*arguments)
    if integers[-1]:
        raise np.linalg.LinAlgError(_LAPACK_ERRORS[name])
    return values.copy()


def _in_window(m: np.ndarray) -> bool:
    # outside the worker window no thread can gain, so numpy keeps the call
    return _WORKER_MIN_DIM <= len(m) <= _WORKER_MAX_DIM


def _singular_values(m: np.ndarray) -> np.ndarray:
    """np.linalg.svd(m, compute_uv=False) of the square m, through the LAPACK
    layer for complex128 and float64 operands in the worker window."""
    name = _SVD_ROUTINES.get(m.dtype)
    if name is None or not _in_window(m) or _lapack(name) is None:
        return np.linalg.svd(m, compute_uv=False)
    return _lapack_values(name, m)


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(m) of the square m, through the LAPACK layer for
    complex128 operands in the worker window."""
    if m.dtype != np.complex128 or not _in_window(m) or _lapack("zheevd") is None:
        return np.linalg.eigvalsh(m)
    return _lapack_values("zheevd", m)


# --- workers and BLAS threads ------------------------------------------------------


def _worker_count(dim: int, orbits: int) -> int:
    """The threads, the caller included, that share an evaluation's orbits on
    the one-thread route: up to _MAX_WORKERS, one per usable CPU and at most
    one per two orbits, for dims in the worker window when every LAPACK
    kernel is there; else 1."""
    if not _WORKER_MIN_DIM <= dim <= _WORKER_MAX_DIM:
        return 1
    if any(_lapack(name) is None for name in ("zgesdd", "dgesdd", "zheevd")):
        return 1
    # a worker with a single orbit to take saves at most that one decomposition
    # and pays a thread start: at r = 2, with 2 orbits, that lost up to dim 81
    return max(1, min(_MAX_WORKERS, len(os.sched_getaffinity(0)), orbits // 2))


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
