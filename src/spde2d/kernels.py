"""The hot kernels.

Philox words come from ``_kernels_c``, which compiles ``_philox.c`` on
first import, and from the NumPy reference in ``_kernels_py`` where that
fails; ``BACKEND`` names the source (``"c"`` or ``"python"``).  The float
work is elementwise and the same on both backends: the map to uniforms,
``ndtri``, the OU step and the compensated sum.  With the compiled words,
``ou_sweep`` runs a chunk's uniforms, ``ndtri`` and OU steps in
``_philox.c`` too, in one call without the interpreter lock: its map is
exact by construction, it calls the very ``ndtri`` loop that scipy
registered and NumPy calls, and its step rounds as NumPy's three ufuncs do.
So the output is bit-identical: only integer words can differ, and the
tests compare those, the two maps and the two sweeps.

``normal_block`` is the reference form of the noise, one call on the
calling thread.  ``ou_sweep`` is the only kernel that cuts the streams into
chunks of ``CHUNK`` (eight times that for any words but the compiled ones)
and shares them among the process's kernel threads: each thread claims the
next chunk, and then the next step to visit, as it frees up.  Philox is
counter-based, so every stream's words depend on its own counter and key
alone, as does its OU path: the output does not depend on which thread
steps which chunk.
"""

import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from ._kernels_py import ndtri, normals, ou_step, sq_diff_accum, uniforms
# ou_sweep's step under a name of its own: a timing wrapper swapped in for
# ``ou_step`` from outside would otherwise run for every chunk and thread
from ._kernels_py import ou_step as _ou_step

try:
    from . import _kernels_c as _words
except ImportError:
    from . import _kernels_py as _words

BACKEND = _words.BACKEND_NAME
philox_raw_block = _words.philox_raw_block


# The largest key word and replication index: Philox keys are 64-bit.
U64_MAX = 2 ** 64 - 1

# Streams per chunk of the compiled words.  Each kernel thread claims a
# tile's next chunk as it frees up, so a thread that wakes late or is
# preempted leaves the others the rest of the tile; smaller chunks even out
# the threads' last claims.  Measured on a 2-vCPU x86-64 host at desk scale
# (65,536 streams a tile), the noise kept the two cores busy 0.96 of its
# wall time in chunks of 2,048 streams, 0.95 in 4,096 and 0.94 in 8,192,
# and 0.88 when each thread took a fixed half of every tile.  A chunk's
# normals (64 KiB) stay in cache from the words through ndtri to the OU
# steps.  The NumPy words make ~170 ufunc calls per chunk, holding the
# interpreter lock between them, and take chunks of 8 * CHUNK
# (``_sweep_words``).
CHUNK = 2048

# Streams above which a tile's visits are shared among the kernel threads.
SHARED_VISITS = 8192

# Bytes of OU states one tile of ``ou_sweep`` holds: 4 steps of 65,536
# streams, the size of one desk-scale normal block.
TILE_BYTES = 2 << 20

# Kernel threads, the calling thread included: the cores this
# process may run on.
_threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool = (None, None)


def _executor():
    """This process's thread pool, built on first use.

    It is keyed by the process id: a forked child starts with the parent's
    pool object but none of its threads, and would wait on it forever.  Two
    threads racing here may each build a pool; each uses its own, and the
    one dropped shuts its threads down once its work is done.
    """
    global _pool
    pid = os.getpid()
    if _pool[0] != pid:
        _pool = (pid, ThreadPoolExecutor(max(1, _threads - 1),
                                         thread_name_prefix="spde2d-noise"))
    return _pool[1]


def drop_pool():
    """Join this process's pool threads; the next call that shares work
    builds a new pool.  Call it before forking, so that the parent forks without
    the pool's threads.  No kernel may be running meanwhile."""
    global _pool
    pid, pool = _pool
    _pool = (None, None)
    if pid == os.getpid():
        pool.shutdown()


def _share(work, units):
    """Run ``work()``, a loop that claims units of one phase until none is
    left, on every kernel thread, the calling thread first, but on no more
    threads than there are ``units``; returns, or raises the first error,
    once all are done.  A thread that wakes late finds fewer units left,
    and none where the others took them all."""
    threads = min(_threads, units)
    if threads <= 1:
        work()
        return
    pool = _executor()
    futures = [pool.submit(work) for _ in range(threads - 1)]
    try:
        work()
    finally:
        wait(futures)
    for f in futures:
        f.result()


_claims = threading.Lock()


def _claim_each(cursor, end, unit, work):
    """``work(a)`` for each start ``a`` claimed from ``cursor``, a one-item
    int64 array, by advancing it from ``a`` to ``a + unit``, until it
    reaches ``end``: the claim loop that ``_philox.c``'s ``sweep`` runs in
    C, for units claimed in Python.  A call that raises moves the cursor to
    ``end``, so that no thread claims another unit."""
    while True:
        with _claims:
            a = int(cursor[0])
            cursor[0] = a + unit
        if a >= end:
            return
        try:
            work(a)
        except BaseException:
            with _claims:
                cursor[0] = end
            raise


def normal_block(block, ctr2, ctr3, key0, key1):
    """Four standard normals per stream for one counter block, (n, 4), on
    the calling thread: the reference for ``ou_sweep``'s noise.

    Reads ``philox_raw_block`` from this module at call time, so swapping
    the module attribute swaps the words.
    """
    return normals(philox_raw_block(block, ctr2, ctr3, key0, key1))


def _sweep_words(words):
    """``(advance, chunk)`` for ``ou_sweep`` on ``words``.

    ``advance(cursor, hi, chunk, block, L, key0, first_rep, decay, scale,
    prev, tile)`` claims chunks of ``chunk`` streams from ``cursor``, a
    one-item int64 array that the kernel threads of one tile share, until
    it reaches ``hi`` (``_philox.c``'s ``sweep`` says how), and steps each
    through the rows of ``tile``, a ``(count, n)`` array: row ``t`` is
    ``ou_step`` of row ``t - 1`` (of ``prev`` for ``t = 0``) by lane ``t %
    4`` of the normals of counter block ``block + t // 4``.  Stream ``s`` is
    mode ``q = s % KL`` of replication ``first_rep + s // KL``, for the ``KL
    = len(decay)`` coefficients of each: its words are those of counter
    ``(block, 0, q // L + 1, q % L + 1)`` under key ``(key0, first_rep + s
    // KL)``.  Compiled words, which carry their module's ``sweep``
    (``_cbuild.compiled``), take that and ``CHUNK`` (so does a
    ``functools.wraps`` wrapper of them, which copies the attribute);
    others take the NumPy loop below, which builds each chunk's counters,
    keys and coefficients and claims its chunks in ``_claim_each``, and ``8
    * CHUNK``: a desk field on the NumPy words took a median 4.1 s in
    16,384-stream chunks against 5.3 s in 8,192-stream ones on a 2-vCPU
    host (7 alternated runs each)."""
    if hasattr(words, "sweep"):
        return words.sweep, CHUNK

    def advance(cursor, hi, chunk, block, L, key0, first_rep, decay, scale,
                prev, tile):
        modes, row = len(decay), np.uint64(L)
        noise = np.empty((min(chunk, hi), 4))

        def step(a):
            b = min(a + chunk, hi)
            # floor division by a scalar is fast where % and divmod are not
            q = np.arange(a, b, dtype=np.uint64)
            key1 = q // np.uint64(modes)
            q -= key1 * np.uint64(modes)
            ctr2 = q // row
            ctr3 = q - ctr2 * row + 1
            ctr2 += 1
            key1 += np.uint64(first_rep)
            # a chunk within one replication reads its coefficients in place
            q0 = a % modes
            d, c = ((decay[q0:q0 + b - a], scale[q0:q0 + b - a])
                    if q0 + b - a <= modes else (decay.take(q), scale.take(q)))
            z = noise[:b - a]
            for j in range(0, len(tile), 4):
                uniforms(words(block + j // 4, ctr2, ctr3, key0, key1),
                         out=z)
                ndtri(z, out=z)
                for t in range(j, min(j + 4, len(tile))):
                    _ou_step(tile[t - 1, a:b] if t else prev[a:b], d, c,
                             z[:, t - j], out=tile[t, a:b])
        _claim_each(cursor, hi, chunk, step)
    return advance, 8 * CHUNK


def tile_steps(n):
    """Steps per ``ou_sweep`` tile of ``n`` streams: a multiple of 4 with
    at most ``TILE_BYTES`` of states where 4 steps fit, else 4."""
    return 4 * max(1, TILE_BYTES // (32 * n))


def ou_sweep(x, decay, scale, L, key0, first_rep, steps, visit):
    """Run the OU streams from state ``x`` through ``steps`` exact steps,
    calling ``visit(i, state)`` with the state after step ``i`` for
    ``i = 0, ..., steps``.

    ``decay`` and ``scale`` hold the coefficients of the ``KL`` modes of
    one replication, ``L`` to a row of modes, and ``x`` the states of
    ``len(x) // KL`` replications from ``first_rep`` on: stream ``s`` is
    mode ``q = s % KL`` of replication ``first_rep + s // KL``, whose noise
    is that of ``normal_block`` for counter words ``(q // L + 1, q % L +
    1)`` and key ``(key0, first_rep + s // KL)``.  Step ``i`` is ``state <-
    decay[q] * state + scale[q] * z`` (``ou_step``), with ``z`` the normal
    of lane ``(i-1) % 4`` of counter block ``(i-1) // 4``.  The steps run in
    tiles of ``tile_steps`` states.  The kernel threads claim the tile's
    chunks of streams one at a time as they free up and take each through
    the tile, block by block, drawing the chunk's uniforms
    (``philox_raw_block`` read at call time, so swapping it swaps the
    words), mapping them by ``ndtri`` in place and stepping the chunk's
    streams (``_sweep_words``).  Once every chunk is done they claim the
    tile's ``visit`` calls, one step at a time, where the tile has more
    than ``SHARED_VISITS`` streams; ``state`` is a view valid for the call
    only.  After a chunk or a ``visit`` raises, no thread claims another,
    and the first error is raised once every thread is done.  ``x`` is not
    modified.

    Before the first ``visit``, on either word source, it refuses with
    ``ValueError`` what the compiled ``sweep`` refuses: ``x``, ``decay``
    and ``scale`` other than C-contiguous float64 vectors, ``L < 1``, no
    mode, ``KL`` not a multiple of ``L`` or ``len(x)`` not a positive
    multiple of it, ``steps < 0``, and key words or replications outside
    [0, 2**64 - 1].  A non-integer ``L``, key word, replication or step
    count raises ``TypeError``, as it does in the compiled ``sweep``.
    """
    L, key0, first_rep, steps = (operator.index(v)
                                 for v in (L, key0, first_rep, steps))
    n, modes = len(x), len(decay)
    if not (all(isinstance(a, np.ndarray) and a.dtype == np.float64
                and a.ndim == 1 and a.flags.c_contiguous
                for a in (x, decay, scale))
            and L >= 1 and modes and modes % L == 0 and len(scale) == modes
            and n and n % modes == 0 and steps >= 0):
        raise ValueError("ou_sweep needs float64 decay and scale of one "
                         "length KL, a positive multiple of L >= 1, a float64 "
                         "x of a positive multiple of KL streams and steps "
                         ">= 0")
    if not (0 <= key0 <= U64_MAX and 0 <= first_rep
            and first_rep + n // modes - 1 <= U64_MAX):
        raise ValueError("ou_sweep needs key0 and the replications first_rep "
                         ".. first_rep + len(x) / KL - 1 in [0, 2**64 - 1]")
    advance, chunk = _sweep_words(philox_raw_block)
    visit(0, x)
    if not steps:
        return
    rows = min(tile_steps(n), steps)
    tile = np.empty((rows, n))
    prev = x
    for first in range(0, steps, rows):
        count = min(rows, steps - first)
        next_stream, next_step = np.zeros((2, 1), np.int64)

        def run():
            advance(next_stream, n, chunk, first // 4, L, key0, first_rep,
                    decay, scale, prev, tile[:count])

        def project():
            _claim_each(next_step, count, 1,
                        lambda t: visit(first + t + 1, tile[t]))

        _share(run, -(-n // chunk))
        # A tile of at most SHARED_VISITS streams keeps its projections on
        # the calling thread: at K=L=8 to 64 on a 50x50 grid they are too
        # small to pay for the threads' handoffs (shared, a field took 12.2
        # against 9.3 ms at K=L=8 and 102 against 95 ms at 64).
        _share(project, count if n > SHARED_VISITS else 1)
        prev = tile[-1]
