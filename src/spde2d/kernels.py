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
chunks of ``CHUNK`` (twice that for any words but the compiled ones) and
shares contiguous runs of chunks among the process's kernel threads.
Philox is counter-based, so every stream's words depend on its own counter
and key alone, as does its OU path: the output does not depend on the
split.
"""

import os
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


# Streams per chunk of the compiled words, measured on a 2-vCPU x86-64
# host: a field at K=L=128 (16,384 streams) took 0.40 s in 8,192-stream
# chunks against 0.65 s in one 16,384-stream chunk, whose noise leaves the
# second core idle; at K=L=256 both sizes took 1.6 s.  A chunk's normals
# (256 KiB) stay in cache from the words through ndtri to the OU steps.
# The NumPy words make ~170 ufunc calls per chunk, holding the interpreter
# lock between them, and take chunks of 2 * CHUNK (``_sweep_words``).
CHUNK = 8192

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


def _share(run, n, unit):
    """``run(lo, hi)`` over contiguous runs of whole ``unit``s of
    ``range(n)``, one per kernel thread, the first on the calling thread;
    returns, or raises the first error, once all are done.  A range of one
    unit stays on the calling thread."""
    units = -(-n // unit)
    parts = min(_threads, units)
    if parts <= 1:
        run(0, n)
        return
    edges = [min(n, unit * (units * i // parts)) for i in range(parts + 1)]
    pool = _executor()
    futures = [pool.submit(run, lo, hi)
               for lo, hi in zip(edges[1:-1], edges[2:])]
    try:
        run(edges[0], edges[1])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def normal_block(block, ctr2, ctr3, key0, key1):
    """Four standard normals per stream for one counter block, (n, 4), on
    the calling thread: the reference for ``ou_sweep``'s noise.

    Reads ``philox_raw_block`` from this module at call time, so swapping
    the module attribute swaps the words.
    """
    return normals(philox_raw_block(block, ctr2, ctr3, key0, key1))


def _sweep_words(words):
    """``(advance, chunk)`` for ``ou_sweep`` on ``words``.

    ``advance(lo, hi, chunk, block, L, key0, first_rep, decay, scale, prev,
    tile)`` steps streams ``lo`` to ``hi - 1``, in chunks of ``chunk``,
    through the rows of ``tile``, a ``(count, n)`` array: row ``t`` is
    ``ou_step`` of row ``t - 1`` (of ``prev`` for ``t = 0``) by lane
    ``t % 4`` of the normals of counter block ``block + t // 4``.  Stream
    ``s`` is mode ``q = s % KL`` of replication ``first_rep + s // KL``,
    for the ``KL = len(decay)`` coefficients of each: its words are those
    of counter ``(block, 0, q // L + 1, q % L + 1)`` under key ``(key0,
    first_rep + s // KL)``.  Compiled words, which carry their module's
    ``sweep`` (``_cbuild.compiled``), take that and ``CHUNK`` (so does a
    ``functools.wraps`` wrapper of them, which copies the attribute);
    others take the NumPy loop below, which builds each chunk's counters,
    keys and coefficients, and ``2 * CHUNK``: a desk field on the NumPy
    words took a median 4.1 s in 16,384-stream chunks against 5.3 s in
    8,192-stream ones on a 2-vCPU host (7 alternated runs each)."""
    if hasattr(words, "sweep"):
        return words.sweep, CHUNK

    def advance(lo, hi, chunk, block, L, key0, first_rep, decay, scale,
                prev, tile):
        modes, row = len(decay), np.uint64(L)
        noise = np.empty((min(chunk, hi - lo), 4))
        for a in range(lo, hi, chunk):
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
    return advance, 2 * CHUNK


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
    tiles of ``tile_steps`` states: each kernel thread takes a run of whole
    chunks of streams through the tile, block by block, drawing one chunk's
    uniforms (``philox_raw_block`` read at call time, so swapping it swaps
    the words), mapping them by ``ndtri`` in place and stepping the chunk's
    streams (``_sweep_words``).  Then the tile's ``visit`` calls are shared
    among the threads, in any order, where the streams span several chunks;
    ``state`` is a view valid for the call only.  ``x`` is not modified.
    """
    n = len(x)
    advance, chunk = _sweep_words(philox_raw_block)
    visit(0, x)
    if not steps:
        return
    rows = min(tile_steps(n), steps)
    tile = np.empty((rows, n))
    prev = x
    for first in range(0, steps, rows):
        count = min(rows, steps - first)

        def run(lo, hi):
            advance(lo, hi, chunk, first // 4, L, key0, first_rep, decay,
                    scale, prev, tile[:count])

        def project(lo, hi):
            for t in range(lo, hi):
                visit(first + t + 1, tile[t])

        _share(run, n, chunk)
        # A tile of one chunk keeps its projections too: at K=L=8 to 64 on
        # a 50x50 grid they are too small to pay for the threads' handoffs
        # (a field took 27 against 21 ms at K=L=8, 184 against 165 ms at 64).
        _share(project, count, 1 if n > chunk else count)
        prev = tile[-1]
