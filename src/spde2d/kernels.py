"""The hot kernels.

Philox words come from ``_kernels_c``, which compiles ``_philox.c`` on
first import, and from the NumPy reference in ``_kernels_py`` where that
fails; ``BACKEND`` names the source (``"c"`` or ``"python"``).  The float
work is elementwise and the same on both backends: the map to uniforms
(NumPy's, or for the compiled words ``_philox.c``'s, which is exact by
construction and so equal to it), ``ndtri``, the OU step and the
compensated sum.  So their output is bit-identical: only integer words can
differ, and the tests compare those and the two maps.

``normal_block`` and ``ou_sweep`` cut the streams into chunks of ``CHUNK``
(twice that for any words but the compiled ones) and share contiguous runs
of chunks among the process's kernel threads.
Philox is counter-based, so every stream's words depend on its own counter
and key alone, as does its OU path: the output does not depend on the
split.
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from scipy.special import ndtri

from ._kernels_py import normals, ou_step, sq_diff_accum, uniforms
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
# lock between them, and take chunks of 2 * CHUNK (``_chunk``).
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


def _compiled(words):
    return BACKEND == "c" and words is _words.philox_raw_block


def _chunk(words):
    """Streams per chunk for ``words``: ``CHUNK`` for the compiled words,
    ``2 * CHUNK`` for others.  A desk field on the NumPy words took a
    median 4.1 s in 16,384-stream chunks against 5.3 s in 8,192-stream
    ones on a 2-vCPU host (7 alternated runs each)."""
    return CHUNK if _compiled(words) else 2 * CHUNK


def normal_block(block, ctr2, ctr3, key0, key1):
    """Four standard normals per stream for one counter block, (n, 4).

    Reads ``philox_raw_block`` from this module at call time, so swapping
    the module attribute swaps the words.
    """
    words = philox_raw_block
    chunk = _chunk(words)
    out = np.empty((len(ctr2), 4))

    def run(lo, hi):
        for a in range(lo, hi, chunk):
            b = min(a + chunk, hi)
            normals(words(block, ctr2[a:b], ctr3[a:b], key0, key1[a:b]),
                    out=out[a:b])

    _share(run, len(ctr2), chunk)
    return out


def _uniform_fill(words):
    """``fill(block, ctr2, ctr3, key0, key1, out)`` writing the uniforms of
    ``words`` to a float64 ``(n, 4)`` ``out``: the compiled map when
    ``words`` are the compiled words, the NumPy one otherwise."""
    if _compiled(words):
        return _words.fill

    def fill(block, ctr2, ctr3, key0, key1, out):
        uniforms(words(block, ctr2, ctr3, key0, key1), out=out)
    return fill


def tile_steps(n):
    """Steps per ``ou_sweep`` tile of ``n`` streams: a multiple of 4 with
    at most ``TILE_BYTES`` of states where 4 steps fit, else 4."""
    return 4 * max(1, TILE_BYTES // (32 * n))


def ou_sweep(x, decay, scale, ctr2, ctr3, key0, key1, steps, visit):
    """Run the OU streams from state ``x`` through ``steps`` exact steps,
    calling ``visit(i, state)`` with the state after step ``i`` for
    ``i = 0, ..., steps``.

    Step ``i`` is ``state <- decay * state + scale * z`` (``ou_step``), with
    ``z`` the normal of lane ``(i-1) % 4`` of counter block ``(i-1) // 4``
    of ``normal_block``.  The steps run in tiles of ``tile_steps`` states:
    each kernel thread takes a run of whole chunks of streams through the
    tile, block by block, drawing one chunk's uniforms (``philox_raw_block``
    read at call time, so swapping it swaps the words), mapping them by
    ``ndtri`` in place and stepping the chunk's streams.  Then the tile's
    ``visit`` calls are shared among the threads, in any order, where the
    streams span several chunks; ``state`` is a view valid for the call
    only.  ``x`` is not modified.
    """
    n = len(x)
    words = philox_raw_block
    fill, chunk = _uniform_fill(words), _chunk(words)
    visit(0, x)
    rows = min(tile_steps(n), steps)
    tile = np.empty((rows, n))
    prev = x
    for first in range(0, steps, rows):
        count = min(rows, steps - first)

        def advance(lo, hi):
            noise = np.empty((min(chunk, hi - lo), 4))
            for j in range(0, count, 4):
                for a in range(lo, hi, chunk):
                    b = min(a + chunk, hi)
                    z = noise[:b - a]
                    fill((first + j) // 4, ctr2[a:b], ctr3[a:b], key0,
                         key1[a:b], z)
                    ndtri(z, out=z)
                    for t in range(j, min(j + 4, count)):
                        _ou_step(tile[t - 1, a:b] if t else prev[a:b],
                                 decay[a:b], scale[a:b], z[:, t - j],
                                 out=tile[t, a:b])

        def project(lo, hi):
            for t in range(lo, hi):
                visit(first + t + 1, tile[t])

        _share(advance, n, chunk)
        # A tile of one chunk keeps its projections too: at K=L=8 to 64 on
        # a 50x50 grid they are too small to pay for the threads' handoffs
        # (a field took 27 against 21 ms at K=L=8, 184 against 165 ms at 64).
        _share(project, count, 1 if n > chunk else count)
        prev = tile[-1]
