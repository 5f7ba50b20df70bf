"""The hot kernels.

Philox words come from ``_kernels_c``, which compiles ``_philox.c`` on
first import, and from the NumPy reference in ``_kernels_py`` where that
fails; ``BACKEND`` names the source (``"c"`` or ``"python"``).  All float
work (the map to normals, the OU step, the compensated sum) is the NumPy
code on both backends, so their output is bit-identical by construction:
only integer words can differ, and the tests compare those.

``normal_block`` cuts a block's streams into chunks of ``CHUNK`` and shares
contiguous runs of chunks among the process's kernel threads.  Philox is
counter-based, so every stream's words depend on its own counter and key
alone, and the output does not depend on the split.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._kernels_py import normals, ou_step, sq_diff_accum

try:
    from . import _kernels_c as _words
except ImportError:
    from . import _kernels_py as _words

BACKEND = _words.BACKEND_NAME
philox_raw_block = _words.philox_raw_block


# Streams per chunk, the size measured fastest on a 2-vCPU x86-64 host:
# with 8192-stream chunks two threads ran a desk replication slower than
# one (7.2 s against 6.2 s).  A block of one chunk stays whole on the
# calling thread; split in two, a 16,384-stream block took 8.7 ms against
# 7.4 ms.
CHUNK = 16384

# Threads per noise block, the calling thread included: the cores this
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
    """Join this process's pool threads; the next multi-chunk block builds
    a new pool.  Call it before forking, so that the parent forks without
    the pool's threads.  No noise block may be running meanwhile."""
    global _pool
    pid, pool = _pool
    _pool = (None, None)
    if pid == os.getpid():
        pool.shutdown()


def normal_block(block, ctr2, ctr3, key0, key1):
    """Four standard normals per stream for one counter block, (n, 4).

    Reads ``philox_raw_block`` from this module at call time, so swapping
    the module attribute swaps the words.  A block of one chunk stays on
    the calling thread.
    """
    words = philox_raw_block
    n = len(ctr2)
    out = np.empty((n, 4))

    def run(lo, hi):
        for a in range(lo, hi, CHUNK):
            b = min(a + CHUNK, hi)
            normals(words(block, ctr2[a:b], ctr3[a:b], key0, key1[a:b]),
                    out=out[a:b])

    chunks = -(-n // CHUNK)
    parts = min(_threads, chunks)
    if parts <= 1:
        run(0, n)
        return out
    edges = [min(n, CHUNK * (chunks * i // parts)) for i in range(parts + 1)]
    pool = _executor()
    futures = [pool.submit(run, lo, hi)
               for lo, hi in zip(edges[1:-1], edges[2:])]
    run(edges[0], edges[1])
    for f in futures:
        f.result()
    return out
