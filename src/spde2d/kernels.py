"""The hot kernels.

Philox words come from the compiled ``_philox`` module when it imports and
from the NumPy reference in ``_kernels_py`` otherwise; ``BACKEND`` names
the source (``"c"`` or ``"python"``).  All float work (the map to normals,
the OU step, the compensated sum) is the NumPy code on both backends, so
their output is bit-identical by construction: only integer words can
differ, and the tests compare those.
"""

import numpy as np

from . import _kernels_py
from ._kernels_py import normals, ou_step, sq_diff_accum


def compiled(philox):
    """``philox_raw_block`` computed by ``philox.fill``, the compiled words."""
    def philox_raw_block(block, ctr2, ctr3, key0, key1):
        ctr2, ctr3, key1 = (np.ascontiguousarray(a, dtype=np.uint64)
                            for a in (ctr2, ctr3, key1))
        out = np.empty((ctr2.shape[0], 4), dtype=np.uint64)
        philox.fill(block, ctr2, ctr3, key0, key1, out)
        return out
    return philox_raw_block


try:
    from . import _philox
except ImportError:
    BACKEND = "python"
    philox_raw_block = _kernels_py.philox_raw_block
else:
    BACKEND = "c"
    philox_raw_block = compiled(_philox)


def normal_block(block, ctr2, ctr3, key0, key1):
    """Four standard normals per stream for one counter block, (n, 4).

    Reads ``philox_raw_block`` from this module at call time, so swapping
    the module attribute swaps the words.
    """
    return normals(philox_raw_block(block, ctr2, ctr3, key0, key1))
