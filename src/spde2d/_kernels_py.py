"""The NumPy kernels, and the reference for the compiled Philox words.

Semantics here are the reference: the compiled ``_philox`` must reproduce
``philox_raw_block`` bit for bit; everything else runs here on both
backends (see ``kernels``).  All noise derives from the
Philox4x64-10 counter-based generator.  A logical stream is addressed by

    key     = (key0, key1[s])          two 64-bit words
    counter = (block, 0, ctr2[s], ctr3[s])

and draw ``i`` of a stream is lane ``i % 4`` of block ``i // 4``.  A raw
64-bit word ``x`` maps to a standard normal via the inverse CDF:

    z = ndtri(((x >> 11) + 0.5) * 2**-53)

which uses the top 53 bits and never hits the endpoints of (0, 1).
"""

import numpy as np
from scipy.special import ndtri

BACKEND_NAME = "python"

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_SH11 = np.uint64(11)
_U53 = 2.0 ** -53


def _mulhilo(a, b):
    # full 64x64 -> 128 bit product via 32-bit partial products
    lo = a * b
    ah = a >> _SH32
    al = a & _MASK32
    bh = b >> _SH32
    bl = b & _MASK32
    t = ah * bl + ((al * bl) >> _SH32)
    u = al * bh + (t & _MASK32)
    hi = ah * bh + (t >> _SH32) + (u >> _SH32)
    return hi, lo


def philox_raw_block(block, ctr2, ctr3, key0, key1):
    """Four raw 64-bit outputs per stream for one counter block.

    ``ctr2``, ``ctr3`` and ``key1`` are equal-length uint64 arrays defining
    the streams; ``block`` and ``key0`` are scalars.  Returns an
    ``(n, 4)`` uint64 array, lane order as produced by Philox4x64-10.
    """
    ctr2 = np.ascontiguousarray(ctr2, dtype=np.uint64)
    ctr3 = np.ascontiguousarray(ctr3, dtype=np.uint64)
    key1 = np.ascontiguousarray(key1, dtype=np.uint64)
    n = ctr2.shape[0]
    with np.errstate(over="ignore"):
        x0 = np.full(n, np.uint64(block), dtype=np.uint64)
        x1 = np.zeros(n, dtype=np.uint64)
        x2 = ctr2.copy()
        x3 = ctr3.copy()
        k0 = np.full(n, np.uint64(key0), dtype=np.uint64)
        k1 = key1.copy()
        for r in range(10):
            if r > 0:
                k0 = k0 + _W0
                k1 = k1 + _W1
            hi0, lo0 = _mulhilo(_M0, x0)
            hi1, lo1 = _mulhilo(_M1, x2)
            x0 = hi1 ^ x1 ^ k0
            x1 = lo1
            x2 = hi0 ^ x3 ^ k1
            x3 = lo0
    out = np.empty((n, 4), dtype=np.uint64)
    out[:, 0] = x0
    out[:, 1] = x1
    out[:, 2] = x2
    out[:, 3] = x3
    return out


def normals(raw):
    """Standard normals from raw Philox words by the inverse-CDF map."""
    u = ((raw >> _SH11).astype(np.float64) + 0.5) * _U53
    return ndtri(u)


def normal_block(block, ctr2, ctr3, key0, key1):
    """Four standard normals per stream for one counter block, (n, 4)."""
    return normals(philox_raw_block(block, ctr2, ctr3, key0, key1))


def ou_step(x, decay, scale, noise):
    """In-place ``x <- decay * x + scale * noise`` (flat float64 arrays)."""
    np.multiply(x, decay, out=x)
    t = np.multiply(scale, noise)
    np.add(x, t, out=x)


def sq_diff_accum(curr, prev, acc, comp):
    """Kahan-compensated in-place ``acc += (curr - prev)**2``.

    ``comp`` carries the running compensation; both are updated in place.
    """
    d = np.subtract(curr, prev)
    np.multiply(d, d, out=d)
    y = np.subtract(d, comp)
    t = np.add(acc, y)
    np.subtract(t, acc, out=comp)
    np.subtract(comp, y, out=comp)
    acc[...] = t
