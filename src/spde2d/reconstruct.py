"""Approximate coordinate processes on the thinned time grid and their
realized quadratic variation.

A coordinate path is recovered from the observed field by the weighted
Riemann sum ``(2/M) sum_{j1=1..M1} sum_{j2=1..M2} X(y_j1, z_j2) sin(pi k y)
sin(pi l z) exp(kappa_hat y / 2 + eta_hat z / 2)``, which approximates the
weighted projection onto one eigenfunction.  The volatility of the mode is
then estimated by the sum of squared increments over the coarse times.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, check_count
from .model import Mode, factor_table
from .simulate import Observation


def build_time_thinning(N: int, n: int) -> np.ndarray:
    """Indices ``floor(N/n) * i`` for i = 0..n of the coarse times
    ``t_i = floor(N/n) * i / N``, as int64."""
    check_count("n", n)
    if n > N:
        raise ConfigError(f"time thinning requires 1 <= n <= N, got n={n}, N={N}")
    return (N // n) * np.arange(n + 1, dtype=np.int64)


def approx_coordinate(obs: Observation, mode: Mode, kappa_hat: float,
                      eta_hat: float) -> np.ndarray:
    """Riemann-sum reconstruction of one coordinate path from the lattice
    slices of an observation record: its values at the record's coarse
    times ``obs.coarse``, as float64.

    The sum runs over j1 = 1..M1, j2 = 1..M2 exactly; the index-0 boundary
    rows are excluded and the index-M terms vanish on the zero boundary.
    """
    k, l = mode
    wy = factor_table(k, obs.grid.ys()[1:], -kappa_hat, amp=1.0)
    wz = factor_table(l, obs.grid.zs()[1:], -eta_hat, amp=1.0)
    m_total = obs.grid.M1 * obs.grid.M2
    return (2.0 / m_total) * np.einsum("tij,i,j->t", obs.slices[:, 1:, 1:],
                                       wy, wz)


def realized_qv(path: np.ndarray) -> float:
    """Realized quadratic variation: sum of squared increments along the
    coarse grid; estimates the squared per-mode volatility.  Refuses a path
    of fewer than 2 values and a non-finite sum with ``ConfigError``."""
    if path.shape[0] < 2:
        raise ConfigError("realized variation needs a path of length >= 2")
    d = np.diff(path)
    qv = float(np.dot(d, d))
    if not np.isfinite(qv):
        raise ConfigError(f"realized variation is {qv}: the record's coarse "
                          "slices hold a non-finite or overflowing value")
    return qv
