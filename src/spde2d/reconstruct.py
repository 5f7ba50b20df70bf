"""Approximate coordinate processes on the thinned time grid and their
realized quadratic variation.

A coordinate path is recovered from the observed field by the weighted
Riemann sum ``(2/M) sum_{j1=1..M1} sum_{j2=1..M2} X(y_j1, z_j2) sin(pi k y)
sin(pi l z) exp(kappa_hat y / 2 + eta_hat z / 2)``, which approximates the
weighted projection onto one eigenfunction.  The volatility of the mode is
then estimated by the sum of squared increments over the coarse times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridMismatchError
from .model import Mode, factor_table
from .simulate import Observation


@dataclass(frozen=True)
class TimeThinning:
    """Coarse time grid t_i = floor(N/n) * i / N for i = 0..n."""

    N: int
    n: int
    step: int
    points: np.ndarray
    indices: np.ndarray


def build_time_thinning(N: int, n: int) -> TimeThinning:
    if not (1 <= n <= N):
        raise ConfigError(f"time thinning requires 1 <= n <= N, got n={n}, N={N}")
    step = N // n
    indices = step * np.arange(n + 1, dtype=np.int64)
    points = indices / N
    return TimeThinning(N=N, n=n, step=step, points=points, indices=indices)


@dataclass(frozen=True)
class ApproxCoordinatePath:
    mode: Mode
    values: np.ndarray  # length n + 1, over the coarse times
    times: np.ndarray
    kappa_used: float
    eta_used: float


@dataclass(frozen=True)
class VolatilityEstimate:
    mode: Mode
    value: float
    n_used: int


def approx_coordinate(obs: Observation, mode: Mode, kappa_hat: float,
                      eta_hat: float, tt: TimeThinning) -> ApproxCoordinatePath:
    """Riemann-sum reconstruction of one coordinate path at the coarse times,
    from the lattice slices of an observation record.

    The sum runs over j1 = 1..M1, j2 = 1..M2 exactly; the index-0 boundary
    rows are excluded and the index-M terms vanish on the zero boundary.
    """
    if tt.N != obs.grid.N:
        raise GridMismatchError(
            f"time thinning was built for N={tt.N} but the field has "
            f"N={obs.grid.N}")
    if not np.array_equal(tt.indices, obs.coarse):
        raise GridMismatchError("the record holds slices at other times than "
                                "the time thinning's")
    k, l = mode
    ys = obs.grid.ys()[1:]
    zs = obs.grid.zs()[1:]
    wy = factor_table(k, ys, -kappa_hat, amp=1.0)
    wz = factor_table(l, zs, -eta_hat, amp=1.0)
    sub = obs.slices[:, 1:, 1:]
    m_total = obs.grid.M1 * obs.grid.M2
    vals = (2.0 / m_total) * np.einsum("tij,i,j->t", sub, wy, wz)
    return ApproxCoordinatePath(mode=Mode(*mode), values=vals,
                                times=tt.points.copy(),
                                kappa_used=kappa_hat, eta_used=eta_hat)


def realized_qv(path: ApproxCoordinatePath) -> VolatilityEstimate:
    """Realized quadratic variation: sum of squared increments along the
    coarse grid; estimates the squared per-mode volatility."""
    if path.values.shape[0] < 2:
        raise ConfigError("realized variation needs a path of length >= 2")
    d = np.diff(path.values)
    return VolatilityEstimate(mode=path.mode, value=float(np.dot(d, d)),
                              n_used=int(d.shape[0]))
