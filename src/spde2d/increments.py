"""Interior space thinning, the normalized squared-increment statistic, and
its exact and asymptotic mean oracles.

The statistic at a space point is ``sum_i (X_{t_i} - X_{t_{i-1}})^2 / (N
Delta^alpha)`` over all N time increments; its mean converges to
``c(alpha) * scale * exp(-kappa y - eta z)`` with ``c(alpha) =
Gamma(1-alpha) / (4 pi alpha)`` and scale ``s = sigma^2/theta2`` (Q1) or
``S = sigma^2/theta2^(1-alpha)`` (Q2).  The exact per-increment mean of the
truncated series is available in closed form per mode, which separates
Monte Carlo error from truncation bias in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, GridMismatchError, ThinningError
from .model import (DerivedRatios, ModelParams, NoiseKind,
                    contrast_coefficient)
from .simulate import (Observation, TruncationSpec, _factor_table, _modes,
                       _mode_tables)


@dataclass(frozen=True)
class SpaceThinning:
    """Coarse interior sub-grid used by the contrast stage.

    The coarse lattice steps by ``floor(M/mbar)`` fine cells; the retained
    points are the consecutive coarse points inside ``[delta, 1-delta]``.
    All retained points are exact nodes of the fine lattice.
    """

    M1: int
    M2: int
    mbar1: int
    mbar2: int
    delta: float
    J1: int
    J2: int
    m1: int
    m2: int
    index_y: np.ndarray
    index_z: np.ndarray
    points_y: np.ndarray
    points_z: np.ndarray

    @property
    def m(self) -> int:
        return self.m1 * self.m2


def _thin_axis(M: int, mbar: int, delta: float):
    step = M // mbar
    coarse = step * np.arange(mbar + 1) / M
    inside = np.nonzero((coarse >= delta) & (coarse <= 1.0 - delta))[0]
    if inside.size == 0:
        raise ThinningError(
            f"no coarse point of step {step}/{M} lies in "
            f"[{delta}, {1.0 - delta}]")
    J = int(inside[0]) - 1
    m = int(inside.size)
    idx = step * (J + 1 + np.arange(m))
    return J, m, idx.astype(np.int64), coarse[inside]


def build_space_thinning(M1: int, M2: int, mbar1: int, mbar2: int,
                         delta: float) -> SpaceThinning:
    """Construct the interior thinning; fails if an axis has no coarse
    point inside ``[delta, 1-delta]``."""
    if not (1 <= mbar1 <= M1 and 1 <= mbar2 <= M2):
        raise ConfigError(
            f"coarse counts must satisfy 1 <= mbar <= M, got "
            f"mbar1={mbar1}, M1={M1}, mbar2={mbar2}, M2={M2}")
    if not (0.0 < delta < 0.5):
        raise ConfigError(f"delta must lie in (0, 1/2), got {delta}")
    J1, m1, idx_y, pts_y = _thin_axis(M1, mbar1, delta)
    J2, m2, idx_z, pts_z = _thin_axis(M2, mbar2, delta)
    return SpaceThinning(M1=M1, M2=M2, mbar1=mbar1, mbar2=mbar2, delta=delta,
                         J1=J1, J2=J2, m1=m1, m2=m2,
                         index_y=idx_y, index_z=idx_z,
                         points_y=pts_y, points_z=pts_z)


@dataclass(frozen=True)
class SquaredIncrementField:
    """Normalized squared-increment statistic on the thinned interior grid."""

    values: np.ndarray  # (m1, m2)
    alpha: float
    N: int
    thinning: SpaceThinning


def squared_increment_field(obs: Observation, thin: SpaceThinning,
                            alpha: float) -> SquaredIncrementField:
    """Accumulate all N squared time increments at the thinned points of
    an observation record.

    Accumulation is Kahan-compensated: the ``N^(alpha-1)`` normalization
    magnifies rounding of the raw sum when N is large.
    """
    if thin.M1 != obs.grid.M1 or thin.M2 != obs.grid.M2:
        raise GridMismatchError(
            f"thinning was built for ({thin.M1}, {thin.M2}) but the field "
            f"grid is ({obs.grid.M1}, {obs.grid.M2})")
    if not (np.array_equal(thin.index_y, obs.index_y)
            and np.array_equal(thin.index_z, obs.index_z)):
        raise GridMismatchError("the record holds other points than the "
                                "thinning's")
    if not (0 < alpha < 1):
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    n_steps = obs.grid.N
    rows = obs.points.reshape(n_steps + 1, -1)
    acc = np.zeros(thin.m1 * thin.m2, dtype=np.float64)
    comp = np.zeros_like(acc)
    for i in range(1, n_steps + 1):
        kernels.sq_diff_accum(rows[i], rows[i - 1], acc, comp)
    values = acc.reshape(thin.m1, thin.m2) * n_steps ** (alpha - 1.0)
    return SquaredIncrementField(values=values, alpha=alpha, N=n_steps,
                                 thinning=thin)


def _check_point(y: float, z: float) -> None:
    for name, v in (("y", y), ("z", z)):
        if not 0.0 <= v <= 1.0:  # false for nan too
            raise ConfigError(f"{name} must be a finite number in [0, 1], "
                              f"got {v!r}")


def _oracle_tables(params: ModelParams, kind: NoiseKind,
                   trunc: TruncationSpec, y: float, z: float):
    """Per-mode denominators and squared eigenfunctions for the exact
    mean of one squared increment (zero initial state) at a point of the
    unit square."""
    _check_point(y, z)
    lam, damp_base = _mode_tables(params, kind, trunc)
    denom = lam * damp_base ** params.alpha
    # Unit amplitude: the factor 2 * 2 is applied exactly after squaring,
    # instead of through the rounded sqrt(2)^2.
    ey = _factor_table(_modes(trunc.K), y, params.kappa, amp=1.0)
    ez = _factor_table(_modes(trunc.L), z, params.eta, amp=1.0)
    return lam, denom, 4.0 * (ey ** 2)[:, None] * (ez ** 2)[None, :]


def expected_squared_increment_oracle(params: ModelParams, kind: NoiseKind,
                                      i: int, N: int, y: float, z: float,
                                      trunc: TruncationSpec) -> float:
    """Exact mean of the i-th squared increment of the truncated field at
    (y, z) with zero initial state.

    Per mode the contribution is ``sigma^2 (1 - e^{-lam dt}) / denom * (1 -
    (1 - e^{-lam dt})/2 * e^{-2 lam (i-1) dt})`` with ``denom =
    lam * d^alpha`` and damping base ``d = lam`` for Q1, ``d = mu`` for Q2.
    """
    if not (1 <= i <= N):
        raise ConfigError(f"increment index must satisfy 1 <= i <= N, got {i}")
    lam, denom, e2 = _oracle_tables(params, kind, trunc, y, z)
    dt = 1.0 / N
    em = -np.expm1(-lam * dt)
    bracket = 1.0 - 0.5 * em * np.exp(-2.0 * lam * (i - 1) * dt)
    total = float(np.sum(em / denom * bracket * e2))
    return params.sigma ** 2 * total


def expected_squared_increment_total(params: ModelParams, kind: NoiseKind,
                                     N: int, y: float, z: float,
                                     trunc: TruncationSpec) -> float:
    """Sum of the exact increment means over i = 1..N (geometric closed
    form per mode)."""
    lam, denom, e2 = _oracle_tables(params, kind, trunc, y, z)
    dt = 1.0 / N
    em = -np.expm1(-lam * dt)
    geom = -np.expm1(-2.0 * lam) / -np.expm1(-2.0 * lam * dt)
    total = float(np.sum(em / denom * (N - 0.5 * em * geom) * e2))
    return params.sigma ** 2 * total


def asymptotic_mean(params: ModelParams, kind: NoiseKind,
                    y: float, z: float) -> float:
    """Leading coefficient of the statistic's mean at an interior point:
    ``c(alpha) * scale * exp(-kappa y - eta z)``."""
    _check_point(y, z)
    ratios = DerivedRatios.from_params(params)
    scale = ratios.S if kind.is_q2 else ratios.s
    return (contrast_coefficient(params.alpha) * scale
            * math.exp(-ratios.kappa * y - ratios.eta * z))
