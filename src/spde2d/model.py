"""Model parameterization and eigenstructure of the drift operator.

The random field lives on the unit square with Dirichlet boundary and is
driven by one of two damped noises.  The drift operator

    theta2 * (d^2/dy^2 + d^2/dz^2) + theta1 * d/dy + eta1 * d/dz + theta0

has eigenfunctions ``2 sin(pi k y) sin(pi l z) exp(-kappa y / 2 - eta z / 2)``
with ``kappa = theta1/theta2`` and ``eta = eta1/theta2``, and eigenvalues
``-theta0 + (theta1^2 + eta1^2) / (4 theta2) + pi^2 (k^2 + l^2) theta2``.
Everything in this module is a pure function of the parameter set, and a
function of a mode takes one ``Mode`` or the whole grid (``mode_grid``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

TWO_PI_SQ = 2.0 * math.pi ** 2
THREE_PI_SQ = 3.0 * math.pi ** 2


class NoiseKind(Enum):
    """Driving-noise variant; the Q2 variants differ only in whether the
    shift mu0 is treated as known during estimation."""

    Q1 = "q1"
    Q2_KNOWN_MU0 = "q2-known-mu0"
    Q2_UNKNOWN_MU0 = "q2-unknown-mu0"

    @property
    def is_q2(self) -> bool:
        return self is not NoiseKind.Q1


class Mode(NamedTuple):
    """Spectral index pair, both components >= 1, or index arrays."""

    k: int
    l: int


def mode_grid(K: int, L: int) -> Mode:
    """The modes 1 <= k <= K, 1 <= l <= L as index arrays of shapes (K, 1)
    and (1, L): a function of a mode given them returns its (K, L) table."""
    return Mode(np.arange(1, K + 1)[:, None], np.arange(1, L + 1)[None, :])


@dataclass(frozen=True)
class ModelParams:
    """Coefficient vector of the field equation.

    ``sigma = 0`` is allowed (degenerate, noiseless field) so that the
    simulator can exercise trivial configurations; the estimators assume
    ``sigma > 0``.  ``mu0`` is required only for the Q2 noises.
    """

    theta0: float
    theta1: float
    eta1: float
    theta2: float
    sigma: float
    alpha: float
    mu0: float | None = None

    def __post_init__(self):
        if not (self.theta2 > 0):
            raise ConfigError(f"theta2 must be positive, got {self.theta2}")
        if not (self.sigma >= 0):
            raise ConfigError(f"sigma must be nonnegative, got {self.sigma}")
        if not (0 < self.alpha < 1):
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.mu0 is not None and not (self.mu0 > -TWO_PI_SQ):
            raise ConfigError(
                f"mu0 must exceed -2*pi^2 = {-TWO_PI_SQ:.6f}, got {self.mu0}")
        lam11 = eigenvalue(Mode(1, 1), self)
        if not (lam11 > 0):
            raise ConfigError(
                f"the smallest eigenvalue must be positive, got {lam11}")

    @property
    def kappa(self) -> float:
        return self.theta1 / self.theta2

    @property
    def eta(self) -> float:
        return self.eta1 / self.theta2

    def require_mu0(self) -> float:
        if self.mu0 is None:
            raise ConfigError("mu0 is required for Q2 noise but was not set")
        return self.mu0


@dataclass(frozen=True)
class DerivedRatios:
    """The identifiable ratios: kappa = theta1/theta2, eta = eta1/theta2,
    s = sigma^2/theta2 and S = sigma^2/theta2^(1-alpha)."""

    kappa: float
    eta: float
    s: float
    S: float

    @classmethod
    def from_params(cls, params: ModelParams) -> "DerivedRatios":
        sig2 = params.sigma ** 2
        return cls(
            kappa=params.theta1 / params.theta2,
            eta=params.eta1 / params.theta2,
            s=sig2 / params.theta2,
            S=sig2 / params.theta2 ** (1.0 - params.alpha),
        )


def eigenvalue(mode: Mode, params: ModelParams):
    """Eigenvalue of the drift operator at the given mode; strictly
    increasing in both indices."""
    k, l = mode
    return (-params.theta0
            + (params.theta1 ** 2 + params.eta1 ** 2) / (4.0 * params.theta2)
            + math.pi ** 2 * params.theta2 * (k * k + l * l))


def mu_value(mode: Mode, mu0: float):
    """Damping eigenvalue ``pi^2 (k^2 + l^2) + mu0`` of the Q2 noise."""
    if not (mu0 > -TWO_PI_SQ):
        raise ConfigError(
            f"mu0 must exceed -2*pi^2 = {-TWO_PI_SQ:.6f}, got {mu0}")
    k, l = mode
    return math.pi ** 2 * (k * k + l * l) + mu0


def sinpi(x):
    """sin(pi * x) with exact zeros at integer x.

    Reduces the argument to a residue in [-1/2, 1/2] so the result is both
    accurate for large arguments and exactly zero wherever the true sine of
    a rational multiple of pi vanishes on the grid.
    """
    arr = np.asarray(x, dtype=np.float64)
    n = np.round(arr)
    s = np.sin(np.pi * (arr - n))
    out = np.where(n.astype(np.int64) % 2 == 0, s, -s)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def eigenfunction(mode: Mode, y, z, params: ModelParams):
    """Eigenfunction value(s) at (y, z) in the closed unit square; exactly
    zero on the boundary.  Accepts scalars or broadcastable arrays."""
    k, l = mode
    half_kappa = 0.5 * params.kappa
    half_eta = 0.5 * params.eta
    val = (2.0 * sinpi(np.multiply(k, y)) * sinpi(np.multiply(l, z))
           * np.exp(-half_kappa * np.asarray(y, dtype=np.float64))
           * np.exp(-half_eta * np.asarray(z, dtype=np.float64)))
    if np.ndim(val) == 0:
        return float(val)
    return val


def factor_table(ks, xs, rate: float, amp: float = np.sqrt(2.0)):
    """Eigenfunction factor ``amp sin(pi k x) exp(-rate x / 2)``, one row per
    index in ``ks`` and one column per point in ``xs``.

    With the default amplitude the outer product of the y and z tables is
    the eigenfunction, and its boundary columns are exactly zero.
    """
    return amp * sinpi(np.multiply.outer(ks, xs)) * np.exp(-0.5 * rate * xs)


def check_point(y: float, z: float) -> None:
    """Refuse a point off the closed unit square, nan and inf included."""
    for name, v in (("y", y), ("z", z)):
        if not 0.0 <= v <= 1.0:  # false for nan too
            raise ConfigError(f"{name} must be a finite number in [0, 1], "
                              f"got {v!r}")


def damping_base(kind: NoiseKind, mode: Mode, params: ModelParams):
    """Base of the per-mode noise damping: lambda for Q1, mu for Q2."""
    if kind.is_q2:
        return mu_value(mode, params.require_mu0())
    return eigenvalue(mode, params)


def damping_factor(kind: NoiseKind, mode: Mode, params: ModelParams):
    """Per-mode noise damping: lambda^(-alpha/2) for Q1, mu^(-alpha/2) for Q2.
    One mode takes numpy's array power, as the grid does: Python's ``**``
    differs in the last bit on some bases (57 of 1,200 on AVX-512)."""
    base = np.asarray(damping_base(kind, mode, params))
    factor = base ** (-0.5 * params.alpha)
    return factor if np.ndim(factor) else float(factor)


def mode_volatility(kind: NoiseKind, mode: Mode, params: ModelParams):
    """Population volatility of one coordinate process,
    sigma * damping_factor."""
    return params.sigma * damping_factor(kind, mode, params)


def contrast_coefficient(alpha: float) -> float:
    """Leading constant Gamma(1 - alpha) / (4 pi alpha) of the mean surface
    of the normalized squared-increment statistic."""
    if not (0 < alpha < 1):
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    return math.gamma(1.0 - alpha) / (4.0 * math.pi * alpha)
