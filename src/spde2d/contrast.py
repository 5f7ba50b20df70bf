"""Minimum-contrast estimation of (scale, kappa, eta).

The contrast is the squared distance, over the thinned interior points,
between the squared-increment statistic and its mean surface
``c(alpha) * scale * exp(-kappa y - eta z)``.  The scale enters linearly,
so it is profiled out in closed form (variable projection) and the search
runs over (kappa, eta) only: projected Newton steps with the analytic
gradient and Hessian from the least-squares fit of the log-linear surface
to ``log Z``, with a grid of starts as the fallback.  For the Q2 noises the
same functional applies with the scale read as ``S = sigma^2/theta2^(1-alpha)``
instead of ``s = sigma^2/theta2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridMismatchError
from .increments import SpaceThinning, SquaredIncrementField
from .model import contrast_coefficient


@dataclass(frozen=True)
class ContrastConfig:
    """Search box (the compact parameter set) and optimizer knobs."""

    scale_box: tuple[float, float] = (1e-3, 1e3)
    kappa_box: tuple[float, float] = (-20.0, 20.0)
    eta_box: tuple[float, float] = (-20.0, 20.0)
    init_grid: int = 5
    max_iter: int = 200
    grad_tol: float = 1e-10
    step_tol: float = 1e-12

    def __post_init__(self):
        if not (0 < self.scale_box[0] < self.scale_box[1]):
            raise ConfigError(f"scale box must satisfy 0 < lo < hi, got {self.scale_box}")
        for name in ("kappa_box", "eta_box"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ConfigError(f"{name} must be non-degenerate, got {(lo, hi)}")
        if self.init_grid < 1:
            raise ConfigError(f"init_grid must be >= 1, got {self.init_grid}")


@dataclass(frozen=True)
class MinimumContrastFit:
    scale: float
    kappa_hat: float
    eta_hat: float
    contrast: float
    converged: bool
    n_restarts_used: int


def _check_fields(zfield: SquaredIncrementField, thin: SpaceThinning):
    if zfield.values.shape != (thin.m1, thin.m2):
        raise GridMismatchError(
            f"statistic shape {zfield.values.shape} does not match thinning "
            f"({thin.m1}, {thin.m2})")


def _weights(thin: SpaceThinning, kappa: float, eta: float) -> np.ndarray:
    return np.outer(np.exp(-kappa * thin.points_y), np.exp(-eta * thin.points_z))


def contrast_value(zfield: SquaredIncrementField, thin: SpaceThinning,
                   scale: float, kappa: float, eta: float,
                   alpha: float) -> float:
    """Sum of squared residuals against the mean surface."""
    _check_fields(zfield, thin)
    c = contrast_coefficient(alpha)
    r = zfield.values - c * scale * _weights(thin, kappa, eta)
    return float(np.dot(r.ravel(), r.ravel()))


def contrast_gradient(zfield: SquaredIncrementField, thin: SpaceThinning,
                      scale: float, kappa: float, eta: float,
                      alpha: float) -> np.ndarray:
    """Analytic gradient of the contrast in (scale, kappa, eta).

    Equals ``-2 c sum_j r_j w_j (1, -scale y_j, -scale z_j)`` with
    ``w_j = exp(-kappa y_j - eta z_j)`` and residuals ``r_j``.
    """
    _check_fields(zfield, thin)
    c = contrast_coefficient(alpha)
    w = _weights(thin, kappa, eta)
    r = zfield.values - c * scale * w
    rw = r * w
    total = float(np.sum(rw))
    ysum = float(np.sum(rw * thin.points_y[:, None]))
    zsum = float(np.sum(rw * thin.points_z[None, :]))
    return np.array([-2.0 * c * total,
                     2.0 * c * scale * ysum,
                     2.0 * c * scale * zsum])


def profile_scale(zfield: SquaredIncrementField, thin: SpaceThinning,
                  kappa: float, eta: float, alpha: float,
                  scale_box: tuple[float, float] = (1e-3, 1e3)) -> float:
    """Closed-form scale minimizing the contrast at fixed (kappa, eta),
    clamped to the box (linear least squares in the scale)."""
    _check_fields(zfield, thin)
    c = contrast_coefficient(alpha)
    w = _weights(thin, kappa, eta)
    num = float(np.sum(zfield.values * w))
    den = c * float(np.sum(w * w))
    raw = num / den
    return min(max(raw, scale_box[0]), scale_box[1])


def _profiled_hessian(zfield: SquaredIncrementField, thin: SpaceThinning,
                      scale: float, kappa: float, eta: float, alpha: float,
                      scale_box: tuple[float, float]) -> np.ndarray:
    """Analytic Hessian in (kappa, eta) of the contrast with the scale
    profiled out, at the profiled ``scale``.

    With points ``d_j = (y_j, z_j)`` and ``a_j = (2 c scale w_j - Z_j) w_j``
    the contrast has ``f_uu = 2 c scale sum a_j d_j d_j^T``,
    ``f_us = -2 c sum a_j d_j`` and ``f_ss = 2 c^2 sum w_j^2``.  An interior
    scale is eliminated by the Schur complement ``f_uu - f_us f_us^T / f_ss``;
    a scale clamped to the box is locally constant, which leaves ``f_uu``.
    """
    c = contrast_coefficient(alpha)
    w = _weights(thin, kappa, eta)
    d = np.stack(np.broadcast_arrays(thin.points_y[:, None],
                                     thin.points_z[None, :])).reshape(2, -1)
    ad = ((2.0 * c * scale * w - zfield.values) * w).ravel() * d
    hess = 2.0 * c * scale * (ad @ d.T)
    if scale_box[0] < scale < scale_box[1]:
        g = ad.sum(axis=1)
        hess -= 2.0 * np.outer(g, g) / float(np.sum(w * w))
    return hess


def _log_linear_start(zfield: SquaredIncrementField, thin: SpaceThinning):
    """(kappa, eta) of the least-squares fit of ``log Z`` on ``(1, -y, -z)``,
    or None without a logarithm (a value <= 0) or a slope (an axis with one
    point)."""
    values = zfield.values
    if (min(thin.m1, thin.m2) < 2
            or not 0 < values.min() <= values.max() < np.inf):
        return None
    y, z = np.meshgrid(thin.points_y, thin.points_z, indexing="ij")
    design = np.column_stack([np.ones(values.size), -y.ravel(), -z.ravel()])
    return np.linalg.lstsq(design, np.log(values).ravel(), rcond=None)[0][1:]


def minimize_contrast(zfield: SquaredIncrementField, thin: SpaceThinning,
                      alpha: float, config: ContrastConfig = ContrastConfig()
                      ) -> MinimumContrastFit:
    """Projected Newton fit from the closed-form log-linear start.

    The ``init_grid`` x ``init_grid`` grid of starts over the box runs the
    same iteration only when that start is unavailable or ends
    non-stationary; ``n_restarts_used`` counts every start run.  Ties in
    the final contrast (within 1e-12) break toward the smallest
    (kappa, eta) in lexicographic order.  ``converged`` requires a
    projected gradient norm of at most ``grad_tol * (sum Z^2 + contrast)``,
    the size of its terms, and at least 3 interior points (with fewer the
    three parameters are not identifiable).
    """
    _check_fields(zfield, thin)
    lo, hi = np.array([config.kappa_box, config.eta_box]).T
    zz = float(np.vdot(zfield.values, zfield.values))
    rounding = thin.m * np.finfo(np.float64).eps

    def evaluate(x):
        # envelope: the profiled scale is stationary or clamped, so the
        # partial gradient in (kappa, eta) is the full derivative
        kappa, eta = float(x[0]), float(x[1])
        s = profile_scale(zfield, thin, kappa, eta, alpha, config.scale_box)
        grad = contrast_gradient(zfield, thin, s, kappa, eta, alpha)[1:]
        held = ((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0))
        return (s, contrast_value(zfield, thin, s, kappa, eta, alpha), grad,
                ~held, float(np.linalg.norm(np.where(held, 0.0, grad))))

    def newton(x):
        """Newton steps on the coordinates not held at a bound, with the
        Hessian's eigenvalues in absolute value so that every step points
        downhill (near-null directions take none).  A step is halved until
        the contrast decreases, or stays flat to rounding while the
        projected gradient shrinks: near the optimum only the gradient
        discriminates.  Stops when stationary, on a step of at most
        ``step_tol``, on no acceptable step or after ``max_iter`` steps."""
        x = np.clip(x, lo, hi)
        s, val, grad, free, gnorm = evaluate(x)
        for _ in range(config.max_iter):
            if gnorm <= config.grad_tol * (zz + val):
                break
            lam, vec = np.linalg.eigh(_profiled_hessian(
                zfield, thin, s, float(x[0]), float(x[1]), alpha,
                config.scale_box)[np.ix_(free, free)])
            keep = np.abs(lam) > 1e-12 * np.abs(lam).max()
            if not keep.any():
                break
            step = np.zeros(2)
            step[free] = -vec[:, keep] @ (vec[:, keep].T @ grad[free]
                                          / np.abs(lam[keep]))
            for _ in range(40):
                cand = np.clip(x + step, lo, hi)
                new = evaluate(cand)
                if new[1] < val or (new[1] <= val + rounding * (zz + val)
                                    and new[4] < gnorm):
                    break
                step /= 2.0
            else:
                break
            moved = float(np.linalg.norm(cand - x))
            x, (s, val, grad, free, gnorm) = cand, new
            if moved <= config.step_tol:
                break
        return (val, float(x[0]), float(x[1]), s,
                gnorm <= config.grad_tol * (zz + val))

    start = _log_linear_start(zfield, thin)
    runs = [] if start is None else [newton(start)]
    if not runs or not runs[0][4]:
        runs += [newton(np.array([k0, e0]))
                 for k0 in np.linspace(*config.kappa_box, config.init_grid)
                 for e0 in np.linspace(*config.eta_box, config.init_grid)]
    best = min(r[0] for r in runs)
    val, kappa, eta, scale, stationary = min(
        (r for r in runs if r[0] <= best + 1e-12), key=lambda r: (r[1], r[2]))
    return MinimumContrastFit(scale, kappa, eta, val,
                              stationary and thin.m >= 3, len(runs))
