"""Closed-form plug-in recovery of the coefficient parameters and the
asymptotic covariance matrices of the final estimators.

Each plug-in inverts the algebraic relations between the contrast-stage
ratios and two per-mode realized volatilities.  The key identity is that
consecutive eigenvalues differ by ``3 pi^2 theta2`` (modes (1,1) and
(1,2)), which isolates the diffusivity.  Sampling noise can put the
inputs in an infeasible order; that is reported as a tagged failure and
never clamped, so Monte Carlo summaries can account for it separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import (THREE_PI_SQ, TWO_PI_SQ, Mode, ModelParams, NoiseKind,
                    eigenvalue, mu_value)

ORDERING_VIOLATION = "ordering-violation"
NONPOSITIVE_BASE = "nonpositive-base"
OUT_OF_DOMAIN = "out-of-domain"


@dataclass(frozen=True)
class PluginEstimates:
    """Plug-in output; exactly one of a complete estimate set or a failure
    tag is populated."""

    case: NoiseKind
    theta0: float | None = None
    theta1: float | None = None
    eta1: float | None = None
    theta2: float | None = None
    sigma2: float | None = None
    mu0: float | None = None
    lambda11_hat: float | None = None
    failure: str | None = None

    def to_dict(self) -> dict:
        return {
            "case": self.case.value,
            "theta0": self.theta0, "theta1": self.theta1, "eta1": self.eta1,
            "theta2": self.theta2, "sigma2": self.sigma2, "mu0": self.mu0,
            "lambda11_hat": self.lambda11_hat, "failure": self.failure,
        }


def _pospow(base: float, expo: float) -> float:
    """Power on a strictly positive base via exp/log (callers check the
    domain first)."""
    return math.exp(expo * math.log(base))


def q1_plugin(s_hat: float, kappa_hat: float, eta_hat: float,
              sig11: float, sig12: float, alpha: float) -> PluginEstimates:
    """Full coefficient recovery for the Q1 noise.

    ``sig11``/``sig12`` are the realized squared volatilities of modes
    (1,1) and (1,2).  The diffusivity base requires ``sig12 < sig11``;
    otherwise the result carries an ordering-violation tag.
    """
    if not (0 < alpha < 1):
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    kind = NoiseKind.Q1
    if not (s_hat > 0 and sig11 > 0 and sig12 > 0):
        return PluginEstimates(case=kind, failure=NONPOSITIVE_BASE)
    inv11 = _pospow(sig11, -1.0 / alpha)
    inv12 = _pospow(sig12, -1.0 / alpha)
    base = inv12 - inv11
    if not base > 0:
        return PluginEstimates(case=kind, failure=ORDERING_VIOLATION)
    theta2 = _pospow(THREE_PI_SQ / _pospow(s_hat, 1.0 / alpha) / base,
                     alpha / (1.0 - alpha))
    sigma2 = s_hat * theta2
    theta1 = kappa_hat * theta2
    eta1 = eta_hat * theta2
    lambda11 = _pospow(s_hat * theta2 / sig11, 1.0 / alpha)
    theta0 = -lambda11 + ((kappa_hat ** 2 + eta_hat ** 2) / 4.0
                          + TWO_PI_SQ) * theta2
    return PluginEstimates(case=kind, theta0=theta0, theta1=theta1, eta1=eta1,
                           theta2=theta2, sigma2=sigma2,
                           lambda11_hat=lambda11)


def q2_known_plugin(S_hat: float, kappa_hat: float, eta_hat: float,
                    qv11: float, mu0: float, alpha: float) -> PluginEstimates:
    """Coefficient recovery for the Q2 noise with known shift mu0.

    ``qv11`` is the realized quadratic variation of mode (1,1); the noise
    amplitude is ``mu_{1,1}^alpha * qv11`` and the diffusivity follows from
    the scale ratio.
    """
    if not (0 < alpha < 1):
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    kind = NoiseKind.Q2_KNOWN_MU0
    mu11 = mu_value(Mode(1, 1), mu0)
    if not (S_hat > 0 and qv11 > 0):
        return PluginEstimates(case=kind, failure=NONPOSITIVE_BASE)
    sigma2 = _pospow(mu11, alpha) * qv11
    theta2 = _pospow(sigma2 / S_hat, 1.0 / (1.0 - alpha))
    return PluginEstimates(case=kind, theta1=kappa_hat * theta2,
                           eta1=eta_hat * theta2, theta2=theta2,
                           sigma2=sigma2, mu0=mu0)


def q2_unknown_plugin(S_hat: float, kappa_hat: float, eta_hat: float,
                      tau11: float, tau12: float, alpha: float
                      ) -> PluginEstimates:
    """Coefficient recovery for the Q2 noise with unknown shift mu0.

    ``tau11``/``tau12`` are the realized squared volatilities of modes
    (1,1) and (1,2).  With ``tau12 = tau11`` the shift base degenerates
    (ordering violation); with ``tau12 > tau11`` the recovered shift falls
    at or below ``-2 pi^2`` and the result is tagged out-of-domain.
    """
    if not (0 < alpha < 1):
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    kind = NoiseKind.Q2_UNKNOWN_MU0
    if not (S_hat > 0 and tau11 > 0 and tau12 > 0):
        return PluginEstimates(case=kind, failure=NONPOSITIVE_BASE)
    inv11 = _pospow(tau11, -1.0 / alpha)
    inv12 = _pospow(tau12, -1.0 / alpha)
    base = inv12 - inv11
    if base == 0.0:
        return PluginEstimates(case=kind, failure=ORDERING_VIOLATION)
    mu11 = THREE_PI_SQ * inv11 / base
    mu0_bar = mu11 - TWO_PI_SQ
    if not mu0_bar > -TWO_PI_SQ:
        return PluginEstimates(case=kind, failure=OUT_OF_DOMAIN)
    sigma2 = _pospow(THREE_PI_SQ / base, alpha)
    theta2 = _pospow(sigma2 / S_hat, 1.0 / (1.0 - alpha))
    return PluginEstimates(case=kind, theta1=kappa_hat * theta2,
                           eta1=eta_hat * theta2, theta2=theta2,
                           sigma2=sigma2, mu0=mu0_bar)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Asymptotic covariance with its parameter labels and the scalar
    constants entering the block structure."""

    which: str
    entries: np.ndarray
    constants: tuple
    labels: tuple[str, ...]


def covariance_J(params: ModelParams) -> CovarianceMatrix:
    """5x5 covariance of the Q1 estimators, order (theta0, theta1, eta1,
    theta2, sigma^2); rank <= 2."""
    a = params.alpha
    lam11 = eigenvalue(Mode(1, 1), params)
    lam12 = eigenvalue(Mode(1, 2), params)
    t0 = params.theta0
    x = lam12 / a - t0 / (1.0 - a)
    y = lam11 / a - t0 / (1.0 - a)
    c1 = lam11 ** 2 * x ** 2 + lam12 ** 2 * y ** 2
    c2 = -(lam11 ** 2 * x + lam12 ** 2 * y) / (1.0 - a)
    c3 = (lam11 ** 2 + lam12 ** 2) / (1.0 - a) ** 2
    vartheta = np.array([params.theta1, params.eta1, params.theta2,
                         params.sigma ** 2])
    entries = np.empty((5, 5))
    entries[0, 0] = c1
    entries[0, 1:] = c2 * vartheta
    entries[1:, 0] = c2 * vartheta
    entries[1:, 1:] = c3 * np.outer(vartheta, vartheta)
    entries *= 2.0 / (9.0 * math.pi ** 4 * params.theta2 ** 2)
    return CovarianceMatrix(which="J", entries=entries, constants=(c1, c2, c3),
                            labels=("theta0", "theta1", "eta1", "theta2",
                                    "sigma2"))


def covariance_K(params: ModelParams) -> CovarianceMatrix:
    """4x4 covariance of the Q2 known-shift estimators, order (theta1,
    eta1, theta2, sigma^2); rank 1."""
    a = params.alpha
    nu = np.array([params.theta1, params.eta1, params.theta2,
                   (1.0 - a) * params.sigma ** 2])
    entries = (2.0 / (1.0 - a) ** 2) * np.outer(nu, nu)
    return CovarianceMatrix(which="K", entries=entries, constants=(),
                            labels=("theta1", "eta1", "theta2", "sigma2"))


def covariance_L(params: ModelParams) -> CovarianceMatrix:
    """5x5 covariance of the Q2 unknown-shift estimators, order (mu0,
    theta1, eta1, theta2, sigma^2); rank <= 2."""
    a = params.alpha
    mu0 = params.require_mu0()
    mu11 = mu_value(Mode(1, 1), mu0)
    mu12 = mu_value(Mode(1, 2), mu0)
    d1 = 2.0 * mu11 ** 2 * mu12 ** 2 / a ** 2
    d2 = mu11 * mu12 * (mu11 + mu12) / (a * (1.0 - a))
    d3 = (mu11 ** 2 + mu12 ** 2) / (1.0 - a) ** 2
    nu = np.array([params.theta1, params.eta1, params.theta2,
                   (1.0 - a) * params.sigma ** 2])
    entries = np.empty((5, 5))
    entries[0, 0] = d1
    entries[0, 1:] = d2 * nu
    entries[1:, 0] = d2 * nu
    entries[1:, 1:] = d3 * np.outer(nu, nu)
    entries *= 2.0 / (9.0 * math.pi ** 4)
    return CovarianceMatrix(which="L", entries=entries, constants=(d1, d2, d3),
                            labels=("mu0", "theta1", "eta1", "theta2",
                                    "sigma2"))
