"""Correctness checks behind the benchmark's error count.

Four parts:

* the noise contract: sha256 of ``simulate_coordinate_paths`` mode states
  and of ``kernels.normal_block`` / ``philox_raw_block`` output at a tiny
  fixed configuration, whatever the workload seed;
* every contrast fit is finite, inside its box, and beaten by no grid
  start (the invariant of ``test_reported_contrast_is_minimum_over_starts``);
* in ``field_io``, the estimate from the re-read dump equals, bit for bit,
  the estimate from the in-memory field (checked in ``workloads``);
* at the reference seed, estimates and Monte Carlo summary means match
  ``reference.json`` within a relative tolerance far above rounding.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
RTOL = 1e-6
# Fields of an estimate record compared against the reference.  The
# optimizer's own diagnostics (``converged``, ``n_restarts_used``,
# ``contrast``) are left out: they describe how a fit ended, not what it
# estimated.
ESTIMATE_KEYS = ("scale_hat", "kappa_hat", "eta_hat", "qv11", "qv12",
                 "theta0", "theta1", "eta1", "theta2", "sigma2", "mu0",
                 "lambda11_hat", "failure")


class CheckFailed(RuntimeError):
    """An output of the package broke a benchmark correctness check."""


def noise_digests() -> dict:
    """sha256 of the noise contract's outputs at a tiny fixed configuration."""
    from spde2d import kernels
    from spde2d.harness import default_config
    from spde2d.simulate import (RngSeed, SpaceTimeGrid, TruncationSpec,
                                 simulate_coordinate_paths)

    cfg = default_config()
    trunc = TruncationSpec(K=3, L=4)
    paths = simulate_coordinate_paths(cfg.params, cfg.kind,
                                      SpaceTimeGrid(N=9, M1=4, M2=4), trunc,
                                      seed=RngSeed(20220121), reps=2,
                                      first_rep=5)
    c2 = np.repeat(np.arange(1, 4, dtype=np.uint64), 4)
    c3 = np.tile(np.arange(1, 5, dtype=np.uint64), 3)
    key1 = np.full(12, np.uint64(7), dtype=np.uint64)
    words = kernels.philox_raw_block(3, c2, c3, 20220121, key1)
    normals = kernels.normal_block(3, c2, c3, 20220121, key1)

    def sha(a):
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

    return {"coordinate_paths": sha(paths), "philox_words": sha(words),
            "normal_block": sha(normals)}


def check_noise(reference: dict) -> list[str]:
    """Names of the noise digests that differ from the reference."""
    got = noise_digests()
    return sorted(k for k, v in reference["noise"].items() if got.get(k) != v)


def guard_fits(minimize_contrast, contrast_value, profile_scale):
    """Wrap ``minimize_contrast`` so that every fit is checked as it returns.

    ``contrast_value`` and ``profile_scale`` are the unwrapped functions, so
    the check neither counts as contrast evaluations nor records spans.
    """

    @functools.wraps(minimize_contrast)
    def checked(zfield, thin, alpha, config):
        fit = minimize_contrast(zfield, thin, alpha, config)
        values = (fit.scale, fit.kappa_hat, fit.eta_hat, fit.contrast)
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"non-finite fit {values}")
        for v, (lo, hi), what in ((fit.scale, config.scale_box, "scale"),
                                  (fit.kappa_hat, config.kappa_box, "kappa"),
                                  (fit.eta_hat, config.eta_box, "eta")):
            if not lo <= v <= hi:
                raise CheckFailed(f"{what} {v} outside [{lo}, {hi}]")
        for k0 in np.linspace(*config.kappa_box, config.init_grid):
            for e0 in np.linspace(*config.eta_box, config.init_grid):
                s0 = profile_scale(zfield, thin, float(k0), float(e0), alpha,
                                   config.scale_box)
                start = contrast_value(zfield, thin, s0, float(k0),
                                       float(e0), alpha)
                if fit.contrast > start + 1e-12:
                    raise CheckFailed(
                        f"grid start ({k0}, {e0}) has contrast {start} "
                        f"below the fit's {fit.contrast}")
        return fit

    return checked


def close(got, want, rtol: float = RTOL) -> bool:
    if got is None or want is None or isinstance(want, (str, bool)):
        return got == want
    return abs(got - want) <= rtol * max(abs(got), abs(want))


def estimate_mismatches(got: dict, want: dict) -> list[str]:
    return [k for k in ESTIMATE_KEYS if not close(got.get(k), want.get(k))]


def summary_means(table) -> dict:
    return {row["parameter"]: {"mean": row["mean"],
                               "fail_count": row["fail_count"]}
            for row in table.rows}


def summary_mismatches(got: dict, want: dict) -> list[str]:
    bad = [k for k in want if k not in got]
    for k, row in got.items():
        ref = want.get(k)
        if (ref is None or row["fail_count"] != ref["fail_count"]
                or not close(row["mean"], ref["mean"])):
            bad.append(k)
    return bad
