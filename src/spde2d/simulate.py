"""Exact-in-law simulation of the spectral field on the observation grid.

Each mode coefficient is an Ornstein-Uhlenbeck process sampled by its exact
transition (no time-discretization bias); the field is the truncated
eigenfunction series evaluated on the lattice, and its observation record
the part of it that estimation reads.  Every mode owns an
independent counter-based noise stream keyed by ``(seed, replication)``
with counter words ``(k, l)``, so results are reproducible bit-for-bit
regardless of scheduling and the contribution of modes below a cutoff does
not change when the cutoff grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import kernels
from .errors import ConfigError, GridMismatchError, MemoryBudgetError
from .model import Mode, ModelParams, NoiseKind, sinpi

MEMORY_BUDGET = 4 << 30  # bytes of observed values one call may hold

_UINT64_MAX = 2 ** 64 - 1


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform observation lattice: times i/N on [0, 1], space (j1/M1, j2/M2)
    on the closed unit square."""

    N: int
    M1: int
    M2: int

    def __post_init__(self):
        for name in ("N", "M1", "M2"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 1):
                raise ConfigError(f"{name} must be an integer >= 1, got {v!r}")

    @property
    def dt(self) -> float:
        return 1.0 / self.N

    def times(self) -> np.ndarray:
        return np.arange(self.N + 1, dtype=np.float64) / self.N

    def ys(self) -> np.ndarray:
        return np.arange(self.M1 + 1, dtype=np.float64) / self.M1

    def zs(self) -> np.ndarray:
        return np.arange(self.M2 + 1, dtype=np.float64) / self.M2


@dataclass(frozen=True)
class TruncationSpec:
    """Spectral cutoffs of the simulated series."""

    K: int
    L: int

    def __post_init__(self):
        if not (isinstance(self.K, int) and self.K >= 1):
            raise ConfigError(f"K must be an integer >= 1, got {self.K!r}")
        if not (isinstance(self.L, int) and self.L >= 1):
            raise ConfigError(f"L must be an integer >= 1, got {self.L!r}")

    @property
    def n_modes(self) -> int:
        return self.K * self.L


@dataclass(frozen=True)
class InitialCondition:
    """Initial state given by spectral coefficients; empty means zero."""

    coefficients: Mapping[Mode, float] = field(default_factory=dict)

    def __post_init__(self):
        for mode, value in self.coefficients.items():
            k, l = mode
            if k < 1 or l < 1:
                raise ConfigError(f"initial mode indices must be >= 1, got {mode}")
            if not np.isfinite(value):
                raise ConfigError(f"initial coefficient for {mode} is not finite")

    def dense(self, trunc: TruncationSpec) -> np.ndarray:
        out = np.zeros((trunc.K, trunc.L), dtype=np.float64)
        for (k, l), value in self.coefficients.items():
            if k > trunc.K or l > trunc.L:
                raise ConfigError(
                    f"initial mode {(k, l)} lies outside truncation "
                    f"({trunc.K}, {trunc.L})")
            out[k - 1, l - 1] = value
        return out


ZERO_INITIAL = InitialCondition()


@dataclass(frozen=True)
class RngSeed:
    """Master seed; identical seed and configuration give bit-identical
    output."""

    master: int

    def __post_init__(self):
        if not (isinstance(self.master, int) and 0 <= self.master <= _UINT64_MAX):
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.master!r}")


@dataclass(frozen=True)
class FieldSample:
    """Observed field on the full lattice, shape (N+1, M1+1, M2+1)."""

    values: np.ndarray
    grid: SpaceTimeGrid
    provenance: dict

    def __post_init__(self):
        expected = (self.grid.N + 1, self.grid.M1 + 1, self.grid.M2 + 1)
        if self.values.shape != expected:
            raise GridMismatchError(
                f"field shape {self.values.shape} does not match grid {expected}")


@dataclass(frozen=True)
class Observation:
    """What estimation reads of a field.

    ``points`` holds the values at the thinned points ``index_y x index_z``
    at every time, shape ``(N+1, m1, m2)``; ``slices`` the full lattice at
    the coarse time indices ``coarse``, shape ``(n+1, M1+1, M2+1)``.  Built
    by ``observe_sample`` from a stored field, or by
    ``simulate_observation`` without one.
    """

    points: np.ndarray
    slices: np.ndarray
    grid: SpaceTimeGrid
    index_y: np.ndarray
    index_z: np.ndarray
    coarse: np.ndarray


def _modes(n: int) -> np.ndarray:
    return np.arange(1, n + 1, dtype=np.float64)


def _mode_tables(params: ModelParams, kind: NoiseKind, trunc: TruncationSpec):
    """Eigenvalues and noise damping bases on the (K, L) mode grid.

    The damping base is the eigenvalue itself for Q1 and ``pi^2 (k^2 + l^2)
    + mu0`` for Q2; mode ``(k, l)`` has noise amplitude ``sigma *
    base^(-alpha/2)``.
    """
    sumsq = _modes(trunc.K)[:, None] ** 2 + _modes(trunc.L)[None, :] ** 2
    lam = (-params.theta0
           + (params.theta1 ** 2 + params.eta1 ** 2) / (4.0 * params.theta2)
           + np.pi ** 2 * params.theta2 * sumsq)
    if kind.is_q2:
        damp_base = np.pi ** 2 * sumsq + params.require_mu0()
    else:
        damp_base = lam
    return lam, damp_base


def _factor_table(ks, xs, rate: float, amp: float = np.sqrt(2.0)):
    """Eigenfunction factor ``amp sin(pi k x) exp(-rate x / 2)``, one row per
    index in ``ks`` and one column per point in ``xs``.

    With the default amplitude the outer product of the y and z tables is
    the eigenfunction, and its boundary columns are exactly zero.
    """
    return amp * sinpi(np.multiply.outer(ks, xs)) * np.exp(-0.5 * rate * xs)


def _transition_coeffs(lam: np.ndarray, gamma: np.ndarray, dt: float):
    decay = np.exp(-lam * dt)
    scale = gamma * np.sqrt(-np.expm1(-2.0 * lam * dt) / (2.0 * lam))
    return decay, scale


def _stream_words(trunc: TruncationSpec):
    """Counter words (k, l) for the flattened row-major mode layout."""
    c2 = np.repeat(np.arange(1, trunc.K + 1, dtype=np.uint64), trunc.L)
    c3 = np.tile(np.arange(1, trunc.L + 1, dtype=np.uint64), trunc.K)
    return c2, c3


def _sweep(params: ModelParams, kind: NoiseKind, grid: SpaceTimeGrid,
           trunc: TruncationSpec, init: InitialCondition, seed: RngSeed,
           reps: range, visit) -> None:
    """Call ``visit(i, states)`` with the ``(len(reps), K*L)`` mode states
    at t_i, for i = 0, ..., N.

    Row ``r`` of ``states`` is replication ``reps[r]``, whose noise streams
    are keyed by ``(seed, reps[r])``.  ``visit`` runs on the kernel
    threads, several steps at once and in any order; ``states`` is valid
    for the call only.
    """
    lam, damp_base = _mode_tables(params, kind, trunc)
    gamma = params.sigma * damp_base ** (-0.5 * params.alpha)
    decay, scale = _transition_coeffs(lam, gamma, grid.dt)
    n_reps = len(reps)
    decay = np.tile(decay.ravel(), n_reps)
    scale = np.tile(scale.ravel(), n_reps)
    c2, c3 = _stream_words(trunc)
    c2 = np.tile(c2, n_reps)
    c3 = np.tile(c3, n_reps)
    key1 = np.repeat(np.array(reps, dtype=np.uint64), trunc.n_modes)
    # Zero starts skip the dense table: allocating and freeing it before the
    # loop adds 1.5 MB to the peak RSS of a desk-scale replication.
    x = np.zeros(n_reps * trunc.n_modes)
    if init.coefficients:
        x.reshape(n_reps, trunc.n_modes)[:] = init.dense(trunc).ravel()
    kernels.ou_sweep(
        x, decay, scale, c2, c3, seed.master, key1, grid.N,
        lambda i, state: visit(i, state.reshape(n_reps, trunc.n_modes)))


def _check_request(first_rep: int, n_reps: int, nbytes: int,
                   what: str) -> None:
    """Refuse replications outside the 64-bit stream keys and ``nbytes`` of
    output above ``MEMORY_BUDGET``, before anything is allocated."""
    if n_reps < 1:
        raise ConfigError(f"reps must be >= 1, got {n_reps}")
    if not 0 <= first_rep <= _UINT64_MAX - (n_reps - 1):
        raise ConfigError(
            f"replications {first_rep} .. {first_rep + n_reps - 1} must lie "
            f"in [0, 2**64 - 1]: each keys a 64-bit noise stream")
    if nbytes > MEMORY_BUDGET:
        raise MemoryBudgetError(
            f"{what} needs {nbytes} bytes, exceeding the budget of "
            f"{MEMORY_BUDGET}; shrink the request")


def _observe(params: ModelParams, kind: NoiseKind, grid: SpaceTimeGrid,
             trunc: TruncationSpec, init: InitialCondition, seed: RngSeed,
             first_rep: int, n_reps: int, shape: tuple, project,
             what: str) -> np.ndarray:
    """``project(state)`` at t_0, ..., t_N for replications ``first_rep ..
    first_rep+n_reps-1``, shape ``(n_reps, N+1, *shape)``.

    ``project`` maps the ``(reps, K*L)`` sweep state of a chunk of
    replications to values that broadcast to ``(reps, *shape)``; it runs on
    the kernel threads, several steps at once.  The request is checked
    against ``MEMORY_BUDGET`` before anything is allocated, and chunks of
    at most about 2M noise streams bound the working memory of a sweep.
    """
    _check_request(first_rep, n_reps,
                   8 * n_reps * (grid.N + 1) * math.prod(shape), what)
    out = np.empty((n_reps, grid.N + 1, *shape), dtype=np.float64)
    chunk = max(1, (1 << 21) // trunc.n_modes)
    for r0 in range(0, n_reps, chunk):
        rows = out[r0:r0 + chunk]
        reps = range(first_rep + r0, first_rep + r0 + len(rows))

        def visit(i, states):
            rows[:, i] = project(states)

        _sweep(params, kind, grid, trunc, init, seed, reps, visit)
    return out


def _lattice_tables(params: ModelParams, grid: SpaceTimeGrid,
                    trunc: TruncationSpec):
    """Eigenfunction factor tables ``eyT`` (M1+1, K) and ``ez`` (L, M2+1)
    of the lattice: the field slice of mode state ``x`` is ``eyT @ x @
    ez``."""
    eyT = np.ascontiguousarray(
        _factor_table(_modes(trunc.K), grid.ys(), params.kappa).T)
    ez = _factor_table(_modes(trunc.L), grid.zs(), params.eta)
    return eyT, ez


def _observed_indices(grid: SpaceTimeGrid, index_y, index_z, coarse):
    """The indices of an observation record as int64 arrays: lattice
    indices in y and z, and strictly increasing time indices."""
    out = []
    for name, idx, top in (("index_y", index_y, grid.M1),
                           ("index_z", index_z, grid.M2),
                           ("coarse", coarse, grid.N)):
        a = np.asarray(idx)
        if not (a.ndim == 1 and (a.size == 0 or a.dtype.kind in "iu")
                and np.all((a >= 0) & (a <= top))):
            raise ConfigError(f"{name} must be integers in [0, {top}], "
                              f"got {idx!r}")
        out.append(a.astype(np.int64))
    if np.any(np.diff(out[2]) <= 0):
        raise ConfigError(f"coarse must increase strictly, got {coarse!r}")
    return out


def _provenance(params: ModelParams, kind: NoiseKind, trunc: TruncationSpec,
                seed: RngSeed, rep: int) -> dict:
    return {
        "params": {
            "theta0": params.theta0, "theta1": params.theta1,
            "eta1": params.eta1, "theta2": params.theta2,
            "sigma": params.sigma, "alpha": params.alpha, "mu0": params.mu0,
        },
        "kind": kind.value,
        "truncation": [trunc.K, trunc.L],
        "seed": seed.master,
        "rep": rep,
    }


def simulate_coordinate_paths(params: ModelParams, kind: NoiseKind,
                              grid: SpaceTimeGrid, trunc: TruncationSpec,
                              init: InitialCondition = ZERO_INITIAL,
                              seed: RngSeed = RngSeed(0), *,
                              reps: int | None = None, first_rep: int = 0
                              ) -> np.ndarray:
    """Exact coordinate-process paths at every observation time.

    Returns ``(K, L, N+1)`` for ``reps=None``; with an integer ``reps`` the
    leading axis enumerates replications ``first_rep .. first_rep+reps-1``
    and the shape is ``(reps, K, L, N+1)``.
    """
    shape = (trunc.K, trunc.L)
    out = _observe(params, kind, grid, trunc, init, seed, first_rep,
                   1 if reps is None else reps, shape,
                   lambda x: x.reshape(-1, *shape), "coordinate path storage")
    out = np.moveaxis(out, 1, -1)
    return out[0] if reps is None else out


def simulate_field(params: ModelParams, kind: NoiseKind, grid: SpaceTimeGrid,
                   trunc: TruncationSpec, init: InitialCondition = ZERO_INITIAL,
                   seed: RngSeed = RngSeed(0), *, rep: int = 0) -> FieldSample:
    """Simulate the field on the full lattice, streaming over time slices.

    Only the current (K, L) mode state is held in memory; the mode-path
    matrix is never materialized.  Slice ``i`` is ``ey^T @ x_i @ ez`` with
    the eigenfunction factor tables ``ey`` and ``ez`` of the lattice.
    """
    eyT, ez = _lattice_tables(params, grid, trunc)
    values = _observe(params, kind, grid, trunc, init, seed, rep, 1,
                      (grid.M1 + 1, grid.M2 + 1),
                      lambda x: eyT @ x.reshape(trunc.K, trunc.L) @ ez,
                      "field sample")
    return FieldSample(values=values[0], grid=grid,
                       provenance=_provenance(params, kind, trunc, seed, rep))


def observe_sample(field: FieldSample, index_y, index_z,
                   coarse) -> Observation:
    """The observation record of a stored field: its values at the points
    ``index_y x index_z`` at every time and its slices at the time indices
    ``coarse``."""
    index_y, index_z, coarse = _observed_indices(field.grid, index_y,
                                                 index_z, coarse)
    return Observation(
        points=np.ascontiguousarray(
            field.values[:, index_y[:, None], index_z]),
        slices=field.values[coarse], grid=field.grid, index_y=index_y,
        index_z=index_z, coarse=coarse)


def simulate_observation(params: ModelParams, kind: NoiseKind,
                         grid: SpaceTimeGrid, trunc: TruncationSpec,
                         index_y, index_z, coarse,
                         init: InitialCondition = ZERO_INITIAL,
                         seed: RngSeed = RngSeed(0), *, rep: int = 0
                         ) -> Observation:
    """``observe_sample(simulate_field(..., rep=rep), index_y, index_z,
    coarse)``, bit for bit, without the field.

    It runs ``simulate_field``'s sweep with a projection that knows the
    step.  At a fine step it projects the mode state onto the rows of the
    points alone, ``(eyT[index_y] @ x @ ez)[:, index_z]``, at m1 (K + M2+1)
    L multiply-adds instead of the (M1+1) (K + M2+1) L of a slice; at a
    coarse step it projects onto the whole lattice, ``eyT @ x @ ez``, and
    takes the points from that slice.

    The restricted product equals the slice at the points only as far as
    the BLAS computes each element of a product alike whatever the other
    rows: the tests pin it on every step of the shapes they and the
    benchmark run.  Restricting the columns too (``ez[:, index_z]``) does
    not: with OpenBLAS 0.3.31 on AVX-512 it differed in the last bit on
    most steps at K=L=64 to 256.
    """
    index_y, index_z, coarse = _observed_indices(grid, index_y, index_z,
                                                 coarse)
    shape = (grid.M1 + 1, grid.M2 + 1)
    points_shape = (grid.N + 1, len(index_y), len(index_z))
    _check_request(rep, 1, 8 * (math.prod(points_shape)
                                + len(coarse) * math.prod(shape)),
                   "observation record")
    points = np.empty(points_shape)
    slices = np.empty((len(coarse), *shape))
    slot = dict(zip(coarse.tolist(), range(len(coarse))))
    eyT, ez = _lattice_tables(params, grid, trunc)
    eyT_points = eyT[index_y]

    def visit(i, states):
        x = states.reshape(trunc.K, trunc.L)
        c = slot.get(i)
        if c is None:
            points[i] = (eyT_points @ x @ ez)[:, index_z]
        else:
            slices[c] = eyT @ x @ ez
            points[i] = slices[c][index_y[:, None], index_z]

    _sweep(params, kind, grid, trunc, init, seed, range(rep, rep + 1), visit)
    return Observation(points=points, slices=slices, grid=grid,
                       index_y=index_y, index_z=index_z, coarse=coarse)


def simulate_point_values(params: ModelParams, kind: NoiseKind,
                          grid: SpaceTimeGrid, trunc: TruncationSpec,
                          points: Sequence[tuple[float, float]],
                          seed: RngSeed = RngSeed(0), *, reps: int = 1,
                          first_rep: int = 0) -> np.ndarray:
    """Field values at selected space points, batched over replications.

    Returns ``(reps, N+1, len(points))``.  Replication ``r`` reproduces the
    field of ``simulate_field(..., rep=first_rep + r)`` at those points up
    to the associativity of the spectral sum.  Starts from the zero initial
    state.  Intended for Monte Carlo studies where whole fields would be
    wasteful.
    """
    pts = [(float(y), float(z)) for (y, z) in points]
    if not pts:
        raise ConfigError("points must be non-empty")
    ys = np.array([p[0] for p in pts])
    zs = np.array([p[1] for p in pts])
    ek = _factor_table(_modes(trunc.K), ys, params.kappa)
    el = _factor_table(_modes(trunc.L), zs, params.eta)
    etab = (ek[:, None, :] * el[None, :, :]).reshape(-1, len(pts))
    return _observe(params, kind, grid, trunc, ZERO_INITIAL, seed, first_rep,
                    reps, (len(pts),), lambda x: x @ etab,
                    "point-value storage")
