"""Exact-in-law simulation of the spectral field on the observation grid.

Each mode coefficient is an Ornstein-Uhlenbeck process sampled by its exact
transition (no time-discretization bias); the field is the truncated
eigenfunction series evaluated on the lattice, and its observation record
the part of it that estimation reads; a field is the record with no points
and every time coarse.  Every mode owns an independent counter-based noise
stream keyed by ``(seed, replication)`` with counter words ``(k, l)``, so
results are reproducible bit-for-bit regardless of scheduling and the
contribution of modes below a cutoff does not change when the cutoff grows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import kernels
from .errors import (ConfigError, GridMismatchError, MemoryBudgetError,
                     check_count)
from .model import (Mode, ModelParams, NoiseKind, check_point, eigenvalue,
                    factor_table, mode_grid, mode_volatility)

MEMORY_BUDGET = 4 << 30  # bytes of output and sweep one call may hold

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
            check_count(name, getattr(self, name))

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
        check_count("K", self.K)
        check_count("L", self.L)

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
        if (isinstance(self.master, bool) or not isinstance(self.master, int)
                or not 0 <= self.master <= _UINT64_MAX):
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.master!r}")


@dataclass(frozen=True)
class Observation:
    """What is read of a field: its observation record.

    ``points`` holds the values at the thinned points ``index_y x index_z``
    at every time, shape ``(N+1, m1, m2)``; ``slices`` the full lattice at
    the coarse time indices ``coarse``, shape ``(n+1, M1+1, M2+1)``.  Built
    from a field's slices by ``observe_slices`` (``observe_sample`` for a
    field in memory, ``fieldio.read_field`` for a dump), or by
    ``simulate_observation`` without them.  A field is the record ``([],
    [], range(N+1))``: no points, and every time slice in ``slices``.
    """

    points: np.ndarray
    slices: np.ndarray
    grid: SpaceTimeGrid
    index_y: np.ndarray
    index_z: np.ndarray
    coarse: np.ndarray
    provenance: dict = field(default_factory=dict)

    @property
    def is_field(self) -> bool:
        """Whether the record holds every time slice: the whole field."""
        grid = self.grid
        return self.slices.shape == (grid.N + 1, grid.M1 + 1, grid.M2 + 1)


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
    modes = mode_grid(trunc.K, trunc.L)
    lam = eigenvalue(modes, params).ravel()
    gamma = mode_volatility(kind, modes, params).ravel()
    # the exact OU transition over one step
    decay = np.exp(-lam * grid.dt)
    scale = gamma * np.sqrt(-np.expm1(-2.0 * lam * grid.dt) / (2.0 * lam))
    # the sweep reads the transition alone: freeing the mode grid and the
    # per-mode arrays lowered a desk replication's peak RSS by 0.9 MB
    del modes, lam, gamma
    # Zero starts skip the dense table: allocating and freeing it before the
    # loop adds 1.5 MB to the peak RSS of a desk-scale replication.
    x = np.zeros((len(reps), trunc.n_modes))
    if init.coefficients:
        x[:] = init.dense(trunc).ravel()
    kernels.ou_sweep(x.ravel(), decay, scale, trunc.L, seed.master,
                     reps.start, grid.N,
                     lambda i, state: visit(i, state.reshape(x.shape)))


def _check_request(first_rep, n_reps, rep_bytes: int, what: str,
                   grid: SpaceTimeGrid, trunc: TruncationSpec,
                   chunk: int = 1) -> range:
    """Replications ``first_rep .. first_rep+n_reps-1``, before any
    allocation: refuse a boolean or a fraction for either and keys past
    2**64 - 1 (``ConfigError``), and ``rep_bytes`` of output per
    replication plus a sweep of ``chunk`` of them (start state and tile per
    stream, two arrays per mode) above ``MEMORY_BUDGET``."""
    for name, value in (("replication index", first_rep), ("reps", n_reps)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    first_rep, n_reps = int(first_rep), int(n_reps)
    if n_reps < 1:
        raise ConfigError(f"reps must be >= 1, got {n_reps}")
    if not 0 <= first_rep <= _UINT64_MAX - (n_reps - 1):
        raise ConfigError(
            f"replications {first_rep} .. {first_rep + n_reps - 1} must lie "
            f"in [0, 2**64 - 1]: each keys a 64-bit noise stream")
    nbytes, streams = n_reps * rep_bytes, min(n_reps, chunk) * trunc.n_modes
    work = 8 * (streams * (1 + min(kernels.tile_steps(streams), grid.N))
                + 2 * trunc.n_modes)
    if nbytes + work > MEMORY_BUDGET:
        raise MemoryBudgetError(
            f"{what} needs {nbytes} bytes and its sweep {work} more, "
            f"exceeding the budget of {MEMORY_BUDGET}; shrink the request")
    return range(first_rep, first_rep + n_reps)


def _observe(params: ModelParams, kind: NoiseKind, grid: SpaceTimeGrid,
             trunc: TruncationSpec, init: InitialCondition, seed: RngSeed,
             first_rep: int, n_reps: int, shape: tuple, project,
             what: str) -> np.ndarray:
    """``project(state)`` at t_0, ..., t_N for replications ``first_rep ..
    first_rep+n_reps-1``, shape ``(n_reps, N+1, *shape)``: the batched
    simulators that do not project onto the lattice.

    ``project`` maps the ``(reps, K*L)`` sweep state of a chunk of
    replications to values that broadcast to ``(reps, *shape)``; it runs on
    the kernel threads, several steps at once.  The request is checked
    against ``MEMORY_BUDGET`` before anything is allocated, and chunks of
    at most about 2M noise streams bound the working memory of a sweep.
    """
    chunk = max(1, (1 << 21) // trunc.n_modes)
    reps = _check_request(first_rep, n_reps,
                          8 * (grid.N + 1) * math.prod(shape), what, grid,
                          trunc, chunk)
    out = np.empty((len(reps), grid.N + 1, *shape), dtype=np.float64)
    for r0 in range(0, len(reps), chunk):
        rows = out[r0:r0 + chunk]

        def visit(i, states):
            rows[:, i] = project(states)

        _sweep(params, kind, grid, trunc, init, seed, reps[r0:r0 + chunk],
               visit)
    return out


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
        "params": asdict(params),
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
                   seed: RngSeed = RngSeed(0), *, rep: int = 0) -> Observation:
    """Simulate the field on the full lattice: its observation record with
    no points and every time coarse, whose ``slices`` are the field."""
    return simulate_observation(params, kind, grid, trunc, [], [],
                                range(grid.N + 1), init, seed, rep=rep)


def observe_slices(grid: SpaceTimeGrid, blocks, index_y, index_z, coarse,
                   provenance: dict) -> Observation:
    """The observation record of the field on ``grid`` whose slices
    ``blocks`` yields in order, as ``(rows, M1+1, M2+1)`` runs of whole
    time slices that together make all N+1: its values at the points
    ``index_y x index_z`` at every time and its slices at the time indices
    ``coarse``.

    The indices are checked before the first block is drawn, and each
    block is copied from before the next one is, so ``blocks`` may reuse
    one buffer.  Blocks that are not N+1 slices of the lattice in all raise
    ``GridMismatchError``.
    """
    index_y, index_z, coarse = _observed_indices(grid, index_y, index_z,
                                                 coarse)
    points = np.empty((grid.N + 1, len(index_y), len(index_z)))
    slices = np.empty((len(coarse), grid.M1 + 1, grid.M2 + 1))
    misfit = GridMismatchError(f"the blocks are not {grid.N + 1} slices of "
                               f"shape {slices.shape[1:]}")
    first = 0
    for rows in blocks:
        end = first + len(rows)
        if end > grid.N + 1 or rows.shape[1:] != slices.shape[1:]:
            raise misfit
        points[first:end] = rows[:, index_y[:, None], index_z]
        lo, hi = np.searchsorted(coarse, [first, end])
        slices[lo:hi] = rows[coarse[lo:hi] - first]
        first = end
    if first != grid.N + 1:
        raise misfit
    return Observation(points=points, slices=slices, grid=grid,
                       index_y=index_y, index_z=index_z, coarse=coarse,
                       provenance=provenance)


def observe_sample(field: Observation, index_y, index_z,
                   coarse) -> Observation:
    """The observation record of a field in memory, the record of every time
    slice: ``observe_slices`` on all its slices as one block."""
    return observe_slices(field.grid, [field.slices], index_y, index_z,
                          coarse, field.provenance)


def simulate_observation(params: ModelParams, kind: NoiseKind,
                         grid: SpaceTimeGrid, trunc: TruncationSpec,
                         index_y, index_z, coarse,
                         init: InitialCondition = ZERO_INITIAL,
                         seed: RngSeed = RngSeed(0), *, rep: int = 0
                         ) -> Observation:
    """``observe_sample(simulate_field(..., rep=rep), index_y, index_z,
    coarse)``, bit for bit, without the field (``simulate_field`` is this
    record with no points and every time coarse).

    It runs one sweep with a projection that knows the step.  With the
    eigenfunction factor tables ``eyT`` (M1+1, K) and ``ez`` (L, M2+1) of
    the lattice, at a fine step it projects the mode state onto the rows of
    the points alone, ``(eyT[index_y] @ x @ ez)[:, index_z]``, at m1 (K +
    M2+1) L multiply-adds instead of the (M1+1) (K + M2+1) L of a slice; at
    a coarse step it projects onto the whole lattice, ``eyT @ x @ ez``, and
    the coarse points are taken from those slices after the sweep.

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
    rep = _check_request(rep, 1, 8 * (math.prod(points_shape)
                                      + len(coarse) * math.prod(shape)),
                         "observation record", grid, trunc).start
    points = np.empty(points_shape)
    slices = np.empty((len(coarse), *shape))
    slot = dict(zip(coarse.tolist(), range(len(coarse))))
    eyT = np.ascontiguousarray(
        factor_table(np.arange(1, trunc.K + 1), grid.ys(), params.kappa).T)
    ez = factor_table(np.arange(1, trunc.L + 1), grid.zs(), params.eta)
    eyT_points = eyT[index_y]

    def visit(i, states):
        x = states.reshape(trunc.K, trunc.L)
        c = slot.get(i)
        if c is None:
            points[i] = (eyT_points @ x @ ez)[:, index_z]
        else:
            slices[c] = eyT @ x @ ez

    _sweep(params, kind, grid, trunc, init, seed, range(rep, rep + 1), visit)
    points[coarse] = slices[:, index_y[:, None], index_z]
    return Observation(points=points, slices=slices, grid=grid,
                       index_y=index_y, index_z=index_z, coarse=coarse,
                       provenance=_provenance(params, kind, trunc, seed, rep))


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
    for y, z in pts:
        check_point(y, z)
    ys = np.array([p[0] for p in pts])
    zs = np.array([p[1] for p in pts])
    ek = factor_table(np.arange(1, trunc.K + 1), ys, params.kappa)
    el = factor_table(np.arange(1, trunc.L + 1), zs, params.eta)
    etab = (ek[:, None, :] * el[None, :, :]).reshape(-1, len(pts))
    return _observe(params, kind, grid, trunc, ZERO_INITIAL, seed, first_rep,
                    reps, (len(pts),), lambda x: x @ etab,
                    "point-value storage")
