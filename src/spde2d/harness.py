"""Seeded Monte Carlo orchestration of the simulate -> estimate pipeline.

One replication simulates what estimation reads of a field, its
observation record: the values at the interior thinning at every time and
the slices at the coarse times.  It computes the squared-increment
statistic on the interior thinning, fits (scale, kappa, eta) by minimum
contrast, reconstructs the (1,1) and (1,2) coordinate paths on the coarse
time grid, and applies the plug-in for the configured noise case.
Replication ``r`` draws its noise from streams keyed by ``(seed, r)``, so
records are reproducible bit-for-bit whatever the executor schedule, and
summaries aggregate records in replication order.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernels
from .contrast import ContrastConfig, MinimumContrastFit, minimize_contrast
from .errors import ConfigError, GridMismatchError
from .increments import build_space_thinning, squared_increment_field
from .model import DerivedRatios, Mode, ModelParams, NoiseKind
from .plugins import (PluginEstimates, q1_plugin, q2_known_plugin,
                      q2_unknown_plugin)
from .reconstruct import approx_coordinate, build_time_thinning, realized_qv
# simulate_field is not called here; perfbench's tracer swaps this name
from .simulate import (FieldSample, Observation, RngSeed, SpaceTimeGrid,
                       TruncationSpec, observe_sample, simulate_field,
                       simulate_observation)


@dataclass(frozen=True)
class ThinningConfig:
    mbar1: int = 6
    mbar2: int = 6
    delta: float = 0.05
    n: int = 100


@dataclass(frozen=True)
class Exponents:
    """Rate exponents used only for the reported diagnostic ratios."""

    gamma: float = 0.26
    epsilon: float = 0.499


@dataclass(frozen=True)
class ExperimentConfig:
    params: ModelParams
    kind: NoiseKind
    grid: SpaceTimeGrid
    trunc: TruncationSpec
    thinning: ThinningConfig
    contrast: ContrastConfig
    replications: int
    seed: RngSeed
    exponents: Exponents = Exponents()

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError(
                f"replications must be >= 1, got {self.replications}")
        if self.kind.is_q2 and self.params.mu0 is None:
            raise ConfigError("Q2 noise requires params.mu0")

    def to_dict(self) -> dict:
        contrast = {k: list(v) if isinstance(v, tuple) else v
                    for k, v in asdict(self.contrast).items()}
        return {
            "params": asdict(self.params),
            "kind": self.kind.value,
            "grid": asdict(self.grid),
            "truncation": asdict(self.trunc),
            "thinning": asdict(self.thinning),
            "contrast": contrast,
            "replications": self.replications,
            "seed": self.seed.master,
            "exponents": asdict(self.exponents),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Build a configuration from ``d``, taking every missing key from
        ``default_config()``; unknown keys raise ``ConfigError``."""
        try:
            c = _merge(default_config().to_dict(), d, "")
            return cls(params=ModelParams(**c["params"]),
                       kind=NoiseKind(c["kind"]),
                       grid=SpaceTimeGrid(**c["grid"]),
                       trunc=TruncationSpec(**c["truncation"]),
                       thinning=ThinningConfig(**c["thinning"]),
                       contrast=ContrastConfig(**c["contrast"]),
                       replications=c["replications"],
                       seed=RngSeed(c["seed"]),
                       exponents=Exponents(**c["exponents"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"invalid experiment configuration: {exc}") from exc


def _merge(default, value, where: str):
    """``value`` over ``default``, coerced to the type of the default: a
    list default gives a tuple of as many elements, each coerced like its
    default element, and a null default a float or null.  A value that the
    coercion would change, or a boolean, is refused."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            what = f"section {where[:-1]!r}" if where else "file"
            raise ConfigError(f"configuration {what} must be an object, "
                              f"got {value!r}")
        for key in value:
            if key not in default:
                raise ConfigError(
                    f"unknown configuration key {where + key!r}")
        return {key: _merge(dv, value.get(key, dv), f"{where}{key}.")
                for key, dv in default.items()}
    if default is None:
        return None if value is None else _merge(0.0, value, where)
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)) or len(value) != len(default):
            raise ConfigError(f"configuration key {where[:-1]!r} must be a "
                              f"list of {len(default)}, got {value!r}")
        return tuple(_merge(d, v, where) for d, v in zip(default, value))
    if isinstance(default, str):
        return value
    coerced = type(default)(value)
    if isinstance(value, bool) or coerced != value:
        raise ConfigError(f"configuration key {where[:-1]!r} must be "
                          f"{type(default).__name__}, got {value!r}")
    return coerced


def default_config() -> ExperimentConfig:
    """Desk-scale default: N=1000, M1=M2=50, K=L=256, five interior points
    per axis, coarse time count 100, 25 replications.

    The one home of the configuration defaults, together with the defaults
    of ``ThinningConfig``, ``ContrastConfig`` and ``Exponents``.
    """
    return ExperimentConfig(
        params=ModelParams(theta0=0.0, theta1=0.2, eta1=0.2, theta2=0.2,
                           sigma=1.0, alpha=0.5, mu0=None),
        kind=NoiseKind.Q1, grid=SpaceTimeGrid(N=1000, M1=50, M2=50),
        trunc=TruncationSpec(K=256, L=256), thinning=ThinningConfig(),
        contrast=ContrastConfig(), replications=25, seed=RngSeed(1))


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


@dataclass(frozen=True)
class ReplicationRecord:
    rep_index: int
    fit: MinimumContrastFit
    qv11: float
    qv12: float
    estimates: PluginEstimates
    degenerate_input: bool

    def to_dict(self) -> dict:
        d = {
            "rep_index": self.rep_index,
            "scale_hat": self.fit.scale,
            "kappa_hat": self.fit.kappa_hat,
            "eta_hat": self.fit.eta_hat,
            "contrast": self.fit.contrast,
            "converged": self.fit.converged,
            "n_restarts_used": self.fit.n_restarts_used,
            "qv11": self.qv11,
            "qv12": self.qv12,
            "degenerate_input": self.degenerate_input,
        }
        d.update(self.estimates.to_dict())
        return d


def estimate_field(config: ExperimentConfig,
                   observed: FieldSample | Observation,
                   rep_index: int = 0) -> ReplicationRecord:
    """Run the estimation pipeline on a stored field or on its observation
    record; both give the same record, bit for bit."""
    grid = observed.grid
    if (grid.N, grid.M1, grid.M2) != (config.grid.N, config.grid.M1,
                                      config.grid.M2):
        raise GridMismatchError(
            f"field grid ({grid.N}, {grid.M1}, {grid.M2}) does not match "
            f"config grid ({config.grid.N}, {config.grid.M1}, {config.grid.M2})")
    thin, tt = _thinnings(config)
    obs = (observed if isinstance(observed, Observation) else
           observe_sample(observed, thin.index_y, thin.index_z, tt.indices))
    zfield = squared_increment_field(obs, thin, config.params.alpha)
    degenerate = bool(np.all(zfield.values == 0.0))
    fit = minimize_contrast(zfield, thin, config.params.alpha, config.contrast)
    path11 = approx_coordinate(obs, Mode(1, 1), fit.kappa_hat, fit.eta_hat,
                               tt)
    path12 = approx_coordinate(obs, Mode(1, 2), fit.kappa_hat, fit.eta_hat,
                               tt)
    qv11 = realized_qv(path11).value
    qv12 = realized_qv(path12).value
    alpha = config.params.alpha
    if config.kind is NoiseKind.Q1:
        est = q1_plugin(fit.scale, fit.kappa_hat, fit.eta_hat, qv11, qv12,
                        alpha)
    elif config.kind is NoiseKind.Q2_KNOWN_MU0:
        est = q2_known_plugin(fit.scale, fit.kappa_hat, fit.eta_hat, qv11,
                              config.params.require_mu0(), alpha)
    else:
        est = q2_unknown_plugin(fit.scale, fit.kappa_hat, fit.eta_hat, qv11,
                                qv12, alpha)
    return ReplicationRecord(rep_index=rep_index, fit=fit, qv11=qv11,
                             qv12=qv12, estimates=est,
                             degenerate_input=degenerate)


def _thinnings(config: ExperimentConfig):
    """The space and time thinnings that estimation reads."""
    c = config.thinning
    return (build_space_thinning(config.grid.M1, config.grid.M2, c.mbar1,
                                 c.mbar2, c.delta),
            build_time_thinning(config.grid.N, c.n))


def run_replication(config: ExperimentConfig, rep_index: int
                    ) -> ReplicationRecord:
    """Simulate and estimate one replication; deterministic in
    (seed, rep_index).  Only the observation record is simulated, not the
    field: the record equals that of ``simulate_field``'s field."""
    thin, tt = _thinnings(config)
    obs = simulate_observation(config.params, config.kind, config.grid,
                               config.trunc, thin.index_y, thin.index_z,
                               tt.indices, seed=config.seed, rep=rep_index)
    return estimate_field(config, obs, rep_index)


def _true_values(config: ExperimentConfig) -> dict[str, float]:
    p = config.params
    ratios = DerivedRatios.from_params(p)
    out = {"kappa": ratios.kappa, "eta": ratios.eta,
           "theta1": p.theta1, "eta1": p.eta1, "theta2": p.theta2,
           "sigma2": p.sigma ** 2}
    if config.kind is NoiseKind.Q1:
        out["s"] = ratios.s
        out["theta0"] = p.theta0
    else:
        out["S"] = ratios.S
        if config.kind is NoiseKind.Q2_UNKNOWN_MU0:
            out["mu0"] = p.require_mu0()
    return out


def _parameter_order(kind: NoiseKind) -> list[str]:
    if kind is NoiseKind.Q1:
        return ["s", "kappa", "eta", "theta0", "theta1", "eta1", "theta2",
                "sigma2"]
    if kind is NoiseKind.Q2_KNOWN_MU0:
        return ["S", "kappa", "eta", "theta1", "eta1", "theta2", "sigma2"]
    return ["S", "kappa", "eta", "mu0", "theta1", "eta1", "theta2", "sigma2"]


def _record_value(record: ReplicationRecord, name: str) -> float | None:
    if name in ("s", "S"):
        return record.fit.scale
    if name == "kappa":
        return record.fit.kappa_hat
    if name == "eta":
        return record.fit.eta_hat
    return getattr(record.estimates, name)


def diagnostics(config: ExperimentConfig) -> dict[str, float]:
    """Realized values of the rate conditions linking n, m, N, M."""
    a = config.params.alpha
    g = config.exponents.gamma
    eps = config.exponents.epsilon
    n = config.thinning.n
    thin = build_space_thinning(config.grid.M1, config.grid.M2,
                                config.thinning.mbar1, config.thinning.mbar2,
                                config.thinning.delta)
    m = thin.m
    nn = config.grid.N
    mmin = min(config.grid.M1, config.grid.M2)
    return {
        "n^(1-alpha)/(m N^(2 gamma))": n ** (1.0 - a) / (m * nn ** (2.0 * g)),
        "n^(2-alpha)/(m N^(2 gamma))": n ** (2.0 - a) / (m * nn ** (2.0 * g)),
        "n^(1-alpha+eps)/(min(M1,M2)^(2 eps))":
            n ** (1.0 - a + eps) / mmin ** (2.0 * eps),
        "n^(2-alpha+eps)/(min(M1,M2)^(2 eps))":
            n ** (2.0 - a + eps) / mmin ** (2.0 * eps),
    }


def csv_text(columns, rows) -> str:
    """CSV with a header line: floats written by ``repr`` (round-trip
    exact), ``None`` as an empty cell, anything else by ``str``."""

    def cell(v) -> str:
        if v is None:
            return ""
        return repr(float(v)) if isinstance(v, float) else str(v)

    lines = [",".join(columns)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SummaryTable:
    """Per-parameter means and standard deviations over the non-failing
    replications, with failure accounting and the full record list."""

    kind: NoiseKind
    replications: int
    rows: list
    diagnostics: dict
    records: list
    config: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        columns = ("parameter", "true", "mean", "sd", "fail_count")
        return csv_text(columns, ([row[c] for c in columns]
                                  for row in self.rows))

    def to_json(self) -> str:
        payload = {
            "kind": self.kind.value,
            "replications": self.replications,
            "rows": self.rows,
            "diagnostics": self.diagnostics,
            "config": self.config,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def records_json(self) -> str:
        payload = {
            "config": self.config,
            "records": [r.to_dict() for r in self.records],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _summarize(config: ExperimentConfig, records: list) -> SummaryTable:
    truth = _true_values(config)
    rows = []
    for name in _parameter_order(config.kind):
        values = []
        for rec in records:
            v = _record_value(rec, name)
            if v is not None:
                values.append(float(v))
        n_ok = len(values)
        mean = math.fsum(values) / n_ok if n_ok else None
        if n_ok >= 2:
            sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values)
                           / (n_ok - 1))
        else:
            sd = None
        rows.append({"parameter": name, "true": truth[name], "mean": mean,
                     "sd": sd, "fail_count": len(records) - n_ok})
    return SummaryTable(kind=config.kind, replications=config.replications,
                        rows=rows, diagnostics=diagnostics(config),
                        records=records, config=config.to_dict())


def run_monte_carlo(config: ExperimentConfig, threads: int = 1
                    ) -> SummaryTable:
    """Run all replications, optionally across worker processes, and
    aggregate.  Replications are deterministic in (seed, rep_index) and
    records are sorted before summarizing, so the output is byte-identical
    whatever the worker count.  Worker processes sidestep the interpreter
    lock; pin the BLAS pool to one thread per process when using several.
    The caller's kernel threads are joined before the workers fork.
    """
    if not (isinstance(threads, int) and threads >= 1):
        raise ConfigError(f"threads must be an integer >= 1, got {threads!r}")
    indices = list(range(config.replications))
    if threads == 1:
        records = [run_replication(config, r) for r in indices]
    else:
        kernels.drop_pool()
        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(run_replication,
                                    [config] * len(indices), indices))
    records.sort(key=lambda rec: rec.rep_index)
    return _summarize(config, records)


@dataclass(frozen=True)
class CrossSection:
    """2-D slice of a field sample at a fixed coordinate, plot-ready."""

    axis: str
    level: float
    names: tuple[str, str]
    coords1: np.ndarray
    coords2: np.ndarray
    values: np.ndarray

    def rows(self):
        for i, a in enumerate(self.coords1):
            for j, b in enumerate(self.coords2):
                yield (float(a), float(b)), float(self.values[i, j])

    def to_csv(self) -> str:
        return csv_text((*self.names, "value"),
                        ((a, b, v) for (a, b), v in self.rows()))


def _grid_index(coords: np.ndarray, level: float, what: str) -> int:
    hits = np.nonzero(coords == level)[0]
    if hits.size == 0:
        raise ConfigError(f"level {level!r} is not a grid node of the {what} axis")
    return int(hits[0])


def cross_section_dump(field_sample: FieldSample, axis: str,
                       level: float) -> CrossSection:
    """Slice the field at an exact grid node of the chosen axis."""
    grid = field_sample.grid
    if axis == "t":
        i = _grid_index(grid.times(), level, "time")
        return CrossSection(axis=axis, level=level, names=("y", "z"),
                            coords1=grid.ys(), coords2=grid.zs(),
                            values=field_sample.values[i])
    if axis == "y":
        j = _grid_index(grid.ys(), level, "y")
        return CrossSection(axis=axis, level=level, names=("t", "z"),
                            coords1=grid.times(), coords2=grid.zs(),
                            values=field_sample.values[:, j, :])
    if axis == "z":
        j = _grid_index(grid.zs(), level, "z")
        return CrossSection(axis=axis, level=level, names=("t", "y"),
                            coords1=grid.times(), coords2=grid.ys(),
                            values=field_sample.values[:, :, j])
    raise ConfigError(f"axis must be one of t, y, z, got {axis!r}")
